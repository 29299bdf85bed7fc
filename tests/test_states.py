"""State construction, wavefunction evaluation, and density matrices."""

import json
from math import pi, sqrt

import numpy as np
import pytest

from cylwigner.specfun import bessel_i
from cylwigner.states import (
    DensityMatrix,
    FourierState,
    basis_state,
    cat_state,
    evaluate_wavefunction,
    pure_density,
    state_expectation_L,
    von_mises_state,
)


class TestBasisState:
    def test_single_coefficient(self):
        st = basis_state(0, 0.0)
        assert st.n_min == st.n_max == 0
        assert st.coeffs[0] == 1.0 + 0.0j

    def test_window_follows_index(self):
        st = basis_state(3)
        assert (st.n_min, st.n_max) == (3, 3)
        assert st.norm() == pytest.approx(1.0, abs=1e-15)

    def test_covering_parameter_stored(self):
        st = basis_state(1, 0.25)
        assert st.delta == 0.25
        assert st.coeffs[0] == 1.0 + 0.0j

    def test_constant_angle_density(self):
        st = basis_state(2)
        phis = np.linspace(-pi, pi, 17)
        vals = evaluate_wavefunction(st, phis)
        assert np.allclose(np.abs(vals), 1.0, atol=1e-15)


class TestCatState:
    def test_symmetric_superposition(self):
        st = cat_state(0.0)
        assert (st.n_min, st.n_max) == (-1, 1)
        assert st.coeffs[2] == pytest.approx(1 / sqrt(2))
        assert st.coeffs[0] == pytest.approx(1 / sqrt(2))
        assert st.coeffs[1] == 0.0

    def test_antisymmetric_phase(self):
        st = cat_state(pi)
        assert st.coeffs[0] == pytest.approx(-1 / sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, pi, 2.7, -1.3])
    def test_normalized_for_any_phase(self, alpha):
        assert cat_state(alpha).norm() == pytest.approx(1.0, abs=1e-15)

    def test_wavefunction_is_sqrt2_cosine(self):
        st = cat_state(0.0)
        for phi in np.linspace(-pi, pi, 13):
            assert evaluate_wavefunction(st, float(phi)) == pytest.approx(
                sqrt(2) * np.cos(phi), abs=1e-14
            )

    def test_non_finite_phase_rejected(self):
        with pytest.raises(ValueError):
            cat_state(float("nan"))


class TestVonMisesState:
    def test_small_s_limit_is_basis_like(self):
        st = von_mises_state(1e-8, 0.0)
        probs = np.abs(st.coeffs) ** 2
        center = -st.n_min
        assert probs[center] == pytest.approx(1.0, abs=1e-8)

    def test_central_probability_value(self):
        st = von_mises_state(0.5, 0.0)
        # I_0(1/2)^2 / I_0(1), cross-checked against bessel_i at runtime
        frozen = 0.893315979616712
        assert bessel_i(0, 0.5) ** 2 / bessel_i(0, 1.0) == pytest.approx(frozen, abs=1e-14)
        assert abs(st.coeffs[-st.n_min]) ** 2 == pytest.approx(frozen, abs=1e-12)

    def test_coefficient_profile(self):
        s = 0.8
        st = von_mises_state(s, 0.0)
        norm = sqrt(bessel_i(0, 2 * s))
        for m in range(-4, 5):
            want = bessel_i(m, s) / norm
            assert st.coeffs[m - st.n_min] == pytest.approx(want, abs=1e-13)

    def test_window_contains_all_significant_coefficients(self):
        # the auto-sized window edge carries no weight above 1e-14
        for s in (0.25, 1.0, 3.0):
            st = von_mises_state(s, 0.4)
            assert abs(st.coeffs[0]) < 1e-14
            assert abs(st.coeffs[-1]) < 1e-14

    def test_mean_momentum(self):
        assert state_expectation_L(von_mises_state(1.0, 2.3)) == pytest.approx(2.3, abs=1e-8)

    def test_angle_density_matches_closed_form(self):
        s = 0.7
        st = von_mises_state(s, 0.0)
        phis = np.linspace(-pi, pi, 41)
        density = np.abs(evaluate_wavefunction(st, phis)) ** 2
        want = np.exp(2 * s * np.cos(phis)) / bessel_i(0, 2 * s)
        assert np.max(np.abs(density - want)) <= 1e-8

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0])
    def test_normalization_identity(self, s):
        total = sum(bessel_i(k, s) ** 2 for k in range(-40, 41)) / bessel_i(0, 2 * s)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert von_mises_state(s, 0.0).norm() == pytest.approx(1.0, abs=1e-12)

    def test_covering_split_of_mean_momentum(self):
        st = von_mises_state(0.5, 2.3)
        assert st.delta == pytest.approx(0.3, abs=1e-12)
        st_neg = von_mises_state(0.5, -0.3)
        assert st_neg.delta == pytest.approx(0.7, abs=1e-12)
        assert 0.0 <= st_neg.delta < 1.0

    def test_coefficients_independent_of_covering(self):
        # shifting p_e by one relabels the window but not the profile
        low = von_mises_state(0.8, 0.3)
        high = von_mises_state(0.8, 1.3)
        assert high.n_min - low.n_min == 1
        assert np.array_equal(low.coeffs, high.coeffs)

    def test_discarded_mass_recorded_and_small(self):
        st = von_mises_state(2.0, 0.0)
        assert 0.0 <= st.discarded_mass < 1e-12
        tight = von_mises_state(2.0, 0.0, window_half_width=3)
        assert tight.discarded_mass > 1e-8
        assert tight.norm() == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            von_mises_state(0.0, 0.0)
        with pytest.raises(ValueError):
            von_mises_state(-1.0, 0.0)
        with pytest.raises(ValueError):
            von_mises_state(1.0, 0.0, window_half_width=0)


class TestEvaluateWavefunction:
    def test_basis_state_is_pure_phase(self):
        st = basis_state(0, 0.0)
        for phi in (-2.0, 0.0, 1.3):
            assert evaluate_wavefunction(st, phi) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            delta = float(rng.uniform(0, 1))
            st = von_mises_state(0.6, 1.0 + delta)
            phi = float(rng.uniform(-pi, pi))
            lhs = evaluate_wavefunction(st, phi + 2 * pi)
            rhs = np.exp(1j * 2 * pi * st.delta) * evaluate_wavefunction(st, phi)
            assert abs(lhs - rhs) <= 1e-12

    def test_array_shape_preserved(self):
        st = cat_state(0.0)
        phis = np.linspace(-1, 1, 6).reshape(2, 3)
        assert evaluate_wavefunction(st, phis).shape == (2, 3)


class TestExpectationL:
    def test_basis_eigenvalue(self):
        assert state_expectation_L(basis_state(4)) == 4.0
        assert state_expectation_L(basis_state(4, 0.25)) == pytest.approx(4.25)

    def test_cat_balance(self):
        assert state_expectation_L(cat_state(1.1)) == pytest.approx(0.0, abs=1e-15)


class TestPureDensity:
    def test_basis_projector(self):
        rho = pure_density(basis_state(0))
        assert rho.entries.shape == (1, 1)
        assert rho.entries[0, 0] == 1.0 + 0.0j

    def test_cat_outer_product(self):
        rho = pure_density(cat_state(0.0))
        i1, im1 = 2, 0
        assert rho.entries[i1, i1] == pytest.approx(0.5)
        assert rho.entries[im1, im1] == pytest.approx(0.5)
        assert rho.entries[i1, im1] == pytest.approx(0.5)

    @pytest.mark.parametrize("state_fn", [lambda: basis_state(1), lambda: cat_state(0.7), lambda: von_mises_state(0.5, 0.6)])
    def test_projector_properties(self, state_fn):
        rho = pure_density(state_fn())
        m = rho.entries
        assert np.max(np.abs(m @ m - m)) <= 1e-10
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-10)

    def test_validation_rejects_bad_matrices(self):
        bad = DensityMatrix(delta=0.0, n_min=0, entries=np.array([[0.5, 0.5], [0.1, 0.5]]))
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize(
        "row, col, residual",
        [
            (0, 299, "1.000e-03"),
            (299, 0, "1.000e-03"),
            (257, 255, "1.000e-03"),
            (280, 290, "1.000e-03"),
            (299, 299, "2.000e-03"),  # on the diagonal: |2i * 1e-3|
        ],
    )
    def test_hermiticity_residual_over_every_row_block(self, row, col, residual):
        # K = 300 spans two row blocks; a defect anywhere is seen at its full size
        entries = np.eye(300, dtype=complex) / 300
        entries[row, col] += 1e-3j
        with pytest.raises(ValueError, match=rf"not Hermitian \(residual {residual}\)"):
            DensityMatrix(delta=0.0, n_min=0, entries=entries).validate()


class TestSerialization:
    def test_state_round_trip(self):
        st = von_mises_state(0.9, 1.6)
        data = json.loads(json.dumps(st.to_dict()))
        back = FourierState.from_dict(data)
        assert back.delta == st.delta
        assert back.n_min == st.n_min
        assert np.allclose(back.coeffs, st.coeffs, atol=1e-16)

    def test_discarded_mass_round_trip(self):
        tight = von_mises_state(2.0, 0.0, window_half_width=3)
        assert tight.discarded_mass > 1e-8
        back = FourierState.from_dict(json.loads(json.dumps(tight.to_dict())))
        assert back.discarded_mass == tight.discarded_mass

    def test_payload_without_discarded_mass(self):
        data = cat_state(0.5).to_dict()
        del data["discarded_mass"]
        assert FourierState.from_dict(data).discarded_mass == 0.0

    def test_density_round_trip(self):
        rho = pure_density(cat_state(0.4))
        data = json.loads(json.dumps(rho.to_dict()))
        back = DensityMatrix.from_dict(data)
        assert back.n_min == rho.n_min
        assert np.allclose(back.entries, rho.entries, atol=1e-16)

    def test_coefficients_stored_as_pairs(self):
        payload = cat_state(0.5).to_dict()
        assert set(payload) == {"delta", "n_min", "coeffs", "discarded_mass"}
        assert all(len(pair) == 2 for pair in payload["coeffs"])


class TestImmutability:
    def test_coefficients_read_only(self):
        st = cat_state(0.0)
        with pytest.raises(ValueError):
            st.coeffs[0] = 0.0

    def test_density_read_only(self):
        rho = pure_density(cat_state(0.0))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            FourierState(delta=1.5, n_min=0, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            FourierState(delta=0.0, n_min=0, coeffs=np.array([]))
        with pytest.raises(ValueError):
            DensityMatrix(delta=0.0, n_min=0, entries=np.ones((2, 3)))
