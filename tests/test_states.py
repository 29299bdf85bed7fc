"""State construction, wavefunction evaluation, and density matrices."""

import json
import os
import subprocess
import sys
from math import ceil, log10, pi, sqrt
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylwigner import states
from cylwigner.specfun import bessel_i, bessel_i_scaled
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
from oracle import true_wavefunction


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

    # s log-uniform over [0.5, 1e7]; the s of the README's window sizes are examples
    @settings(max_examples=40, deadline=None)
    @given(st.floats(log10(0.5), 7.0).map(lambda e: 10.0**e))
    @example(0.5)
    @example(12.0)
    @example(100.0)
    @example(1000.0)
    @example(1e7)
    def test_default_window_keeps_exactly_the_coefficients_above_the_cut(self, s):
        cut = 2.0**-60
        state = von_mises_state(s, 0.25)
        half = state.coeffs.size // 2
        assert type(state.n_min) is int and state.n_min == -half
        mags = np.abs(state.coeffs)
        assert mags[0] >= cut * mags[half] and mags[-1] >= cut * mags[half]
        # dropped coefficients from a width of 4 s + 15 where it fits, else twice the window
        wide = ceil(4.0 * s + 15.0) if s <= 2000.0 else 2 * half
        full = bessel_i_scaled(wide, s)
        assert np.all(full[half + 1 :] < cut * full[0])
        assert state.discarded_mass <= 1e-12
        again = von_mises_state(s, 0.25)
        assert again.n_min == state.n_min and again.coeffs.tobytes() == state.coeffs.tobytes()

    @pytest.mark.parametrize("s, size", [(0.5, 27), (12.0, 73), (100.0, 187), (1000.0, 579)])
    def test_default_window_sizes(self, s, size):
        assert von_mises_state(s, 0.0).coeffs.size == size

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

    def test_largest_supported_s(self, monkeypatch):
        # at the limit both Bessel recurrences fit: K = 1,421,109
        state = von_mises_state(6.07e9, 0.25)
        assert state.coeffs.size == 1421109 and state.n_min == -710554
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

        def refuse(*args):
            raise AssertionError("a Bessel recurrence ran for a refused s")

        monkeypatch.setattr(states, "bessel_i_scaled", refuse)
        for s in (float(np.nextafter(6.07e9, np.inf)), 1e10):
            with pytest.raises(ValueError, match=rf"s = {s!r} is above 6070000000.0, the largest s"):
                von_mises_state(s, 0.25)

    @pytest.mark.parametrize("p_e", [1e20, -1e20, 5e18])
    def test_window_outside_the_index_range_refused(self, p_e):
        with pytest.raises(ValueError, match=r"index window \[-?\d+, -?\d+\] leaves \|n\| < 2\*\*62"):
            von_mises_state(0.5, p_e)


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

    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan, [0.0, np.nan], np.array([[1.0], [np.inf]])])
    def test_non_finite_angles_rejected(self, phi):
        with pytest.raises(ValueError, match="angles must be finite"):
            evaluate_wavefunction(von_mises_state(0.6, 0.3), phi)

    def test_scalar_angle_gives_a_complex(self):
        st = von_mises_state(0.6, 0.3)
        value = evaluate_wavefunction(st, 0.7)
        assert type(value) is complex
        assert value == pytest.approx(evaluate_wavefunction(st, np.array([0.7, 1.2]))[0], abs=1e-15)


_BLOCKED_WAVEFUNCTION = """
from unittest import mock
import numpy as np
from cylwigner import _kernels, states
rng = np.random.default_rng(16)
phis = rng.uniform(-7.0, 7.0, 1001)
for K, n_min in ((3, -1), (40, -20), (40, 10**9), (129, -(10**12))):
    coeffs = rng.normal(size=K) + 1j * rng.normal(size=K)
    st = states.FourierState(delta=0.37, n_min=n_min, coeffs=coeffs / np.linalg.norm(coeffs))
    one_pass = states.evaluate_wavefunction(st, phis)
    for block in (1, 64, 5000):
        with mock.patch.object(_kernels, "_TABLE_BLOCK", block):
            assert states.evaluate_wavefunction(st, phis).tobytes() == one_pass.tobytes(), (K, n_min, block)
"""


class TestBlockedWavefunction:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blocks_match_one_pass(self, threads):
        # the row form P @ c sums each angle's row on its own, so blocks of
        # 16 angles and one pass give the same bits at any BLAS thread count
        # (the former K x N form c @ P differed at two threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(states.__file__).parents[1]), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", _BLOCKED_WAVEFUNCTION], env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()

    def test_memory_bounded_by_the_block(self, traced):
        # K = 18,241: the whole K x N phase matrix and its temporaries took
        # 250.6 MiB, the blocked phase columns peak at 9.5 MiB
        state = von_mises_state(1e6, 0.0)
        thetas = np.linspace(-pi, pi, 181)
        values, peak = traced(evaluate_wavefunction, state, thetas)
        assert values.shape == (181,)
        assert peak < 48 * 2**20


def _seeded_window(n_min):
    """A K <= 14 window at ``n_min`` with ``delta = 0.37`` and twelve angles
    up to ``|phi| = 40``, drawn from a seed: (n_min, delta, coeffs, phis)."""
    rng = np.random.default_rng(n_min + 100)
    K = min(14, 64 - n_min)
    coeffs = rng.normal(size=K) + 1j * rng.normal(size=K)
    phis = np.concatenate([rng.uniform(-pi, pi, 9), [0.0, 7.5, -40.0]])
    return n_min, 0.37, (coeffs / np.linalg.norm(coeffs)).tolist(), phis.tolist()


# the stated bound, |psi - truth| <= _TRUTH_C eps sum |c_n|: each phase
# column exp(i k phi) and the front factors exp(i n_min phi) and exp(i delta
# phi) come from exact splits, so no rounding is at the scale of n phi; 1.6
# was the largest of 3000 random windows (K <= 24, |n_min| <= 2**50, |phi|
# <= 50)
_TRUTH_C = 8.0
_ANGLES = st.floats(-50.0, 50.0) | st.integers(-50, 50).map(float)


class TestFarWavefunctionPhase:
    """Every phase, ``exp(i k phi)``, ``exp(i n_min phi)`` and ``exp(i delta
    phi)``, comes from the exact split of its product."""

    # exp(i (n + delta) phi) at phi = 0.3 (the float), from mpmath at 40 digits
    @pytest.mark.parametrize(
        "n, delta, want",
        [
            (10**9, 0.0, 0.8982171149190737 - 0.4395520611559631j),
            (10**12, 0.0, -0.9085400683742367 - 0.41779773115532504j),
            (10**12, 0.25, -0.8746805352950049 - 0.48469986710957924j),
            (-(2**51 - 1), 0.7, 0.09070012739267319 + 0.9958782490299468j),
        ],
    )
    def test_far_basis_state_is_exact(self, n, delta, want):
        # the rounded product was off by 1.1e-8 at n = 10**9 and 1.1e-5 at 10**12
        assert abs(evaluate_wavefunction(basis_state(n, delta), 0.3) - want) <= 4e-16

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(-(2**50), 2**50),
        st.floats(0.0, 1.0, exclude_max=True),
        st.lists(st.complex_numbers(min_magnitude=2**-20, max_magnitude=1.0), min_size=1, max_size=24),
        st.lists(_ANGLES, min_size=1, max_size=6),
    )
    # windows of indices |n| < 64 on angles up to |phi| = 40: each of them
    # misses the bound when a phase is the rounded product (n + delta) phi
    @example(*_seeded_window(-63))
    @example(*_seeded_window(-20))
    @example(*_seeded_window(0))
    @example(*_seeded_window(17))
    @example(*_seeded_window(50))
    def test_within_the_bound_of_the_truth(self, n_min, delta, coeffs, phis):
        state = FourierState(delta=delta, n_min=n_min, coeffs=coeffs)
        got = evaluate_wavefunction(state, np.array(phis))
        bound = _TRUTH_C * np.finfo(float).eps * float(np.sum(np.abs(state.coeffs)))
        for phi, value in zip(phis, got.tolist()):
            assert abs(mpmath.mpc(value) - true_wavefunction(state, phi)) <= bound, phi

    def test_overflowing_phase_product_is_refused(self):
        # n phi = 1e312 overflowed in the split, and the value was NaN
        with pytest.raises(ValueError, match=r"phase product of angle 1e\+300 and index 1000000000000 overflows"):
            evaluate_wavefunction(basis_state(10**12), 1e300)
        # a product just inside float64 keeps a unit modulus
        assert abs(evaluate_wavefunction(basis_state(10**12, 0.5), [1e295, -1e295])) == pytest.approx(1.0, abs=1e-15)

    def test_window_beyond_the_half_integer_lattice_is_refused(self):
        with pytest.raises(ValueError, match=r"index window \[2251799813685248, 2251799813685248\] leaves \|n\| < 2\*\*51"):
            evaluate_wavefunction(basis_state(2**51), 0.3)


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

    def test_built_without_a_window_sized_validate(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("DensityMatrix.validate called")

        monkeypatch.setattr(DensityMatrix, "validate", refuse)
        rho = pure_density(von_mises_state(2.0, 0.4))
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)

    def test_unnormalized_state_refused(self):
        # ||c||^2 = 1.1: the O(K) trace check keeps the refusal and its message
        state = FourierState(delta=0.0, n_min=0, coeffs=np.array([sqrt(0.6), sqrt(0.5)]))
        with pytest.raises(ValueError, match="differs from 1"):
            pure_density(state)

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

    def test_blocked_residual_is_the_dense_formula(self):
        # validate and wigner.expectation_via_phase_space share it: the same
        # differences as the dense formula, a block of rows at a time
        rng = np.random.default_rng(64)
        for K in (1, 2, 63, 64, 65, 200):
            B = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
            for E in (B, B + B.conj().T, B + B.conj().T + 1e-13 * B):
                assert states._dense_hermitian_residual(E) == np.max(np.abs(E - E.conj().T)), K


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


# the extremes a JSON payload must carry exactly: signed zero, the smallest
# subnormal and the largest magnitudes, besides any other finite double
_EXACT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _per_entry_state_dict(state):
    return {
        "delta": state.delta,
        "n_min": state.n_min,
        "coeffs": [[float(c.real), float(c.imag)] for c in state.coeffs],
        "discarded_mass": float(state.discarded_mass),
    }


def _per_entry_density_dict(rho):
    return {
        "delta": rho.delta,
        "n_min": rho.n_min,
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in rho.entries],
    }


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _dumped(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _same_text(a, b):
    # a plain bool: pytest's diff of two long texts would take minutes on
    # every failing example hypothesis tries
    return a == b


class TestPairCodec:
    """``[re, im]`` pairs out and in: exact, and the bytes of writing each
    entry out by itself."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_EXACT_FLOATS, _EXACT_FLOATS), min_size=1, max_size=40), st.integers(-50, 50))
    def test_state_round_trip_is_exact(self, pairs, n_min):
        state = FourierState(delta=0.25, n_min=n_min, coeffs=[complex(re, im) for re, im in pairs])
        text = _dumped(state.to_dict())
        assert _same_text(text, _dumped(_per_entry_state_dict(state)))
        back = FourierState.from_dict(json.loads(text))
        assert (back.delta, back.n_min) == (state.delta, state.n_min)
        assert _same_bits(back.coeffs, state.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.lists(_EXACT_FLOATS, min_size=1, max_size=17))
    def test_density_round_trip_is_exact(self, K, pool):
        # K x K entries are too many to draw one by one: a drawn pool of
        # parts is repeated over the window
        parts = np.resize(np.array(pool), (K, K, 2))
        rho = DensityMatrix(delta=0.5, n_min=-3, entries=parts.view(np.complex128)[..., 0])
        text = _dumped(rho.to_dict())
        assert _same_text(text, _dumped(_per_entry_density_dict(rho)))
        back = DensityMatrix.from_dict(json.loads(text))
        assert (back.delta, back.n_min) == (rho.delta, rho.n_min)
        assert _same_bits(back.entries, rho.entries)


class TestImmutability:
    def test_coefficients_read_only(self):
        st = cat_state(0.0)
        with pytest.raises(ValueError):
            st.coeffs[0] = 0.0

    def test_density_read_only(self):
        rho = pure_density(cat_state(0.0))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

    def test_density_does_not_follow_a_writable_source(self):
        source = np.diag([0.25, 0.75]).astype(np.complex128)
        held_back = source.view()
        held_back.setflags(write=False)  # read-only, but its base is not
        for entries in (source, held_back):
            rho = DensityMatrix(delta=0.0, n_min=0, entries=entries)
            source[0, 0] = 9.0
            assert rho.entries[0, 0] == 0.25 and not rho.entries.flags.writeable
            source[0, 0] = 0.25

    def test_pure_density_holds_its_projector_once(self, traced):
        # K = 831: the projector is built read-only and held, not copied
        state = von_mises_state(100.0, 0.0, window_half_width=415)
        rho, peak = traced(pure_density, state)
        assert rho.entries.shape == (831, 831) and not rho.entries.flags.writeable
        assert peak < 1.25 * rho.entries.nbytes

    def test_density_holds_a_frozen_owned_array(self):
        entries = np.diag([0.25, 0.75]).astype(np.complex128)
        entries.setflags(write=False)
        assert DensityMatrix(delta=0.0, n_min=0, entries=entries).entries is entries

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            FourierState(delta=1.5, n_min=0, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            FourierState(delta=0.0, n_min=0, coeffs=np.array([]))
        with pytest.raises(ValueError):
            DensityMatrix(delta=0.0, n_min=0, entries=np.ones((2, 3)))

    @pytest.mark.parametrize("n_min, size, ok", [
        (2**62 - 2, 2, True), (2**62 - 2, 3, False), (1 - 2**62, 2, True), (-(2**62), 1, False),
    ])
    def test_window_must_keep_index_sums_in_int64(self, n_min, size, ok):
        coeffs = np.eye(size)[0]
        build = [
            lambda: FourierState(delta=0.0, n_min=n_min, coeffs=coeffs),
            lambda: DensityMatrix(delta=0.0, n_min=n_min, entries=np.diag(coeffs)),
        ]
        for make in build:
            if ok:
                assert make().n_min == n_min
            else:
                with pytest.raises(ValueError, match=f"index window \\[{n_min}, {n_min + size - 1}\\]"):
                    make()
