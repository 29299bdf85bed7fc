"""Diagonal-Hamiltonian evolution and the phase-space generator."""

from math import pi, sqrt

import numpy as np
import pytest

from cylwigner.dynamics import (
    DiagonalHamiltonian,
    evolve_density,
    evolve_state,
    k_matrix_element,
    quadratic_hamiltonian,
    wigner_time_derivative,
)
from cylwigner.states import FourierState, basis_state, cat_state, pure_density, von_mises_state
from cylwigner.thermal import ThermalParams, thermal_density
from cylwigner.wigner import (
    angular_momentum_operator,
    rescale_hbar,
    wigner_density,
    wigner_function,
    wigner_grid,
    wigner_matrix_element,
)

BAD_DELTAS = [-0.1, 1.0, 5.0, float("nan")]
BAD_HBARS = [0.0, -1.0, float("inf"), float("nan")]


def superposition_02() -> FourierState:
    # two-shell superposition with a genuinely moving phase-space density
    return FourierState(delta=0.0, n_min=0, coeffs=np.array([1.0, 0.0, 1.0]) / sqrt(2))


class TestHamiltonian:
    def test_quadratic_spectrum(self):
        H = quadratic_hamiltonian(0.5, -3, 3)
        assert H.energy(2) == 0.5 * 4
        assert H.energy(-2) == 0.5 * 4
        assert H.energy(10) == 0.5 * 100  # analytic extension

    def test_quadratic_spectrum_with_covering(self):
        H = quadratic_hamiltonian(1.0, -2, 2, delta=0.25)
        assert H.energy(1) == pytest.approx(1.25**2)

    def test_tabulated_window_bounds(self):
        H = DiagonalHamiltonian(n_min=0, eigenvalues=np.array([0.0, 1.0, 4.0]))
        assert H.energy(2) == 4.0
        with pytest.raises(ValueError):
            H.energy(3)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            DiagonalHamiltonian(n_min=0, eigenvalues=np.array([np.inf]))

    def test_holds_a_frozen_owned_array_and_copies_others(self):
        frozen = np.array([0.0, 1.0, 4.0])
        frozen.setflags(write=False)
        assert DiagonalHamiltonian(n_min=0, eigenvalues=frozen).eigenvalues is frozen
        source = np.array([0.0, 1.0, 4.0])
        H = DiagonalHamiltonian(n_min=0, eigenvalues=source)
        assert not np.shares_memory(H.eigenvalues, source) and source.flags.writeable
        assert not H.eigenvalues.flags.writeable


    @pytest.mark.parametrize("delta", BAD_DELTAS)
    @pytest.mark.parametrize(
        "build",
        [
            lambda d: DiagonalHamiltonian(n_min=0, eigenvalues=np.array([0.0, 1.0, 4.0]), delta=d),
            lambda d: quadratic_hamiltonian(1.0, 0, 2, delta=d),
            lambda d: angular_momentum_operator(0, 2, d),
        ],
        ids=["DiagonalHamiltonian", "quadratic_hamiltonian", "angular_momentum_operator"],
    )
    def test_delta_outside_the_covering_refused(self, build, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
            build(delta)

    @pytest.mark.parametrize(
        "epsilon,delta", [(0.5, 0.0), (0.731, 0.37), (1.9, 0.999), (3e-3, 0.5)]
    )
    def test_energies_match_energy_bit_for_bit(self, epsilon, delta):
        # the wide windows hold thousands of extended values, where a square
        # taken as x * x differs from the per-index x ** 2 in the last bit
        H = quadratic_hamiltonian(epsilon, -3, 4, delta=delta)
        for lo, hi in ((-3, 4), (-1, 2), (0, 0), (-6, 1), (2, 9), (-9, -4), (-2500, 2500)):
            want = np.array([H.energy(n) for n in range(lo, hi + 1)])
            assert H.energies(lo, hi).tobytes() == want.tobytes()

    def test_spectrum_is_the_same_on_any_window(self):
        # the stored window and its extension use one arithmetic for the square
        small = quadratic_hamiltonian(0.731, -3, 4, delta=0.37)
        wide = quadratic_hamiltonian(0.731, -3000, 3000, delta=0.37)
        values = np.array([small.energy(n) for n in range(-3000, 3001)])
        assert values.tobytes() == wide.eigenvalues.tobytes()
        assert small.energies(-3000, 3000).tobytes() == wide.eigenvalues.tobytes()

    def test_tabulated_energies_cover_their_window_only(self):
        H = DiagonalHamiltonian(n_min=-1, eigenvalues=np.array([0.5, -1.0, 4.0, 2.5]))
        assert H.energies(-1, 2).tolist() == [0.5, -1.0, 4.0, 2.5]
        assert H.energies(0, 1).tolist() == [-1.0, 4.0]
        for lo, hi in ((-2, 1), (0, 3), (5, 6)):
            with pytest.raises(ValueError, match="does not cover"):
                H.energies(lo, hi)


class TestEvolveState:
    def test_zero_time_identity(self):
        st = cat_state(0.3)
        H = quadratic_hamiltonian(1.0, -5, 5)
        out = evolve_state(st, H, 0.0)
        assert np.array_equal(out.coeffs, st.coeffs)

    def test_norm_preserved_exactly(self):
        st = von_mises_state(1.0, 0.4)
        H = quadratic_hamiltonian(0.7, st.n_min, st.n_max, delta=st.delta)
        for t in (0.1, 1.0, 10.0, 123.0):
            assert evolve_state(st, H, t).norm() == pytest.approx(1.0, abs=1e-14)

    def test_basis_state_stationary(self):
        st = basis_state(2)
        H = quadratic_hamiltonian(1.0, -5, 5)
        for t in (0.5, 3.0):
            evolved = evolve_state(st, H, t)
            for pt in ((0.0, 2.0), (1.0, 1.5)):
                assert wigner_function(evolved, pt) == pytest.approx(
                    wigner_function(st, pt), abs=1e-14
                )

    def test_cat_state_stationary_under_quadratic_flow(self):
        # both components share one energy shell, so only a global phase moves
        st = cat_state(0.0)
        H = quadratic_hamiltonian(0.8, -5, 5)
        axes = (np.linspace(-pi, pi, 41), np.linspace(-3, 3, 61))
        base = wigner_grid(st, *axes).values
        for t in (0.1, 1.0, 10.0):
            evolved = evolve_state(st, H, t)
            phase = np.exp(-1j * 0.8 * t)
            assert np.allclose(evolved.coeffs, phase * st.coeffs, atol=1e-14)
            grid = wigner_grid(evolved, *axes).values
            assert np.max(np.abs(grid - base)) <= 1e-12

    def test_group_law(self):
        st = von_mises_state(0.8, 0.0)
        H = quadratic_hamiltonian(1.0, st.n_min, st.n_max)
        a = evolve_state(evolve_state(st, H, 0.7), H, 0.55)
        b = evolve_state(st, H, 1.25)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12

    def test_energy_conserved(self):
        st = von_mises_state(1.0, 0.0)
        H = quadratic_hamiltonian(1.0, st.n_min, st.n_max)
        def energy(state):
            return sum(H.energy(n) * abs(c) ** 2 for n, c in zip(state.indices, state.coeffs))
        e0 = energy(st)
        for t in (0.3, 2.0, 17.0):
            assert energy(evolve_state(st, H, t)) == pytest.approx(e0, abs=1e-12)

    def test_hbar_rescales_time(self):
        st = cat_state(0.2)
        H = quadratic_hamiltonian(1.0, -2, 2)
        slow = evolve_state(st, H, 1.0, hbar=2.0)
        fast = evolve_state(st, H, 0.5, hbar=1.0)
        assert np.allclose(slow.coeffs, fast.coeffs, atol=1e-15)

    def test_window_mismatch_rejected(self):
        H = DiagonalHamiltonian(n_min=0, eigenvalues=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            evolve_state(cat_state(0.0), H, 1.0)


class TestKMatrix:
    def test_diagonal_vanishes(self):
        H = quadratic_hamiltonian(1.0, -5, 5)
        for m in range(-5, 6):
            assert k_matrix_element(m, m, H, (0.3, 0.7)) == 0.0

    def test_formula_instantiation(self):
        H = quadratic_hamiltonian(1.0, -5, 5)
        got = k_matrix_element(1, 0, H, (0.4, 0.9))
        want = 1j * 1.0 * wigner_matrix_element(1, 0, 0.0, (0.4, 0.9))
        assert got == pytest.approx(want, abs=1e-16)

    def test_far_index_refused(self):
        # wigner_matrix_element's refusal: beyond |n| < 2**51 the momenta
        # leave the half-integer lattice
        H = quadratic_hamiltonian(1.0, -5, 5)
        m = 2**52 + 1
        with pytest.raises(ValueError, match=r"leaves \|n\| < 2\*\*51"):
            k_matrix_element(m, m, H, (0.0, float(m)))

    def test_hermitian_at_fixed_point(self):
        rng = np.random.default_rng(41)
        H = quadratic_hamiltonian(0.6, -8, 8)
        for _ in range(40):
            m, n = (int(v) for v in rng.integers(-8, 9, size=2))
            pt = (float(rng.uniform(-pi, pi)), float(rng.uniform(-5, 5)))
            assert k_matrix_element(m, n, H, pt) == pytest.approx(
                np.conj(k_matrix_element(n, m, H, pt)), abs=1e-15
            )

    def test_trace_vanishes_on_symmetric_windows(self):
        H = quadratic_hamiltonian(1.0, -6, 6)
        for pt in ((0.0, 0.0), (1.1, -2.3)):
            trace = sum(k_matrix_element(m, m, H, pt) for m in range(-6, 7))
            assert trace == 0.0


class TestTimeDerivative:
    def test_stationary_states_have_zero_rate(self):
        H = quadratic_hamiltonian(1.0, -5, 5)
        for st in (basis_state(1), cat_state(0.0)):
            for pt in ((0.0, 0.5), (0.9, 1.0)):
                assert wigner_time_derivative(st, H, pt) == pytest.approx(0.0, abs=1e-14)

    def test_two_shell_cross_term(self):
        st = superposition_02()
        H = quadratic_hamiltonian(1.0, 0, 2)
        for theta, p in ((0.7, 0.9), (-1.2, 1.8), (0.2, 0.1)):
            # cross terms between shells 0 and 4 drive the motion:
            # d/dt = 2 * Re[i (E_0 - E_2) conj(c_0) c_2 V_02]
            v02 = wigner_matrix_element(0, 2, 0.0, (theta, p))
            want = 2.0 * np.real(1j * (0.0 - 4.0) * 0.5 * v02)
            assert wigner_time_derivative(st, H, (theta, p)) == pytest.approx(want, abs=1e-14)

    def test_finite_difference_agreement(self):
        st = superposition_02()
        H = quadratic_hamiltonian(1.0, 0, 2)
        dt = 1e-4
        for pt in ((0.7, 0.9), (-1.2, 1.8), (0.3, -0.5)):
            plus = wigner_function(evolve_state(st, H, dt), pt)
            minus = wigner_function(evolve_state(st, H, -dt), pt)
            fd = (plus - minus) / (2 * dt)
            assert wigner_time_derivative(st, H, pt) == pytest.approx(fd, abs=1e-6)


class TestEvolveDensity:
    def test_diagonal_density_invariant(self):
        rho = thermal_density(ThermalParams(1.0))
        H = quadratic_hamiltonian(1.0, rho.n_min, rho.n_max)
        for t in (0.1, 1.0, 10.0):
            evolved = evolve_density(rho, H, t)
            assert np.array_equal(evolved.entries, rho.entries)

    def test_pure_state_consistency(self):
        st = cat_state(0.4)
        H = quadratic_hamiltonian(0.9, -3, 3)
        t = 1.7
        via_density = evolve_density(pure_density(st), H, t)
        via_state = pure_density(evolve_state(st, H, t))
        assert np.max(np.abs(via_density.entries - via_state.entries)) <= 1e-14

    def test_trace_and_hermiticity_preserved(self):
        st = superposition_02()
        rho = pure_density(st)
        H = quadratic_hamiltonian(1.0, 0, 2)
        evolved = evolve_density(rho, H, 2.3)
        evolved.validate(herm_tol=1e-14, trace_tol=1e-12)
        assert np.array_equal(np.diag(evolved.entries), np.diag(rho.entries))

    def test_density_rate_matches_generator_contraction(self):
        # d/dt tr[rho V] by central difference vs sum of rho K entries
        st = superposition_02()
        rho = pure_density(st)
        H = quadratic_hamiltonian(1.0, 0, 2)
        dt = 1e-4
        for pt in ((0.7, 0.9), (-0.4, 1.2)):
            plus = wigner_density(evolve_density(rho, H, dt), pt)
            minus = wigner_density(evolve_density(rho, H, -dt), pt)
            fd = (plus - minus) / (2 * dt)
            analytic = sum(
                rho.entries[m, n] * k_matrix_element(n + rho.n_min, m + rho.n_min, H, pt)
                for m in range(3)
                for n in range(3)
            )
            assert abs(analytic.imag) <= 1e-14
            assert fd == pytest.approx(analytic.real, abs=1e-6)

    def test_window_mismatch_rejected(self):
        H = DiagonalHamiltonian(n_min=0, eigenvalues=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            evolve_density(pure_density(cat_state(0.0)), H, 1.0)


class TestHbarRule:
    @pytest.mark.parametrize("hbar", BAD_HBARS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda h: evolve_state(cat_state(0.3), quadratic_hamiltonian(1.0, -1, 1), 1.0, hbar=h),
            lambda h: evolve_density(pure_density(cat_state(0.3)), quadratic_hamiltonian(1.0, -1, 1), 1.0, hbar=h),
            lambda h: rescale_hbar(np.linspace(-2.0, 2.0, 5), h, 1),
        ],
        ids=["evolve_state", "evolve_density", "rescale_hbar"],
    )
    def test_invalid_hbar_refused_with_one_message(self, call, hbar):
        with pytest.raises(ValueError, match=f"^hbar must be finite and positive, got {hbar}$"):
            call(hbar)
