"""Edge-regime hardening: extreme parameters and cross-route checks
beyond the nominal operating range of the worked examples."""

from math import exp, pi, sqrt

import numpy as np
import pytest
import scipy.special

from cylwigner.specfun import bessel_i, sinc_pi, theta3
from cylwigner.states import basis_state, cat_state, pure_density, von_mises_state
from cylwigner.thermal import ThermalParams, partition_function, thermal_density
from cylwigner.verify import (
    angle_marginal_via_swap,
    extract_probability_via_quadrature,
    momentum_marginal_via_quadrature,
)
from cylwigner.wigner import (
    extract_probability,
    marginal_angle,
    marginal_momentum,
    moyal_function,
    reconstruct_density,
    uncertainty_product,
    wigner_function,
    wigner_grid,
)


class TestLargeConcentration:
    # s = 25 makes the unscaled I_0(50) ~ 1e20 and widens the window to
    # ~115 entries; s > 350 takes the unscaled I_0(2 s) past bessel_i's
    # |z| <= 700 limit, so states there need the scaled values
    def test_state_is_normalized_and_saturates(self):
        st = von_mises_state(25.0, 0.3)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
        assert st.discarded_mass < 1e-12
        u = uncertainty_product(st)
        assert u.lhs == pytest.approx(u.rhs, abs=1e-8)

    def test_coefficients_match_scipy_ratios(self):
        s = 25.0
        st = von_mises_state(s, 0.0)
        norm = sqrt(scipy.special.iv(0, 2 * s))
        for m in (0, 5, 20, 40):
            want = scipy.special.iv(m, s) / norm
            assert st.coeffs[m - st.n_min].real == pytest.approx(want, rel=1e-11)

    def test_angle_marginal_concentrates(self):
        st = von_mises_state(25.0, 0.0)
        peak = marginal_angle(st, 0.0)
        side = marginal_angle(st, pi / 2)
        assert peak > 100 * side
        thetas = np.linspace(-pi, pi, 41)
        want = np.exp(50 * np.cos(thetas)) / (2 * pi * bessel_i(0, 50.0))
        got = marginal_angle(st, thetas)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)

    @pytest.mark.parametrize("s", [351.0, 400.0, 1000.0])
    def test_classical_limit_states_are_normalized(self, s):
        st = von_mises_state(s, 0.0)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
        assert st.discarded_mass < 1e-12
        # I_m(s)/sqrt(I_0(2s)) in scaled form; the unscaled values overflow
        norm = sqrt(scipy.special.ive(0, 2 * s))
        for m in (0, 1, 10, 60):
            want = scipy.special.ive(m, s) / norm
            assert st.coeffs[m - st.n_min].real == pytest.approx(want, rel=1e-11)

    def test_classical_limit_grid_is_bounded(self):
        st = von_mises_state(400.0, 0.0)
        grid = wigner_grid(st, np.linspace(-pi, pi, 7), np.linspace(-5.0, 5.0, 11))
        assert np.all(np.isfinite(grid.values))
        assert np.max(np.abs(grid.values)) <= 1 / pi + 1e-12


class TestNearUnityNome:
    def test_theta3_far_beyond_switch(self):
        # q = exp(-1e-6): direct series would need ~6000 terms; the
        # transformed sum needs a handful.  Compare against the float
        # nome actually stored (exp then log round-trips at the 1e-10
        # level in the exponent at this extreme).
        import math

        q = exp(-1e-6)
        got = theta3(0.0, q)
        assert got == pytest.approx(sqrt(pi / -math.log(q)), rel=1e-12)

    def test_partition_function_extreme_high_temperature(self):
        tp = ThermalParams(1e-4)
        assert partition_function(tp) == pytest.approx(sqrt(pi / 1e-4), rel=1e-12)


class TestFractionalCoveringEverywhere:
    # one fractional covering threaded through every major route
    DELTA_PE = 2.6

    def make(self):
        return von_mises_state(0.8, self.DELTA_PE)

    def test_marginal_routes_agree(self):
        st = self.make()
        rho = pure_density(st)
        thetas = np.linspace(-pi, pi, 17)
        a = marginal_angle(rho, thetas)
        b = angle_marginal_via_swap(rho, thetas)
        c = marginal_angle(st, thetas)
        assert np.max(np.abs(a - b)) <= 1e-10
        assert np.max(np.abs(a - c)) <= 1e-10

    def test_momentum_probability_routes_agree(self):
        st = self.make()
        series = marginal_momentum(st)
        for m in range(series.m_min, series.m_max + 1):
            direct = extract_probability(series, m)
            if direct < 1e-14:
                continue
            assert extract_probability_via_quadrature(series, m) == pytest.approx(
                direct, abs=1e-10
            )
        for p in (2.6, 3.1, 0.4):
            assert momentum_marginal_via_quadrature(st, p) == pytest.approx(
                series(p), abs=1e-9
            )

    def test_density_reconstruction(self):
        st = von_mises_state(0.8, self.DELTA_PE, window_half_width=9)
        rho = pure_density(st)
        rebuilt = reconstruct_density(
            lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, rho.delta
        )
        assert np.max(np.abs(rebuilt.entries - rho.entries)) <= 1e-8


class TestOverlappingWindowCross:
    def test_moyal_with_partially_overlapping_windows(self):
        # windows [-1, 1] and [1, 1] share one index; compare against the
        # element-by-element sum
        bra, ket = cat_state(0.4), basis_state(1)
        from cylwigner.wigner import wigner_matrix_element

        for pt in ((0.0, 0.0), (0.9, 0.5), (-1.7, 1.2)):
            want = sum(
                np.conj(bra.coeffs[m - bra.n_min]) * wigner_matrix_element(m, 1, 0.0, pt)
                for m in range(bra.n_min, bra.n_max + 1)
            )
            assert moyal_function(bra, ket, pt) == pytest.approx(want, abs=1e-15)


class TestKernelDeterminism:
    def test_grid_fill_bitwise_stable_across_runs(self):
        # the parallel fill must not introduce run-to-run reduction noise
        st = von_mises_state(2.0, 0.3)
        thetas = np.linspace(-pi, pi, 61)
        ps = np.linspace(-4, 4, 91)
        a = wigner_grid(st, thetas, ps).values
        b = wigner_grid(st, thetas, ps).values
        assert np.array_equal(a, b)


class TestDeepColdThermal:
    def test_tiny_window_matches_two_level_model(self):
        tp = ThermalParams(12.0)
        rho = thermal_density(tp)
        lam = rho.diagonal()
        z = 1 + 2 * exp(-12.0) + 2 * exp(-48.0)
        assert lam[-rho.n_min] == pytest.approx(1 / z, rel=1e-13)
        assert lam[-rho.n_min + 1] == pytest.approx(exp(-12.0) / z, rel=1e-13)


class TestHugeEvolutionTimes:
    def test_phases_stay_on_unit_circle(self):
        from cylwigner.dynamics import evolve_state, quadratic_hamiltonian

        st = von_mises_state(1.0, 0.0)
        H = quadratic_hamiltonian(1.0, st.n_min, st.n_max)
        far = evolve_state(st, H, 1e8)
        assert far.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.abs(far.coeffs) - np.abs(st.coeffs))) <= 1e-15

    def test_wigner_bound_survives_long_evolution(self):
        from cylwigner.dynamics import evolve_state, quadratic_hamiltonian
        from cylwigner.states import FourierState

        sup = FourierState(delta=0.0, n_min=0, coeffs=np.array([1.0, 0.0, 1.0]) / sqrt(2))
        H = quadratic_hamiltonian(1.0, 0, 2)
        rng = np.random.default_rng(83)
        for t in (0.0, 0.37, 12.9, 4000.0):
            moved = evolve_state(sup, H, t)
            for _ in range(20):
                pt = (float(rng.uniform(-pi, pi)), float(rng.uniform(-4, 4)))
                assert abs(wigner_function(moved, pt)) <= 1 / pi + 1e-12
