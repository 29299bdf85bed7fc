"""Thermal rotor states: partition function, Gibbs density, Wigner
function, and the guarded temperature-regime approximations."""

from math import exp, pi, sqrt

import numpy as np
import pytest

from cylwigner.specfun import sinc_pi, theta3, theta3_jacobi
from cylwigner.states import DensityMatrix
from cylwigner.thermal import (
    ThermalParams,
    high_temp_wigner,
    low_temp_wigner,
    partition_function,
    thermal_density,
    thermal_wigner,
)
from cylwigner.verify import integrate_interval
from cylwigner.wigner import (
    extract_probability,
    marginal_momentum,
    reconstruct_density,
    wigner_density,
)

TWO_PI = 2 * pi


class TestThermalParams:
    def test_window_policy_tail_bound(self):
        for eb in (0.01, 0.05, 1.0, 10.0):
            tp = ThermalParams(eb)
            N = tp.half_width
            assert exp(-(N**2) * eb) / partition_function(tp) < 1e-14

    def test_explicit_window_respected(self):
        assert ThermalParams(1.0, window_half_width=17).half_width == 17

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ThermalParams(0.0)
        with pytest.raises(ValueError):
            ThermalParams(-2.0)
        with pytest.raises(ValueError):
            ThermalParams(1.0, window_half_width=0)


class TestPartitionFunction:
    def test_cold_limit(self):
        assert partition_function(ThermalParams(40.0)) == pytest.approx(
            1.0 + 2.0 * exp(-40.0), rel=1e-14
        )
        assert partition_function(ThermalParams(200.0)) == pytest.approx(1.0, abs=1e-15)

    def test_hot_limit_prefactor(self):
        assert partition_function(ThermalParams(0.01)) == pytest.approx(
            sqrt(100.0 * pi), rel=1e-10
        )

    def test_always_above_one(self):
        # strict inequality only while 2 exp(-eb) remains representable
        # above one in double precision
        for eb in (0.01, 0.3, 1.0, 7.0, 30.0):
            assert partition_function(ThermalParams(eb)) > 1.0
        assert partition_function(ThermalParams(40.0)) >= 1.0

    @pytest.mark.parametrize("eb", [0.01, 0.1, 1.0, 10.0, 40.0])
    def test_cross_route_agreement(self, eb):
        N = ThermalParams(eb).half_width
        n = np.arange(-N, N + 1).astype(float)
        direct = float(np.sum(np.exp(-(n**2) * eb)))
        via_series = theta3(0.0, exp(-eb))
        via_modular = theta3_jacobi(0.0, eb)
        assert via_series == pytest.approx(direct, rel=1e-11)
        assert via_modular == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize("eb", [1e-10, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3, 0.01, 0.5, 0.999, 1.0, 3.0, 40.0])
    def test_matches_direct_sum_at_every_temperature(self, eb):
        # the nome exp(-eb) would lose about 1e-16/eb: 1.4e-8 relative at 1e-9
        tp = ThermalParams(eb)
        n = np.arange(-tp.half_width, tp.half_width + 1).astype(float)
        direct = float(np.sum(np.exp(-(n**2) * eb)))
        assert abs(partition_function(tp) / direct - 1.0) <= 1e-14
        assert abs(thermal_density(tp).trace() - 1.0) <= 1e-14

    def test_form_switches_at_one(self):
        # from eps_beta = 1 up the nome series stays, so those outputs keep their bits
        for eb in (1.0, 1.5, 7.0):
            assert partition_function(ThermalParams(eb)) == theta3(0.0, exp(-eb))
        for eb in (0.3, 0.999):
            assert partition_function(ThermalParams(eb)) == theta3_jacobi(0.0, eb)


class TestThermalDensity:
    def test_boltzmann_ratio(self):
        rho = thermal_density(ThermalParams(1.0))
        lam = rho.diagonal()
        center = -rho.n_min
        assert lam[center + 1] / lam[center] == pytest.approx(exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("eb", [0.05, 1.0, 10.0])
    def test_unit_trace(self, eb):
        assert thermal_density(ThermalParams(eb)).trace() == pytest.approx(1.0, abs=1e-12)

    def test_even_spectrum_and_cold_limit(self):
        rho = thermal_density(ThermalParams(1.0))
        lam = rho.diagonal()
        assert np.allclose(lam, lam[::-1], atol=1e-17)
        cold = thermal_density(ThermalParams(35.0))
        assert cold.diagonal()[-cold.n_min] == pytest.approx(1.0, abs=1e-14)

    def test_oversized_window_refused_before_allocating(self, traced):
        # eps_beta = 1e-6 holds K = 11501 weights; its dense entries would
        # take 2.1 GB of complex128, refused when read
        rho = thermal_density(ThermalParams(1e-6))
        assert rho.n_max - rho.n_min + 1 == 11501

        def refused():
            with pytest.raises(ValueError, match=r"K=11501 needs 2116368016 bytes"):
                rho.entries

        _, peak = traced(refused)
        assert peak < 2**20

    def test_gibbs_window_is_held_once(self, traced):
        # K = 1161: the window is held by its weights, and no dense matrix is made
        rho, peak = traced(thermal_density, ThermalParams(1e-4))
        K = rho.entries.shape[0]
        assert K == 1161
        assert peak < 1.25 * 16 * K**2

    def test_built_without_a_window_sized_validate(self, monkeypatch):
        # the weights' mass is checked in O(K) where they are made; a diagonal
        # of real non-negative weights needs no K^2 Hermiticity pass
        def refuse(self, *args, **kwargs):
            raise AssertionError("DensityMatrix.validate called")

        monkeypatch.setattr(DensityMatrix, "validate", refuse)
        rho = thermal_density(ThermalParams(0.01))
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)

    def test_narrow_window_refused_naming_k(self):
        # K = 7 at eps_beta = 0.01 holds about 40% of the Gibbs mass
        tp = ThermalParams(0.01, window_half_width=3)
        with pytest.raises(ValueError, match=r"K=7 "):
            thermal_density(tp)
        with pytest.raises(ValueError, match=r"K=7 "):
            thermal_wigner(tp, (0.0, 0.0))

    def test_validate_holds_no_window_sized_temporary(self, traced):
        # K = 1161: the Hermiticity residual of dense entries is taken over
        # blocks of rows (the Gibbs window itself reads its K weights)
        gibbs = thermal_density(ThermalParams(1e-4))
        rho = DensityMatrix(delta=0.0, n_min=gibbs.n_min, entries=gibbs.entries)
        _, peak = traced(rho.validate)
        assert peak < rho.entries.nbytes / 2

    def test_oversized_weight_vector_refused_before_allocating(self, traced):
        # eps_beta = 1e-15 needs K = 363318055 float64 weights: 2.9 GB
        def refused():
            with pytest.raises(ValueError, match=r"K=363318055 needs 2906544440 bytes"):
                thermal_wigner(ThermalParams(1e-15), (0.0, 0.0))

        _, peak = traced(refused)
        assert peak < 2**20

    def test_window_limit_is_4096(self):
        # K = 4097 is the smallest odd window whose dense entries exceed 256 MiB
        with pytest.raises(ValueError, match=r"K=4097"):
            thermal_density(ThermalParams(1.0, window_half_width=2048)).entries
        assert thermal_density(ThermalParams(1e-4)).entries.shape == (1161, 1161)


class TestThermalWigner:
    def test_angle_independent_and_even(self):
        tp = ThermalParams(0.8)
        for p in (0.0, 0.7, 1.9):
            v0 = thermal_wigner(tp, (0.0, p))
            assert thermal_wigner(tp, (1.3, p)) == v0
            assert thermal_wigner(tp, (-2.9, p)) == v0
            assert thermal_wigner(tp, (0.0, -p)) == pytest.approx(v0, rel=1e-14)

    def test_cold_peak_value(self):
        tp = ThermalParams(30.0)
        assert thermal_wigner(tp, (0.0, 0.0)) == pytest.approx(
            1.0 / (TWO_PI * partition_function(tp)), rel=1e-14
        )

    def test_matches_density_contraction(self):
        # one kernel sum on both routes: equal bit for bit
        for eps_beta in (1.0, 1e-2, 1e-4):
            tp = ThermalParams(eps_beta)
            rho = thermal_density(tp)
            for pt in ((0.0, 0.0), (0.9, 1.3), (-1.2, -2.4), (2.0, 0.37)):
                assert thermal_wigner(tp, pt) == wigner_density(rho, pt)

    def test_matches_theta3_integral_form(self):
        # independent route: (1/2 pi^2 Z) \int_0^pi cos(p a) theta3(a/2, q) da
        for eb in (0.3, 1.0):
            tp = ThermalParams(eb)
            q = exp(-eb)
            Z = partition_function(tp)
            for p in (0.0, 0.35, 1.2, 2.6):
                integral = integrate_interval(
                    lambda a, p=p: np.cos(p * a) * np.array([theta3(ai / 2, q) for ai in np.atleast_1d(a)]),
                    0.0,
                    pi,
                    order=96,
                )
                want = integral / (2 * pi**2 * Z)
                assert thermal_wigner(tp, (0.0, p)) == pytest.approx(want, abs=1e-9)

    def test_sinc_projection_recovers_weights(self):
        tp = ThermalParams(1.0)
        rho = thermal_density(tp)
        series = marginal_momentum(rho)
        lam = rho.diagonal()
        for m in range(rho.n_min, rho.n_max + 1):
            assert extract_probability(series, m) == pytest.approx(lam[m - rho.n_min], abs=1e-14)

    def test_reconstruction_round_trip(self):
        tp = ThermalParams(1.0, window_half_width=8)
        rho = thermal_density(tp)

        def sampler(axes):
            # independent of theta: one value per momentum, tiled over the angles
            thetas, ps = axes
            return np.tile([thermal_wigner(tp, (0.0, p)) for p in ps], (len(thetas), 1))

        rebuilt = reconstruct_density(sampler, rho.n_min, rho.n_max, 0.0)
        assert np.max(np.abs(rebuilt.entries - rho.entries)) <= 1e-8


class TestLowTempWigner:
    def test_zero_momentum_value(self):
        # agrees with the expanded-partition form through first order
        for eb in (3.0, 5.0, 8.0):
            got = low_temp_wigner(ThermalParams(eb), 0.0)
            first_order = (1.0 - 2.0 * exp(-eb)) / TWO_PI
            assert got == pytest.approx(first_order, abs=5.0 * exp(-2.0 * eb) / TWO_PI)

    def test_pole_values_via_series_limit(self):
        # limit p -> +-1 of the bracket: only the neighbouring shell survives
        for eb in (3.0, 6.0):
            tp = ThermalParams(eb)
            want = exp(-eb) / (TWO_PI * partition_function(tp))
            assert low_temp_wigner(tp, 1.0) == pytest.approx(want, rel=1e-12)
            assert low_temp_wigner(tp, -1.0) == pytest.approx(want, rel=1e-12)

    def test_branch_matches_pole_free_form(self):
        # oracle: the rational bracket rewritten without poles; evaluated as
        # written, the rational bracket cancels to about 1e-15 near each pole
        tp = ThermalParams(4.0)
        q = exp(-4.0)
        Z = partition_function(tp)
        for p0 in (1.0, -1.0):
            for dp in (0.0, 0.99e-4, 1.01e-4, -0.5e-4, 1.0001e-4, -1.0001e-4, 2e-4, -2e-4, 1e-3, -1e-3):
                p = p0 + dp
                want = (sinc_pi(p) + q * (sinc_pi(p - 1) + sinc_pi(p + 1))) / (TWO_PI * Z)
                assert low_temp_wigner(tp, p) == pytest.approx(want, abs=1e-16)

    @pytest.mark.parametrize("eb", [3.0, 5.0, 8.0])
    def test_tracks_exact_form(self, eb):
        tp = ThermalParams(eb)
        tol = 5.0 * exp(-4.0 * eb) + 1e-12
        for p in np.linspace(-2.5, 2.5, 201):
            diff = abs(low_temp_wigner(tp, float(p)) - thermal_wigner(tp, (0.0, float(p))))
            assert diff <= tol

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            low_temp_wigner(ThermalParams(2.9), 0.0)

    def test_array_of_momenta_has_the_scalar_bits(self):
        tp = ThermalParams(5.0)
        ps = np.concatenate([np.linspace(-2.5, 2.5, 101), [1.0, -1.0, 1e-9, 7.25]]).reshape(5, 21)
        got = low_temp_wigner(tp, ps)
        assert got.shape == ps.shape and got.dtype == np.float64
        want = [low_temp_wigner(tp, float(p)) for p in ps.ravel()]
        assert all(type(w) is float for w in want)
        assert got.ravel().tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, [0.5, np.nan]])
    def test_non_finite_momentum_refused(self, bad):
        with pytest.raises(ValueError, match="p must be finite"):
            low_temp_wigner(ThermalParams(5.0), bad)


class TestHighTempWigner:
    def test_gaussian_formula(self):
        tp = ThermalParams(0.01)
        assert high_temp_wigner(tp, 0.0) == pytest.approx(sqrt(0.01 * pi) / (2 * pi**2), rel=1e-15)

    def test_unit_gaussian_mass(self):
        # closed form: integral over all p equals 1/(2 pi)
        eb = 0.01
        analytic = sqrt(pi * eb) / (2 * pi**2) * sqrt(pi / eb)
        assert analytic == pytest.approx(1.0 / TWO_PI, rel=1e-15)
        # quadrature corroboration over +-40 standard widths
        tp = ThermalParams(eb)
        numeric = integrate_interval(
            lambda p: np.array([high_temp_wigner(tp, float(v)) for v in np.atleast_1d(p)]),
            -400.0,
            400.0,
            order=256,
        )
        assert numeric == pytest.approx(1.0 / TWO_PI, rel=1e-6)

    def test_agreement_sweep(self):
        tp = ThermalParams(0.01, window_half_width=400)
        for p in np.linspace(-20.0, 20.0, 81):
            exact = thermal_wigner(tp, (0.0, float(p)))
            assert high_temp_wigner(tp, float(p)) == pytest.approx(exact, rel=1e-3)

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            high_temp_wigner(ThermalParams(0.06), 0.0)


class TestCosineIntegralIdentity:
    def test_quadrature_agreement(self):
        rng = np.random.default_rng(43)
        count = 0
        while count < 50:
            p = float(rng.uniform(-4, 4))
            if abs(p - round(p)) < 1e-3:
                continue
            count += 1
            got = integrate_interval(lambda a, p=p: np.cos(a) * np.cos(p * a), 0.0, pi, order=96)
            want = -0.5 * pi * sinc_pi(p) * (p / (p + 1.0) + p / (p - 1.0))
            assert got == pytest.approx(want, abs=1e-10)
