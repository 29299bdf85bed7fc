"""Phase-space function tests: elements, quasi-probabilities, marginals,
probability extraction, pairings, reconstruction, and bounds."""

import io
import re
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import pi
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylwigner import _kernels, wigner
from cylwigner._kernels import _TABLE_BLOCK, phase_space_sum_grid
from cylwigner.specfun import bessel_i, oscillation_order, sinc_pi
from cylwigner.states import (
    DensityMatrix,
    FourierState,
    basis_state,
    cat_state,
    evaluate_wavefunction,
    pure_density,
    von_mises_state,
)
from cylwigner.verify import (
    angle_marginal_via_swap,
    extract_probability_via_quadrature,
    gauss_legendre_rule,
    integrate_interval,
    momentum_marginal_via_quadrature,
    total_integral,
    total_integral_via_quadrature,
    wigner_pair_integral,
)
from cylwigner.wigner import (
    CardinalSeries,
    PhasePoint,
    WignerGrid,
    angular_momentum_operator,
    cosine_operator,
    expectation_via_phase_space,
    extract_probability,
    identity_operator,
    marginal_angle,
    marginal_momentum,
    moyal_function,
    moyal_grid,
    overlap_from_wigner,
    reconstruct_density,
    rescale_hbar,
    sine_operator,
    uncertainty_product,
    wigner_density,
    wigner_function,
    wigner_grid,
    wigner_matrix_element,
    write_grid_csv,
)
from cylwigner.wigner import _CSV_BLOCK, _require_real
from oracle import true_windowed_sum

TWO_PI = 2 * pi


def moyal_by_quadrature(bra, ket, theta, p, order=128):
    """Independent oracle: the half-angle correlation integral."""
    nodes, weights = gauss_legendre_rule(order)
    nodes, weights = pi * nodes, pi * weights
    left = np.conj(evaluate_wavefunction(bra, theta - nodes / 2))
    right = evaluate_wavefunction(ket, theta + nodes / 2)
    integrand = np.exp(-1j * p * nodes) * left * right
    return np.sum(weights * integrand) / (TWO_PI**2)


class TestMatrixElement:
    def test_diagonal_peak(self):
        for theta in (0.0, 1.1, -2.0):
            assert wigner_matrix_element(0, 0, 0.0, (theta, 0.0)) == pytest.approx(
                1 / TWO_PI, abs=1e-15
            )

    def test_half_integer_midpoint(self):
        assert wigner_matrix_element(0, 1, 0.0, (0.0, 0.5)) == pytest.approx(1 / TWO_PI, abs=1e-15)

    def test_conjugate_transposition(self):
        a = wigner_matrix_element(1, 0, 0.0, (pi / 2, 0.0))
        b = wigner_matrix_element(0, 1, 0.0, (pi / 2, 0.0))
        assert a == pytest.approx(np.conj(b), abs=1e-16)
        # direct closed form at this point
        assert a == pytest.approx(np.exp(-1j * pi / 2) * sinc_pi(-0.5) / TWO_PI, abs=1e-15)

    def test_far_index_refused_as_by_the_kernel(self):
        # beyond |n| < 2**51 float64 momenta leave the half-integer lattice:
        # here p - (m + n)/2 - delta rounds to 0, and the element would read
        # 1/(2 pi), not sinc(-0.3)/(2 pi) = 0.137
        m = 2**52 + 1
        match = r"index window \[.*\] leaves \|n\| < 2\*\*51"
        with pytest.raises(ValueError, match=match):
            wigner_matrix_element(m, m, 0.3, (0.0, float(m)))
        with pytest.raises(ValueError, match=match):
            wigner_matrix_element(0, m, 0.3, (0.0, 0.0))
        with pytest.raises(ValueError, match=match):
            wigner_function(basis_state(m, 0.3), (0.0, float(m)))
        # inside, the argument is rounded at its own scale
        m = 2**51 - 1
        got = wigner_matrix_element(m, m, 0.3, (0.0, float(m)))
        assert got == pytest.approx(sinc_pi(-0.3) / TWO_PI, rel=1e-15)

    def test_hermiticity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m, n = rng.integers(-8, 9, size=2)
            delta = float(rng.uniform(0, 1))
            pt = (float(rng.uniform(-pi, pi)), float(rng.uniform(-9, 9)))
            v = wigner_matrix_element(int(m), int(n), delta, pt)
            w = wigner_matrix_element(int(n), int(m), delta, pt)
            assert abs(v - np.conj(w)) <= 1e-16
            assert abs(v) <= 1 / TWO_PI + 1e-16

    def test_index_translation_covariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m, n = (int(v) for v in rng.integers(-5, 6, size=2))
            delta = float(rng.uniform(0, 1))
            theta = float(rng.uniform(-pi, pi))
            p = float(rng.uniform(-6, 6))
            a = wigner_matrix_element(m, n, delta, (theta, p))
            b = wigner_matrix_element(m + 1, n + 1, delta, (theta, p + 1.0))
            assert abs(a - b) <= 1e-14

    def test_covering_domain_error(self):
        with pytest.raises(ValueError):
            wigner_matrix_element(0, 0, 1.2, (0.0, 0.0))


class TestPhasePoint:
    def test_angle_reduction(self):
        assert PhasePoint(pi, 0.0).theta == pytest.approx(-pi)
        assert PhasePoint(3 * pi / 2, 0.0).theta == pytest.approx(-pi / 2)
        assert PhasePoint(-pi, 2.0).theta == -pi

    def test_momentum_unrestricted(self):
        assert PhasePoint(0.0, 123.5).p == 123.5

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint(float("nan"), 0.0)


class TestMoyalFunction:
    def test_basis_diagonal_is_sinc_profile(self):
        st = basis_state(2)
        for theta in (0.0, 0.9, -2.2):
            for p in (0.0, 1.7, 2.0):
                got = moyal_function(st, st, (theta, p))
                assert got == pytest.approx(sinc_pi(p - 2) / TWO_PI, abs=1e-15)

    def test_distant_window_cross_element(self):
        got = moyal_function(basis_state(5), basis_state(-5), (0.3, 0.9))
        want = wigner_matrix_element(5, -5, 0.0, (0.3, 0.9))
        assert got == pytest.approx(want, abs=1e-16)

    @pytest.mark.parametrize(
        "bra_fn,ket_fn",
        [
            (lambda: cat_state(0.0), lambda: cat_state(0.0)),
            (lambda: cat_state(0.7), lambda: basis_state(1)),
            (lambda: von_mises_state(0.5, 0.0), lambda: von_mises_state(0.5, 0.0)),
        ],
    )
    def test_against_correlation_integral(self, bra_fn, ket_fn):
        bra, ket = bra_fn(), ket_fn()
        for theta, p in ((0.0, 0.0), (0.8, 1.3), (-1.9, -0.4), (2.5, 3.1)):
            got = moyal_function(bra, ket, (theta, p))
            want = moyal_by_quadrature(bra, ket, theta, p)
            assert got == pytest.approx(want, abs=1e-10)

    def test_fractional_covering_against_integral(self):
        state = von_mises_state(0.5, 0.6)
        for theta, p in ((0.4, 0.6), (-1.0, 1.6), (2.0, -0.9)):
            got = moyal_function(state, state, (theta, p))
            want = moyal_by_quadrature(state, state, theta, p)
            assert got == pytest.approx(want, abs=1e-10)

    def test_diagonal_case_is_real(self):
        st = von_mises_state(1.0, 0.3)
        val = moyal_function(st, st, (0.7, 1.1))
        assert abs(val.imag) <= 1e-12

    def test_covering_mismatch_rejected(self):
        with pytest.raises(ValueError):
            moyal_function(basis_state(0, 0.0), basis_state(0, 0.5), (0.0, 0.0))


class TestWignerFunction:
    def test_cat_interference_structure(self):
        cat = cat_state(0.0)
        for theta in np.linspace(-pi, pi, 19):
            for p in (0.0, 0.6, 1.0, -1.0, 2.3):
                got = TWO_PI * wigner_function(cat, (float(theta), p))
                want = np.cos(2 * theta) * sinc_pi(p) + 0.5 * (sinc_pi(p + 1) + sinc_pi(p - 1))
                assert got == pytest.approx(want, abs=1e-13)

    def test_cat_phase_shifts_interference_term(self):
        alpha = 1.3
        cat = cat_state(alpha)
        for theta in (0.0, 0.5, -1.1):
            got = TWO_PI * wigner_function(cat, (theta, 0.0))
            assert got == pytest.approx(np.cos(2 * theta + alpha), abs=1e-13)

    def test_von_mises_quarter_turn_profile(self):
        s = 0.5
        vm = von_mises_state(s, 0.0)
        for theta in (pi / 2, -pi / 2):
            for dp in np.linspace(-4, 4, 17):
                got = wigner_function(vm, (theta, float(dp)))
                want = sinc_pi(dp) / (TWO_PI * bessel_i(0, 2 * s))
                assert got == pytest.approx(want, abs=1e-9)

    def test_von_mises_integral_representation(self):
        # oracle: the single-integral closed form of the summed profile,
        # (2 pi)^-2 I_0(2s)^-1 \int exp(-i(p - pe) x + 2 s cos(theta) cos(x/2)) dx
        s, pe = 0.5, 0.6
        vm = von_mises_state(s, pe)
        nodes, weights = gauss_legendre_rule(128)
        nodes, weights = pi * nodes, pi * weights
        for theta in (0.0, 0.7, pi / 2, -2.1, pi):
            for p in (pe, pe + 0.4, pe - 1.3, pe + 3.0):
                integrand = np.exp(
                    -1j * (p - pe) * nodes + 2 * s * np.cos(theta) * np.cos(nodes / 2)
                )
                oracle = np.sum(weights * integrand).real / (4 * pi**2 * bessel_i(0, 2 * s))
                assert wigner_function(vm, (theta, p)) == pytest.approx(oracle, abs=1e-9)

    def test_bounded_by_inverse_pi(self):
        rng = np.random.default_rng(29)
        states = [basis_state(1), cat_state(0.0), von_mises_state(0.5, 0.6)]
        for _ in range(300):
            st = states[int(rng.integers(0, 3))]
            pt = (float(rng.uniform(-pi, pi)), float(rng.uniform(-8, 8)))
            assert abs(wigner_function(st, pt)) <= 1 / pi + 1e-12


class TestWignerDensity:
    def test_diagonal_mixture_profile(self):
        lam = np.array([1 / 3, 1 / 3, 1 / 3])
        rho = DensityMatrix(delta=0.0, n_min=-1, entries=np.diag(lam.astype(complex)))
        for p in (-0.4, 0.0, 1.2):
            got = wigner_density(rho, (0.7, p))
            want = (sinc_pi(p + 1) + sinc_pi(p) + sinc_pi(p - 1)) / (6 * pi)
            assert got == pytest.approx(want, abs=1e-14)

    def test_pure_state_consistency(self):
        st = cat_state(0.9)
        rho = pure_density(st)
        for pt in ((0.0, 0.0), (1.2, -0.7), (-2.0, 1.4)):
            assert wigner_density(rho, pt) == pytest.approx(wigner_function(st, pt), abs=1e-12)


class TestMarginals:
    def test_basis_angle_marginal_uniform(self):
        st = basis_state(3)
        thetas = np.linspace(-pi, pi, 11)
        assert np.allclose(marginal_angle(st, thetas), 1 / TWO_PI, atol=1e-14)

    def test_cat_angle_marginal(self):
        cat = cat_state(0.0)
        thetas = np.linspace(-pi, pi, 31)
        want = (1 + np.cos(2 * thetas)) / TWO_PI
        assert np.max(np.abs(marginal_angle(cat, thetas) - want)) <= 1e-13

    @pytest.mark.parametrize("obj", [von_mises_state(0.5, 0.7), pure_density(cat_state(0.4))], ids=["state", "density"])
    @pytest.mark.parametrize("theta", [np.nan, np.inf, [np.nan, 0.0], np.array([[0.0, 1.0], [-np.inf, 2.0]])])
    def test_non_finite_angles_rejected(self, obj, theta):
        with pytest.raises(ValueError, match="angles must be finite"):
            marginal_angle(obj, theta)

    @pytest.mark.parametrize("obj", [von_mises_state(0.5, 0.7), pure_density(cat_state(0.4))], ids=["state", "density"])
    def test_scalar_and_array_angles_keep_their_form(self, obj):
        assert isinstance(marginal_angle(obj, 0.3), float)
        thetas = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        values = marginal_angle(obj, thetas)
        assert values.shape == (2, 3)
        assert values[1, 2] == pytest.approx(marginal_angle(obj, 1.0), abs=1e-15)

    def test_von_mises_angle_marginal(self):
        s = 0.5
        vm = von_mises_state(s, 0.7)
        thetas = np.linspace(-pi, pi, 41)
        want = np.exp(2 * s * np.cos(thetas)) / (TWO_PI * bessel_i(0, 2 * s))
        assert np.max(np.abs(marginal_angle(vm, thetas) - want)) <= 1e-9

    def test_density_route_matches_state_route(self):
        st = von_mises_state(0.8, 0.3)
        rho = pure_density(st)
        thetas = np.linspace(-pi, pi, 23)
        assert np.allclose(marginal_angle(st, thetas), marginal_angle(rho, thetas), atol=1e-12)

    def test_far_window_matches_the_origin(self):
        # |p_e| = 4.6e18 is past 2**53, where neighbouring (n + delta) theta
        # round to one float: the phases come from n - n_min instead
        thetas = np.linspace(-pi, pi, 9)
        want = marginal_angle(von_mises_state(0.5, 0.0), thetas)
        assert np.ptp(want) > 0.25
        for pe in (4.6e18, -4.6e18):
            far = von_mises_state(0.5, pe)
            for obj in (far, pure_density(far)):
                np.testing.assert_allclose(marginal_angle(obj, thetas), want, rtol=0.0, atol=1e-15)

    def test_angle_marginal_nonnegative(self):
        thetas = np.linspace(-pi, pi, 101)
        for st in (basis_state(0), cat_state(0.3), von_mises_state(1.0, 0.2)):
            assert np.min(marginal_angle(st, thetas)) >= -1e-12

    def test_swap_route_agrees(self):
        thetas = np.linspace(-pi, pi, 29)
        for st in (cat_state(0.0), von_mises_state(0.5, 0.6)):
            a = marginal_angle(st, thetas)
            b = angle_marginal_via_swap(st, thetas)
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_momentum_marginal_samples(self):
        st = basis_state(2)
        series = marginal_momentum(st)
        for p in (-1.0, 0.0, 1.5, 2.0, 3.7):
            assert series(p) == pytest.approx(sinc_pi(p - 2), abs=1e-14)

    def test_cat_momentum_marginal(self):
        series = marginal_momentum(cat_state(0.0))
        for p in np.linspace(-3, 3, 25):
            want = 0.5 * (sinc_pi(p + 1) + sinc_pi(p - 1))
            assert series(float(p)) == pytest.approx(want, abs=1e-14)

    def test_von_mises_momentum_samples(self):
        s, pe = 0.5, 0.0
        series = marginal_momentum(von_mises_state(s, pe))
        for m in range(-4, 5):
            want = bessel_i(m, s) ** 2 / bessel_i(0, 2 * s)
            assert extract_probability(series, m) == pytest.approx(want, abs=1e-9)

    def test_momentum_marginal_against_angle_quadrature(self):
        rng = np.random.default_rng(31)
        for st in (cat_state(0.0), von_mises_state(0.5, 0.6)):
            series = marginal_momentum(st)
            for p in rng.uniform(-4, 4, size=20):
                quad = momentum_marginal_via_quadrature(st, float(p))
                assert quad == pytest.approx(series(float(p)), abs=1e-9)

    def test_marginal_total_masses(self):
        for st in (cat_state(0.2), von_mises_state(1.0, 0.4)):
            series = marginal_momentum(st)
            assert np.sum(series.b) == pytest.approx(1.0, abs=1e-10)
            assert total_integral(st) == pytest.approx(1.0, abs=1e-10)
            assert total_integral_via_quadrature(st) == pytest.approx(1.0, abs=1e-10)


class TestCardinalSeries:
    def test_interpolation_property_exact_for_representable_offset(self):
        # offsets with exact binary representation make p - (k + delta)
        # an exact integer, so the snapped sinc zeros give b_m bit-exactly
        series = CardinalSeries(delta=0.25, m_min=-2, b=np.array([0.1, 0.2, 0.4, 0.2, 0.1]))
        for m in range(-2, 3):
            assert series(m + 0.25) == extract_probability(series, m)

    def test_interpolation_property_general_offset(self):
        # non-representable offsets leave half-ulp noise in the argument
        series = CardinalSeries(delta=0.3, m_min=-2, b=np.array([0.1, 0.2, 0.4, 0.2, 0.1]))
        for m in range(-2, 3):
            assert series(m + 0.3) == pytest.approx(extract_probability(series, m), abs=1e-15)

    def test_json_round_trip(self):
        series = CardinalSeries(delta=0.25, m_min=0, b=np.array([0.5, 0.5]))
        data = series.to_dict()
        assert set(data) == {"delta", "m_min", "b"}
        back = CardinalSeries.from_dict(data)
        assert back.delta == series.delta and back.m_min == series.m_min
        assert np.array_equal(back.b, series.b)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            CardinalSeries(delta=0.0, m_min=0, b=np.array([0.9, -0.1]))

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"m_min": 0, "b": [1.0]}, "delta"),
            ({"delta": "x", "m_min": 0, "b": [1.0]}, "delta"),
            ({"delta": 0.0, "b": [1.0]}, "m_min"),
            ({"delta": 0.0, "m_min": 1.5, "b": [1.0]}, "m_min"),
            ({"delta": 0.0, "m_min": 0}, "b"),
            ({"delta": 0.0, "m_min": 0, "b": [[1.0], [0.5, 0.5]]}, "b"),
            ({"delta": 0.0, "m_min": 0, "b": ["a", "b"]}, "b"),
            ({"delta": 0.0, "m_min": 0, "b": [[0.5, 0.5]]}, "b"),
        ],
    )
    def test_malformed_json_names_the_field(self, payload, field):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            CardinalSeries.from_dict(payload)

    @pytest.mark.parametrize("K, steps", [(2001, 401), (_TABLE_BLOCK // 2, 3)])
    def test_blocked_evaluation_matches_pointwise(self, K, steps):
        # both windows fill more than one sinc table of _TABLE_BLOCK entries,
        # so the kernel sums them in slices: two on 401 momenta, ten on 3
        rng = np.random.default_rng(7)
        series = CardinalSeries(delta=0.3, m_min=-(K // 2), b=rng.uniform(0.0, 1.0, K))
        ps = np.linspace(-7.0, 7.0, steps)
        assert ps.size * K > _TABLE_BLOCK
        pointwise = np.array([series(float(p)) for p in ps])
        np.testing.assert_allclose(series(ps), pointwise, rtol=0.0, atol=1e-14)
        # y = p - delta = j + r (integer j, exact r), and sinc(y - m) is
        # (-1)^(j - m) sin(pi r) / (pi ((j - m) + r)): no argument is rounded
        # at the scale of m (an ulp of 1.3e5 is 2.9e-11), only each
        # denominator, to its own relative roundoff
        y = ps - series.delta
        j = np.rint(y)
        r = y - j
        assert np.all(r != 0.0)
        d = j[None, :] - series.indices[:, None]
        signs = np.where(d % 2 == 0, 1.0, -1.0)
        direct = np.sin(np.pi * r) / np.pi * (series.b @ (signs / (d + r)))
        np.testing.assert_allclose(series(ps), direct, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momenta_rejected(self, bad):
        series = marginal_momentum(cat_state(0.0))
        with pytest.raises(ValueError, match="must be finite"):
            series(bad)
        with pytest.raises(ValueError, match="must be finite"):
            series(np.array([0.0, bad, 1.0]))

    def test_holds_a_frozen_owned_array_and_copies_others(self):
        b = np.array([0.25, 0.5, 0.25])
        b.setflags(write=False)
        assert CardinalSeries(delta=0.0, m_min=-1, b=b).b is b
        source = np.array([0.25, 0.5, 0.25])
        series = CardinalSeries(delta=0.0, m_min=-1, b=source)
        assert not np.shares_memory(series.b, source) and source.flags.writeable
        assert not series.b.flags.writeable

    def test_output_shapes(self):
        series = CardinalSeries(delta=0.0, m_min=-1, b=np.array([0.25, 0.5, 0.25]))
        assert series(np.array([])).shape == (0,)
        assert type(series(0.5)) is float
        assert series(np.zeros((2, 3))).shape == (2, 3)

    def test_wide_window_memory_is_bounded(self, traced):
        # the eps_beta = 1e-6 Gibbs series: K = 11501 centres on 401 momenta,
        # a 37 MB sinc table if built at once
        from cylwigner.thermal import ThermalParams, thermal_density

        series = marginal_momentum(thermal_density(ThermalParams(1e-6)))
        assert series.b.size == 11501
        ps = np.linspace(-5.0, 5.0, 401)
        _, peak = traced(series, ps)
        assert peak < 16 * 2**20
        # K = 2**20 weights at one and at three momenta: the index arrays
        # of a slice count against the budget as its table does
        series = CardinalSeries(delta=0.0, m_min=-(2**19), b=np.full(2**20, 2.0**-20))
        for ps in (0.3, np.array([0.3, 1.7, -2.2])):
            _, peak = traced(series, ps)
            assert peak < 16 * 2**20


class TestExtractProbability:
    def test_basis_orthonormality(self):
        series = marginal_momentum(basis_state(3))
        assert extract_probability(series, 3) == 1.0
        assert extract_probability(series, 2) == 0.0
        assert extract_probability(series, 99) == 0.0

    def test_cat_components(self):
        series = marginal_momentum(cat_state(0.0))
        assert extract_probability(series, 1) == pytest.approx(0.5, abs=1e-15)
        assert extract_probability(series, -1) == pytest.approx(0.5, abs=1e-15)
        assert extract_probability(series, 0) == 0.0

    def test_quadrature_route_agreement(self):
        for st in (cat_state(0.0), von_mises_state(0.5, 0.6)):
            series = marginal_momentum(st)
            for m in range(series.m_min, series.m_max + 1):
                direct = extract_probability(series, m)
                swapped = extract_probability_via_quadrature(series, m)
                assert swapped == pytest.approx(direct, abs=1e-10)


class TestOverlap:
    def test_self_overlap(self):
        for st in (basis_state(0), cat_state(0.0), von_mises_state(0.5, 0.0)):
            assert overlap_from_wigner(st, st) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self):
        assert overlap_from_wigner(basis_state(0), basis_state(1)) == 0.0

    def test_cat_basis_component(self):
        assert overlap_from_wigner(cat_state(0.0), basis_state(1)) == pytest.approx(0.5, abs=1e-10)

    def test_matches_direct_inner_product(self):
        a = von_mises_state(0.5, 0.0)
        b = von_mises_state(1.5, 0.0, window_half_width=a.coeffs.size // 2)
        n_min = min(a.n_min, b.n_min)
        size = max(a.n_max, b.n_max) - n_min + 1
        ca = np.zeros(size, complex)
        cb = np.zeros(size, complex)
        ca[a.n_min - n_min : a.n_max - n_min + 1] = a.coeffs
        cb[b.n_min - n_min : b.n_max - n_min + 1] = b.coeffs
        assert overlap_from_wigner(a, b) == pytest.approx(abs(np.vdot(ca, cb)) ** 2, abs=1e-12)

    def test_covering_mismatch_rejected(self):
        with pytest.raises(ValueError):
            overlap_from_wigner(basis_state(0, 0.0), basis_state(0, 0.3))


class TestPairOrthogonality:
    def test_five_index_window(self):
        idx = range(-2, 3)
        for k in idx:
            for l in idx:
                for m in idx:
                    for n in idx:
                        got = wigner_pair_integral(k, l, m, n)
                        want = 1.0 if (k == n and l == m) else 0.0
                        assert abs(got - want) <= 1e-10

    def test_covering_independent(self):
        assert wigner_pair_integral(1, 0, 0, 1, delta=0.6) == pytest.approx(1.0, abs=1e-10)
        assert wigner_pair_integral(1, 0, 1, 0, delta=0.6) == pytest.approx(0.0, abs=1e-10)


class TestTraceIdentityPartialSums:
    @pytest.mark.parametrize("N", [50, 200, 800])
    @pytest.mark.parametrize("delta", [0.0, 0.37])
    def test_partial_sums_approach_one(self, N, delta):
        n = np.arange(-N, N + 1)
        for p in np.linspace(-0.5, 0.5, 11):
            total = float(np.sum(sinc_pi(p - n - delta)))
            assert abs(total - 1.0) <= 2.0 / (pi * N)


class TestReconstruction:
    def test_basis_projector(self):
        rho = pure_density(basis_state(0))
        rebuilt = reconstruct_density(lambda axes: wigner_grid(rho, *axes).values, 0, 0, 0.0)
        assert rebuilt.entries[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_cat_off_diagonal(self):
        rho = pure_density(cat_state(0.0))
        rebuilt = reconstruct_density(lambda axes: wigner_grid(rho, *axes).values, -1, 1, 0.0)
        assert rebuilt.entries[2, 0] == pytest.approx(0.5, abs=1e-8)
        assert np.max(np.abs(rebuilt.entries - rho.entries)) <= 1e-8

    def test_fractional_covering_round_trip(self):
        st = von_mises_state(0.5, 0.6, window_half_width=8)
        rho = pure_density(st)
        rebuilt = reconstruct_density(
            lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, rho.delta
        )
        assert np.max(np.abs(rebuilt.entries - rho.entries)) <= 1e-8

    def test_small_window_reports_trace_deficit(self):
        rho = pure_density(cat_state(0.0))
        with pytest.warns(RuntimeWarning, match="trace deficit"):
            rebuilt = reconstruct_density(lambda axes: wigner_grid(rho, *axes).values, 0, 1, 0.0)
        assert rebuilt.trace() == pytest.approx(0.5, abs=1e-8)

    def test_narrow_window_of_a_wide_state(self):
        # K = 5 of a K = 55 source: the angle sum must not alias the wider
        # source into the covered block, and the deficit still warns
        rho = pure_density(von_mises_state(3.0, 0.0, window_half_width=27))
        assert (rho.n_min, rho.n_max) == (-27, 27)
        with pytest.warns(RuntimeWarning, match="trace deficit"):
            rebuilt = reconstruct_density(lambda axes: wigner_grid(rho, *axes).values, -2, 2, 0.0)
        assert np.max(np.abs(rebuilt.entries - rho.entries[25:30, 25:30])) <= 1e-14

    def test_hermitian_by_construction(self):
        rho = pure_density(von_mises_state(0.5, 0.6, window_half_width=8))
        rebuilt = reconstruct_density(lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, rho.delta)
        np.testing.assert_array_equal(rebuilt.entries, rebuilt.entries.conj().T)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_density(lambda axes: 0.0, 2, 1, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(-10, 10), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**32 - 1))
    def test_complex_mixture_round_trip(self, K, n_min, delta, seed):
        # complex off-diagonal entries tell rho from its transpose
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
        entries = B @ B.conj().T
        entries = 0.5 * (entries + entries.conj().T) / np.trace(entries).real
        rho = DensityMatrix(delta=delta, n_min=n_min, entries=entries)
        rebuilt = reconstruct_density(lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, delta)
        assert np.max(np.abs(rebuilt.entries - rho.entries)) <= 1e-8


def _pointwise_sampler(rho):
    """Reference sampler for the grid route: one ``wigner_density`` call per
    angle and momentum."""

    def sample(axes):
        thetas, ps = axes
        return np.array([[wigner_density(rho, (t, p)) for p in ps] for t in thetas])

    return sample


class TestReconstructionSampler:
    CAT = pure_density(cat_state(0.0))

    def _grid(self, axes):
        return wigner_grid(self.CAT, *axes).values

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 5.0, np.nan])
    def test_delta_refused_before_sampling(self, delta):
        calls = []

        def sampler(axes):
            calls.append(axes)
            return np.zeros((len(axes[0]), len(axes[1])))

        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
            reconstruct_density(sampler, 0, 2, delta)
        assert calls == []

    def test_called_once_with_the_quadrature_axes(self):
        calls = []

        def counting(axes):
            calls.append(axes)
            return self._grid(axes)

        reconstruct_density(counting, -1, 1, 0.0)
        assert len(calls) == 1
        thetas, ps = calls[0]
        # K = 3: the anti-diagonal momenta (k+l)/2 + delta for k, l in -1..1
        np.testing.assert_array_equal(ps, [-1.0, -0.5, 0.0, 0.5, 1.0])
        # N = oscillation_order(2(K - 1)) equispaced angles -pi + 2 pi j / N
        N = oscillation_order(4.0)
        np.testing.assert_allclose(thetas, -pi + 2 * pi * np.arange(N) / N, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda vals: vals[:, :-1],
            lambda vals: vals.T,
            lambda vals: vals.ravel(),
            lambda vals: vals[0, 0],
        ],
        ids=["short", "transposed", "flat", "scalar"],
    )
    def test_wrong_shape_rejected(self, bad):
        with pytest.raises(ValueError, match="shape"):
            reconstruct_density(lambda axes: bad(self._grid(axes)), -1, 1, 0.0)

    def test_complex_values_rejected(self):
        # a zero imaginary part is refused too: the dtype is checked, not the values
        for imag in (1e-3, 0.0):
            with pytest.raises(ValueError, match="complex"):
                reconstruct_density(lambda axes: self._grid(axes) + 1j * imag, -1, 1, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, value):
        def sampler(axes):
            vals = self._grid(axes).copy()
            vals[-1, 2] = value
            return vals

        with pytest.raises(ValueError, match="non-finite"):
            reconstruct_density(sampler, -1, 1, 0.0)

    def test_empty_window_never_samples(self):
        calls = []
        with pytest.raises(ValueError, match="empty"):
            reconstruct_density(lambda axes: calls.append(axes) or 0.0, 2, 1, 0.0)
        assert calls == []

    def test_oversized_window_never_samples(self):
        # K = 4097: a complex128 K x K result above 256 MiB, on a sampled
        # grid of about 4.4 K x (2K - 1) values
        def refuse(axes):
            raise AssertionError("sampler called")

        with pytest.raises(ValueError, match=r"K=4097 needs 268566544 bytes"):
            reconstruct_density(refuse, -2048, 2048, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.integers(-10, 10), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**32 - 1))
    def test_grid_route_matches_pointwise_route(self, K, n_min, delta, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
        entries = B @ B.conj().T
        entries = 0.5 * (entries + entries.conj().T) / np.trace(entries).real
        rho = DensityMatrix(delta=delta, n_min=n_min, entries=entries)
        grid = reconstruct_density(lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, delta)
        pointwise = reconstruct_density(_pointwise_sampler(rho), rho.n_min, rho.n_max, delta)
        assert np.max(np.abs(grid.entries - pointwise.entries)) <= 1e-15


class TestExpectationViaPhaseSpace:
    def test_identity_gives_trace(self):
        rho = pure_density(von_mises_state(0.5, 0.0))
        op = identity_operator(rho.n_min, rho.n_max)
        assert expectation_via_phase_space(rho, op) == pytest.approx(1.0, abs=1e-10)

    def test_momentum_observable(self):
        st = von_mises_state(1.0, 2.3)
        rho = pure_density(st)
        op = angular_momentum_operator(rho.n_min, rho.n_max, rho.delta)
        assert expectation_via_phase_space(rho, op) == pytest.approx(2.3, abs=1e-8)

    def test_cosine_observable(self):
        s = 0.5
        rho = pure_density(von_mises_state(s, 0.0))
        op = cosine_operator(rho.n_min, rho.n_max)
        want = bessel_i(1, 2 * s) / bessel_i(0, 2 * s)
        assert expectation_via_phase_space(rho, op) == pytest.approx(want, abs=1e-10)

    def test_non_hermitian_rejected(self):
        rho = pure_density(cat_state(0.0))
        op = np.zeros((3, 3), complex)
        op[0, 1] = 1.0
        with pytest.raises(ValueError):
            expectation_via_phase_space(rho, op)

    def test_window_mismatch_rejected(self):
        rho = pure_density(cat_state(0.0))
        with pytest.raises(ValueError):
            expectation_via_phase_space(rho, np.eye(5))


class TestUncertainty:
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0])
    def test_minimal_uncertainty_saturation(self, s):
        u = uncertainty_product(von_mises_state(s, 0.7))
        assert u.lhs == pytest.approx(u.rhs, abs=1e-8)
        assert u.lhs > 0.0

    def test_momentum_eigenstate_degenerates(self):
        u = uncertainty_product(basis_state(2))
        assert u.lhs == pytest.approx(0.0, abs=1e-15)
        assert u.rhs == pytest.approx(0.0, abs=1e-15)

    def test_cat_is_strictly_above_bound(self):
        # window {-1, 0, 1}: var S = 1/4, var L = 1, both covariance terms vanish
        u = uncertainty_product(cat_state(0.0))
        assert u.lhs == pytest.approx(0.25, abs=1e-12)
        assert u.rhs == pytest.approx(0.0, abs=1e-15)

    def test_inequality_always_holds(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            size = int(rng.integers(2, 6))
            coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
            coeffs /= np.linalg.norm(coeffs)
            st = FourierState(delta=float(rng.uniform(0, 1)), n_min=int(rng.integers(-3, 1)), coeffs=coeffs)
            u = uncertainty_product(st)
            assert u.lhs >= u.rhs - 1e-10

    def test_equals_the_dense_sine_operator(self):
        # the two shifted slices are the nonzero terms of S @ c, in its order
        rng = np.random.default_rng(41)
        for K in (1, 2, 5, 40):
            coeffs = rng.normal(size=K) + 1j * rng.normal(size=K)
            st = FourierState(delta=0.3, n_min=-K // 2, coeffs=coeffs / np.linalg.norm(coeffs))
            c = np.concatenate([np.zeros(2), st.coeffs, np.zeros(2)])
            s_psi = sine_operator(st.n_min - 2, st.n_max + 2) @ c
            l_psi = (np.arange(st.n_min - 2, st.n_max + 3) + st.delta) * c
            mean_s, mean_l = np.vdot(c, s_psi).real, np.vdot(c, l_psi).real
            cross = np.vdot(s_psi, l_psi)
            u = uncertainty_product(st)
            assert u.lhs == (np.vdot(s_psi, s_psi).real - mean_s**2) * (np.vdot(l_psi, l_psi).real - mean_l**2)
            assert u.rhs == (cross.real - mean_s * mean_l) ** 2 + cross.imag**2

    def test_memory_without_a_dense_operator(self, traced):
        # K = 579: the K x K sine matrix and its two np.diag temporaries took 10.4 MiB
        _, peak = traced(uncertainty_product, von_mises_state(1000.0, 0.3))
        assert peak < 2**20


class TestOperatorMatrices:
    def test_sine_cosine_hermitian_tridiagonal(self):
        S = sine_operator(-2, 2)
        C = cosine_operator(-2, 2)
        assert np.max(np.abs(S - S.conj().T)) == 0.0
        assert np.max(np.abs(C - C.conj().T)) == 0.0
        assert S[1, 0] == -0.5j and S[0, 1] == 0.5j
        assert C[1, 0] == 0.5 and C[0, 1] == 0.5

    def test_commutation_with_momentum(self):
        # [S, L] = i C on the interior of any window
        n_min, n_max = -4, 4
        S = sine_operator(n_min, n_max)
        C = cosine_operator(n_min, n_max)
        L = angular_momentum_operator(n_min, n_max)
        comm = S @ L - L @ S
        interior = slice(1, -1)
        assert np.max(np.abs(comm[interior, interior] - 1j * C[interior, interior])) <= 1e-14


class TestRescaleHbar:
    def test_reduces_at_unit_scale(self):
        for p in (-1.3, 0.0, 2.0, 0.4):
            assert rescale_hbar(p, 1.0, 1) == sinc_pi(p - 1)

    def test_peak_at_scaled_index(self):
        for hbar in (1.0, 0.1, 0.01):
            assert rescale_hbar(hbar * 3, hbar, 3) == 1.0

    def test_mass_concentration(self):
        masses = []
        for hbar in (1.0, 0.3, 0.1, 0.03, 0.01):
            mass = integrate_interval(
                lambda p, h=hbar: rescale_hbar(p, h, 1) / h,
                hbar * 1 - 0.05,
                hbar * 1 + 0.05,
                order=64,
            )
            masses.append(mass)
        assert all(a < b for a, b in zip(masses, masses[1:]))
        assert masses[-1] >= 0.95

    @pytest.mark.parametrize("hbar, m", [(1e-310, 0), (1e308, 2)])
    def test_overflowing_argument_takes_the_limit(self, hbar, m):
        # (p - hbar m)/hbar overflows for these momenta but 0 at hbar = 1e-310,
        # the peak; |sinc| < 2e-309 where it overflows
        ps = np.linspace(-5.0, 5.0, 11)
        values = rescale_hbar(ps, hbar, m)
        assert np.all(np.isfinite(values)) and np.max(np.abs(values[ps != 0.0])) <= 2e-309
        assert rescale_hbar(5.0, hbar, m) == 0.0

    def test_non_finite_momentum_still_refused(self):
        with pytest.raises(ValueError, match="finite"):
            rescale_hbar(np.inf, 1e-310, 0)

    def test_index_bound(self):
        m = 2**51 - 1
        assert rescale_hbar(0.5, 1.0, m) == pytest.approx(1.0 / (pi * (m - 0.5)), rel=1e-15)
        for m in (2**51, -(2**51)):
            with pytest.raises(ValueError, match="2\\*\\*51"):
                rescale_hbar(0.5, 1.0, m)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rescale_hbar(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            rescale_hbar(0.0, -1.0, 1)


class TestRequireReal:
    def test_real_input_is_returned_as_is(self):
        values = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert _require_real(values) is values

    def test_small_residue_gives_real_part(self):
        values = np.array([[0.25 + 1e-13j, -0.5], [0.0, 1.0 - 1e-13j]])
        got = _require_real(values)
        assert got.dtype == np.float64
        assert np.array_equal(got, values.real)

    def test_large_residue_raises(self):
        values = np.array([[0.25 + 1e-11j, -0.5]])
        with pytest.raises(
            ArithmeticError,
            match=r"^imaginary residue 1\.000e-11 exceeds 1\.0e-12; refusing to take real part$",
        ):
            _require_real(values)


def _zero_filled_window(bra, ket):
    """The dense union window of a state pair: zeros, then the bra-ket block."""
    n_min = min(bra.n_min, ket.n_min)
    K = max(bra.n_max, ket.n_max) - n_min + 1
    A = np.zeros((K, K), dtype=np.complex128)
    rows = slice(bra.n_min - n_min, bra.n_max - n_min + 1)
    cols = slice(ket.n_min - n_min, ket.n_max - n_min + 1)
    A[rows, cols] = np.outer(bra.coeffs.conj(), ket.coeffs)
    return A, n_min


def _zero_filled_coeffs(state, n_min, n_max):
    c = np.zeros(n_max - n_min + 1, dtype=np.complex128)
    c[state.n_min - n_min : state.n_max - n_min + 1] = state.coeffs
    return c


# windows [7, 9], [8, 12] (overlapping, offset) and [-4, -3] (disjoint)
_LOW = FourierState(delta=0.3, n_min=7, coeffs=np.array([0.6, 0.48j, 0.64]))
_HIGH = FourierState(
    delta=0.3, n_min=8, coeffs=np.array([0.1 + 0.2j, -0.4, 0.5j, 0.3 - 0.1j, 0.2]) / np.sqrt(0.6)
)
_FAR = FourierState(delta=0.3, n_min=-4, coeffs=np.array([0.8, -0.6j]))
# _HIGH's coefficients on [6, 14], zeros on both sides; a zero inside
# [7, 9]; a real multiple of _HIGH; _HIGH moved by 1e-14 in one place;
# _HIGH with one more coefficient, whose entries have zero mirrors.  The
# multiple, the near copy, _HIGH with _PADDED and _HIGH with itself are
# Hermitian by the dense test
_PADDED = FourierState(delta=0.3, n_min=6, coeffs=np.concatenate([[0, 0], _HIGH.coeffs, [0]]))
_HOLE = FourierState(delta=0.3, n_min=7, coeffs=np.array([0.6, 0.0, 0.8j]))
_TWICE = FourierState(delta=0.3, n_min=8, coeffs=-2.5 * _HIGH.coeffs)
_NEAR = FourierState(delta=0.3, n_min=8, coeffs=_HIGH.coeffs + np.array([0, 0, 0, 1e-14j, 0]))
_LONGER = FourierState(delta=0.3, n_min=8, coeffs=np.concatenate([_HIGH.coeffs, [0.3]]))
_HERMITIAN_PAIRS = [(_HIGH, _HIGH), (_HIGH, _PADDED), (_PADDED, _HIGH), (_HIGH, _TWICE), (_HIGH, _NEAR)]
_WINDOW_PAIRS = [
    (_LOW, _HIGH),
    (_HIGH, _LOW),
    (_LOW, _FAR),
    (_FAR, _HIGH),
    (_HOLE, _HIGH),
    (_LOW, _HOLE),
    (_HIGH, _LONGER),
    (_LONGER, _HIGH),
    *_HERMITIAN_PAIRS,
]


def _union_window(bra, ket):
    """``np.outer`` of the pair zero-filled onto the union of their windows."""
    n_min, n_max = min(bra.n_min, ket.n_min), max(bra.n_max, ket.n_max)
    return np.outer(_zero_filled_coeffs(bra, n_min, n_max).conj(), _zero_filled_coeffs(ket, n_min, n_max)), n_min


def _moyal_pair(spec):
    """A bra and a ket of up to 10 coefficients each, up to 14 indices
    apart, the ket random, with a zero, a real multiple of the bra, the bra
    moved by 1e-14 in one place, the bra zero-padded, or the bra with one
    more coefficient of size 1 or 1e-14 on either side."""
    Kb, n_bra, kind, seed = spec
    rng = np.random.default_rng(seed)
    bra = FourierState(delta=0.3, n_min=n_bra, coeffs=rng.normal(size=Kb) + 1j * rng.normal(size=Kb))
    if kind == "multiple":
        return bra, FourierState(delta=0.3, n_min=n_bra, coeffs=float(rng.uniform(-3, 3)) * bra.coeffs)
    if kind == "near":
        coeffs = np.array(bra.coeffs)
        coeffs[rng.integers(Kb)] += 1e-14j
        return bra, FourierState(delta=0.3, n_min=n_bra, coeffs=coeffs)
    if kind == "padded":
        below, above = (int(k) for k in rng.integers(0, 5, 2))
        coeffs = np.concatenate([np.zeros(below), bra.coeffs, np.zeros(above)])
        return bra, FourierState(delta=0.3, n_min=n_bra - below, coeffs=coeffs)
    if kind == "extended":
        extra = [rng.choice([1.0, 1e-14])]
        below = int(rng.integers(2))
        coeffs = np.concatenate([extra, bra.coeffs] if below else [bra.coeffs, extra])
        return bra, FourierState(delta=0.3, n_min=n_bra - below, coeffs=coeffs)
    Kk = int(rng.integers(1, 11))
    coeffs = rng.normal(size=Kk) + 1j * rng.normal(size=Kk)
    if kind == "zero":
        coeffs[rng.integers(Kk)] = 0.0
    return bra, FourierState(delta=0.3, n_min=n_bra + int(rng.integers(-14, 15)), coeffs=coeffs)


class TestWindows:
    """Offset and disjoint windows: values equal those of zero-filled dense
    windows and padded coefficient vectors."""

    @pytest.mark.parametrize("axis", ["open", "full_period"])
    @pytest.mark.parametrize("bra,ket", _WINDOW_PAIRS)
    def test_moyal_grid_equals_the_zero_filled_window(self, bra, ket, axis):
        # byte for byte: the pair's factors on their own windows against the
        # dense matrix on the union, zero-filled outside the bra-ket block
        thetas = np.linspace(-3.0, 3.0, 13) if axis == "open" else np.linspace(-pi, pi, 15)
        ps = np.linspace(-6.0, 14.0, 41)
        got = moyal_grid(bra, ket, thetas, ps).values
        for A, n_min in (_zero_filled_window(bra, ket), _union_window(bra, ket)):
            want = phase_space_sum_grid(A, n_min, 0.3, thetas, ps).astype(np.complex128)
            assert got.tobytes() == want.tobytes()
            pt = PhasePoint(2.0, 8.2)
            assert moyal_function(bra, ket, pt) == complex(
                phase_space_sum_grid(A, n_min, 0.3, np.array([pt.theta]), np.array([pt.p]))[0, 0]
            )
        # a pair the dense test calls Hermitian folds to a real grid
        assert np.all(got.imag == 0.0) == ((bra, ket) in _HERMITIAN_PAIRS)

    @settings(max_examples=80, deadline=None)
    @given(
        st.tuples(
            st.integers(1, 10),
            st.integers(-12, 12),
            st.sampled_from(["random", "zero", "multiple", "near", "padded", "extended"]),
            st.integers(0, 2**32 - 1),
        ),
        st.sampled_from(["open", "full_period", "point"]),
    )
    def test_moyal_grid_equals_the_union_window(self, spec, axis):
        bra, ket = _moyal_pair(spec)
        axes = {"open": np.linspace(-3.0, 3.0, 7), "full_period": np.linspace(-pi, pi, 11), "point": np.array([1.3])}
        thetas = axes[axis]
        ps = np.linspace(bra.n_min - 8.0, bra.n_min + 12.0, 1 if axis == "point" else 21)
        A, n_min = _union_window(bra, ket)
        want = phase_space_sum_grid(A, n_min, 0.3, thetas, ps).astype(np.complex128)
        assert moyal_grid(bra, ket, thetas, ps).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gap", [6000, 20000])
    def test_far_pair_costs_its_products(self, gap):
        # two 8-coefficient states 6000 and 20000 apart: the dense union
        # window took 585 MiB at 6000 and 5.97 GiB at 20000
        rng = np.random.default_rng(gap)
        coeffs = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        bra = FourierState(delta=0.25, n_min=-3, coeffs=coeffs[0])
        ket = FourierState(delta=0.25, n_min=gap - 3, coeffs=coeffs[1])
        tracemalloc.start()
        try:
            grid = moyal_grid(bra, ket)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.values.shape == (181, 401)
        assert peak <= 16 * 2**20
        # within the kernel's bound of the 40-digit sum over the 8 x 8 block:
        # row 90 (theta = 0) of the default grid, and an open axis at
        # momenta among the centres
        block = np.outer(bra.coeffs.conj(), ket.coeffs)
        bound = np.finfo(float).eps * float(np.sum(np.abs(block)))
        centre = (bra.n_min + ket.n_max) / 2
        near = moyal_grid(bra, ket, np.array([0.3, 2.0, -1.1]), centre + np.array([-0.7, 0.2, 1.45]))
        points = [(grid.theta_axis[90], grid.p_axis[j], grid.values[90, j]) for j in (0, 200, 333)]
        points += [(t, p, near.values[i, j]) for i, t in enumerate(near.theta_axis) for j, p in enumerate(near.p_axis)]
        for theta, p, value in points:
            truth = true_windowed_sum(block, bra.n_min, 0.25, float(theta), float(p), col_min=ket.n_min)
            assert abs(mpmath.mpc(complex(value)) - truth) <= bound, (theta, p)

    @pytest.mark.parametrize("a,b", _WINDOW_PAIRS)
    def test_overlap_equals_the_padded_inner_product(self, a, b):
        n_min, n_max = min(a.n_min, b.n_min), max(a.n_max, b.n_max)
        ca, cb = _zero_filled_coeffs(a, n_min, n_max), _zero_filled_coeffs(b, n_min, n_max)
        assert overlap_from_wigner(a, b) == float(np.abs(np.vdot(ca, cb)) ** 2)
        assert overlap_from_wigner(_LOW, _FAR) == 0.0

    @pytest.mark.parametrize(
        "state,lhs,rhs",
        [
            (_LOW, 0.23599627228938638, 0.08799984604938252),
            (von_mises_state(0.8, -11.7), 0.09606858389606338, 0.09606858389608146),
        ],
    )
    def test_uncertainty_on_offset_windows(self, state, lhs, rhs):
        u = uncertainty_product(state)
        assert u.lhs == pytest.approx(lhs, rel=1e-13)
        assert u.rhs == pytest.approx(rhs, rel=1e-13)


class TestGrids:
    def test_grid_above_the_budget_is_refused_before_it_is_built(self):
        from cylwigner.thermal import ThermalParams, thermal_density

        # 2**25 values fill the budget as a real grid, so one more angle
        # passes it; a complex grid passes it at half as many values
        thetas, ps = np.linspace(-pi, pi, 2**10 + 1), np.linspace(-5.0, 5.0, 2**15)
        state = von_mises_state(1.0, 0.2)
        calls = [
            (8, wigner_grid, state, thetas, ps),
            (8, wigner_grid, pure_density(state), thetas, ps),
            (8, wigner_grid, thermal_density(ThermalParams(1.0)), thetas, ps),  # the diagonal window's tiled row
            (16, moyal_grid, cat_state(0.3), basis_state(1), thetas[: 2**9 + 1], ps),
            (16, moyal_grid, state, state, thetas[: 2**9 + 1], ps),  # a real grid, returned complex
        ]
        for itemsize, call, *args in calls:
            n = args[-2].size
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=rf"^a grid of {n} angles x 32768 momenta needs {itemsize * n * 2**15} bytes"):
                    call(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_default_axes(self):
        grid = wigner_grid(cat_state(0.0))
        assert grid.theta_axis.size == 181 and grid.p_axis.size == 401
        assert grid.theta_axis[0] == -pi and grid.theta_axis[-1] == pi
        assert grid.p_axis[0] == -5.0 and grid.p_axis[-1] == 5.0
        assert grid.values.shape == (181, 401)
        assert not np.iscomplexobj(grid.values)
        assert np.max(np.abs(grid.values)) <= 1 / pi + 1e-12

    def test_grid_matches_pointwise(self):
        st = von_mises_state(0.5, 0.6)
        thetas = np.array([-1.0, 0.0, 2.0])
        ps = np.array([-0.7, 0.4, 1.9])
        grid = wigner_grid(st, thetas, ps)
        for i, th in enumerate(thetas):
            for j, p in enumerate(ps):
                assert grid.values[i, j] == pytest.approx(
                    wigner_function(st, (float(th), float(p))), abs=1e-13
                )

    def test_moyal_grid_complex(self):
        grid = moyal_grid(cat_state(0.0), basis_state(1), np.array([0.3]), np.array([0.2, 1.0]))
        assert np.iscomplexobj(grid.values)
        assert grid.values[0, 0] == pytest.approx(
            moyal_function(cat_state(0.0), basis_state(1), (0.3, 0.2)), abs=1e-14
        )

    def test_moyal_grid_of_one_state_is_complex(self):
        # bra == ket folds to the kernel's real path; the cross grid stays complex
        st = von_mises_state(0.5, 0.6)
        grid = moyal_grid(st, st, np.array([0.3, 1.1]), np.array([0.2, 1.0]))
        assert grid.values.dtype == np.complex128
        assert np.array_equal(grid.values.imag, np.zeros((2, 2)))
        want = wigner_grid(st, grid.theta_axis, grid.p_axis).values
        assert np.max(np.abs(grid.values.real - want)) <= 1e-15

    def test_density_grid(self):
        rho = pure_density(cat_state(0.0))
        grid = wigner_grid(rho, np.array([0.0]), np.array([0.0]))
        assert grid.values[0, 0] == pytest.approx(wigner_density(rho, (0.0, 0.0)), abs=1e-14)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            WignerGrid(theta_axis=np.zeros(2), p_axis=np.zeros(3), values=np.zeros((3, 2)))

    def test_holds_a_frozen_owned_array(self):
        values = np.ones((2, 3))
        values.setflags(write=False)
        assert WignerGrid(theta_axis=np.zeros(2), p_axis=np.zeros(3), values=values).values is values

    def test_copies_a_writable_array_or_a_view(self):
        source = np.ones((2, 6))
        frozen_view = source[:, ::2]
        frozen_view.setflags(write=False)  # read-only, but its base is not
        for values in (source[:, :3], frozen_view, source[:, :3].copy()):
            grid = WignerGrid(theta_axis=np.zeros(2), p_axis=np.zeros(3), values=values)
            assert grid.values is not values and not np.shares_memory(grid.values, source)
            assert not grid.values.flags.writeable
        assert source.flags.writeable

    @pytest.mark.parametrize(
        "grid_of",
        [
            lambda thetas, ps: wigner_grid(von_mises_state(0.5, 0.6), thetas, ps),
            lambda thetas, ps: moyal_grid(cat_state(0.0), basis_state(1), thetas, ps),
        ],
        ids=["wigner", "moyal"],
    )
    def test_kernel_output_held_not_copied(self, grid_of, monkeypatch):
        made = []

        def recording(*args):
            made.append(phase_space_sum_grid(*args))
            return made[-1]

        monkeypatch.setattr(wigner, "phase_space_sum_grid", recording)
        grid = grid_of(np.array([0.0, 0.5]), np.array([-1.0, 0.0, 1.0]))
        assert grid.values is made[0]

    @pytest.mark.parametrize(
        "grid_of",
        [
            lambda thetas, ps: wigner_grid(von_mises_state(0.5, 0.6), thetas, ps),
            lambda thetas, ps: wigner_grid(pure_density(cat_state(0.0)), thetas, ps),
            lambda thetas, ps: moyal_grid(cat_state(0.0), basis_state(1), thetas, ps),
            lambda thetas, ps: moyal_grid(cat_state(0.0), cat_state(0.0), thetas, ps),
        ],
        ids=["wigner_state", "wigner_density", "moyal", "moyal_same"],
    )
    def test_values_read_only_and_caller_axes_untouched(self, grid_of):
        thetas = np.array([0.0, 0.5])
        ps = np.array([-1.0, 0.0, 1.0])
        grid = grid_of(thetas, ps)
        assert not grid.values.flags.writeable
        for given, held in ((thetas, grid.theta_axis), (ps, grid.p_axis)):
            assert given.flags.writeable and not np.shares_memory(given, held)
            assert not held.flags.writeable

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("axis", ["theta", "p"])
    @pytest.mark.parametrize(
        "grid_of",
        [
            lambda thetas, ps: wigner_grid(cat_state(0.0), thetas, ps),
            lambda thetas, ps: moyal_grid(cat_state(0.0), basis_state(1), thetas, ps),
        ],
        ids=["wigner_grid", "moyal_grid"],
    )
    def test_non_finite_axis_rejected(self, grid_of, axis, value):
        thetas = np.array([0.0, 0.5])
        ps = np.array([-1.0, 0.0, 1.0])
        if axis == "theta":
            thetas[1] = value
        else:
            ps[2] = value
        with pytest.raises(ValueError, match="must be finite"):
            grid_of(thetas, ps)

    @pytest.mark.parametrize("theta", [1e307, -1e307])
    def test_angle_whose_phase_overflows_is_refused(self, theta):
        # exp(i d theta) at d = 16 overflowed: the grid and the marginal were
        # NaN, with "overflow encountered in multiply" and "invalid value
        # encountered in cos"
        state = von_mises_state(2.0, 0.3)
        named = rf"phase product of angle {re.escape(repr(theta))} and index \d+ overflows float64"
        with pytest.raises(ValueError, match=named):
            wigner_grid(state, [theta], [0.0, 1.0])
        with pytest.raises(ValueError, match=named):
            marginal_angle(state, theta)

    def test_held_plan_takes_no_phase_check(self, monkeypatch):
        # the check runs where phase columns are built: a new or grown plan
        monkeypatch.setattr(_kernels, "_held_plans", {})
        calls = []
        check = _kernels._check_phases
        monkeypatch.setattr(_kernels, "_check_phases", lambda *args: calls.append(args) or check(*args))
        thetas = np.linspace(-1.0, 1.0, 7)
        for s in (2.0, 2.0, 1.0, 30.0):  # new, held, held, grown
            wigner_grid(von_mises_state(s, 0.3), thetas, [0.0])
        assert len(calls) == 2


class TestConcurrency:
    def test_parallel_point_evaluation_matches_serial(self):
        # evaluation functions are pure; threads must see identical values
        from concurrent.futures import ThreadPoolExecutor

        st = von_mises_state(0.5, 0.6)
        rng = np.random.default_rng(79)
        points = [
            (float(rng.uniform(-pi, pi)), float(rng.uniform(-5, 5))) for _ in range(64)
        ]
        serial = [wigner_function(st, pt) for pt in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda pt: wigner_function(st, pt), points))
        assert threaded == serial


# -0, nan, +-inf, the smallest subnormal and a value near the largest float
_SPECIAL_VALUES = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308])
_csv_floats = st.one_of(st.sampled_from(_SPECIAL_VALUES.tolist()), st.floats())


@st.composite
def csv_grids(draw):
    """Grids of 1..4 x 1..6 entries, 1 x N and N x 1 among them."""
    n_theta = draw(st.integers(1, 4))
    n_p = draw(st.integers(1, 6))
    thetas = draw(st.lists(_csv_floats, min_size=n_theta, max_size=n_theta))
    ps = draw(st.lists(_csv_floats, min_size=n_p, max_size=n_p))
    values = draw(st.lists(_csv_floats, min_size=n_theta * n_p, max_size=n_theta * n_p))
    return WignerGrid(
        theta_axis=np.array(thetas), p_axis=np.array(ps), values=np.reshape(values, (n_theta, n_p))
    )


@st.composite
def repeating_csv_grids(draw):
    """Grids whose rows come from a pool of 1..3 rows and the first row's
    twin with the sign of each zero flipped, in any order, often mirrored
    (the order then reversed and appended) or repeated in a run."""
    n_p = draw(st.integers(1, 6))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), _csv_floats)
    pool = draw(st.lists(st.lists(entries, min_size=n_p, max_size=n_p), min_size=1, max_size=3))
    pool.append([-v if v == 0.0 else v for v in pool[0]])
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    if draw(st.booleans()):
        order += order[::-1]
    thetas = draw(st.lists(_csv_floats, min_size=len(order), max_size=len(order)))
    ps = draw(st.lists(_csv_floats, min_size=n_p, max_size=n_p))
    return WignerGrid(theta_axis=np.array(thetas), p_axis=np.array(ps), values=np.array([pool[i] for i in order]))


def _reference_csv(grid):
    """Reference formatter, three f-string formats per line: the bytes
    ``write_grid_csv`` must reproduce."""
    values = grid.values
    lines = ["theta,p,value"]
    for i, th in enumerate(grid.theta_axis):
        for j, pv in enumerate(grid.p_axis):
            lines.append(f"{th:.17g},{pv:.17g},{values[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def _written_bytes(grid, to_path):
    if not to_path:
        buf = io.StringIO()
        write_grid_csv(grid, buf)
        return buf.getvalue().encode("ascii")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "grid.csv"
        write_grid_csv(grid, str(out))
        return out.read_bytes()


class TestGridCsv:
    def test_format_and_determinism(self):
        grid = wigner_grid(cat_state(0.0), np.array([0.0, 0.5]), np.array([-1.0, 0.0, 1.0]))
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_grid_csv(grid, buf1)
        write_grid_csv(grid, buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.strip().split("\n")
        assert lines[0] == "theta,p,value"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == -1.0

    def test_row_major_order(self):
        grid = wigner_grid(basis_state(0), np.array([0.0, 1.0]), np.array([0.0, 0.5]))
        buf = io.StringIO()
        write_grid_csv(grid, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        # theta varies slowest
        assert [r[0] for r in rows] == ["0", "0", "1", "1"]

    def test_complex_grid_rejected(self):
        grid = moyal_grid(cat_state(0.0), basis_state(1), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            write_grid_csv(grid, io.StringIO())

    def test_complex_grid_to_path_creates_no_file(self, tmp_path):
        grid = moyal_grid(cat_state(0.0), basis_state(1), np.array([0.0]), np.array([0.0]))
        out = tmp_path / "moyal.csv"
        with pytest.raises(ValueError):
            write_grid_csv(grid, out)
        assert not out.exists()

    @settings(max_examples=80, deadline=None)
    @given(csv_grids(), st.booleans())
    def test_bytes_match_reference(self, grid, to_path):
        assert _written_bytes(grid, to_path) == _reference_csv(grid).encode("ascii")

    @settings(max_examples=150, deadline=None)
    @given(repeating_csv_grids(), st.integers(1, 3), st.integers(0, 12))
    def test_repeated_rows_match_reference(self, grid, block, hold):
        # small blocks split each row; a small hold makes repeats that find
        # no room be formatted again
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wigner, "_CSV_BLOCK", block)
            patch.setattr(wigner, "_CSV_HOLD", hold)
            assert _written_bytes(grid, False) == _reference_csv(grid).encode("ascii")

    @settings(max_examples=150, deadline=None)
    @given(repeating_csv_grids(), st.integers(1, 3), st.integers(0, 12))
    def test_repeated_rows_match_reference_through_a_file(self, grid, block, hold):
        # the binary sink writes held rows as bytes, filled in at each occurrence
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wigner, "_CSV_BLOCK", block)
            patch.setattr(wigner, "_CSV_HOLD", hold)
            assert _written_bytes(grid, True) == _reference_csv(grid).encode("ascii")

    def test_held_text_stays_under_the_cap(self, traced):
        # 4001 rows, row i equal to row 4000 - i: reuse would hold 2000 rows
        # of text, but the cap keeps the peak near its own size
        rng = np.random.default_rng(11)
        half = rng.standard_normal((2001, 401))
        grid = WignerGrid(
            theta_axis=np.linspace(-pi, pi, 4001), p_axis=np.linspace(-5.0, 5.0, 401),
            values=np.concatenate([half, half[-2::-1]]),
        )

        class Counter:
            size = 0

            def write(self, text):
                self.size += len(text)

        sink = Counter()
        _, peak = traced(write_grid_csv, grid, sink)
        assert sink.size > 60 * 2**20
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("to_path", [False, True])
    def test_row_longer_than_block(self, to_path):
        n = 2 * _CSV_BLOCK + 3
        rng = np.random.default_rng(5)
        values = rng.standard_normal((2, n))
        values[0, ::97] = _SPECIAL_VALUES[np.arange(values[0, ::97].size) % _SPECIAL_VALUES.size]
        grid = WignerGrid(
            theta_axis=np.array([-0.0, 1e308]), p_axis=np.linspace(-100.0, 100.0, n), values=values
        )
        assert _written_bytes(grid, to_path) == _reference_csv(grid).encode("ascii")


def _axes_grid(seed, n_theta=5, n_p=7):
    """A grid of random values on axes drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return WignerGrid(
        theta_axis=np.sort(rng.uniform(-pi, pi, n_theta)),
        p_axis=np.linspace(-5.0, 5.0, n_p) + rng.uniform(-0.5, 0.5),
        values=rng.standard_normal((n_theta, n_p)),
    )


def _held_total():
    return sum(wigner._text_bytes(blocks) for blocks in wigner._held_axes.values())


class TestHeldAxisText:
    """The text of an export's axes is held between exports; the bytes never
    depend on what is held."""

    @pytest.fixture(autouse=True)
    def nothing_held(self, monkeypatch):
        monkeypatch.setattr(wigner, "_held_axes", {})

    @pytest.mark.parametrize("to_path", [False, True])
    def test_cold_and_warm_exports_match(self, to_path):
        grid = _axes_grid(1)
        want = _reference_csv(grid).encode("ascii")
        assert _written_bytes(grid, to_path) == want
        assert len(wigner._held_axes) == 2
        assert _written_bytes(grid, to_path) == want
        # other values on the same axes, the sweep the held text is for
        other = WignerGrid(theta_axis=grid.theta_axis, p_axis=grid.p_axis, values=-grid.values)
        assert _written_bytes(other, to_path) == _reference_csv(other).encode("ascii")
        assert len(wigner._held_axes) == 2

    def test_export_after_other_axes(self):
        a, b = _axes_grid(1), _axes_grid(2, 6, 9)
        for grid in (a, b, a, b):
            assert _written_bytes(grid, False) == _reference_csv(grid).encode("ascii")
        assert len(wigner._held_axes) == 4

    def test_held_blocks_are_read_only(self):
        grid = _axes_grid(3)
        _written_bytes(grid, False)
        blocks = wigner._axis_fields(grid.theta_axis, "theta")
        assert blocks is wigner._axis_fields(grid.theta_axis, "theta")
        for held in wigner._held_axes.values():
            for block in held:
                assert not block.flags.writeable
                with pytest.raises(ValueError):
                    block[0, 0] = 0

    def test_line_ready_text(self):
        # an angle is "\n<text>," at the right end of its row and a momentum
        # "<text>," at the left end, so the two side by side are one run
        axis = np.array([0.0, -0.5, 1e-300, np.nan, 3.0000000000000004, -1e22])
        for role in ("theta", "p"):
            (block,) = wigner._axis_fields(axis, role)
            assert block.shape[0] == axis.size
            for value, row in zip(axis.tolist(), block):
                text = b"%.17g," % value
                if role == "theta":
                    text = b"\n" + text
                    assert row[row.size - len(text) :].tobytes() == text
                else:
                    assert row[: len(text)].tobytes() == text
                assert np.count_nonzero(row) == len(text)
            # the widest text fills its row
            assert np.count_nonzero(block, axis=1).max() == block.shape[1]

    def test_roles_are_held_apart_in_one_store(self):
        axis = np.linspace(-1.0, 1.0, 7)
        theta, p = wigner._axis_fields(axis, "theta"), wigner._axis_fields(axis, "p")
        assert len(wigner._held_axes) == 2
        assert theta is wigner._axis_fields(axis, "theta") and p is wigner._axis_fields(axis, "p")
        assert _held_total() == wigner._text_bytes(theta) + wigner._text_bytes(p)

    def test_angle_and_momentum_text_is_one_run(self):
        thetas, ps = np.array([0.25, -3.0]), np.array([1.5, -2.0, 1e-7])
        values = np.full((2, 3), 1.2345678901234567e-05)  # exponent notation, every digit kept
        lines = wigner._csv_lines(wigner._axis_fields(thetas, "theta")[0], wigner._axis_fields(ps, "p")[0], values)
        assert lines.shape[0] == thetas.size
        for line in lines.reshape(thetas.size * ps.size, -1):
            at = np.flatnonzero(line)
            assert line[at[0]] == ord("\n")
            # "\ntheta,p," runs up to the second comma, and the value is one more run at most
            second_comma = np.flatnonzero(line[at] == ord(","))[1]
            assert at[second_comma] - at[0] == second_comma
            assert np.count_nonzero(np.diff(at) > 1) <= 1

    def test_repeated_rows_leave_the_held_theta_text(self):
        # repeated rows hold their text with the theta field open; that is
        # written into a copy, so a later export on the axis has its angles
        grid = _axes_grid(4)
        repeated = WignerGrid(
            theta_axis=grid.theta_axis, p_axis=grid.p_axis, values=np.tile(grid.values[:1], (5, 1))
        )
        for g in (repeated, grid, repeated):
            assert _written_bytes(g, True) == _reference_csv(g).encode("ascii")

    @pytest.mark.parametrize("long_axis", ["theta", "p"])
    def test_long_axis_of_blocks_with_different_widths(self, long_axis):
        n = 2 * _CSV_BLOCK + 3
        axis = np.arange(n, dtype=np.float64)  # integers: narrow text
        axis[_CSV_BLOCK : 2 * _CSV_BLOCK] = -np.geomspace(1e-300, 1e-5, _CSV_BLOCK)
        widths = {block.shape[1] for block in wigner._axis_fields(axis, long_axis)}
        assert len(widths) > 1
        values = np.random.default_rng(6).standard_normal(n)
        if long_axis == "theta":
            grid = WignerGrid(theta_axis=axis, p_axis=np.array([0.5]), values=values[:, None])
        else:
            grid = WignerGrid(theta_axis=np.array([0.5]), p_axis=axis, values=values[None, :])
        want = _reference_csv(grid).encode("ascii")
        for to_path in (False, True, False):
            assert _written_bytes(grid, to_path) == want

    def test_oldest_axis_dropped_at_the_cap(self, monkeypatch):
        a, b, c = _axes_grid(7), _axes_grid(8), _axes_grid(9)
        held = [wigner._axis_fields(a.theta_axis, "theta"), wigner._axis_fields(a.p_axis, "p")]
        # room for the four axes of two grids, not six
        monkeypatch.setattr(wigner, "_AXIS_TEXT_BYTES", _held_total() * 2 + 20)
        for grid in (a, b, c):
            assert _written_bytes(grid, False) == _reference_csv(grid).encode("ascii")
            assert _held_total() <= wigner._AXIS_TEXT_BYTES
        assert len(wigner._held_axes) == 4
        assert wigner._axis_fields(b.p_axis, "p") is wigner._axis_fields(b.p_axis, "p")
        assert wigner._axis_fields(a.theta_axis, "theta") is not held[0]
        # a's axes again, formatted anew: the same bytes
        assert _written_bytes(a, True) == _reference_csv(a).encode("ascii")

    def test_axis_above_the_cap_is_not_held(self, monkeypatch):
        grid = _axes_grid(10, n_theta=3, n_p=200)
        monkeypatch.setattr(wigner, "_AXIS_TEXT_BYTES", 1000)
        assert _written_bytes(grid, False) == _reference_csv(grid).encode("ascii")
        assert len(wigner._held_axes) == 1  # the angles only
        assert wigner._axis_fields(grid.p_axis, "p") is not wigner._axis_fields(grid.p_axis, "p")
        assert _held_total() <= 1000

    def test_held_total_stays_under_the_cap(self, monkeypatch):
        grids = [_axes_grid(20 + i, n_theta=4, n_p=50) for i in range(12)]
        monkeypatch.setattr(wigner, "_AXIS_TEXT_BYTES", 4000)
        for grid in grids:
            _written_bytes(grid, False)
            assert _held_total() <= 4000
        texts = [wigner._axis_fields(g.theta_axis, "theta") + wigner._axis_fields(g.p_axis, "p") for g in grids]
        assert sum(wigner._text_bytes(blocks) for blocks in texts) > 4000

    def test_threads_on_interleaved_axes_match_serial_runs(self, monkeypatch):
        grids = [_axes_grid(30 + i, n_theta=6, n_p=40) for i in range(4)]
        want = [_reference_csv(grid).encode("ascii") for grid in grids]
        serial = [_written_bytes(grid, False) for grid in grids]
        assert serial == want
        # room for about two grids' axes, so threads also drop and rebuild
        monkeypatch.setattr(wigner, "_AXIS_TEXT_BYTES", _held_total() // 2)
        monkeypatch.setattr(wigner, "_held_axes", {})

        def run(start):
            order = [(start + j) % len(grids) for j in range(3 * len(grids))]
            return [(i, _written_bytes(grids[i], False)) for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the dict updates too
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(run, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(data == serial[i] for result in results for i, data in result)
        assert _held_total() <= wigner._AXIS_TEXT_BYTES
