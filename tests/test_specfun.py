"""Special-function and quadrature unit tests."""

from math import exp, pi, sqrt

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylwigner.specfun import (
    bessel_i,
    bessel_i_scaled,
    oscillation_order,
    sinc_pi,
    theta3,
    theta3_jacobi,
)
from cylwigner.verify import gauss_legendre_rule, integrate_interval, integrate_theta


_LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def _reduced_sinc(x: float) -> np.longdouble:
    """sin(pi x)/(pi x) from the exactly reduced argument: ``h = rint(2x)``
    and ``f = x - h/2`` are exact in float64, and ``+-sin(pi f)`` or
    ``+-cos(pi f)`` over ``pi x`` is taken in ``np.longdouble``."""
    if x == 0.0:
        return np.longdouble(1.0)
    h = np.rint(2.0 * x)
    f = np.longdouble(x - 0.5 * h)
    k = int(h) % 4
    num = np.sin(_LONG_PI * f) if k % 2 == 0 else np.cos(_LONG_PI * f)
    return (-num if k >= 2 else num) / (_LONG_PI * np.longdouble(x))


class TestSincPi:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="the reference needs a 64-bit long double mantissa")
    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=-(2.0**51), max_value=2.0**51))
    @example(1000.3)
    @example(1e8 + 0.3)
    @example(2.0**40 + 0.3)
    @example(1e15 + 0.25)
    @example(5e-324)
    def test_within_roundoff_of_the_exactly_reduced_value(self, x):
        want = _reduced_sinc(x)
        assert abs(np.longdouble(sinc_pi(x)) - want) <= 4.4e-16 * abs(want)

    def test_exact_at_the_integers(self):
        assert sinc_pi(0.0) == 1.0 and sinc_pi(-0.0) == 1.0
        # +0.0, not -0.0, so that exported zeros print as 0; every float of
        # magnitude 2**52 or more is an integer
        ints = [1.0, -1.0, 2.0, -2.0, 3.0, -7.0, 2.0**51 + 1, 2.0**52, -(2.0**52) - 2, 2.0**53 + 2, 1e300, -1.7e308]
        vals = sinc_pi(np.array(ints))
        assert np.array_equal(vals, np.zeros(len(ints))) and not np.signbit(vals).any()
        assert not any(np.signbit(sinc_pi(x)) for x in ints)

    def test_shapes(self):
        assert isinstance(sinc_pi(0.3), float) and isinstance(sinc_pi(np.float64(0.3)), float)
        assert sinc_pi(np.array([])).shape == (0,)
        xs = np.array([[-3.2, 0.0, 0.5], [1e-8, 7.0, 2.0**52]])
        got = sinc_pi(xs)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), sinc_pi(xs.ravel()))

    def test_cardinal_values(self):
        assert sinc_pi(0.0) == 1.0
        assert sinc_pi(1.0) == 0.0
        assert sinc_pi(0.5) == pytest.approx(2.0 / pi, abs=1e-15)

    def test_kronecker_on_integers(self):
        ms = np.arange(-50, 51)
        vals = sinc_pi(ms.astype(float))
        want = (ms == 0).astype(float)
        assert np.max(np.abs(vals - want)) <= 1e-15

    def test_unit_iff_zero_and_bounded(self):
        xs = np.linspace(-20, 20, 4001)
        vals = sinc_pi(xs)
        assert np.all(np.abs(vals) <= 1.0)
        assert np.all(vals[xs != 0.0] < 1.0)

    def test_taylor_branch_is_continuous(self):
        below = sinc_pi(0.999999e-6)
        above = sinc_pi(1.000001e-6)
        assert abs(below - above) < 1e-15
        assert sinc_pi(1e-9) == pytest.approx(1.0, abs=1e-16)

    def test_scalar_and_array_agree(self):
        xs = np.array([-3.2, -1.0, 0.0, 1e-8, 0.77, 4.0])
        arr = sinc_pi(xs)
        scalars = np.array([sinc_pi(float(x)) for x in xs])
        assert np.array_equal(arr, scalars)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sinc_pi(float("nan"))
        with pytest.raises(ValueError):
            sinc_pi(np.array([0.0, np.inf]))

    def test_fourier_integral_identity(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-5, 5, size=100):
            integral = integrate_theta(lambda a, x=x: np.exp(1j * x * a)) / (2 * pi)
            assert abs(integral - sinc_pi(float(x))) <= 1e-12


class TestQuadrature:
    @pytest.mark.parametrize("order", [8, 16, 64, 128])
    def test_rule_invariants(self, order):
        nodes, weights = gauss_legendre_rule(order)
        assert nodes.shape == weights.shape == (order,)
        assert abs(np.sum(weights) - 2.0) <= 1e-14
        assert np.all(np.diff(nodes) > 0)
        assert np.all(np.abs(nodes) < 1.0)

    def test_rule_cached_and_read_only(self):
        rule = gauss_legendre_rule(16)
        assert gauss_legendre_rule(16) is rule
        assert not any(arr.flags.writeable for arr in rule)

    def test_rule_order_floor(self):
        with pytest.raises(ValueError, match="positive"):
            gauss_legendre_rule(0)

    def test_monomial_exactness(self):
        # order N integrates polynomials through degree 2N-1 exactly
        for k in range(16):
            got = integrate_interval(lambda x, k=k: x**k, -1.0, 1.0, order=8)
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(got - want) <= 1e-14

    def test_angle_interval_trivials(self):
        assert integrate_theta(lambda t: np.ones_like(t)) == pytest.approx(2 * pi, abs=1e-12)
        for k in (1, 2, 5):
            assert abs(integrate_theta(lambda t, k=k: np.cos(k * t))) <= 1e-12
        assert integrate_theta(lambda t: np.cos(t) ** 2) == pytest.approx(pi, abs=1e-12)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            integrate_theta(lambda t: t, order=4)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(ArithmeticError):
            integrate_theta(lambda t: np.full_like(t, np.inf))

    def test_oscillation_order_resolves_frequency(self):
        for nu in (10, 40, 80):
            order = oscillation_order(nu)
            residual = abs(integrate_theta(lambda t, nu=nu: np.cos(nu * t), order=order))
            assert residual <= 1e-12


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(3, 0.0) == 0.0

    def test_unit_argument_value(self):
        assert bessel_i(0, 1.0) == pytest.approx(1.2661, abs=5e-5)

    def test_order_symmetry(self):
        for n in (1, 4, 9):
            for z in (0.3, 2.0, 18.0):
                assert bessel_i(-n, z) == bessel_i(n, z)

    def test_argument_parity(self):
        for n in (0, 1, 2, 5):
            for z in (0.7, 3.0, 17.0):
                assert bessel_i(n, -z) == pytest.approx(((-1) ** n) * bessel_i(n, z), rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 40])
    @pytest.mark.parametrize("z", [0.1, 1.0, 5.0, 14.9, 15.1, 30.0, 120.0, 700.0])
    def test_against_scipy(self, n, z):
        ref = scipy.special.iv(n, z)
        assert bessel_i(n, z) == pytest.approx(ref, rel=1e-12)

    def test_against_defining_integral(self):
        # (1/2pi) \int exp(z cos t) cos(n t) dt, entire integrand
        for n, z in ((0, 1.0), (1, 0.5), (3, 2.0), (5, 10.0), (0, 20.0), (8, 16.0)):
            integral = integrate_theta(
                lambda t, n=n, z=z: np.exp(z * np.cos(t)) * np.cos(n * t), order=96
            ) / (2 * pi)
            assert bessel_i(n, z) == pytest.approx(integral, rel=1e-12)

    def test_square_sum_addition_identity(self):
        for s in (0.5, 1.0, 3.0):
            total = sum(bessel_i(k, s) ** 2 for k in range(-40, 41))
            assert total == pytest.approx(bessel_i(0, 2 * s), rel=1e-10)

    def test_huge_order_underflows_to_zero(self):
        assert bessel_i(1000, 1.0) == 0.0

    def test_range_guards(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 701.0)
        with pytest.raises(OverflowError):
            bessel_i(10**6 + 1, 1.0)
        with pytest.raises(ValueError):
            bessel_i(0, float("nan"))


# z log-uniform on [1e-300, 2000], plus exact zero and the smallest subnormal
bessel_arguments = st.one_of(
    st.sampled_from([0.0, 5e-324]),
    st.floats(-300.0, np.log10(2000.0)).map(lambda e: 10.0**e),
)


class TestBesselIScaled:
    # log-uniform draws rarely reach z > 1, so the top orders of large
    # arguments, where the ratio products are longest, are pinned as examples
    @settings(max_examples=60, deadline=None)
    @given(bessel_arguments, st.floats(0.0, 1.0))
    @example(1.0, 1.0)
    @example(15.0, 1.0)
    @example(120.0, 1.0)
    @example(700.0, 1.0)
    @example(2000.0, 1.0)
    def test_against_scipy_ive(self, z, order_share):
        n_max = int(order_share * (4 * z + 40))
        got = bessel_i_scaled(n_max, z)
        want = scipy.special.ive(np.arange(n_max + 1), z)
        assert got.shape == (n_max + 1,)
        kept = want > 1e-290
        assert np.all(np.abs(got[kept] - want[kept]) <= 1e-12 * want[kept])
        assert np.all(got[~kept] < 1e-288)

    def test_zero_argument_is_exact(self):
        assert bessel_i_scaled(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_start_from_the_window_matches_the_start_from_max_of_order_and_argument(self):
        # reference: the recurrence started 2 sqrt(40 top) + 40 above
        # top = max(n_max, z), normalized by a pairwise sum; the values
        # agree at roundoff of the peak
        def previous(n_max, z):
            top = max(n_max, z)
            start = int(top + 2.0 * sqrt(40.0 * top) + 40)
            ratios = np.empty(start)
            r = 0.0
            for k in range(start, 0, -1):
                r = z / (2.0 * k + z * r)
                ratios[k - 1] = r
            tail = np.cumprod(ratios)
            return np.concatenate(([1.0], tail[:n_max])) / (1.0 + 2.0 * tail.sum())

        for z in np.logspace(-3.0, np.log10(2e4), 25):
            top = int(4 * z + 15)
            for n_max in (0, top // 3, 2 * top // 3, top):
                want = previous(n_max, z)
                assert np.max(np.abs(bessel_i_scaled(n_max, z) - want)) <= 4.4e-16 * want[0]

    @pytest.mark.parametrize("z", [2e4, 2e7])
    def test_large_argument_against_the_asymptotic_series(self, z):
        # I_0(z) exp(-z) ~ (1 + 1/(8z) + 9/(128z^2))/sqrt(2 pi z); the next
        # term, 225/(3072 z^3), is below 1e-14 from z = 2e4 on
        want = (1.0 + 1.0 / (8.0 * z) + 9.0 / (128.0 * z * z)) / sqrt(2.0 * pi * z)
        got = bessel_i_scaled(0, z)[0]
        assert np.isfinite(got) and abs(got - want) <= 5e-14 * want

    @pytest.mark.parametrize("n_max, z", [(3, -1.0), (3, float("nan")), (3, float("inf")), (-1, 1.0)])
    def test_rejects_out_of_domain(self, n_max, z):
        with pytest.raises(ValueError):
            bessel_i_scaled(n_max, z)

    # the recurrence would hold more than 1e6 ratios: sqrt(80 z) > 1e6 at z = 1.3e10
    @pytest.mark.parametrize("n_max, z", [(10**6 + 1, 1.0), (0, 1.3e10)])
    def test_range_guard(self, n_max, z):
        with pytest.raises(OverflowError):
            bessel_i_scaled(n_max, z)


class TestTheta3:
    def test_zero_nome(self):
        for z in (-2.0, 0.0, 0.3, 10.0):
            assert theta3(z, 0.0) == 1.0

    def test_even_in_first_argument(self):
        for q in (0.2, 0.5, 0.9):
            assert theta3(0.7, q) == theta3(-0.7, q)

    def test_positivity(self):
        zs = np.linspace(-6, 6, 241)
        for q in (0.1, 0.5, 0.9):
            assert min(theta3(float(z), q) for z in zs) > 0.0

    def test_against_plain_series(self):
        # independent reference: literal series, generous truncation
        rng = np.random.default_rng(3)
        for q in (0.05, 0.3, exp(-1.0), 0.6, 0.9, 0.99):
            for z in rng.uniform(-3, 3, size=4):
                ref = 1.0 + 2.0 * sum(q ** (n * n) * np.cos(2 * n * z) for n in range(1, 200))
                assert theta3(float(z), q) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_frozen_value_at_inverse_e(self):
        # oracle: modular image sqrt(pi) * theta3(0, exp(-pi^2)) via direct series
        q_t = exp(-pi * pi)
        oracle = sqrt(pi) * (1.0 + 2.0 * sum(q_t ** (n * n) for n in range(1, 10)))
        assert oracle == pytest.approx(1.772637204826652, abs=1e-14)
        assert theta3(0.0, exp(-1.0)) == pytest.approx(oracle, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta3(0.0, -0.1)
        with pytest.raises(ValueError):
            theta3(0.0, 1.0)
        with pytest.raises(ValueError):
            theta3(float("inf"), 0.5)


class TestTheta3Jacobi:
    def test_cross_agreement_overlap_region(self):
        for eb in np.linspace(0.5, 5.0, 19):
            for z in (0.0, 0.3, 1.0):
                direct = theta3(z, exp(-float(eb)))
                assert theta3_jacobi(z, float(eb)) == pytest.approx(direct, rel=1e-12)

    def test_large_eps_beta_consistency(self):
        for eb in (10.0, 30.0):
            assert theta3_jacobi(0.0, eb) == pytest.approx(theta3(0.0, exp(-eb)), rel=1e-13)

    def test_high_temperature_prefactor(self):
        assert theta3_jacobi(0.0, 0.01) == pytest.approx(sqrt(pi / 0.01), rel=1e-8)

    def test_small_eps_beta_with_offset_stays_finite(self):
        # the folded transform keeps every exponent non-positive
        value = theta3_jacobi(pi / 2, 0.004)
        assert np.isfinite(value) and value >= 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            theta3_jacobi(0.0, 0.0)
        with pytest.raises(ValueError):
            theta3_jacobi(0.0, -1.0)
