"""The grid kernel against direct sums over the coefficient window."""

import cmath
from fractions import Fraction
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylwigner import DensityMatrix, cat_state, wigner_density, wigner_grid
from cylwigner._kernels import (
    _sinc_lattice,
    phase_space_sum_grid,
    phase_space_sum_point,
    sinc_pi_array,
)


def random_window(rng, K, n_min):
    c = rng.normal(size=K) + 1j * rng.normal(size=K)
    c /= np.linalg.norm(c)
    return np.outer(c.conj(), c)


def brute_force_sum(A, n_min, delta, thetas, ps):
    """The quadruple sum over grid points and window entries, term by term,
    with numpy's own sinc."""
    K = A.shape[0]
    want = np.zeros((len(thetas), len(ps)), complex)
    for i, th in enumerate(thetas):
        for j, p in enumerate(ps):
            acc = 0.0j
            for a in range(K):
                for b in range(K):
                    m, n = n_min + a, n_min + b
                    acc += (
                        A[a, b]
                        * cmath.exp(1j * (n - m) * th)
                        * np.sinc(p - 0.5 * (m + n) - delta)
                    )
            want[i, j] = acc / (2 * pi)
    return want


class TestSincKernel:
    xs = np.array([-7.0, -2.5, -1e-7, 0.0, 1e-9, 0.3, 1.0, 42.0])

    def test_matches_numpy_sinc(self):
        assert np.max(np.abs(sinc_pi_array(self.xs) - np.sinc(self.xs))) <= 2e-16
        for x in self.xs:
            got = sinc_pi_array(np.float64(x))
            assert got.shape == ()
            assert abs(float(got) - np.sinc(x)) <= 2e-16

    def test_integer_snap(self):
        assert sinc_pi_array(37.0) == 0.0
        assert sinc_pi_array(-5.0) == 0.0
        assert sinc_pi_array(0.0) == 1.0
        out = sinc_pi_array(self.xs)
        assert np.array_equal(out[[0, 3, 6, 7]], [0.0, 1.0, 0.0, 0.0])


class TestNumpyPath:
    def test_single_element_window(self):
        A = np.array([[1.0 + 0j]])
        out = phase_space_sum_grid(A, 2, 0.0, np.array([0.3]), np.array([2.0, 2.5]))
        assert out[0, 0] == pytest.approx(1 / (2 * pi), abs=1e-16)
        assert out[0, 1] == pytest.approx(np.sinc(0.5) / (2 * pi), abs=1e-16)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(53)
        K, n_min, delta = 5, -2, 0.37
        A = random_window(rng, K, n_min)
        thetas = np.array([-2.0, 0.4, 1.1])
        ps = np.array([-1.3, 0.0, 0.8, 2.2])
        got = phase_space_sum_grid(A, n_min, delta, thetas, ps)
        want = brute_force_sum(A, n_min, delta, thetas, ps)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_point_helper_matches_grid(self):
        rng = np.random.default_rng(59)
        A = random_window(rng, 7, 0)
        grid = phase_space_sum_grid(A, 0, 0.2, np.array([0.9]), np.array([1.4]))
        assert phase_space_sum_point(A, 0, 0.2, 0.9, 1.4) == grid[0, 0]

    def test_cat_state_values(self):
        g = wigner_grid(cat_state(0.0), np.array([0.0]), np.array([0.0, 1.0]))
        assert 2 * pi * g.values[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert 2 * pi * g.values[0, 1] == pytest.approx(0.5, abs=1e-13)

    def test_zero_window_is_real_zero(self):
        out = phase_space_sum_grid(np.zeros((3, 3)), -1, 0.5, np.array([0.0, 1.0]), np.array([0.2]))
        assert out.dtype == np.float64
        assert np.array_equal(out, np.zeros((2, 1)))


class TestNonHermitianDensity:
    # tr[rho V] of a non-Hermitian rho has an imaginary part that sin(theta)
    # and sinc(p - 1/2) carry away from zero at the points below
    bad = DensityMatrix(delta=0.0, n_min=0, entries=np.array([[0.5, 0.5], [0.1, 0.5]]))

    def test_grid_raises(self):
        with pytest.raises(ArithmeticError):
            wigner_grid(self.bad)

    def test_point_raises(self):
        with pytest.raises(ArithmeticError):
            wigner_density(self.bad, (0.7, 0.2))


# Random windows: K in [1, 12], n_min in [-10, 10], delta in [0, 1).  Entry
# values come from a seeded generator; hypothesis draws the structure.
windows = st.tuples(
    st.integers(1, 12),
    st.integers(-10, 10),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 2**32 - 1),
)
# momenta on and off the half-integer sinc centres, where the integer snap applies
momenta = st.lists(
    st.one_of(st.integers(-24, 24).map(lambda k: 0.5 * k), st.floats(-12.0, 12.0)),
    min_size=1,
    max_size=3,
)
angles = st.lists(st.floats(-pi, pi), min_size=1, max_size=3)


def _hermitian(rng, K):
    B = rng.uniform(-1, 1, (K, K)) + 1j * rng.uniform(-1, 1, (K, K))
    return 0.5 * (B + B.conj().T)


def _check_against_brute_force(A, n_min, delta, thetas, ps, real):
    thetas = np.array(thetas)
    ps = np.array(ps)
    got = phase_space_sum_grid(A, n_min, delta, thetas, ps)
    assert got.shape == (thetas.size, ps.size)
    assert np.iscomplexobj(got) != real
    assert np.max(np.abs(got - brute_force_sum(A, n_min, delta, thetas, ps))) <= 1e-13
    point = phase_space_sum_point(A, n_min, delta, thetas[-1], ps[-1])
    assert point == complex(phase_space_sum_grid(A, n_min, delta, thetas[-1:], ps[-1:])[0, 0])


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(windows, angles, momenta)
    def test_hermitian_dense(self, window, thetas, ps):
        K, n_min, delta, seed = window
        A = _hermitian(np.random.default_rng(seed), K)
        _check_against_brute_force(A, n_min, delta, thetas, ps, real=True)

    @settings(max_examples=60, deadline=None)
    @given(windows, st.integers(0, 11), st.floats(0.0, 1.0), angles, momenta)
    def test_hermitian_banded(self, window, band, fill, thetas, ps):
        # band 0 is a diagonal (Gibbs-like) window; the symmetric random
        # mask also leaves gaps between the occupied diagonals and centres
        K, n_min, delta, seed = window
        rng = np.random.default_rng(seed)
        a, b = np.indices((K, K))
        mask = np.triu(rng.uniform(size=(K, K)) < fill)
        mask = (mask | mask.T) & (np.abs(b - a) <= band)
        A = np.where(mask, _hermitian(rng, K), 0.0)
        _check_against_brute_force(A, n_min, delta, thetas, ps, real=True)

    @settings(max_examples=60, deadline=None)
    @given(windows, angles, momenta)
    def test_non_hermitian(self, window, thetas, ps):
        K, n_min, delta, seed = window
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1, 1, (K, K)) + 1j * rng.uniform(-1, 1, (K, K))
        if np.max(np.abs(A - A.conj().T)) <= 1e-12:  # a 1x1 window can be real
            A[0, 0] += 0.5j
        _check_against_brute_force(A, n_min, delta, thetas, ps, real=False)


# Lattice sinc table: n_min in +-1e4, K in [1, 200], delta on the exact
# quarter points or anywhere in [0, 1); momenta as offsets from n_min, on the
# integer and half-integer lattice or anywhere across the window and beyond
lattice_windows = st.tuples(
    st.integers(-(10**4), 10**4),
    st.integers(1, 200),
    st.one_of(st.sampled_from([0.0, 0.5, 0.25]), st.floats(0.0, 1.0, exclude_max=True)),
)
lattice_offsets = st.lists(
    st.one_of(st.integers(-40, 440).map(lambda k: 0.5 * k), st.floats(-20.0, 220.0)),
    min_size=1,
    max_size=6,
)


def _table_centres(n_min, K):
    """Every centre offset t of a K-window, grouped by the residue of
    2 n_min + t as the table requires."""
    ts = np.arange(2 * K - 1)
    return ts[np.argsort((2 * n_min + ts) & 3, kind="stable")]


class TestSincLattice:
    @settings(max_examples=150, deadline=None)
    @given(lattice_windows, lattice_offsets)
    def test_matches_sinc_and_exact_on_the_lattice(self, window, offsets):
        n_min, K, delta = window
        ps = n_min + np.array(offsets)
        ts = _table_centres(n_min, K)
        got = _sinc_lattice(ps, n_min, ts, delta)
        # p - (n_min + t/2) is exact or rounded at the scale of the result,
        # so this reference argument carries no error from the size of n_min
        want = sinc_pi_array((ps[None, :] - (n_min + 0.5 * ts)[:, None]) - delta)
        assert got.shape == (ts.size, ps.size)
        assert np.max(np.abs(got - want)) <= 2e-15
        for j, p in enumerate(ps):
            twice_w = 2 * (Fraction(float(p)) - Fraction(delta))
            if twice_w.denominator != 1:
                continue
            # twice the exact argument; an even value is an integer argument
            k = int(twice_w) - 2 * n_min - ts
            assert np.all(got[k == 0, j] == 1.0)
            assert np.all(got[(k % 2 == 0) & (k != 0), j] == 0.0)


class TestFarWindows:
    # the hypothesis windows above reach n_min -10..10 only; far from the
    # origin, a sinc argument rounded at the scale of n_min is off by ~1e-12
    @pytest.mark.parametrize("n_min", [-600, 10**4])
    @pytest.mark.parametrize("delta", [0.0, 0.37, 0.5])
    def test_matches_brute_force(self, n_min, delta):
        rng = np.random.default_rng(abs(n_min) + int(100 * delta))
        K = 6
        thetas = [-2.1, 0.3, 1.7]
        # on a centre, on the half-integer lattice, and between centres
        ps = [n_min + 2.5 + delta, n_min + 1.0, n_min + 3.3, n_min + delta - 0.8]
        _check_against_brute_force(_hermitian(rng, K), n_min, delta, thetas, ps, real=True)
        A = rng.uniform(-1, 1, (K, K)) + 1j * rng.uniform(-1, 1, (K, K))
        _check_against_brute_force(A, n_min, delta, thetas, ps, real=False)


# Axis shapes that steer the product order: with one angle the phases meet
# the window first, with one momentum the sinc table does, and long axes on
# both sides take whichever the shapes make cheaper
tall_axes = st.tuples(
    st.lists(st.floats(-pi, pi), min_size=1, max_size=1),
    st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40),
)
wide_axes = st.tuples(
    st.lists(st.floats(-pi, pi), min_size=1, max_size=40),
    st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=1),
)
square_axes = st.tuples(
    st.lists(st.floats(-pi, pi), min_size=8, max_size=16),
    st.lists(st.floats(-12.0, 12.0), min_size=8, max_size=16),
)


def _window_of_kind(kind, rng, K):
    if kind == "hermitian":
        return _hermitian(rng, K)
    if kind == "banded":
        a, b = np.indices((K, K))
        return np.where(np.abs(b - a) <= 1, _hermitian(rng, K), 0.0)
    A = rng.uniform(-1, 1, (K, K)) + 1j * rng.uniform(-1, 1, (K, K))
    A[0, 0] += 0.5j  # a 1x1 window is not Hermitian either
    return A


class TestContractionOrder:
    @settings(max_examples=30, deadline=None)
    @given(
        windows,
        st.sampled_from(["hermitian", "banded", "non_hermitian"]),
        st.one_of(tall_axes, wide_axes, square_axes),
    )
    def test_matches_brute_force(self, window, kind, axes):
        K, n_min, delta, seed = window
        A = _window_of_kind(kind, np.random.default_rng(seed), K)
        _check_against_brute_force(A, n_min, delta, *axes, real=kind != "non_hermitian")

    @pytest.mark.parametrize("kind", ["hermitian", "non_hermitian"])
    def test_wide_diagonal_span_at_the_branch_cut(self, kind):
        # K = 30: the diagonals span 58 (non-Hermitian) or 29 (Hermitian),
        # so the coarse and fine angle phases split them into several blocks
        rng = np.random.default_rng(67)
        A = _window_of_kind(kind, rng, 30)
        thetas = [-pi, pi, 2.9]
        ps = [-14.5, -3.2, 0.0]
        _check_against_brute_force(A, -15, 0.25, thetas, ps, real=kind == "hermitian")
