"""The grid kernel against direct sums over the coefficient window."""

import cmath
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import pi
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylwigner import (
    DensityMatrix,
    FourierState,
    PhasePoint,
    cat_state,
    marginal_momentum,
    moyal_function,
    pure_density,
    reconstruct_density,
    von_mises_state,
    wigner_density,
    wigner_function,
    wigner_grid,
    wigner_matrix_element,
)
from cylwigner import _kernels
from cylwigner._kernels import (
    FactorPair,
    _residue_runs,
    _sinc_lattice,
    phase_space_sum_grid,
    phase_space_sum_point,
    sinc_pi_array,
)
from oracle import true_windowed_sum


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


class TestSincSlices:
    """Long inputs are evaluated ``_SINC_SLICE`` values at a time, with the
    bits of the whole row."""

    @staticmethod
    def edged(S, n):
        # lattice hits, -0.0 and clipped magnitudes on both sides of each slice edge
        x = np.random.default_rng(41).uniform(-60.0, 60.0, n)
        specials = [7.0, -0.0, 2.0**52, -(2.0**52), 1e300, -3.0, 0.0, -(2.0**60), 0.5, 2.0**52 + 2.0]
        edges = [i for lo in range(S, n, S) for i in (lo - 1, lo)]
        x[edges] = [specials[k % len(specials)] for k in range(len(edges))]
        return x

    @pytest.mark.parametrize("S", [1, 7, None])
    def test_long_input_equals_the_per_slice_and_whole_row_evaluation(self, S, monkeypatch):
        if S is None:
            S = _kernels._SINC_SLICE
        monkeypatch.setattr(_kernels, "_SINC_SLICE", S)
        x = self.edged(S, 3 * S + 5 if S > 1 else 40)
        got = sinc_pi_array(x)
        centre = np.zeros(1, dtype=np.intp)
        whole = _sinc_lattice(np.clip(x, -(2.0**52), 2.0**52), 0, centre, 0.0, _residue_runs(0, centre))[0] + 0.0
        per_slice = np.concatenate([sinc_pi_array(x[lo : lo + S]) for lo in range(0, x.size, S)])
        assert got.tobytes() == whole.tobytes() == per_slice.tobytes()
        assert np.array_equal(got[x == 0.0], np.ones(np.count_nonzero(x == 0.0)))
        integers = (x == np.rint(x)) & (x != 0.0)
        assert not np.signbit(got[integers]).any() and not got[integers].any()

    def test_shape_is_kept(self):
        S = _kernels._SINC_SLICE
        x = self.edged(S, 4 * S)
        assert sinc_pi_array(x.reshape(4, S)).tobytes() == sinc_pi_array(x).tobytes()
        assert sinc_pi_array(x.reshape(4, S)).shape == (4, S)
        assert sinc_pi_array(np.array([])).shape == (0,)


class TestSincLattice:
    @settings(max_examples=150, deadline=None)
    @given(lattice_windows, lattice_offsets)
    def test_matches_sinc_and_exact_on_the_lattice(self, window, offsets):
        n_min, K, delta = window
        ps = n_min + np.array(offsets)
        ts = _table_centres(n_min, K)
        got = _sinc_lattice(ps, n_min, ts, delta, _residue_runs(n_min, ts))
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


    @settings(max_examples=40, deadline=None)
    @given(lattice_windows, lattice_offsets, st.integers(0, 2**32 - 1))
    def test_any_row_order(self, window, offsets, seed):
        # each row is its own centre's sinc, however the rows are ordered
        n_min, K, delta = window
        ps = n_min + np.array(offsets)
        ts = _table_centres(n_min, K)
        order = np.random.default_rng(seed).permutation(ts.size)
        shuffled = _sinc_lattice(ps, n_min, ts[order], delta, _residue_runs(n_min, ts[order]))
        assert np.array_equal(shuffled, _sinc_lattice(ps, n_min, ts, delta, _residue_runs(n_min, ts))[order])


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

    # beyond |n| < 2**51 float64 momenta n + t/2 + delta leave the
    # half-integer lattice: such a window is refused, not summed wrongly
    @pytest.mark.parametrize("n_min, K, ok", [
        (2**51 - 3, 3, True), (2**51 - 3, 4, False), (1 - 2**51, 2, True), (-(2**51), 1, False),
    ])
    def test_float_unresolvable_windows_refused(self, n_min, K, ok):
        A = np.eye(K) / K
        sums = [
            lambda: phase_space_sum_grid(A, n_min, 0.0, [0.4], [float(n_min)]),
            lambda: reconstruct_density(lambda axes: np.zeros((axes[0].size, axes[1].size)), n_min, n_min + K - 1),
        ]
        if ok:
            assert sums[0]()[0, 0] == pytest.approx(1 / (2 * pi * K), rel=1e-15)
            return
        for call in sums:
            with pytest.raises(ValueError, match=rf"index window \[{n_min}, {n_min + K - 1}\] leaves \|n\| < 2\*\*51"):
                call()


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


# Full-period angle axes: np.linspace(t0, t0 + 2 pi, 2H + 1) holds theta_j + pi
# as theta_{j+H}, and the kernel takes rows j + H from the parity of d
def _half_turn_window(kind, rng, K):
    if kind == "moyal":
        bra, ket = rng.normal(size=(2, K)) + 1j * rng.normal(size=(2, K))
        return np.outer(bra.conj(), ket)
    A = _window_of_kind("banded" if kind == "banded" else "hermitian", rng, K)
    d = np.subtract.outer(np.arange(K), np.arange(K))
    if kind == "even":
        A[d % 2 == 1] = 0.0
    elif kind == "odd":
        A[(d % 2 == 0) & (d != 0)] = 0.0
    return A


def _brute_force_rows(A, n_min, delta, thetas, ps, sign):
    """``brute_force_sum`` with each term's phase ``sign**d exp(i d theta)``:
    sign -1 gives the sum at ``theta + pi`` exactly, not at its float."""
    K = A.shape[0]
    want = np.zeros((thetas.size, ps.size), complex)
    for a in range(K):
        for b in range(K):
            d, m, n = b - a, n_min + a, n_min + b
            phase = sign**d * np.exp(1j * d * thetas)
            want += A[a, b] * phase[:, None] * np.sinc(ps - 0.5 * (m + n) - delta)[None, :]
    return want / (2 * pi)


def _half_turn_reference(A, n_min, delta, thetas, ps):
    """The brute-force grid on ``linspace(t0, t0 + 2 pi, 2H + 1)`` as the
    kernel defines it: rows ``a..a + H`` (``a = H // 2``) at their own
    angles, and each other row at ``theta_{r + H} - pi`` (``r < a``) or
    ``theta_{r - H} + pi`` (``r > a + H``), exactly."""
    H = thetas.size // 2
    a = H // 2
    direct = _brute_force_rows(A, n_min, delta, thetas, ps, 1)
    turned = _brute_force_rows(A, n_min, delta, thetas, ps, -1)
    return np.concatenate([turned[H : H + a], direct[a : a + H + 1], turned[a + 1 : H + 1]])


def _evaluate(A, n_min, delta, thetas, ps):
    """The grid, and the number of angles of each phase table built for it."""
    with mock.patch.object(_kernels, "_angle_phases", wraps=_kernels._angle_phases) as spy:
        got = phase_space_sum_grid(A, n_min, delta, thetas, ps)
    return got, [call.args[0].size for call in spy.call_args_list]


half_turn_axes = st.tuples(st.floats(-10.0, 10.0), st.integers(1, 200))


class TestHalfTurnAxes:
    @settings(max_examples=60, deadline=None)
    @given(
        windows,
        st.sampled_from(["hermitian", "banded", "moyal", "even", "odd"]),
        half_turn_axes,
        momenta,
    )
    def test_matches_brute_force(self, window, kind, axis, ps):
        K, n_min, delta, seed = window
        t0, H = axis
        A = _half_turn_window(kind, np.random.default_rng(seed), K)
        thetas = np.linspace(t0, t0 + 2 * pi, 2 * H + 1)
        ps = np.array(ps)
        got, seen = _evaluate(A, n_min, delta, thetas, ps)
        real = kind != "moyal"
        assert got.shape == thetas.shape + ps.shape and np.iscomplexobj(got) != real
        # only an axis with |t0| <= 2 pi takes the half-turn route; a window
        # with nothing off its diagonal takes no angle table at all
        near = abs(t0) <= 2 * pi
        assert seen == ([H + 1 if near else 2 * H + 1] if np.any(A - np.diag(np.diag(A))) else [])
        want = _half_turn_reference(A, n_min, delta, thetas, ps) if near else _brute_force_rows(A, n_min, delta, thetas, ps, 1)
        assert np.max(np.abs(got - want)) <= 1e-13
        if kind == "even" and near:
            # no odd diagonal: rows half a turn apart are one row, except
            # the two ends of the evaluated block, a = H // 2 and a + H
            other = np.arange(H) != H // 2
            assert np.array_equal(got[:H][other], got[H:-1][other])

    @pytest.mark.parametrize("kind", ["hermitian", "moyal"])
    def test_far_window(self, kind):
        rng = np.random.default_rng(71)
        n_min, K, delta, H = 10**4, 9, 0.37, 45
        A = _half_turn_window(kind, rng, K)
        thetas = np.linspace(-2.6, -2.6 + 2 * pi, 2 * H + 1)
        ps = n_min + np.array([2.5 + delta, 1.0, 3.3, delta - 0.8])
        got, seen = _evaluate(A, n_min, delta, thetas, ps)
        assert seen == [H + 1]
        assert np.max(np.abs(got - _half_turn_reference(A, n_min, delta, thetas, ps))) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(windows, half_turn_axes, momenta)
    def test_trapezoid_is_the_momentum_marginal(self, window, axis, ps):
        # the periodic trapezoid over 2H intervals is exact for |d| < 2H
        K, n_min, delta, seed = window
        t0, H = axis
        H = max(H, K)
        rng = np.random.default_rng(seed)
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        state = FourierState(delta=delta, n_min=n_min, coeffs=c / np.linalg.norm(c))
        thetas = np.linspace(t0, t0 + 2 * pi, 2 * H + 1)
        values = wigner_grid(state, thetas, ps).values
        # fsum: the rows' exact sum, so only the kernel's own error shows
        mean = np.array([math.fsum(column) for column in values[:-1].T]) / (2 * H)
        assert np.max(np.abs(mean - marginal_momentum(state)(np.array(ps)) / (2 * pi))) <= 1e-15

    @pytest.mark.parametrize("miss", ["even_length", "inner_ulp", "end_ulp", "descending"])
    @pytest.mark.parametrize("kind", ["hermitian", "moyal"])
    def test_near_misses_take_the_full_table(self, miss, kind):
        rng = np.random.default_rng(73)
        K, n_min, delta, t0, H = 7, -3, 0.25, 0.4, 20
        A = _half_turn_window(kind, rng, K)
        thetas = np.linspace(t0, t0 + 2 * pi, 2 * H + 1)
        if miss == "even_length":
            thetas = np.linspace(t0, t0 + 2 * pi, 2 * H + 2)
        elif miss == "inner_ulp":
            thetas[H // 2] = np.nextafter(thetas[H // 2], 4.0)
        elif miss == "end_ulp":
            thetas[-1] = np.nextafter(thetas[-1], 0.0)
        else:
            thetas = thetas[::-1].copy()
        ps = np.array([-3.5, -1.2, 0.0, 2.75])
        got, seen = _evaluate(A, n_min, delta, thetas, ps)
        assert seen == [thetas.size]
        assert np.max(np.abs(got - _brute_force_rows(A, n_min, delta, thetas, ps, 1))) <= 1e-13


HELD_AXES = {
    "full_period": np.linspace(-pi, pi, 181),
    "open": -pi + 2 * pi * np.arange(64) / 64,
}
HELD_PS = np.linspace(-6.0, 6.0, 23)


def _held_grid(kind, K, axis):
    """A grid whose window reaches ``|d| = K - 1``: a state's factor pair
    (the Hermitian path) or a dense non-Hermitian window (the complex path)."""
    rng = np.random.default_rng(K)
    if kind == "hermitian":
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        A = FactorPair(c.conj(), c / np.linalg.norm(c) ** 2, hermitian=True)
    else:
        A = (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))) / K
    return phase_space_sum_grid(A, -K // 3, 0.37, HELD_AXES[axis], HELD_PS)


def _plan_of(thetas):
    return _kernels._held_plans[thetas.shape, thetas.tobytes()]


def _held_total():
    return sum(plan[2].nbytes for plan in _kernels._held_plans.values())


def _random_density(rng, K):
    A = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


class TestHeldPlan:
    """The phase tables held for several angle axes: a grid's bits do not
    depend on what ran before it, nor on threads sharing the tables, and
    the tables held stay under ``_HELD_BYTES``."""

    @pytest.fixture(autouse=True)
    def _cold(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_held_plans", {})

    def _width(self, axis):
        return _plan_of(HELD_AXES[axis])[2].shape[1]

    @pytest.mark.parametrize("axis", sorted(HELD_AXES))
    @pytest.mark.parametrize("kind", ["hermitian", "moyal"])
    def test_history_does_not_change_the_bits(self, kind, axis):
        other = "open" if axis == "full_period" else "full_period"
        cold = _held_grid(kind, 40, axis)
        assert np.iscomplexobj(cold) == (kind == "moyal")
        assert self._width(axis) == 40  # a new axis: exactly the columns it needs
        runs = {}
        _kernels._held_plans = {}
        _held_grid(kind, 25, axis)
        runs["grown"] = _held_grid(kind, 40, axis)
        assert self._width(axis) == 50  # doubled from 25
        _held_grid(kind, 40, other)
        runs["other axis between"] = _held_grid(kind, 40, axis)
        assert self._width(other) == 40  # the other axis is held beside it
        _held_grid(kind, 90, axis)
        runs["larger window first"] = _held_grid(kind, 40, axis)
        assert self._width(axis) == 100  # doubled from 50
        for name, got in runs.items():
            assert got.tobytes() == cold.tobytes(), name

    def test_threads_share_the_tables(self):
        jobs = [(kind, K, axis) for kind in ("hermitian", "moyal") for K in (9, 33, 70) for axis in sorted(HELD_AXES)]
        serial = {}
        for job in jobs:
            _kernels._held_plans = {}
            serial[job] = _held_grid(*job).tobytes()
        barrier = threading.Barrier(8)
        mismatches = []

        def worker(seed):
            order = [jobs[i] for i in np.random.default_rng(seed).permutation(len(jobs))]
            barrier.wait()
            for job in order * 3:
                if _held_grid(*job).tobytes() != serial[job]:
                    mismatches.append(job)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(_kernels._held_plans) == len(HELD_AXES)

    @pytest.mark.parametrize("kind", ["hermitian", "moyal"])
    def test_columns_are_the_phases(self, kind):
        thetas = HELD_AXES["open"]
        ds = np.arange(-300, 301) if kind == "moyal" else np.arange(301)
        plan = _kernels._axis_plan(thetas)
        got = _kernels._angle_phases(thetas, _kernels._columns(ds), plan)
        x = np.outer(thetas, ds)
        # both round d theta once, so each may be off by about |d theta| ulp
        assert np.all(np.abs(got - np.exp(1j * x)) <= 5e-16 * (1.0 + np.abs(x)))
        # conjugate columns for -d: exactly mirrored
        if kind == "moyal":
            assert np.array_equal(got[:, :300], got[:, :300:-1].conj())

    @pytest.mark.parametrize("axis", sorted(HELD_AXES))
    def test_held_tables_stay_under_the_cap(self, axis):
        # a random K = 8031 state on 66 coefficients, its two ends among them
        K = 8031
        rng = np.random.default_rng(8031)
        c = np.zeros(K, dtype=np.complex128)
        at = np.unique(np.concatenate([[0, K - 1], rng.integers(0, K, 64)]))
        c[at] = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
        c /= np.linalg.norm(c)
        thetas = HELD_AXES[axis]
        _held_grid("hermitian", 30, axis)
        tracemalloc.start()
        try:
            out = phase_space_sum_grid(FactorPair(c.conj(), c, hermitian=True), 5, 0.1, thetas, HELD_PS)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _held_total() <= _kernels._HELD_BYTES
        assert current <= _kernels._HELD_BYTES + out.nbytes + 2**16

    def test_oldest_plan_is_dropped_at_the_cap(self):
        axes = [np.linspace(-3.0, 2.0, 1000) + 0.25 * i for i in range(3)]
        used = []
        tracemalloc.start()
        try:
            for i, thetas in enumerate(axes):
                phase_space_sum_grid(random_window(np.random.default_rng(i), 100, 0), 0, 0.0, thetas, HELD_PS)
                used.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # two tables of 1.6 MB fit under the 4 MiB cap; the third drops the first
        assert list(_kernels._held_plans) == [(t.shape, t.tobytes()) for t in axes[1:]]
        assert all(plan[2].shape == (1000, 100) for plan in _kernels._held_plans.values())
        assert _held_total() <= _kernels._HELD_BYTES
        assert used[1] - used[0] >= 1000 * 100 * 16
        # the third table takes the first one's room: no more memory held
        assert used[2] - used[1] <= 2**16

    def test_grown_plan_replaces_its_own_entry(self):
        _held_grid("hermitian", 10, "open")
        _held_grid("hermitian", 10, "full_period")
        before = _kernels._held_plans
        _held_grid("hermitian", 30, "open")
        # a new dict, with the grown plan last and no other entry for its axis
        assert before is not _kernels._held_plans
        assert self._width("open") == 30 and before[next(iter(before))][2].shape[1] == 10
        assert list(_kernels._held_plans) == [
            (HELD_AXES[axis].shape, HELD_AXES[axis].tobytes()) for axis in ("full_period", "open")
        ]

    def test_evicted_axis_is_rebuilt_with_the_same_bits(self, monkeypatch):
        cold = {kind: _held_grid(kind, 40, "open") for kind in ("hermitian", "moyal")}
        # room for one of the two tables, the larger one at the H + 1 = 91
        # middle angles of the full-period axis: each axis evicts the other
        monkeypatch.setattr(_kernels, "_HELD_BYTES", 16 * 40 * 91)
        _held_grid("hermitian", 40, "full_period")
        assert list(_kernels._held_plans) == [(HELD_AXES["full_period"].shape, HELD_AXES["full_period"].tobytes())]
        for kind, want in cold.items():
            assert _held_grid(kind, 40, "open").tobytes() == want.tobytes(), kind
        assert _held_total() <= _kernels._HELD_BYTES

    def test_a_second_round_builds_no_phase_columns(self):
        # reconstructions sample on N = 64 angles for K = 5..11, on 65 for
        # K = 12 and on 69 for K = 13: three axes, each built in the first round
        rng = np.random.default_rng(12)
        rhos = {K: DensityMatrix(delta=0.25, n_min=-K // 2, entries=_random_density(rng, K)) for K in range(5, 14)}

        def one_round(order):
            return {
                K: reconstruct_density(lambda axes, K=K: wigner_grid(rhos[K], *axes).values, rhos[K].n_min, rhos[K].n_max, 0.25)
                for K in order
            }

        first = one_round(rng.permutation(list(rhos)).tolist())
        assert len(_kernels._held_plans) == 3
        with mock.patch.object(_kernels, "_phase_columns", wraps=_kernels._phase_columns) as built:
            second = one_round(rng.permutation(list(rhos)).tolist())
        assert built.call_count == 0
        for K, rebuilt in first.items():
            assert second[K].entries.tobytes() == rebuilt.entries.tobytes()


class TestHeldWith:
    """The rule of every held store: a new dict, the newest entry last, the
    oldest dropped at the cap, and a value above the cap not held."""

    def test_newest_last_and_oldest_dropped(self):
        held = _kernels._held_with({}, "a", "xx", len, 5)
        held = _kernels._held_with(held, "b", "yy", len, 5)
        before = held
        held = _kernels._held_with(held, "c", "zz", len, 5)
        assert held == {"b": "yy", "c": "zz"}
        assert before == {"a": "xx", "b": "yy"}  # replaced whole, never changed

    def test_a_key_held_again_moves_last(self):
        held = {"a": "x", "b": "y"}
        assert list(_kernels._held_with(held, "a", "xxx", len, 5).items()) == [("b", "y"), ("a", "xxx")]

    def test_a_value_above_the_cap_is_not_held(self):
        held = {"a": "x"}
        assert _kernels._held_with(held, "b", "yyyyyy", len, 5) is held


INDEX_PS = np.linspace(-5.0, 5.0, 13)


def _index_window(kind, K, n_min):
    """A full window of ``kind``: a factor pair, a ``pure_density``
    projector (as ``wigner_grid`` passes it, transposed) or a random dense
    Hermitian matrix."""
    rng = np.random.default_rng(K)
    if kind == "factor":
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        return FactorPair(c.conj(), c, hermitian=True)
    if kind == "projector":
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        return pure_density(FourierState(delta=0.37, n_min=n_min, coeffs=c / np.linalg.norm(c))).entries.T
    return _random_density(rng, K)


def _index_grid(kind, K, axis, n_min):
    return phase_space_sum_grid(_index_window(kind, K, n_min), n_min, 0.37, HELD_AXES[axis], INDEX_PS).tobytes()


def _held_index_total():
    return sum(_kernels._index_bytes(index) for index in _kernels._held_indexes.values())


class TestHeldIndexPlan:
    """The index plans of full windows, held per ``(K, n_min & 1, H > 0)``:
    a held plan gives the bits of a fresh one, a window with a zero entry
    takes the per-call route and holds nothing, and the store stays under
    ``_HELD_INDEX_BYTES``."""

    @pytest.fixture(autouse=True)
    def _empty(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_held_indexes", {})

    @pytest.mark.parametrize("n_min", [-6, 3])
    @pytest.mark.parametrize("axis", sorted(HELD_AXES))
    @pytest.mark.parametrize("kind", ["factor", "projector", "dense"])
    def test_held_plan_gives_the_fresh_bits(self, kind, axis, n_min):
        K = 23
        A = _index_window(kind, K, n_min)
        thetas = HELD_AXES[axis]
        first = phase_space_sum_grid(A, n_min, 0.37, thetas, INDEX_PS)
        key = K, n_min & 1, axis == "full_period"
        assert list(_kernels._held_indexes) == [key]
        index = _kernels._held_indexes[key]
        assert index.rows.size == K * (K + 1) // 2
        with mock.patch.object(_kernels, "_index_plan", wraps=_kernels._index_plan) as built:
            held = phase_space_sum_grid(A, n_min, 0.37, thetas, INDEX_PS)
        assert built.call_count == 0 and _kernels._held_indexes[key] is index
        assert np.isrealobj(first) and held.tobytes() == first.tobytes()

    def test_history_does_not_change_the_bits(self):
        # windows of both parities on both axes, whose plans differ only in
        # their key: each grid equals its own with an empty store
        jobs = [(kind, K, axis, n_min) for kind in ("factor", "dense") for K in (2, 9, 10) for axis in sorted(HELD_AXES) for n_min in (-4, 5)]

        cold = {}
        for job in jobs:
            _kernels._held_indexes = {}
            cold[job] = _index_grid(*job)
        order = np.random.default_rng(3).permutation(len(jobs)).tolist()
        for i in order + order:
            assert _index_grid(*jobs[i]) == cold[jobs[i]], jobs[i]
        assert len(_kernels._held_indexes) == 12

    @pytest.mark.parametrize("n_min", [-6, 3])
    @pytest.mark.parametrize("axis", sorted(HELD_AXES))
    @pytest.mark.parametrize("kind", ["zero coefficient", "zero diagonal entry", "zero mirrored pair"])
    def test_zero_entry_takes_the_per_call_route(self, kind, axis, n_min):
        K = 23
        thetas = HELD_AXES[axis]
        if kind == "zero coefficient":
            v = _index_window("factor", K, n_min).v.copy()
            v[7] = 0.0
            A = FactorPair(v.conj(), v, hermitian=True)
        else:
            A = _random_density(np.random.default_rng(K), K)
            A[(7, 7) if kind == "zero diagonal entry" else ([3, 11], [11, 3])] = 0.0
        with mock.patch.object(_kernels, "_index_plan", wraps=_kernels._index_plan) as built:
            fresh = phase_space_sum_grid(A, n_min, 0.37, thetas, INDEX_PS)
        assert built.call_count == 1 and _kernels._held_indexes == {}
        # the plan of a full window of the same key, held, is not taken
        phase_space_sum_grid(_index_window("factor", K, n_min), n_min, 0.37, thetas, INDEX_PS)
        held = dict(_kernels._held_indexes)
        with mock.patch.object(_kernels, "_index_plan", wraps=_kernels._index_plan) as built:
            again = phase_space_sum_grid(A, n_min, 0.37, thetas, INDEX_PS)
        assert built.call_count == 1 and _kernels._held_indexes == held
        assert again.tobytes() == fresh.tobytes()

    def test_windows_that_hold_nothing(self):
        rng = np.random.default_rng(5)
        thetas = HELD_AXES["full_period"]
        # a non-Hermitian full window, one index (its only diagonal is d = 0)
        # and a Gibbs diagonal
        phase_space_sum_grid(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)), 2, 0.37, thetas, INDEX_PS)
        phase_space_sum_grid(FactorPair(np.array([0.6 - 0.8j]), np.array([0.6 + 0.8j]), hermitian=True), 2, 0.37, thetas, INDEX_PS)
        phase_space_sum_grid(np.array([[0.7]]), 2, 0.37, thetas, INDEX_PS)
        phase_space_sum_grid(rng.uniform(size=9), 2, 0.37, thetas, INDEX_PS)
        assert _kernels._held_indexes == {}

    def test_threads_share_the_store(self, monkeypatch):
        jobs = [(kind, K, axis, n_min) for kind in ("factor", "dense") for K in (9, 21, 40) for axis in sorted(HELD_AXES) for n_min in (-4, 5)]
        # room for about three K = 40 plans (32 bytes an entry), so that
        # threads evict each other's
        monkeypatch.setattr(_kernels, "_HELD_INDEX_BYTES", 100_000)

        serial = {}
        for job in jobs:
            _kernels._held_indexes = {}
            serial[job] = _index_grid(*job)
        barrier = threading.Barrier(8)
        mismatches = []

        def worker(seed):
            order = [jobs[i] for i in np.random.default_rng(seed).permutation(len(jobs))]
            barrier.wait()
            for job in order * 2:
                if _index_grid(*job) != serial[job]:
                    mismatches.append(job)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert 0 < _held_index_total() <= _kernels._HELD_INDEX_BYTES

    def test_store_stays_under_the_cap(self):
        rng = np.random.default_rng(200)
        small = {"full_period": np.linspace(-pi, pi, 9), "open": -pi + 2 * pi * np.arange(8) / 8}
        seen = set()
        for K in rng.integers(2, 120, 200).tolist():
            n_min = int(rng.integers(-50, 50))
            axis = sorted(small)[int(rng.integers(0, 2))]
            c = rng.normal(size=K) + 1j * rng.normal(size=K)
            out = phase_space_sum_grid(FactorPair(c.conj(), c, hermitian=True), n_min, 0.25, small[axis], INDEX_PS[:3])
            assert out.shape == (small[axis].size, 3)
            seen.add((K, n_min & 1, axis == "full_period"))
            assert _held_index_total() <= _kernels._HELD_INDEX_BYTES
        # the oldest plans were dropped to make room, the newest is held
        assert len(_kernels._held_indexes) < len(seen)
        assert list(_kernels._held_indexes)[-1] == (K, n_min & 1, axis == "full_period")
        for (K, _, _), index in _kernels._held_indexes.items():
            assert index.rows.size == K * (K + 1) // 2


class TestPhaseBuilder:
    """Every angle phase is ``exp(i a b)`` from the exact pair ``p + e = a
    b``, so none is rounded at the scale of ``d theta``."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1e12, 1e12) | st.floats(-10.0, 10.0), st.integers(0, 300))
    # the rounded products d theta put the columns off by 9.1e-13 at 1000.3
    # and 9.8e-4 at 1e12 + 0.3; a column is two factors of two roundings
    # each and their product, and the largest error seen in 1.6 million
    # columns (|theta| <= 1e12, d < 364) was 4.2e-16
    @example(1000.3, 0)
    @example(1e6 + 0.3, 0)
    @example(1e9 + 0.3, 0)
    @example(1e12 + 0.3, 0)
    def test_columns_match_mpmath(self, theta, start):
        got = _kernels._phase_columns(np.array([theta]), start, start + 64)[0]
        with mpmath.workdps(40):
            angle = mpmath.mpf(theta)
            errors = [abs(mpmath.mpc(g) - mpmath.expj(d * angle)) for d, g in enumerate(got.tolist(), start)]
        assert max(errors) <= 5e-16

    def test_two_product_is_exact(self):
        rng = np.random.default_rng(51)
        # indices as the phase builder passes them, and doubles of any 53 bits
        a = np.concatenate([rng.integers(-(2**51), 2**51, 1000).astype(np.float64), rng.normal(size=1000) * 1e9])
        b = np.ldexp(rng.uniform(-1.0, 1.0, 2000), rng.integers(-900, 900, 2000))
        p, e = _kernels._two_product(a, b)
        assert np.array_equal(p, a * b)
        for x, y, hi, lo in zip(a, b, p, e):
            assert Fraction(x) * Fraction(y) == Fraction(hi) + Fraction(lo)


def _pair_factors(seed, Ku, Kv):
    rng = np.random.default_rng(seed)
    return rng.normal(size=Ku) + 1j * rng.normal(size=Ku), rng.normal(size=Kv) + 1j * rng.normal(size=Kv)


class TestFactorPair:
    """Two factors on their own windows (a Moyal pair): the route orders
    that every box of a width shares, and a phase table too large to hold."""

    def test_route_orders_are_held_per_width(self, monkeypatch):
        # every offset and n_min: each phase of the diagonals and centres
        monkeypatch.setattr(_kernels, "_held_orders", {})
        u, v = _pair_factors(1, 6, 9)
        for offset in range(-4, 4):
            for n_min in (-3, 0, 5, 6):
                pair = FactorPair(u, v, max(0, -offset), max(0, offset))
                for axis in sorted(HELD_AXES):
                    phase_space_sum_grid(pair, n_min, 0.25, HELD_AXES[axis], INDEX_PS)
        assert sorted(_kernels._held_orders) == [(14, False), (14, True)]
        # a width whose phases pass the cap builds the orders asked for only,
        # holds none, and gives the same bits
        held = phase_space_sum_grid(FactorPair(u, v, 0, 3), 5, 0.25, HELD_AXES["full_period"], INDEX_PS)
        monkeypatch.setattr(_kernels, "_HELD_INDEX_BYTES", 1000)
        _kernels._held_orders = {}
        fresh = phase_space_sum_grid(FactorPair(u, v, 0, 3), 5, 0.25, HELD_AXES["full_period"], INDEX_PS)
        assert _kernels._held_orders == {} and fresh.tobytes() == held.tobytes()

    @pytest.mark.parametrize("held_first", [False, True])
    def test_table_above_the_cap_serves_its_call(self, monkeypatch, held_first):
        # diagonals 5993..6007 on the 91 middle angles: a table of 6008
        # columns would take 8.7 MB, above the 4 MiB cap
        monkeypatch.setattr(_kernels, "_held_plans", {})
        thetas = HELD_AXES["full_period"]
        if held_first:
            _held_grid("moyal", 30, "full_period")
        held = _kernels._held_plans
        u, v = _pair_factors(2, 8, 8)
        with mock.patch.object(_kernels, "_phase_columns", wraps=_kernels._phase_columns) as built:
            phase_space_sum_grid(FactorPair(u, v, 0, 6000), -3, 0.25, thetas, INDEX_PS)
        assert [call.args[1:] for call in built.call_args_list] == [(5993, 6008)]
        assert _kernels._held_plans is held


# the stated bound of the kernel against the 40-digit finite sum,
# |W - truth| <= _KERNEL_C eps sum |A_mn|: the phases are exact splits and
# the sinc table is rounded at the scale of its own argument, so no error
# grows with the angle or the index; see the README for the largest seen
_KERNEL_C = 1.0
truth_windows = st.tuples(
    st.integers(1, 12),
    st.integers(-(2**40), 2**40),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 2**32 - 1),
)
truth_angles = st.lists(st.floats(-1e12, 1e12) | st.floats(-10.0, 10.0), min_size=1, max_size=3)
# momenta as offsets from n_min, across the window and a little beyond
truth_offsets = st.lists(st.floats(-3.0, 15.0), min_size=1, max_size=2)


def _truth_window(kind, K, seed):
    """``(window as the kernel takes it, its dense matrix)`` of ``kind``:
    a factor pair, 1-D diagonal weights, a dense Hermitian or a
    non-Hermitian matrix, or a Moyal pair of a bra and a ket on disjoint
    windows (either one first, up to 3 indices apart)."""
    rng = np.random.default_rng(seed)
    if kind == "factor":
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        return FactorPair(c.conj(), c, hermitian=True), np.outer(c.conj(), c)
    if kind == "diagonal":
        w = rng.uniform(0.0, 1.0, K)
        return w, np.diag(w)
    if kind == "moyal":
        L, gap = int(rng.integers(1, 13)), int(rng.integers(0, 4))
        bra = rng.normal(size=K) + 1j * rng.normal(size=K)
        ket = rng.normal(size=L) + 1j * rng.normal(size=L)
        iu, iv = (0, K + gap) if rng.integers(2) else (L + gap, 0)
        dense = np.zeros((K + L + gap,) * 2, dtype=np.complex128)
        dense[iu : iu + K, iv : iv + L] = np.outer(bra.conj(), ket)
        return FactorPair(bra.conj(), ket, iu, iv), dense
    A = _window_of_kind(kind, rng, K)
    return A, A


TRUTH_KINDS = ["factor", "diagonal", "hermitian", "non_hermitian", "moyal"]


class TestKernelTruth:
    """``phase_space_sum_grid`` against :func:`oracle.true_windowed_sum`."""

    @pytest.mark.parametrize("kind", TRUTH_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(truth_windows, truth_angles, truth_offsets)
    # at theta = 1000.3 the rounded products d theta reached 10-13 eps sum|A|
    @example((12, -7, 0.37, 4), [1000.3, 0.25], [0.4, 6.3])
    def test_within_the_bound_of_the_truth(self, kind, window, thetas, offsets):
        K, n_min, delta, seed = window
        A, dense = _truth_window(kind, K, seed)
        ps = [float(n_min + x) for x in offsets]
        got = phase_space_sum_grid(A, n_min, delta, np.array(thetas), np.array(ps))
        bound = _KERNEL_C * np.finfo(float).eps * float(np.sum(np.abs(dense)))
        for i, theta in enumerate(thetas):
            for j, p in enumerate(ps):
                error = abs(mpmath.mpc(complex(got[i, j])) - true_windowed_sum(dense, n_min, delta, theta, p))
                assert error <= bound, (theta, p)

    @pytest.mark.parametrize("kind", TRUTH_KINDS)
    @settings(max_examples=10, deadline=None)
    @given(truth_windows, st.floats(-2 * pi, 2 * pi), st.integers(2, 4), truth_offsets)
    @example((12, -7, 0.37, 4), 2 * pi, 3, [0.4, 6.3])
    def test_full_period_axes_near_zero(self, kind, window, t0, H, offsets):
        # rows a..a + H (a = H // 2) stand at their own angles, and each
        # other row at theta_{r-H} + pi or theta_{r+H} - pi, a few ulp of pi
        # from its float theta_r: each is held to the truth where it stands
        K, n_min, delta, seed = window
        A, dense = _truth_window(kind, K, seed)
        thetas = np.linspace(t0, t0 + 2 * pi, 2 * H + 1)
        assert _kernels._half_turns(thetas) == H
        ps = [float(n_min + x) for x in offsets]
        got = phase_space_sum_grid(A, n_min, delta, thetas, np.array(ps))
        bound = _KERNEL_C * np.finfo(float).eps * float(np.sum(np.abs(dense)))
        a = H // 2
        with mpmath.workdps(40):
            turn = [mpmath.mpf(theta) for theta in thetas.tolist()]
            angles = [turn[r + H] - mpmath.pi if r < a else turn[r - H] + mpmath.pi if r > a + H else turn[r] for r in range(2 * H + 1)]
        for i, angle in enumerate(angles):
            for j, p in enumerate(ps):
                error = abs(mpmath.mpc(complex(got[i, j])) - true_windowed_sum(dense, n_min, delta, angle, p))
                assert error <= bound, (i, p)

    @pytest.mark.parametrize("t0", [1e3, 1e6, 1e9])
    def test_full_period_axis_far_from_zero(self, t0):
        # the half-turn route put rows at theta_{r-H} + pi, an ulp of t0
        # from theta_r: off by 3.7e-15, 1.7e-12 and 2.9e-8; such an axis
        # takes the open route
        state = von_mises_state(2.0, 0.3)
        thetas = np.linspace(t0, t0 + 2 * pi, 181)
        assert _kernels._half_turns(thetas) == 0
        got = wigner_grid(state, thetas, np.array([0.3])).values[:, 0]
        dense = np.outer(state.coeffs.conj(), state.coeffs)
        bound = _KERNEL_C * np.finfo(float).eps * float(np.sum(np.abs(dense)))
        # the two ends, the last rows before and after the middle
        # half-period of 45..135 and its centre
        for r in (0, 44, 90, 136, 180):
            assert abs(got[r] - true_windowed_sum(dense, state.n_min, state.delta, thetas[r], 0.3)) <= bound, r

    def test_wigner_grid_far_from_zero(self):
        # the rounded products d theta put this grid off by 1.8e-9
        state = von_mises_state(2.0, 0.3)
        theta, ps = 1e9 + 0.3, np.array([-1.2, 0.3, 2.05])
        got = wigner_grid(state, np.array([theta]), ps).values[0]
        dense = np.outer(state.coeffs.conj(), state.coeffs)
        bound = _KERNEL_C * np.finfo(float).eps * float(np.sum(np.abs(dense)))
        for p, value in zip(ps.tolist(), got.tolist()):
            assert abs(value - true_windowed_sum(dense, state.n_min, state.delta, theta, p)) <= bound, p

    def test_point_functions_far_from_zero(self):
        # the point functions evaluate at the caller's float angle, as the
        # 1 x 1 grid does; reduced by the float 2 pi first, wigner_function
        # was off by 1.7e-9 here
        state = von_mises_state(2.0, 0.3)
        theta = 1e9 + 0.3
        dense = np.outer(state.coeffs.conj(), state.coeffs)
        bound = _KERNEL_C * np.finfo(float).eps * float(np.sum(np.abs(dense)))
        for p in (-1.2, 0.3, 2.05):
            truth = true_windowed_sum(dense, state.n_min, state.delta, theta, p)
            grid = wigner_grid(state, np.array([theta]), np.array([p])).values[0, 0]
            for at in ((theta, p), PhasePoint(theta, p)):
                assert abs(wigner_function(state, at) - truth) <= bound, p
                assert abs(mpmath.mpc(moyal_function(state, state, at)) - truth) <= bound, p
                assert wigner_function(state, at) == grid
        # one element: the window with a single unit entry at (m, n)
        m, n, delta = -2, 3, 0.25
        unit = np.zeros((6, 6))
        unit[0, 5] = 1.0
        for p in (0.4, 7.75):
            truth = true_windowed_sum(unit, m, delta, theta, p)
            assert abs(mpmath.mpc(wigner_matrix_element(m, n, delta, (theta, p))) - truth) <= np.finfo(float).eps, p
