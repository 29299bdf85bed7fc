"""Hot kernels for phase-space grid evaluation.

Every quasi-probability value produced by this package is a windowed
coefficient sum of the form

    S(theta, p) = (1/2pi) * sum_{m,n} A[m,n] * exp(i(n-m)theta)
                                     * sinc_pi(p - (m+n)/2 - delta)

evaluated on a rectangular (theta, p) grid.

A window whose only occupied diagonal is ``d = n - m = 0``, and a
cardinal series ``sum_m b_m sinc_pi(p - m - delta)``, do not depend on
the angle: :func:`_diagonal_sum` sums each as one row, a slice of at most
``_TABLE_BLOCK`` table and index entries at a time, divided by 2 pi for a
window (its row repeated over the angles, so each gets the same bits) and
by 1 for a series (so it gives ``b_m`` exactly on its lattice).  A
diagonal (Gibbs) window is passed as its 1-D diagonal and costs O(K).

Any other window factors over its diagonals: each entry lands on its
diagonal and on the sinc row of its centre ``(m+n)/2 + delta``, so the
grid is one chain ``phases @ M @ table`` of real matrices (phases ``exp(i
d theta)`` as (cos, sin) column pairs, the real and imaginary parts of
``A``, the sinc table), evaluated in the order with fewer multiplications
by the cost rule of ``numpy.linalg.multi_dot`` (two ``np.dot`` calls, the
same products without its per-call checks).  Only the nonzero entries of
``A`` enter, so a banded window costs in proportion to its band.  A square
window is scanned for them (one pass over its K x K entries), and its
Hermiticity test compares each of them with its mirror in one more pass
(one gather); one with no zero entry gathers only its upper half and
their mirrors.  A Moyal pair is a :class:`FactorPair`, its factors
``conj(c_bra)`` and ``c_ket`` on their own windows at their offsets in
the union, and costs its ``len(u) len(v)`` products however far apart
the windows lie: ``np.outer`` of the factors (the bits the union's
``np.outer`` gives), with the zero products dropped as the scan drops
them, and the Hermiticity test of the zero-filled union matrix taken on
the block (:func:`_pair_hermitian`).  A state's own window ``conj(c)
c^T`` is the zero-offset case, marked Hermitian by construction: its
entries on and above the diagonal are formed as the products ``conj(c_m)
c_n``, the same bits, with no matrix, scan or test.  A Hermitian window folds
``-d`` onto ``d`` and yields a real grid; any other window stacks rows for
the imaginary part and yields a complex grid.  A window beyond ``|n| <
2**51``, where float64 momenta no longer hold the half-integer lattice, is
refused with ``ValueError``.

A full-period angle axis near 0, bit for bit ``np.linspace(t0, t0 + 2
pi, 2H + 1)`` with ``|t0| <= 2 pi`` (the default axis among them), holds
``theta_j + pi`` as ``theta_{j+H}``.  A half-turn multiplies diagonal
``d`` by ``(-1)^d``, and ``d = n - m`` has the parity of the centre index
``m + n``, so on such an axis the diagonals and centres are listed even
first and ``M`` splits
into an even and an odd block.  The phases are taken at ``H + 1``
consecutive angles only, from ``a = H // 2`` on (the middle half-period,
symmetric when the axis is), and each block is one chain, ``E`` and
``O``: those angles' rows are ``E + O``, and each other row is ``E - O``
half a turn away, the value at ``theta_{r-H} + pi`` or ``theta_{r+H} -
pi``, a few ulp of pi from its float ``theta_r``.  The grid is assembled
in place: ``E`` is written into those middle rows (a real grid's product
straight into them, a complex grid's real rows and then its imaginary
rows, ``E`` freed before ``O`` is formed), the ``E - O`` rows are formed
from there, and ``O`` is added last.  Any other axis, a full-period one farther out among
them (there ``theta_r`` and ``theta_{r-H} + pi`` differ by an ulp of
``t0``), is one chain over all its angles.  The test for such an axis
compares every angle with the reference ``linspace``.

Which diagonals and centres a window occupies, and where each entry lands
in ``M``, depend on its shape only: :func:`_index_plan` builds them
together (the entries' indices, a Hermitian window's weights, the
diagonals and centres in route order, the entries' positions in ``M``, the
sizes of the even and odd blocks, the residue runs of the sinc table, the
phase-table columns of the diagonals).  Its presence tables span the box
of rows and columns that holds the entries (a pair's block, a square
window's whole ``K x K``), whose diagonals and centres each take
``(r1 - r0) + (c1 - c0) - 1`` values; their route orders depend on that
width and ``H > 0`` (and on the phases of the box's lowest diagonal and
centre), and are held per ``(width, H > 0)`` (:func:`_route_orders`).  A
full window, with all ``K (K + 1) / 2`` entries on and above its diagonal
present (a factor pair with no zero product, a Hermitian matrix with no
zero entry), has one plan per key ``(K, n_min & 1, H > 0)``, held by
:func:`_held_with` under ``_HELD_INDEX_BYTES`` (4 MiB); a held factor
pair only forms its products.  Any other window builds its plan for its
call and holds none; every plan is built from the entries' shape alone, so every
route gives the same bits.

The phases depend on the axis only, not on the window, so the kernel
holds the plans of several angle axes, each keyed by the axis' shape and
bytes: its half-turn answer ``H`` and its phase table ``exp(i d theta)``
for ``d = 0..D-1`` at the angles it takes phases at (the ``H + 1`` middle
angles, or all of them).  Each grid takes the columns ``|d|`` of its
diagonals, conjugated for ``d < 0``.  A new axis gets a table of exactly
the columns its window needs; a wider window doubles the table, building
only the new columns.  The tables held total at most ``_HELD_BYTES`` (4
MiB), the oldest plan dropped first (:func:`_held_with`); a table above
that serves its call only, with just the columns from the least ``|d|`` to
the greatest that its window uses.  Every angle phase of the
package is ``exp(i a b)`` from the exact pair ``p + e = a b``
(:func:`_exp_product`), never rounded at the scale of ``a b``; a column
is two such factors (:func:`_phase_columns`), and :func:`_angle_rows`
gives ``marginal_angle`` and ``evaluate_wavefunction`` theirs.  The
centres all lie on one half-integer lattice shifted by ``delta``, so
``sin(pi (p - centre))`` is ``+-sin(pi f)`` or ``+-cos(pi f)`` for one
reduced remainder ``f`` per momentum: the sinc table costs one sine or
cosine per momentum and centre parity and a division per run of rows
with one residue; one row is :func:`sinc_pi_array`.
The occupied diagonals and centres are found with presence tables over
the values their box allows, not by sorting the entries, and the
centres are grouped by residue with four strided ranges (residues 0, 2, 1,
3 on a full-period axis, so the even centres come first).
"""

from math import isfinite
from typing import NamedTuple

import numpy as np

__all__ = [
    "phase_space_sum_grid",
    "phase_space_sum_point",
]

TWO_PI = 2.0 * np.pi
# largest |A_mn - conj(A_nm)| that still takes the real (Hermitian) path;
# DensityMatrix.validate's default and wigner.expectation_via_phase_space's
# test of its operator
_HERMITIAN_TOL = 1e-12
# entries (4 MiB) of a diagonal-window slice: per weight, len(ps) + about 16
_TABLE_BLOCK = 2**19
# largest array a window, axis or grid may expand to: a dense K x K
# complex128 matrix (K = 4096), a float64 weight vector or axis (2**25
# values), a real grid of 2**25 values or a complex one of 2**24
_MAX_DENSE_BYTES = 256 * 2**20
# values of sinc_pi_array evaluated at a time, as many as a CSV block: the
# temporaries of a slice (32 kB each) are reused from the heap, where those
# of a whole 72,581-value row took fresh pages each time (fig1 exports of
# that row in one process: about 960 minor page faults each, against 250)
_SINC_SLICE = 4096


def sinc_pi_array(x) -> np.ndarray:
    """sin(pi x)/(pi x), elementwise: one row of :func:`_sinc_lattice`, with
    ``|x|`` clipped at 2**52 (all integers; ``2x`` cannot overflow); 0-d gives 0-d.
    Each value is its own, so the ``_SINC_SLICE`` values taken at a time
    have the bits of one whole row."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(flat.size)
    centre = np.zeros(1, dtype=np.intp)
    runs = _residue_runs(0, centre)
    for lo in range(0, flat.size, _SINC_SLICE):
        piece = np.clip(flat[lo : lo + _SINC_SLICE], -(2.0**52), 2.0**52)
        out[lo : lo + _SINC_SLICE] = _sinc_lattice(piece, 0, centre, 0.0, runs)[0]
    out += 0.0  # +0.0, not -0.0, at the nonzero integers
    return out.reshape(x.shape)


def _residue_runs(n_min, ts) -> list:
    """``(r, lo, hi)`` for each run ``ts[lo:hi]`` of adjacent centres with
    one residue ``r`` of ``2 n_min + t`` mod 4, the runs of rows that
    :func:`_sinc_lattice` divides at a time; only ``n_min & 1`` enters."""
    residue = (2 * (int(n_min) & 1) + ts) & 3
    cuts = (np.flatnonzero(residue[1:] != residue[:-1]) + 1).tolist()
    starts = [0, *cuts] if residue.size else []
    return list(zip(residue[starts].tolist(), starts, [*cuts, residue.size]))


def _sinc_lattice(ps, n_min, ts, delta, runs) -> np.ndarray:
    """``sinc_pi(p - n_min - t/2 - delta)``: one row per integer ``t`` in
    ``ts``, one column per (finite) momentum in ``ps``; ``runs`` are the
    residue runs of ``ts`` (:func:`_residue_runs`).

    With ``p - delta = h/2 + f`` (integer ``h``, ``|f| <= 1/4``) and
    ``s = 2 n_min + t`` the argument is ``(h - s)/2 + f``, so its sine is
    ``sin(pi f)``, ``cos(pi f)``, ``-sin(pi f)`` or ``-cos(pi f)`` as
    ``(h - s) mod 4`` is 0, 1, 2 or 3.  ``ts`` may list its values in any
    order; each run of adjacent rows with one residue of ``s mod 4`` is one
    slice, divided in place by that residue's numerator row, so rows grouped
    by residue cost four divisions and a sine or cosine per momentum and parity.
    """
    # p's own half-integer part comes off before delta is subtracted, so
    # p - delta is never rounded at the scale of |p|: h and f are exact and
    # the argument is rounded once, at its own scale; hh is h/2
    hh = 2.0 * ps
    np.multiply(np.rint(hh, out=hh), 0.5, out=hh)
    f = ps - hh
    if delta:
        f -= delta
        h_g = np.rint(2.0 * f) * 0.5
        f -= h_g
        hh += h_g
    s = 2 * n_min + ts
    table = hh - (0.5 * s)[:, None]
    table += f
    # h mod 4 is 2 (hh - 2 floor(hh/2)), exact for any integral h
    h_mod4 = 0.5 * hh
    np.floor(h_mod4, out=h_mod4)
    h_mod4 *= -2.0
    h_mod4 += hh
    h_mod4 = np.multiply(h_mod4, 2.0, out=h_mod4).astype(np.int8)
    # the argument is exactly 0 only where f == 0 and s == h: those entries
    # are divided by 1, then set to sinc(0) = 1
    lattice = (f == 0.0).nonzero()[0]
    hit_row, hit = np.nonzero(table[:, lattice] == 0.0)
    hit_col = lattice[hit]
    table[hit_row, hit_col] = 1.0
    present = dict.fromkeys(r for r, _, _ in runs)
    # residue r + 2 (mod 4) is r negated: one row, one sine or cosine per momentum, per parity
    reps = [r for r in present if r < 2 or r ^ 2 not in present]
    k = h_mod4 - np.array(reps, dtype=np.int8)[:, None]
    trig = np.multiply(f, np.pi, out=np.empty(k.shape))
    np.cos(trig, out=trig, where=(k & 1) == 1)
    np.sin(trig, out=trig, where=(k & 1) == 0)
    trig /= np.pi
    trig *= 1 - (k & 2)
    numerator = dict(zip(reps, trig))
    numerator.update({r: -numerator[r ^ 2] for r in present if r not in numerator})
    for r, lo, hi in runs:
        rows = table[lo:hi]
        np.divide(numerator[r], rows, out=rows)
    table[hit_row, hit_col] = 1.0
    return table


def _check_momenta(n_min, n_max) -> None:
    """``ValueError`` naming the index window ``[n_min, n_max]`` when it
    leaves ``|n| < 2**51``.  Inside, float64 holds every half-integer
    momentum ``n + t/2`` with a spacing of at most 1/4 and ``0.5 * (2 n +
    t)`` is exact; beyond, the momenta leave the half-integer lattice, and
    sums over the window would be wrong numbers, not errors."""
    if n_min <= -(2**51) or n_max >= 2**51:
        raise ValueError(
            f"index window [{n_min}, {n_max}] leaves |n| < 2**51, where float64 momenta resolve half-integers"
        )


def _check_bytes(what: str, nbytes: int) -> None:
    """``ValueError`` "<what> needs <nbytes> bytes (limit ...)" when an array
    of ``nbytes`` would pass ``_MAX_DENSE_BYTES``: the one budget rule,
    applied before the array is built."""
    if nbytes > _MAX_DENSE_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes (limit {_MAX_DENSE_BYTES})")


def _check_grid(thetas, ps, complex_grid) -> None:
    """:func:`_check_bytes` on the grid of ``thetas`` x ``ps``, real or complex."""
    _check_bytes(f"a grid of {thetas.size} angles x {ps.size} momenta", (16 if complex_grid else 8) * thetas.size * ps.size)


def _check_phases(angles, top) -> None:
    """``ValueError`` naming the angle of ``angles`` largest in size when its
    phase product with the index ``top`` is not finite, with a margin of
    ``2**-24`` for the partial products of its exact split: such a phase
    would be NaN, not a number."""
    if angles.size:
        theta = float(angles[np.argmax(np.abs(angles))])
        if not isfinite(abs(theta) * top * (1.0 + 2.0**-24)):
            raise ValueError(f"the phase product of angle {theta!r} and index {top} overflows float64")


def _compact(keys, order):
    """Distinct values of ``keys`` (integers in ``[0, order.size)``), listed
    in the order of the permutation ``order``, and the position of each key
    among them; linear time, no sort."""
    present = np.zeros(order.size, dtype=bool)
    present[keys] = True
    kept = present[order]
    position = np.empty(order.size, dtype=np.intp)
    position[order] = kept.cumsum() - 1
    return order[kept], position[keys]


class FactorPair:
    """The window ``np.outer(u, v)`` of two factors on their own windows:
    its rows are the indices ``iu..iu + len(u) - 1`` and its columns
    ``iv..iv + len(v) - 1`` of the window that spans both (``min(iu, iv) =
    0``), whose index 0 is the kernel's ``n_min``.  A Moyal pair is
    ``FactorPair(conj(c_bra), c_ket, iu, iv)``; it costs its ``len(u)
    len(v)`` products, however far apart the two windows lie.  A state's
    own window is ``FactorPair(conj(c), c, hermitian=True)``: ``hermitian``
    is ``True`` only for a pair Hermitian by construction, which is not
    tested; any other pair (``None``) is tested as its zero-filled window
    matrix would be."""

    __slots__ = ("u", "v", "iu", "iv", "hermitian")

    def __init__(self, u, v, iu=0, iv=0, hermitian=None):
        self.u, self.v, self.iu, self.iv = np.asarray(u), np.asarray(v), int(iu), int(iv)
        self.hermitian = hermitian


def phase_space_sum_grid(A, n_min, delta, thetas, ps) -> np.ndarray:
    """Grid evaluation of the windowed sum, shape ``(len(thetas), len(ps))``.

    ``A`` is a square window matrix whose row/column index 0 corresponds
    to basis index ``n_min``; a real 1-D array, the diagonal of a diagonal
    window; or a :class:`FactorPair`, two factors on their own windows (a
    state's own pair among them).  A square ``A`` and a ``FactorPair`` not
    marked Hermitian are tested: Hermitian to within 1e-12 gives a real
    array, otherwise a complex one.  A diagonal and a pair marked Hermitian
    are Hermitian by construction, untested, and give a real array.  A grid
    above ``_MAX_DENSE_BYTES`` raises ``ValueError`` before it or its tables
    are allocated (:func:`_check_grid`).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    ps = np.asarray(ps, dtype=np.float64)
    if not isinstance(A, FactorPair):
        A = np.asarray(A)
        if A.ndim == 1:
            _check_grid(thetas, ps, np.iscomplexobj(A))
            return np.tile(_diagonal_sum(A, n_min, delta, ps, TWO_PI), (thetas.size, 1))
    plan = _axis_plan(thetas)
    H = plan[1]
    if isinstance(A, FactorPair):
        K = max(A.iu + A.u.size, A.iv + A.v.size)
        index, rows, cols, vals, hermitian = _factor_entries(A, K, n_min, H)
        box = (A.iu, A.iu + A.u.size, A.iv, A.iv + A.v.size)
    else:
        K = A.shape[0]
        index, rows, cols, vals, hermitian = _matrix_entries(A, n_min, H)
        box = (0, K, 0, K)
    _check_grid(thetas, ps, not hermitian)
    _check_momenta(n_min, n_min + K - 1)
    if index is None:
        if (rows == cols).all():
            # only the diagonal d = 0 is occupied, if any: no angle enters
            w = np.zeros(K, dtype=vals.dtype)
            w[rows] = vals
            return np.tile(_diagonal_sum(w.real if hermitian else w, n_min, delta, ps, TWO_PI), (thetas.size, 1))
        index = _index_plan(rows, cols, n_min, H, hermitian, box)
    vals = index.weight * vals if hermitian else vals / TWO_PI
    ds, ts = index.ds, index.ts
    # a half-turn multiplies diagonal d by (-1)^d, so a full-period axis
    # takes phases at its H + 1 angles from a = H // 2 on only: the middle
    # half-period, symmetric when the axis is, so theta and -theta, where
    # their floats mirror, still take mirrored phases (and a real even
    # window equal rows).  The phases come before M and the sinc table: a
    # table held past this call is then not allocated above them, where it
    # would keep their freed pages in the heap (up to 1.5 MB of peak RSS on
    # the phase_grid benchmark)
    a = H // 2
    angles = thetas[a : a + H + 1] if H else thetas
    if hermitian:
        phases = _angle_phases(angles, index.columns, plan)
    else:
        # the next rows give the imaginary parts: -i e^{i d theta} pairs up
        # as (sin, -cos)
        phases = np.empty((2 * angles.size, ds.size), dtype=np.complex128)
        _angle_phases(angles, index.columns, plan, out=phases[: angles.size])
        np.multiply(-1j, phases[: angles.size], out=phases[angles.size :])
    phases = phases.view(np.float64)
    # row 2j of M holds the real parts of diagonal ds[j] and row 2j + 1 the
    # negated imaginary parts, against the (cos, sin) column pairs of the
    # phases, so each product term is Re(e^{i d theta} A)
    M = np.zeros(2 * ds.size * ts.size)
    M[index.at] = vals.real
    M[ts.size :][index.at] = -vals.imag  # one row further on
    M = M.reshape(2 * ds.size, ts.size)
    table = _sinc_lattice(ps, n_min, ts, delta, index.runs)
    if not H:
        out = _chain(phases, M, table)
        return out if hermitian else out[: thetas.size] + 1j * out[thetas.size :]
    # M is block diagonal: even diagonals meet only even centres
    ne, te = index.ne, index.te
    out = np.empty((thetas.size, ps.size), dtype=np.float64 if hermitian else np.complex128)
    # the real (and imaginary) part of out on a leading axis, as the chains'
    # rows are stacked
    parts = out.view(np.float64).reshape(thetas.size, ps.size, -1).transpose(2, 0, 1)
    # rows a..a + H at their own angles hold E first, then E + O; row r < a
    # is E - O at theta_{r+H} - pi and row r > a + H at theta_{r-H} + pi
    mid = parts[:, a : a + H + 1]
    even = phases[:, :ne], M[:ne, :te], table[:te]
    if hermitian:
        _chain(*even, out=out[a : a + H + 1])
    else:
        # one part at a time: a copy through the 3-D view steps 8 bytes on
        # its leading axis.  E is freed before O is allocated, so O takes
        # its pages
        E = _chain(*even)
        mid[0] = E[: H + 1]
        mid[1] = E[H + 1 :]
        del E
    O = _chain(phases[:, ne:], M[ne:, te:], table[te:]).reshape(mid.shape)
    np.subtract(mid[:, H - a : H], O[:, H - a : H], out=parts[:, :a])
    np.subtract(mid[:, 1 : H - a + 1], O[:, 1 : H - a + 1], out=parts[:, a + H + 1 :])
    mid += O
    return out


class _Columns(NamedTuple):
    """The phase-table columns of a window's diagonals ``ds``, which depend
    on ``ds`` only (:func:`_angle_phases`)."""

    mags: np.ndarray  # |d| of each diagonal, in route order
    lo: int  # the smallest |d|
    hi: int  # the largest |d| + 1: the table width needed
    negative: object  # the mask d < 0, or None where no d is negative
    in_order: bool  # ds is 0..D-1 in order: the table itself, no copy


def _columns(ds) -> _Columns:
    """The :class:`_Columns` of the diagonals ``ds``."""
    d_min, d_max = int(ds.min()), int(ds.max())
    mags = np.abs(ds)
    lo = d_min if d_min >= 0 else -d_max if d_max <= 0 else int(mags.min())
    hi = max(-d_min, d_max) + 1
    # distinct ds in 0..D-1 are in order when sorted
    in_order = d_min == 0 and hi == ds.size and bool(np.all(ds[1:] > ds[:-1]))
    return _Columns(mags, lo, hi, ds < 0 if d_min < 0 else None, in_order)


class _IndexPlan(NamedTuple):
    """The indices of a window's chain, which depend on its shape only."""

    rows: np.ndarray  # the entries (rows, cols) of A, in the order of vals
    cols: np.ndarray
    # per entry of a Hermitian window: 1/2pi on d = 0, 2/2pi off it; None
    # for any other window, whose entries are all divided by 2pi
    weight: object
    ds: np.ndarray  # the occupied diagonals, in route order
    ts: np.ndarray  # the occupied centres m + n, in route order
    # each entry's position in the flat M: its real part's; its imaginary
    # part's is one row further on
    at: np.ndarray
    ne: int  # rows of M and of the table in the even block (half-turn route)
    te: int
    runs: list  # the residue runs of the table's rows (:func:`_residue_runs`)
    columns: _Columns  # the phase-table columns of ds


def _index_plan(rows, cols, n_min, H, hermitian, box) -> _IndexPlan:
    """The :class:`_IndexPlan` of the entries ``(rows, cols)`` of a window
    at ``n_min``, all inside the rows ``r0..r1-1`` and columns ``c0..c1-1``
    of ``box = (r0, r1, c0, c1)``, on an axis whose half-turn answer is
    ``H``.  Only ``n_min & 1`` and ``H > 0`` enter beyond the entries: the
    centres' residues mod 4 and the route's order."""
    r0, r1, c0, c1 = box
    diag = cols - rows
    # G[-d] = conj(G[d]): a Hermitian window keeps d >= 0 and counts each d > 0 twice
    weight = np.where(diag > 0, 2.0 / TWO_PI, 1.0 / TWO_PI) if hermitian else None
    # in the box, diagonals d = n - m and centres t = m + n each take
    # (r1 - r0) + (c1 - c0) - 1 values, from d_lo and t_lo on
    d_lo, t_lo = c0 - r1 + 1, r0 + c0
    orders = _route_orders((r1 - r0) + (c1 - c0) - 1, d_lo & 1, (2 * int(n_min) + t_lo) & 3, H > 0)
    ds, d_row = _compact(diag - d_lo, orders.d_order)
    ds += d_lo
    t = rows + cols
    t -= t_lo
    ts, t_row = _compact(t, orders.t_order)
    ts += t_lo
    # every (d, m+n) pair names one entry of A, so one assignment scatters each part
    at = 2 * ts.size * d_row + t_row
    ne, te = (2 * np.count_nonzero((ds & 1) == 0), np.count_nonzero((ts & 1) == 0)) if H else (0, 0)
    return _IndexPlan(rows, cols, weight, ds, ts, at, ne, te, _residue_runs(n_min, ts), _columns(ds))


class _Orders(NamedTuple):
    """The route orders of the ``width`` values ``j`` that the diagonals
    ``d_lo + j`` and the centres ``t_lo + j`` of a box can take."""

    d_order: np.ndarray  # a permutation of 0..width-1
    t_order: np.ndarray


def _route_orders(width, d_phase, t_phase, halves) -> _Orders:
    """The :class:`_Orders` of a box (:func:`_index_plan`).  On the
    half-turn route (``halves``) the even diagonals come first, where ``j``
    has the parity ``d_phase`` of ``d_lo``, and the centres by the residue
    of ``2 n_min + t``, ``t_phase + j`` mod 4, in the order 0, 2, 1, 3;
    otherwise the diagonals in order and the centres by residue 0..3.  The
    orders of every phase are held together under ``(width, halves)`` by
    :func:`_held_with` (cap ``_HELD_INDEX_BYTES``), so a store of a few
    keys serves every box of a width; a width whose phases together pass
    the cap builds only the orders asked for, and holds none."""
    global _held_orders
    held = _held_orders.get((width, halves))
    if held is None:
        # two arrays of width indices for each of the 4 or 8 phases
        if 8 * (1 + halves) * width * np.dtype(np.intp).itemsize > _HELD_INDEX_BYTES:
            return _orders(width, d_phase & halves, t_phase, halves)
        held = tuple(_orders(width, p, q, halves) for p in range(1 + halves) for q in range(4))
        _held_orders = _held_with(_held_orders, (width, halves), held, _orders_bytes, _HELD_INDEX_BYTES)
    return held[4 * (d_phase & halves) + t_phase]


def _orders(width, d_phase, t_phase, halves) -> _Orders:
    """The :class:`_Orders` of one phase (:func:`_route_orders`)."""
    span = np.arange(width)
    if halves:
        d_order, residues = np.concatenate([span[d_phase::2], span[1 - d_phase :: 2]]), (0, 2, 1, 3)
    else:
        d_order, residues = span, range(4)
    t_order = np.concatenate([span[(r - t_phase) & 3 :: 4] for r in residues])
    for order in (d_order, t_order):
        order.setflags(write=False)
    return _Orders(d_order, t_order)


def _orders_bytes(held) -> int:
    """The bytes of the route orders held for one key."""
    return sum(order.nbytes for orders in held for order in orders)


def _index_bytes(index) -> int:
    """The bytes of a held index plan's arrays."""
    columns = index.columns
    arrays = (index.rows, index.cols, index.weight, index.ds, index.ts, index.at, columns.mags, columns.negative)
    return sum(array.nbytes for array in arrays if array is not None)


def _held_upper(K, n_min, H):
    """``(rows, cols, index)`` of a full ``K`` x ``K`` window: its upper
    triangle ``m <= n``, row by row, and the plan held under its key ``(K,
    n_min & 1, H > 0)``, its indices taken from it; or ``None``, the
    indices built anew."""
    index = _held_indexes.get((K, int(n_min) & 1, H > 0))
    if index is not None:
        return index.rows, index.cols, index
    lengths = np.arange(K, 0, -1)
    rows = np.repeat(np.arange(K), lengths)
    # row m starts at flat index m K - m (m - 1)/2 with column m
    m = np.arange(K)
    cols = np.arange(rows.size) - np.repeat(m * (2 * K - 1 - m) // 2, lengths)
    return rows, cols, None


def _full_index(rows, cols, index, K, n_min, H):
    """The plan of a full Hermitian window, with all ``K (K + 1) / 2``
    upper entries at ``(rows, cols)``: ``index`` when one is held, else a
    new plan held by :func:`_held_with` under the cap
    ``_HELD_INDEX_BYTES``.  ``None`` for ``K = 1``, whose one diagonal ``d
    = 0`` takes the angle-free row."""
    global _held_indexes
    if index is None and K > 1:
        index = _index_plan(rows, cols, n_min, H, True, (0, K, 0, K))
        for array in (rows, cols, index.weight, index.ds, index.ts, index.at, index.columns.mags):
            array.setflags(write=False)
        _held_indexes = _held_with(_held_indexes, (K, int(n_min) & 1, H > 0), index, _index_bytes, _HELD_INDEX_BYTES)
    return index


def _factor_entries(pair, K, n_min, H):
    """``(index, rows, cols, vals, hermitian)`` of the :class:`FactorPair`
    ``pair``, ``np.outer(u, v)`` at rows ``iu..`` and columns ``iv..`` of a
    ``K`` x ``K`` window: its nonzero products ``u[m] v[n]``, in
    ``np.outer``'s operand order and with its bits.  A zero product (a zero
    factor, or an underflow) is no entry, as a scan of the zero-filled
    matrix would not find it.  A pair not marked Hermitian takes the
    Hermiticity test of that matrix (:func:`_pair_hermitian`).

    A Hermitian pair that spans the window (``iu = iv = 0`` and both of
    length ``K``) forms only its products ``m <= n``; with none zero it is
    full and ``index`` is its held plan (:func:`_full_index`).  Any other
    pair forms its ``len(u) len(v)`` products, and ``index`` is ``None``."""
    u, v, iu, iv = pair.u, pair.v, pair.iu, pair.iv
    products = None if pair.hermitian else np.outer(u, v)
    hermitian = pair.hermitian or _pair_hermitian(products, iu, iv)
    if hermitian and u.size == v.size == K:
        rows, cols, index = _held_upper(K, n_min, H)
        vals = u[rows] * v[cols] if products is None else products[rows, cols]
        kept = vals != 0
        if kept.all():
            return _full_index(rows, cols, index, K, n_min, H), rows, cols, vals, True
        return None, rows[kept], cols[kept], vals[kept], True
    if products is None:
        products = np.outer(u, v)
    at = np.flatnonzero(products)
    vals = products.ravel()[at]
    rows, cols = np.divmod(at, v.size)
    rows += iu
    cols += iv
    if hermitian:
        upper = cols >= rows
        return None, rows[upper], cols[upper], vals[upper], True
    return None, rows, cols, vals, False


def _pair_hermitian(products, iu, iv) -> bool:
    """Whether the zero-filled window whose only nonzero block is
    ``products``, at rows ``iu..`` and columns ``iv..``, is Hermitian: its
    residual ``max|A_mn - conj(A_nm)|`` is at most ``_HERMITIAN_TOL``, the
    test of :func:`_matrix_entries`, with the bits of each term that
    :func:`_hermitian_residual` takes there, at the cost of the block.  An
    entry whose mirror lies outside the block is met against a zero and
    counts in full (one above the tolerance decides, before the rest); the
    square where the two windows overlap compares each entry with its
    mirror there."""
    residual = np.abs(products)
    lo, hi = max(iu, iv), min(iu + products.shape[0], iv + products.shape[1])
    if lo < hi:
        rows, cols = slice(lo - iu, hi - iu), slice(lo - iv, hi - iv)
        if residual.size > (hi - lo) ** 2:
            residual[rows, cols] = 0.0
            if residual.max() > _HERMITIAN_TOL:
                return False
        square = products[rows, cols]
        residual = np.abs(square - square.T.conj())
    return bool(residual.max() <= _HERMITIAN_TOL)


def _matrix_entries(A, n_min, H):
    """``(index, rows, cols, vals, hermitian)`` of the nonzero entries of
    the square ``A``: those on and above the diagonal when ``A`` is
    Hermitian to within ``_HERMITIAN_TOL``, all of them otherwise.  A
    Hermitian window with no zero entry is full: its upper entries and their
    mirrors are gathered at the held indices, and ``index`` is its held plan
    (:func:`_full_index`); otherwise ``index`` is ``None``."""
    K = A.shape[0]
    nonzero = A != 0
    if nonzero.all():
        rows, cols, index = _held_upper(K, n_min, H)
        vals = A[rows, cols]
        if _hermitian_residual(A, rows, cols, vals) <= _HERMITIAN_TOL:
            return _full_index(rows, cols, index, K, n_min, H), rows, cols, vals, True
        # every entry is nonzero: the scan below would find them all, in this order
        rows, cols = np.divmod(np.arange(K * K), K)
        return None, rows, cols, A.ravel(), False
    # numpy scans a flat boolean mask on a fast path, and divmod splits
    # the row-major flat indices into the same (rows, cols) as a 2-D nonzero
    rows, cols = np.divmod(np.flatnonzero(nonzero), K)
    vals = A[rows, cols]
    if _hermitian_residual(A, rows, cols, vals) <= _HERMITIAN_TOL:
        upper = cols >= rows
        return None, rows[upper], cols[upper], vals[upper], True
    return None, rows, cols, vals, False


def _chain(a, b, c, out=None):
    """``a @ b @ c`` of three matrices, in the order with fewer
    multiplications by the cost rule of ``numpy.linalg.multi_dot`` (so the
    same products and bits), without its per-call checks."""
    if a.shape[0] * c.shape[0] * (a.shape[1] + c.shape[1]) < a.shape[1] * c.shape[1] * (a.shape[0] + c.shape[0]):
        return np.dot(np.dot(a, b), c, out=out)
    return np.dot(a, np.dot(b, c), out=out)


# coarse step B of every phase column: exp(i d theta) = exp(i B q theta)
# exp(i k theta) with d = B q + k and -B/2 <= k < B/2, at any table width
_COARSE_STEP = 32
# bytes of the phase tables held between calls
_HELD_BYTES = 4 * 2**20
# the plans of the angle axes held, oldest first: key -> (key, H, table)
_held_plans = {}
# bytes of the index plans of full windows held between calls
_HELD_INDEX_BYTES = 4 * 2**20
# the index plans held, oldest first: (K, n_min & 1, H > 0) -> _IndexPlan
_held_indexes = {}
# the route orders held under the same cap, oldest first: (width, H > 0) ->
# the _Orders of each phase
_held_orders = {}


def _held_with(held: dict, key, value, size, cap) -> dict:
    """The store ``held`` with ``value`` held under ``key``, as a new dict.

    ``value`` goes last, in place of any entry under ``key``, and the
    oldest entries are dropped while the ``size`` of those held would pass
    ``cap``; a value whose own size passes ``cap`` is not held, and
    ``held`` is returned as it is.  A store is replaced whole by the dict
    returned, never changed in place, so a thread that read it holds
    complete entries; threads that race to replace it lose only a rebuild.
    """
    total = size(value)
    if total > cap:
        return held
    kept = [(k, v) for k, v in held.items() if k != key]
    total += sum(size(v) for _, v in kept)
    while total > cap:  # drop the oldest
        total -= size(kept.pop(0)[1])
    return dict([*kept, (key, value)])


def _table_bytes(plan) -> int:
    """The bytes of a held plan's phase table."""
    return plan[2].nbytes


def _axis_plan(thetas):
    """``(key, H, table)`` for the angle axis ``thetas``: the held plan when
    one is held for ``key``, the axis' shape and bytes, else a new plan with
    its half-turn answer ``H`` and no phase table yet."""
    key = thetas.shape, thetas.tobytes()
    plan = _held_plans.get(key)
    if plan is not None:
        return plan
    return key, _half_turns(thetas), None


def _half_turns(thetas) -> int:
    """``H`` when ``thetas`` is, bit for bit, ``np.linspace(t0, t0 + TWO_PI,
    2 H + 1)`` with ``H >= 1`` and ``|t0| <= TWO_PI``, where ``theta_j + pi``
    is ``theta_{j + H}`` to a few ulp of pi; otherwise 0.  Farther out the
    half-turn rows would be off by an ulp of ``t0`` (2.9e-8 at ``t0 =
    1e9``), so such an axis takes the open route.  Linear time, no
    tolerance: every angle is compared with the reference axis;
    :func:`_axis_plan` holds the answer for its axis."""
    n = thetas.size
    if thetas.ndim != 1 or n < 3 or n % 2 == 0 or abs(thetas[0]) > TWO_PI or thetas[-1] != thetas[0] + TWO_PI:
        return 0
    t0 = float(thetas[0])
    return n // 2 if np.array_equal(thetas, np.linspace(t0, t0 + TWO_PI, n)) else 0


def _diagonal_sum(w, n_min, delta, ps, divisor) -> np.ndarray:
    """``sum_j w_j sinc_pi(p - n_min - j - delta) / divisor`` at each
    momentum of ``ps``: one row, real or complex as ``w``.  The nonzero
    weights enter a contiguous slice at a time, a complex ``w`` as two rows
    (real and imaginary parts) of each slice's product."""
    w = np.asarray(w)
    ps = np.asarray(ps, dtype=np.float64)
    _check_momenta(n_min, n_min + w.size - 1)
    per_slice = max(1, _TABLE_BLOCK // (ps.size + 16))
    parts = 2 if np.iscomplexobj(w) else 1
    out = np.zeros((parts, ps.size))
    for lo in range(0, w.size, per_slice):
        idx = np.flatnonzero(w[lo:lo + per_slice])
        # centres 2n/2: even n, then odd, is the residue order the table needs
        idx = np.concatenate([idx[(n_min + lo + idx) & 1 == r] for r in (0, 1)])
        scaled = (1.0 / divisor) * w[lo + idx]
        if parts == 2:
            scaled = np.stack([scaled.real, scaled.imag])
        out += scaled @ _sinc_lattice(ps, n_min + lo, 2 * idx, delta, _residue_runs(n_min + lo, 2 * idx))
    return out[0] if parts == 1 else out[0] + 1j * out[1]


def _angle_phases(angles, columns, plan, out=None):
    """``exp(i d theta)``, one row per angle of ``angles`` and one column per
    diagonal ``d`` of a window, in any order, as its :class:`_Columns`
    give them: column ``|d|`` of the phase table of ``plan``, the plan of
    the axis that ``angles`` come from, conjugated where ``d < 0``; written
    into ``out`` when given.

    The table holds ``exp(i d theta)`` for ``d = 0..D-1``.  A new axis gets
    exactly the ``D`` its window needs.  A window that needs more doubles
    ``D`` (or takes what it needs, if that is more), keeping the old columns
    and building only the new ones.  A new or grown table is held with its
    plan, last among the plans held and in place of its axis' older plan,
    by :func:`_held_with` with the cap ``_HELD_BYTES``.  A table above the
    cap serves its call only, and holds just the columns from the smallest
    ``|d|`` to the largest that its window uses.  A column has the same bits
    however wide the table was when it was built (:func:`_phase_columns`),
    so a grid's bits do not depend on the calls before it.
    """
    global _held_plans
    key, H, table = plan
    have = 0 if table is None else table.shape[1]
    if have < columns.hi:
        width = columns.hi if table is None else max(columns.hi, min(2 * have, _HELD_BYTES // (16 * max(1, angles.size))))
        if 16 * angles.size * width > _HELD_BYTES:
            return _table_columns(_phase_columns(angles, columns.lo, columns.hi), columns, columns.lo, out)
        fresh = _phase_columns(angles, have, width)
        table = fresh if table is None else np.concatenate([table, fresh], axis=1)
        table.setflags(write=False)
        _held_plans = _held_with(_held_plans, key, (key, H, table), _table_bytes, _HELD_BYTES)
    if out is None and columns.in_order and columns.hi == table.shape[1]:
        # every column, in order (an open axis and a full band): no copy
        return table
    return _table_columns(table, columns, 0, out)


def _table_columns(table, columns, first, out=None):
    """The phases of ``columns`` from ``table``, whose column ``j`` is
    ``exp(i (first + j) theta)``: a new array (or ``out``), conjugated
    where ``d < 0``."""
    # take, unlike [:, idx], returns C order, so the result views as real pairs
    phases = table.take(columns.mags - first if first else columns.mags, axis=1, out=out)
    if columns.negative is not None:
        np.conjugate(phases, out=phases, where=columns.negative)
    return phases


def _phase_columns(angles, start, stop):
    """``exp(i d theta)`` for ``d = start..stop-1``, one row per angle.

    With the fixed step ``B = _COARSE_STEP`` each ``d`` is ``B q + k`` with
    ``-B/2 <= k < B/2``, and its phase is a coarse ``e^{i B q theta}`` times
    a fine ``e^{i k theta}``, each from :func:`_exp_product`:
    ``len(angles) (J + min(B, stop - start))`` factors for ``J`` coarse
    steps, not one per entry; ``d < B/2`` takes its fine factor times
    exactly 1.  ``q`` and ``k`` depend on ``d`` alone, so a column has the
    same bits whatever ``start`` and ``stop`` are.  An angle whose product
    with the largest multiple overflows raises ``ValueError``
    (:func:`_check_phases`); a held plan pays nothing.
    """
    B = _COARSE_STEP
    # d + B//2 = B q + r: the fine step is k = r - B//2
    q, k = np.divmod(np.arange(start, stop) + B // 2, B)
    k -= B // 2
    q0, J = int(q[0]), int(q[-1] - q[0]) + 1
    k0 = int(k.min())
    multiples = np.concatenate([B * np.arange(q0, q0 + J), np.arange(k0, int(k.max()) + 1)])
    _check_phases(angles, int(np.abs(multiples).max()))
    factors = _exp_product(angles[:, None], multiples.astype(np.float64))
    columns = factors.take(q - q0, axis=1)
    columns *= factors.take(J + k - k0, axis=1)
    return columns


def _angle_rows(angles, K, row, dtype) -> np.ndarray:
    """``row(P)`` of ``P = exp(i k theta)``, ``k = 0..K-1``, one ``dtype``
    value per angle, for blocks of a multiple of 16 angles and at most
    ``_TABLE_BLOCK`` phases: a row form such as ``P @ c`` sums each angle on
    its own, with bits that depend on neither the block nor BLAS threads."""
    out = np.empty(angles.size, dtype=dtype)
    step = max(16, _TABLE_BLOCK // K // 16 * 16)
    for lo in range(0, angles.size, step):
        out[lo : lo + step] = row(_phase_columns(angles[lo : lo + step], 0, K))
    return out


def _exp_product(a, b) -> np.ndarray:
    """``exp(i a b)`` of broadcast arrays, as ``(cos p + i sin p) exp(i e)``
    for the exact pair ``p + e = a b`` of :func:`_two_product`."""
    p, e = _two_product(a, b)
    out = np.empty(np.shape(p), dtype=np.complex128)
    np.cos(p, out=out.real)
    np.sin(p, out=out.imag)
    out *= np.exp(1j * e)
    return out


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a b)`` and ``p + e = a b`` exactly, for broadcast
    arrays whose products neither overflow nor underflow (Dekker's product:
    halves of at most 26 bits make the four partial products exact)."""
    p = a * b
    a1, a2 = _halves(a)
    b1, b2 = _halves(b)
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    return p, e


def _halves(x):
    """``(hi, lo)`` with ``hi + lo = x``, each of at most 26 bits: ``hi``
    is ``x`` rounded to 26 bits, as Veltkamp's split rounds it, but with no
    overflow at any finite ``x``."""
    mantissa, exponent = np.frexp(x)
    hi = np.ldexp(np.rint(np.ldexp(mantissa, 26)), exponent - 26)
    return hi, x - hi


def _hermitian_residual(A, rows, cols, vals) -> float:
    """Largest ``|A_mn - conj(A_nm)|`` over the entries ``vals`` of the
    square ``A``, at ``(rows, cols)``: each is compared with its mirror,
    gathered in one pass.  Given all the nonzero entries, a pair of nonzero
    mirrors is met from both sides, with the same modulus, and an entry
    whose mirror is zero counts in full; given the upper half of a window
    with no zero entry, each pair is met once, with the same maximum."""
    return float(np.max(np.abs(vals - A[cols, rows].conj()), initial=0.0))


def phase_space_sum_point(A, n_min, delta, theta: float, p: float) -> complex:
    """Single-point evaluation: the 1x1 grid of :func:`phase_space_sum_grid`."""
    return complex(phase_space_sum_grid(A, n_min, delta, np.array([theta]), np.array([p]))[0, 0])
