"""Hot kernels for phase-space grid evaluation.

Every quasi-probability value produced by this package is a windowed
coefficient sum of the form

    S(theta, p) = (1/2pi) * sum_{m,n} A[m,n] * exp(i(n-m)theta)
                                     * sinc_pi(p - (m+n)/2 - delta)

evaluated on a rectangular (theta, p) grid.  The sum factors over the
diagonals ``d = n - m`` of ``A``: each entry lands on its diagonal and on
the sinc row of its centre ``(m+n)/2 + delta``, so the grid is one chain
``phases @ M @ table`` of real matrices, the angle phases
``exp(i d theta)`` as (cos, sin) column pairs, the scattered real and
imaginary parts of ``A`` and the sinc table.  ``numpy.linalg.multi_dot``
evaluates the chain in whichever of its two orders takes fewer
multiplications for the shapes at hand.  Only the nonzero entries of
``A`` are read, so a banded or diagonal window costs in proportion to its
band.  A Hermitian window folds ``-d`` onto ``d`` and yields a real grid
from one phase row per angle; any other window stacks a second set of
rows for the imaginary part and yields a complex grid.

The phases come from two small tables, coarse ``exp(i B q theta)`` and
fine ``exp(i k theta)`` with ``B`` about the square root of the diagonal
span, so the cosines and sines are taken per table entry, not per
(angle, diagonal) pair.  The centres all lie on one half-integer lattice
shifted by ``delta``, so ``sin(pi (p - centre))`` is one of
``+-sin(pi f)`` and ``+-cos(pi f)`` for one reduced remainder ``f`` per
momentum: the sinc table costs one sin row, one cos row and a division,
with no sine per table entry.  The occupied diagonals and centres are
found with presence tables over their ``2K - 1`` possible values, not by
sorting the entries.
"""

import math

import numpy as np

__all__ = [
    "sinc_pi_array",
    "phase_space_sum_grid",
    "phase_space_sum_point",
]

TWO_PI = 2.0 * np.pi
# below this the direct ratio loses nothing, but the Taylor form avoids 0/0
_TAYLOR_CUTOFF = 1e-6
# largest |A_mn - conj(A_nm)| that still takes the real (Hermitian) path;
# the same tolerance DensityMatrix.validate applies by default
_HERMITIAN_TOL = 1e-12


def sinc_pi_array(x) -> np.ndarray:
    """sin(pi x)/(pi x), elementwise, with exact values at integers (1 at 0,
    else 0) and a Taylor form below 1e-6; 0-d input gives a 0-d array."""
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    r = np.rint(x)
    integral = x == r
    tiny = (np.abs(x) < _TAYLOR_CUTOFF) & ~integral
    safe = np.where(integral, 1.0, x)
    out = np.sin(np.pi * safe) / (np.pi * safe)
    if np.any(tiny):
        t = (np.pi * x[tiny]) ** 2
        out[tiny] = 1.0 - t / 6.0 + t * t / 120.0
    out[integral] = np.where(r[integral] == 0.0, 1.0, 0.0)
    return out.reshape(shape)


def _sinc_lattice(ps, n_min, ts, delta) -> np.ndarray:
    """``sinc_pi(p - n_min - t/2 - delta)``: one row per integer ``t`` in
    ``ts``, one column per (finite) momentum in ``ps``.

    With ``p - delta = h/2 + f`` (integer ``h``, ``|f| <= 1/4``) and
    ``s = 2 n_min + t`` the argument is ``(h - s)/2 + f``, so its sine is
    ``sin(pi f)``, ``cos(pi f)``, ``-sin(pi f)`` or ``-cos(pi f)`` as
    ``(h - s) mod 4`` is 0, 1, 2 or 3.  ``ts`` must list its values in
    ascending order of ``s mod 4``: each residue's rows are then one slice,
    divided in place by one shared numerator row.
    """
    # p's own half-integer part comes off before delta is subtracted, so
    # p - delta is never rounded at the scale of |p|: h and f are exact and
    # the argument is rounded once, at its own scale
    h = np.rint(2.0 * ps)
    g = (ps - 0.5 * h) - delta
    h_g = np.rint(2.0 * g)
    f = g - 0.5 * h_g
    h += h_g
    s = 2 * n_min + ts
    table = (0.5 * h) - (0.5 * s)[:, None]
    table += f
    quarter = np.empty((4, ps.size))
    np.sin(np.pi * f, out=quarter[0])
    np.cos(np.pi * f, out=quarter[1])
    quarter[:2] /= np.pi
    np.negative(quarter[:2], out=quarter[2:])
    # row r: the numerator, over pi, of every centre with s = r (mod 4)
    h_mod4 = np.mod(h, 4.0).astype(np.intp)
    by_residue = quarter[(h_mod4 - np.arange(4)[:, None]) & 3, np.arange(ps.size)]
    # the argument is exactly 0 only where f == 0 and s == h: those entries
    # are divided by 1, then set to sinc(0) = 1
    lattice = (f == 0.0).nonzero()[0]
    hit_row, hit = np.nonzero(table[:, lattice] == 0.0)
    hit_col = lattice[hit]
    table[hit_row, hit_col] = 1.0
    bounds = np.searchsorted(s & 3, np.arange(5))
    for r in range(4):
        rows = table[bounds[r]:bounds[r + 1]]
        np.divide(by_residue[r], rows, out=rows)
    table[hit_row, hit_col] = 1.0
    return table


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


def phase_space_sum_grid(A, n_min, delta, thetas, ps) -> np.ndarray:
    """Grid evaluation of the windowed sum, shape ``(len(thetas), len(ps))``.

    ``A`` is a square window matrix whose row/column index 0 corresponds
    to basis index ``n_min``.  When ``A`` is Hermitian to within 1e-12
    the result is a real array; otherwise it is complex.
    """
    A = np.asarray(A)
    thetas = np.asarray(thetas, dtype=np.float64)
    ps = np.asarray(ps, dtype=np.float64)
    # numpy scans a boolean mask on a fast path; a float or complex A (often
    # the transposed view of a DensityMatrix) is tested element by element
    rows, cols = np.nonzero(A != 0)
    vals = A[rows, cols]
    hermitian = vals.size == 0 or (
        np.max(np.abs(vals - np.conj(A[cols, rows]))) <= _HERMITIAN_TOL
    )
    diag = cols - rows
    if hermitian:
        # G[-d] = conj(G[d]): keep d >= 0 and count each d > 0 twice
        upper = diag >= 0
        rows, cols, diag = rows[upper], cols[upper], diag[upper]
        vals = np.where(diag > 0, 1.0 / np.pi, 1.0 / TWO_PI) * vals[upper]
    else:
        vals = vals / TWO_PI
    # diagonals d = n - m and centres t = m + n both take 2K - 1 values;
    # the centres are grouped by the residue of 2 n_min + t, as the table needs
    K = A.shape[0]
    span = np.arange(2 * K - 1)
    ds, d_row = _compact(diag + (K - 1), span)
    ds -= K - 1
    ts, t_row = _compact(rows + cols, ((2 * n_min + span) & 3).argsort(kind="stable"))
    nd = ds.size
    if nd == 0:
        return np.zeros((thetas.size, ps.size))
    # every (d, m+n) pair names one entry of A, so one assignment scatters
    # each part: row 2j of M holds the real parts of diagonal ds[j] and row
    # 2j + 1 the negated imaginary parts, against the (cos, sin) column
    # pairs of the phases, so each product term is Re(e^{i d theta} A)
    M = np.zeros((nd, 2, ts.size))
    M[d_row, 0, t_row] = vals.real
    M[d_row, 1, t_row] = -vals.imag
    phases = _angle_phases(thetas, ds)
    if not hermitian:
        # the next T rows give the imaginary parts: -i e^{i d theta} pairs
        # up as (sin, -cos)
        phases = np.concatenate([phases, -1j * phases])
    # multi_dot takes the order with fewer multiplications: (phases @ M)
    # first on the usual axes, (M @ table) first for a few momenta or a
    # diagonal window on many sinc rows
    out = np.linalg.multi_dot(
        [phases.view(np.float64), M.reshape(2 * nd, -1), _sinc_lattice(ps, n_min, ts, delta)]
    )
    if hermitian:
        return out
    return out[: thetas.size] + 1j * out[thetas.size :]


def _angle_phases(thetas, ds):
    """``exp(i d theta)``, one row per angle and one column per integer of
    the ascending ``ds``.

    With ``B = ceil(sqrt(ds[-1] - ds[0] + 1))`` each ``d`` is ``B q + k``
    with ``-B/2 <= k < B/2``, and its phase is the product of one of ``J``
    coarse phases ``e^{i B q theta}`` and one of ``B`` fine phases
    ``e^{i k theta}``: the table costs ``len(thetas) * (J + B)`` cosines and
    sines, not two per entry.  The remainder is centred on zero, so
    ``|B q| <= |d| + B/2``: each factor's argument is rounded at about the
    scale of ``d theta``, and a ``|d| < B/2`` (``q = 0``) takes its phase
    from one cosine and one sine of ``d theta`` alone.
    """
    B = math.isqrt(int(ds[-1] - ds[0])) + 1
    # d + B//2 = B q + r: the fine step is k = r - B//2
    q, r = np.divmod(ds + B // 2, B)
    q0 = int(q[0])
    J = int(q[-1]) - q0 + 1
    multiples = np.concatenate([B * np.arange(q0, q0 + J), np.arange(B) - B // 2])
    angles = np.outer(thetas, multiples)
    factors = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=factors.real)
    np.sin(angles, out=factors.imag)
    # take, unlike [:, idx], returns C order, so the result views as real pairs
    phases = factors.take(q - q0, axis=1)
    phases *= factors.take(J + r, axis=1)
    return phases


def phase_space_sum_point(A, n_min, delta, theta: float, p: float) -> complex:
    """Single-point evaluation: the 1x1 grid of :func:`phase_space_sum_grid`."""
    out = phase_space_sum_grid(A, n_min, delta, np.array([theta]), np.array([p]))
    return complex(out[0, 0])
