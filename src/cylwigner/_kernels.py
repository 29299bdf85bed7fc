"""Hot kernels for phase-space grid evaluation.

Every quasi-probability value produced by this package is a windowed
coefficient sum of the form

    S(theta, p) = (1/2pi) * sum_{m,n} A[m,n] * exp(i(n-m)theta)
                                     * sinc_pi(p - (m+n)/2 - delta)

evaluated on a rectangular (theta, p) grid.  The sum factors over the
diagonals ``d = n - m`` of ``A``: each entry lands on the sinc row of its
centre ``(m+n)/2 + delta``, one matrix product collapses the rows, and a
second one applies the angle phases ``exp(i d theta)``.  Only the
nonzero entries of ``A`` are read, so a banded or diagonal window costs
in proportion to its band, and a Hermitian window folds ``-d`` onto
``d`` and yields a real grid.

The centres all lie on one half-integer lattice shifted by ``delta``, so
``sin(pi (p - centre))`` is one of ``+-sin(pi f)`` and ``+-cos(pi f)`` for
one reduced remainder ``f`` per momentum: the sinc table costs one sin
row, one cos row and a division, with no sine per table entry.  The
occupied diagonals and centres are found with presence tables over their
``2K - 1`` possible values, not by sorting the entries.  Real and
imaginary parts are stacked, so each axis is contracted by a single real
matrix product on the Hermitian path.
"""

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
    rows, cols = np.nonzero(A)
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
    # every (d, m+n) pair names one entry of A, so one assignment scatters
    # each part: real parts in the top nd rows of M, imaginary below
    nd = ds.size
    M = np.zeros((2 * nd, ts.size))
    M[d_row, t_row] = vals.real
    M[d_row + nd, t_row] = vals.imag
    G = M @ _sinc_lattice(ps, n_min, ts, delta)
    angles = np.outer(thetas, ds)
    if hermitian:
        phases = np.empty((thetas.size, 2 * nd))
        np.cos(angles, out=phases[:, :nd])
        np.sin(angles, out=phases[:, nd:])
        np.negative(phases[:, nd:], out=phases[:, nd:])
        return phases @ G
    return np.exp(1j * angles) @ (G[:nd] + 1j * G[nd:])


def phase_space_sum_point(A, n_min, delta, theta: float, p: float) -> complex:
    """Single-point evaluation: the 1x1 grid of :func:`phase_space_sum_grid`."""
    out = phase_space_sum_grid(A, n_min, delta, np.array([theta]), np.array([p]))
    return complex(out[0, 0])
