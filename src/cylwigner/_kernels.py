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
``A``, the sinc table), which ``numpy.linalg.multi_dot`` evaluates in its
cheaper order.  Only the nonzero entries of ``A`` enter, so a banded
window costs in proportion to its band; finding them is one scan of the
K x K window.  A Hermitian window (tested once per mirrored pair, unless
known by construction) folds ``-d`` onto ``d`` and yields a real grid;
any other window stacks rows for the imaginary part and yields a complex
grid.  A window beyond ``|n| < 2**51``, where float64 momenta no longer
hold the half-integer lattice, is refused with ``ValueError``.

The phases come from two small tables, coarse ``exp(i B q theta)`` and
fine ``exp(i k theta)`` with ``B`` about the square root of the diagonal
span, so the cosines and sines are taken per table entry, not per
(angle, diagonal) pair.  The centres all lie on one half-integer lattice
shifted by ``delta``, so ``sin(pi (p - centre))`` is one of
``+-sin(pi f)`` and ``+-cos(pi f)`` for one reduced remainder ``f`` per
momentum: the sinc table costs one sin row, one cos row and a division.
The occupied diagonals and centres are found with presence tables over
their ``2K - 1`` possible values, not by sorting the entries, and the
centres are grouped by residue with four strided ranges.
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
# entries (4 MiB) of a diagonal-window slice: per weight, len(ps) + about 16
_TABLE_BLOCK = 2**19


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


def phase_space_sum_grid(A, n_min, delta, thetas, ps, hermitian=None) -> np.ndarray:
    """Grid evaluation of the windowed sum, shape ``(len(thetas), len(ps))``.

    ``A`` is a square window matrix whose row/column index 0 corresponds
    to basis index ``n_min``, or a real 1-D array: the diagonal of a
    diagonal window, Hermitian by construction.  ``hermitian=None`` tests a
    square ``A``: Hermitian to within 1e-12 gives a real array, otherwise a
    complex one.  ``hermitian=True`` says ``A`` is Hermitian by construction
    (a state's own window ``conj(c) c^T``) and skips the test.
    """
    A = np.asarray(A)
    thetas = np.asarray(thetas, dtype=np.float64)
    ps = np.asarray(ps, dtype=np.float64)
    if A.ndim == 1:
        return np.tile(_diagonal_sum(A, n_min, delta, ps, TWO_PI), (thetas.size, 1))
    K = A.shape[0]
    _check_momenta(n_min, n_min + K - 1)
    # numpy scans a flat boolean mask on a fast path, and divmod splits
    # the row-major flat indices into the same (rows, cols) as a 2-D nonzero
    rows, cols = np.divmod(np.flatnonzero(A != 0), K)
    vals = A[rows, cols]
    diag = cols - rows
    upper = diag >= 0
    # the entries on and above the diagonal: all that a Hermitian window needs
    rows_u, cols_u, vals_u = rows[upper], cols[upper], vals[upper]
    if hermitian is None:
        lower = vals.size - vals_u.size
        hermitian = _hermitian_residual(A, rows_u, cols_u, vals_u, lower) <= _HERMITIAN_TOL
    if hermitian:
        # G[-d] = conj(G[d]): keep d >= 0 and count each d > 0 twice
        rows, cols, diag, vals = rows_u, cols_u, diag[upper], vals_u
    if not diag.any():
        # only the diagonal d = 0 is occupied, if any: no angle enters
        w = A.diagonal()
        return np.tile(_diagonal_sum(w.real if hermitian else w, n_min, delta, ps, TWO_PI), (thetas.size, 1))
    vals = np.where(diag > 0, 2.0 / TWO_PI, 1.0 / TWO_PI) * vals if hermitian else vals / TWO_PI
    # diagonals d = n - m and centres t = m + n both take 2K - 1 values;
    # the centres are grouped by the residue of 2 n_min + t, as the table needs
    span = np.arange(2 * K - 1)
    ds, d_row = _compact(diag + (K - 1), span)
    ds -= K - 1
    # 2 n_min + t cycles through the residues with period 4: residue r
    # first occurs at t = (r - 2 n_min) mod 4
    by_residue = np.concatenate([span[(r - 2 * int(n_min)) & 3::4] for r in range(4)])
    ts, t_row = _compact(rows + cols, by_residue)
    nd = ds.size
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
    # first on the usual axes, (M @ table) first for a few momenta
    out = np.linalg.multi_dot(
        [phases.view(np.float64), M.reshape(2 * nd, -1), _sinc_lattice(ps, n_min, ts, delta)]
    )
    return out if hermitian else out[: thetas.size] + 1j * out[thetas.size :]


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
        out += scaled @ _sinc_lattice(ps, n_min + lo, 2 * idx, delta)
    return out[0] if parts == 1 else out[0] + 1j * out[1]


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


def _hermitian_residual(A, rows, cols, vals, lower: int) -> float:
    """Largest ``|A_mn - conj(A_nm)|`` over the nonzero entries of the
    square ``A``, each mirrored pair compared once.

    ``vals`` are the nonzero entries on and above the diagonal, at ``(rows,
    cols)``, and ``lower`` counts those below it.  Each entry above meets
    its mirror.  An entry below with a nonzero mirror was met from above,
    and those are as many as the nonzero mirrors off the diagonal; only a
    surplus below (entries with a zero mirror) needs a pass of its own.
    """
    mirror = A[cols, rows]
    residual = float(np.max(np.abs(vals - mirror.conj()), initial=0.0))
    if lower > np.count_nonzero(mirror) - np.count_nonzero(A.diagonal()):
        residual = max(residual, float(np.max(np.abs(np.tril(A, -1)[A.T == 0]))))
    return residual


def phase_space_sum_point(A, n_min, delta, theta: float, p: float) -> complex:
    """Single-point evaluation: the 1x1 grid of :func:`phase_space_sum_grid`."""
    return complex(phase_space_sum_grid(A, n_min, delta, np.array([theta]), np.array([p]))[0, 0])
