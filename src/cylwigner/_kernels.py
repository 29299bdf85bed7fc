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
        vals = np.where(diag > 0, 2.0, 1.0) * vals[upper]
    ds, d_row = np.unique(diag, return_inverse=True)
    ts, t_row = np.unique(rows + cols, return_inverse=True)
    # every (d, m+n) pair names one entry of A, so one assignment scatters them
    M = np.zeros((ds.size, ts.size), dtype=np.complex128)
    M[d_row, t_row] = vals
    sinc_tab = sinc_pi_array(ps[None, :] - (n_min + 0.5 * ts + delta)[:, None])
    angles = np.outer(thetas, ds)
    if hermitian:
        G_re = M.real @ sinc_tab
        G_im = M.imag @ sinc_tab
        return (np.cos(angles) @ G_re - np.sin(angles) @ G_im) / TWO_PI
    return (np.exp(1j * angles) @ (M @ sinc_tab)) / TWO_PI


def phase_space_sum_point(A, n_min, delta, theta: float, p: float) -> complex:
    """Single-point evaluation: the 1x1 grid of :func:`phase_space_sum_grid`."""
    out = phase_space_sum_grid(A, n_min, delta, np.array([theta]), np.array([p]))
    return complex(out[0, 0])
