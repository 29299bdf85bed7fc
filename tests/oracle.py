"""Exact references for the tests: sums over a coefficient window in mpmath
at 40 digits, taken from the exact float inputs."""

import mpmath
import numpy as np


def true_wavefunction(state, phi):
    """``sum_n c_n exp(i (n + delta) phi)``."""
    with mpmath.workdps(40):
        angle = mpmath.mpf(phi)
        return mpmath.fsum(
            mpmath.mpc(c.real, c.imag) * mpmath.expj((n + mpmath.mpf(state.delta)) * angle)
            for n, c in zip(state.indices.tolist(), state.coeffs.tolist())
        )


def true_windowed_sum(A, n_min, delta, theta, p, col_min=None):
    """``W = (1/2 pi) sum_mn A_mn exp(i (n - m) theta) sinc(p - (m + n)/2 -
    delta)``, ``sinc(x) = sin(pi x)/(pi x)``, over the window ``A`` whose
    row 0 is the index ``n_min`` and whose column 0 is the index
    ``col_min`` (``n_min`` when ``None``: a square window)."""
    A = np.asarray(A, dtype=np.complex128)
    col_min = n_min if col_min is None else col_min
    with mpmath.workdps(40):
        angle, momentum, shift = mpmath.mpf(theta), mpmath.mpf(p), mpmath.mpf(delta)
        terms = []
        for m, n in zip(*np.nonzero(A)):
            a = A[m, n]
            bra, ket = n_min + int(m), col_min + int(n)
            x = momentum - mpmath.mpf(bra + ket) / 2 - shift
            terms.append(mpmath.mpc(a.real, a.imag) * mpmath.expj((ket - bra) * angle) * mpmath.sincpi(x))
        return mpmath.fsum(terms) / (2 * mpmath.pi)
