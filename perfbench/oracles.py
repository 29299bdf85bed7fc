"""Reference values computed apart from the program under test.

Everything here uses numpy only (``np.sinc``, ``np.polynomial.legendre``)
and the closed forms of the paper, never a cylwigner routine, so a fault
in the program cannot cancel out of a comparison.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


class Window:
    """The nonzero entries ``A[m, n]`` of a coefficient window, by basis index.

    ``W(theta, p) = (1/2pi) sum_{m,n} A[m,n] exp(i(n-m)theta) sinc(p - (m+n)/2 - delta)``.
    Only nonzero entries are kept, so a diagonal Gibbs window costs O(K).
    """

    def __init__(self, m, n, values, delta):
        self.m, self.n, self.values, self.delta = m, n, values, delta

    @classmethod
    def dense(cls, A, n_min, delta):
        rows, cols = np.nonzero(A)
        return cls(n_min + rows, n_min + cols, A[rows, cols], delta)

    @classmethod
    def diagonal(cls, weights, n_min, delta):
        m = n_min + np.arange(weights.size)
        return cls(m, m, weights, delta)

    def points(self, thetas, ps):
        """Brute-force double sum at individual points."""
        out = []
        for th, p in zip(thetas, ps):
            terms = np.exp(1j * (self.n - self.m) * th) * np.sinc(p - 0.5 * (self.m + self.n) - self.delta)
            out.append(np.sum(self.values * terms) / TWO_PI)
        return np.array(out)

    def theta_integral(self, ps):
        """``int dtheta W(theta, p) = sum_m A[m,m] sinc(p - m - delta)``."""
        on_diag = self.m == self.n
        m = self.m[on_diag]
        return np.sinc(ps[:, None] - m[None, :] - self.delta) @ self.values[on_diag]


def periodic_trapezoid(values, thetas):
    """Trapezoid rule over one period sampled at both ends.

    Exact for trigonometric polynomials of degree below the number of
    intervals, which covers every window the benchmark draws."""
    n_int = thetas.size - 1
    h = (thetas[-1] - thetas[0]) / n_int
    return h * (values.sum(axis=0) - 0.5 * (values[0] + values[-1]))


def gibbs_weights(eps_beta, n_min, K):
    """``exp(-n^2 eps_beta)/Z`` on ``[n_min, n_min+K)``; Z by direct lattice sum."""
    big = int(np.ceil(np.sqrt(40.0 / eps_beta))) + 10
    n_all = np.arange(-big, big + 1, dtype=np.float64)
    Z = np.sum(np.exp(-(n_all**2) * eps_beta))
    n = n_min + np.arange(K, dtype=np.float64)
    return np.exp(-(n**2) * eps_beta) / Z


def fig1(ps, hbar, m):
    return np.sinc((ps - hbar * m) / hbar)


def fig2(thetas, ps, alpha):
    """``2 pi W`` of the cat state ``(e_{+1} + exp(-i alpha) e_{-1})/sqrt2``."""
    return 0.5 * (np.sinc(ps - 1.0) + np.sinc(ps + 1.0))[None, :] + np.cos(
        2.0 * thetas + alpha
    )[:, None] * np.sinc(ps)[None, :]


def fig3(thetas, ps, s, p_e, order=160):
    """``2 pi I_0(2s) W`` of the von Mises state, as the angle integral
    ``(1/2pi) int_{-pi}^{pi} exp(2s cos(theta) cos(a/2)) cos((p - p_e) a) da``
    by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(order)
    a = np.pi * x
    w = np.pi * w
    E = np.exp(2.0 * s * np.outer(np.cos(thetas), np.cos(0.5 * a)))
    C = np.cos(np.outer(a, ps - p_e)) * w[:, None]
    return (E @ C) / TWO_PI


def thermal(ps, eps_beta):
    """``sum_n exp(-n^2 eps_beta) sinc(p - n) / (2 pi Z)``."""
    big = int(np.ceil(np.sqrt(40.0 / eps_beta))) + 10
    n = np.arange(-big, big + 1, dtype=np.float64)
    weights = np.exp(-(n**2) * eps_beta)
    return (np.sinc(ps[:, None] - n[None, :]) @ weights) / (TWO_PI * np.sum(weights))
