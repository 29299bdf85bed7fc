"""Special functions.

Everything here is scalar-exact double precision: the normalized sinc
with snapped integer zeros, the modified Bessel function ``I_n`` and its
scaled form ``I_n(z) exp(-z)`` for all orders at once (one normalized
backward recurrence of order ratios, which cannot overflow), and the
Jacobi theta-3 lattice sum with an automatic modular transformation for
nomes close to 1.
"""

from math import ceil, cos, exp, floor, fsum, log, pi, sqrt

import numpy as np

from ._kernels import sinc_pi_array

__all__ = [
    "sinc_pi",
    "bessel_i",
    "theta3",
    "theta3_jacobi",
]

# series term / nome cutoffs chosen so truncation sits below double roundoff
_THETA_TERM_CUTOFF = 1e-16
_JACOBI_SWITCH_Q = exp(-1.0)
_BESSEL_Z_LIMIT = 700.0
_BESSEL_N_LIMIT = 10**6
_MIN_OSCILLATION_ORDER = 64


def sinc_pi(x):
    """Normalized sinc: sin(pi x)/(pi x).

    Equals 1 iff x == 0 and vanishes exactly at nonzero integers.  The
    removable singularity is filled by the Taylor form
    ``1 - (pi x)^2/6 + (pi x)^4/120`` for ``|x| < 1e-6``.  Accepts a
    scalar or an array; non-finite input raises ``ValueError``.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sinc_pi requires finite input")
    if arr.ndim == 0:
        return float(sinc_pi_array(arr))
    return sinc_pi_array(arr)


def bessel_i_scaled(n_max: int, z: float) -> np.ndarray:
    """Scaled Bessel values ``I_k(z) exp(-z)`` for every order ``k = 0..n_max``.

    One backward recurrence of the ratios ``r_k = I_k/I_{k-1} = z/(2k +
    z r_{k+1})``, started at ``k0 = max(n_max + 1, sqrt(n_max^2 + 80 z) +
    40)`` with the guess ``r = 0``.  Below the turning point the minimal
    solution dominates by about ``exp(-(k0^2 - k^2)/z)``, and above it each
    step shrinks the error by ``r_k^2``, so the guess has decayed below
    roundoff by order ``n_max``; at ``k = sqrt(80 z)`` the ratio ``I_k/I_0``
    is about ``exp(-40)``.  The running product of the ratios gives
    ``I_k/I_0``, and ``exp(z) = I_0 + 2 sum_{k>=1} I_k`` fixes ``I_0
    exp(-z)``.  Every ratio lies in ``[0, 1]``, so nothing overflows for any
    ``z >= 0``; at ``z = 0`` the result is ``[1, 0, ...]``.  A start above
    ``1e6`` (the ratios held in memory: ``n_max`` near ``1e6``, or ``z``
    above about ``1.2e10``) raises ``OverflowError``.
    """
    if not (np.isfinite(z) and z >= 0.0):
        raise ValueError("bessel_i_scaled requires finite z >= 0")
    if n_max < 0:
        raise ValueError("bessel_i_scaled requires n_max >= 0")
    start = max(n_max + 1, int(sqrt(float(n_max) ** 2 + 80.0 * z)) + 40)
    if start > _BESSEL_N_LIMIT:  # the recurrence holds start ratios in memory
        raise OverflowError("bessel_i_scaled order or argument out of supported range")
    ratios = np.empty(start)
    r = 0.0
    for k in range(start, 0, -1):
        r = z / (2.0 * k + z * r)
        ratios[k - 1] = r
    tail = np.cumprod(ratios)  # I_k/I_0 for k = 1..start
    # exp(z)/I_0 = 2 (1/2 + sum tail): one exact-rounded sum, then one division
    ie_0 = 0.5 / fsum([0.5, *tail.tolist()])
    return ie_0 * np.concatenate(([1.0], tail[:n_max]))


def bessel_i(n: int, z: float) -> float:
    """Modified Bessel function I_n(z) for integer order.

    ``exp(|z|)`` times the scaled value from :func:`bessel_i_scaled`, after
    the symmetries ``I_{-n} = I_n`` and ``I_n(-z) = (-1)^n I_n(z)``.
    ``|z| > 700``, or an order whose recurrence would hold more than
    ``1e6`` ratios (``|n|`` above ``1e6 - 40``), raises ``OverflowError``;
    ``exp(|z|)`` itself overflows just above ``|z| = 709``.
    """
    if not np.isfinite(z):
        raise ValueError("bessel_i requires finite z")
    from .states import _check_index  # states imports this module

    n = abs(_check_index(n, "n"))
    if abs(z) > _BESSEL_Z_LIMIT:
        raise OverflowError("bessel_i argument out of supported range (exp overflow)")
    sign = -1.0 if (z < 0.0 and n % 2 == 1) else 1.0
    za = abs(float(z))
    return sign * exp(za) * float(bessel_i_scaled(n, za)[n])


def _theta3_direct(z: float, q: float) -> float:
    total = 1.0
    n = 1
    while True:
        t = q ** (n * n)
        if t < _THETA_TERM_CUTOFF:
            return total
        total += 2.0 * t * cos(2.0 * n * z)
        n += 1


def _theta3_transformed(z: float, eps_beta: float) -> float:
    # modular image of the lattice sum at nome exp(-eps_beta): a Gaussian
    # comb sqrt(pi/eb) * sum_n exp(-(z - pi n)^2 / eb).  Folding the
    # exp(-z^2/eb) prefactor into each term keeps every exponent
    # non-positive, so the evaluation cannot overflow for any eb > 0.
    reach = sqrt(74.0 * eps_beta) + pi
    n_lo = floor((z - reach) / pi)
    n_hi = ceil((z + reach) / pi)
    total = 0.0
    for n in range(n_lo, n_hi + 1):
        u = z - pi * n
        total += exp(-u * u / eps_beta)
    return sqrt(pi / eps_beta) * total


def theta3(z: float, q: float) -> float:
    """Theta-3 lattice sum ``1 + 2 sum_{n>=1} q^(n^2) cos(2 n z)``.

    Requires ``0 <= q < 1``; even in ``z`` and strictly positive for
    real arguments.  The direct cosine series is truncated once
    ``q^(n^2) < 1e-16``; for ``q > exp(-1)`` the evaluation switches to
    the modular-transformed series, which converges fast exactly where
    the direct sum turns slow.
    """
    if not (np.isfinite(z) and np.isfinite(q)):
        raise ValueError("theta3 requires finite arguments")
    if q < 0.0 or q >= 1.0:
        raise ValueError("theta3 requires 0 <= q < 1")
    z = abs(float(z))
    if q == 0.0:
        return 1.0
    if q > _JACOBI_SWITCH_Q:
        return _theta3_transformed(z, -log(q))
    return _theta3_direct(z, q)


def theta3_jacobi(z: float, eps_beta: float) -> float:
    """Theta-3 at nome ``exp(-eps_beta)`` via the modular transformation.

    Evaluates ``sqrt(pi/eps_beta) * exp(-z^2/eps_beta) *
    theta3(-i pi z / eps_beta, exp(-pi^2/eps_beta))`` with the Gaussian
    prefactor folded into each (cosh) series term, which keeps the sum
    overflow-free for all ``eps_beta > 0``.  Agrees with the direct
    series wherever both converge.
    """
    if not (np.isfinite(z) and np.isfinite(eps_beta)):
        raise ValueError("theta3_jacobi requires finite arguments")
    if eps_beta <= 0.0:
        raise ValueError("theta3_jacobi requires eps_beta > 0")
    value = _theta3_transformed(abs(float(z)), float(eps_beta))
    if not np.isfinite(value):
        raise OverflowError("theta3_jacobi overflow")
    return value


def oscillation_order(max_frequency: float) -> int:
    """Node count of the angle rules that resolve ``exp(i nu theta)`` on
    [-pi, pi] up to ``|nu| = max_frequency``: about 2.2 nu plus a margin,
    never below ``_MIN_OSCILLATION_ORDER``.  A Gauss-Legendre rule of this
    order reaches 1e-13 absolute error; an equispaced rule of ``N`` nodes
    is exact for every ``|nu| < N``.
    """
    return max(_MIN_OSCILLATION_ORDER, int(ceil(2.2 * max_frequency)) + 16)
