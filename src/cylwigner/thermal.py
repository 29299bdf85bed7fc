"""Thermal rotor states for the quadratic spectrum ``E_n = eps n^2``.

Everything is parametrized by the dimensionless product ``eps_beta``
(energy scale times inverse temperature).  The partition function is a
theta-3 lattice sum; the thermal Wigner function is theta-independent
and even in momentum.  Closed-form low- and high-temperature
approximations carry regime guards so they cannot be used outside the
range where their error terms are controlled.
"""

from dataclasses import dataclass
from math import ceil, exp, isfinite, pi, sqrt

import numpy as np

from ._kernels import TWO_PI, sinc_pi_array
from .specfun import theta3, theta3_jacobi
from .states import DensityMatrix, _check_bytes, _check_index
from .wigner import wigner_function

__all__ = [
    "ThermalParams",
    "partition_function",
    "thermal_density",
    "thermal_wigner",
    "low_temp_wigner",
    "high_temp_wigner",
]

_LOW_TEMP_MIN_EB = 3.0
_HIGH_TEMP_MAX_EB = 0.05


@dataclass(frozen=True)
class ThermalParams:
    """Dimensionless temperature parameter and summation window.

    The default window half-width keeps the dropped Boltzmann tail
    below 1e-14 of the partition function."""

    eps_beta: float
    window_half_width: int | None = None

    def __post_init__(self):
        eb = float(self.eps_beta)
        if not np.isfinite(eb) or eb <= 0.0:
            raise ValueError("eps_beta must be positive")
        object.__setattr__(self, "eps_beta", eb)
        if self.window_half_width is not None:
            w = _check_index(self.window_half_width, "window_half_width")
            if w < 1:
                raise ValueError("window_half_width must be positive")
            object.__setattr__(self, "window_half_width", w)

    @property
    def half_width(self) -> int:
        if self.window_half_width is not None:
            return self.window_half_width
        # for a subnormal eps_beta the ratio overflows, never its root
        ratio = 33.0 / self.eps_beta
        return ceil(sqrt(ratio) if isfinite(ratio) else sqrt(33.0) / sqrt(self.eps_beta)) + 5


def partition_function(tp: ThermalParams) -> float:
    """Boltzmann sum ``sum_n exp(-n^2 eps_beta)`` via the theta-3 sum.

    Tends to 1 from above at low temperature and to
    ``sqrt(pi/eps_beta)`` at high temperature.  Below ``eps_beta = 1`` it
    takes the modular form, as the nome ``exp(-eps_beta)`` would lose about
    ``1e-16/eps_beta`` relative; from 1 up the shorter nome series."""
    if tp.eps_beta < 1.0:
        return theta3_jacobi(0.0, tp.eps_beta)
    return theta3(0.0, exp(-tp.eps_beta))


def thermal_density(tp: ThermalParams) -> DensityMatrix:
    """Diagonal Gibbs matrix ``lambda_n = exp(-n^2 eps_beta)/Z``, held by its
    K weights: its dense ``entries`` are built only when read, and refused
    there above 256 MiB (K > 4096).

    Raises ``ValueError``, before allocating, when the weight vector would
    exceed 256 MiB, and when the weights' mass is off 1 by more than 1e-12.
    A real non-negative diagonal is exactly Hermitian: only that mass is
    checked, once, in O(K), where the weights are made."""
    N = tp.half_width
    _check_bytes(f"thermal window K={2 * N + 1}", 8 * (2 * N + 1))  # float64 weights
    n = np.arange(-N, N + 1, dtype=np.float64)
    lam = np.exp(-(n**2) * tp.eps_beta) / partition_function(tp)
    mass = float(np.sum(lam))
    if abs(mass - 1.0) > 1e-12:
        raise ValueError(f"thermal window K={2 * N + 1} holds Gibbs mass {mass!r}, not 1")
    lam.setflags(write=False)  # read-only and owned: held, not copied
    return DensityMatrix._diagonal(0.0, -N, lam)


def thermal_wigner(tp: ThermalParams, at) -> float:
    """Thermal Wigner function ``(1/2 pi Z) sum_n exp(-n^2 eb) sinc_pi(p-n)``.

    Independent of the angle coordinate and even in momentum."""
    return wigner_function(thermal_density(tp), at)


def low_temp_wigner(tp: ThermalParams, p):
    """Low-temperature closed form, first order in the Boltzmann factor, at
    a momentum ``p`` (a float) or at each momentum of an array (an array of
    its shape).

    Valid for ``eps_beta >= 3`` (guarded): the retained bracket

        sinc_pi(p) [1 - exp(-eb) (p/(p+1) + p/(p-1))] / (2 pi Z)

    tracks the full sum to O(exp(-4 eb)).  Its apparent poles at
    ``p = +-1`` are removable -- ``sinc_pi(p) p/(p -+ 1)`` equals
    ``-sinc_pi(p -+ 1)`` identically -- so the bracket is evaluated as

        [sinc_pi(p) + exp(-eb) (sinc_pi(p-1) + sinc_pi(p+1))] / (2 pi Z)

    which is finite everywhere and does not cancel near the poles.  Each
    momentum gets the bits a scalar call gives it."""
    if tp.eps_beta < _LOW_TEMP_MIN_EB:
        raise ValueError("low_temp_wigner requires eps_beta >= 3")
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("p must be finite")
    q = exp(-tp.eps_beta)
    value = sinc_pi_array(p) + q * (sinc_pi_array(p - 1.0) + sinc_pi_array(p + 1.0))
    value /= TWO_PI * partition_function(tp)
    return float(value) if value.ndim == 0 else value


def high_temp_wigner(tp: ThermalParams, p: float) -> float:
    """High-temperature Boltzmann form ``sqrt(pi eb)/(2 pi^2) exp(-eb p^2)``.

    Valid for ``eps_beta <= 0.05`` (guarded); its full-line momentum
    integral is exactly ``1/(2 pi)``."""
    if tp.eps_beta > _HIGH_TEMP_MAX_EB:
        raise ValueError("high_temp_wigner requires eps_beta <= 0.05")
    p = float(p)
    if not np.isfinite(p):
        raise ValueError("p must be finite")
    eb = tp.eps_beta
    return sqrt(pi * eb) / (2.0 * pi**2) * exp(-eb * p * p)
