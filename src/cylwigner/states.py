"""Rotator states on the circle.

A state is stored as Fourier coefficients ``c_n`` over a finite integer
window together with the covering parameter ``delta`` in [0, 1); the
wavefunction is ``psi(phi) = sum_n c_n exp(i (n + delta) phi)``.  The
coefficients themselves never depend on ``delta`` -- shifting the
covering only re-labels the basis.  Density matrices live on the same
windows.  All objects are immutable after construction and safe to
share across threads.
"""

from dataclasses import dataclass
from math import ceil, floor, sqrt

import numpy as np

# bessel_i stays bound here: perfbench/tracing.py wraps cylwigner.states.bessel_i
from .specfun import bessel_i, bessel_i_scaled  # noqa: F401

__all__ = [
    "FourierState",
    "DensityMatrix",
    "basis_state",
    "cat_state",
    "von_mises_state",
    "evaluate_wavefunction",
    "state_expectation_L",
    "pure_density",
]

# rows of the Hermiticity residual computed at a time: each temporary holds
# at most this many rows of the window, however large K is
_HERM_BLOCK_ROWS = 256


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not np.isfinite(delta) or not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    return delta


@dataclass(frozen=True, eq=False)
class FourierState:
    """Coefficients ``c_n`` for ``n`` in ``[n_min, n_min + len - 1]``.

    ``discarded_mass`` records probability dropped when a constructor
    truncated an infinite coefficient family to this window.
    """

    delta: float
    n_min: int
    coeffs: np.ndarray
    discarded_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_delta(self.delta))
        object.__setattr__(self, "n_min", int(self.n_min))
        coeffs = _frozen_array(self.coeffs, np.complex128)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_max(self) -> int:
        return self.n_min + self.coeffs.size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "n_min": self.n_min,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
            "discarded_mass": float(self.discarded_mass),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FourierState":
        coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
        return cls(
            delta=data["delta"],
            n_min=data["n_min"],
            coeffs=coeffs,
            # payloads written before the field was serialized lack it
            discarded_mass=float(data.get("discarded_mass", 0.0)),
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix over an integer index window."""

    delta: float
    n_min: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_delta(self.delta))
        object.__setattr__(self, "n_min", int(self.n_min))
        entries = _frozen_array(self.entries, np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
            raise ValueError("entries must be a non-empty square matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def n_max(self) -> int:
        return self.n_min + self.entries.shape[0] - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()

    def validate(self, herm_tol: float = 1e-12, trace_tol: float = 1e-10) -> None:
        """Raise ``ValueError`` when Hermiticity/trace/positivity drift."""
        E = self.entries
        herm = 0.0
        for i in range(0, E.shape[0], _HERM_BLOCK_ROWS):
            block = np.conj(E[:, i : i + _HERM_BLOCK_ROWS].T, order="C")
            np.subtract(E[i : i + _HERM_BLOCK_ROWS, :], block, out=block)
            herm = max(herm, float(np.max(np.abs(block))))
            del block  # free it before the next block is allocated
        if herm > herm_tol:
            raise ValueError(f"density matrix not Hermitian (residual {herm:.3e})")
        tr = np.trace(self.entries)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        if np.min(self.entries.diagonal().real) < -1e-12:
            raise ValueError("density matrix has a negative diagonal entry")

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "n_min": self.n_min,
            "entries": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DensityMatrix":
        entries = np.array(
            [[complex(re, im) for re, im in row] for row in data["entries"]]
        )
        return cls(delta=data["delta"], n_min=data["n_min"], entries=entries)


def basis_state(m: int, delta: float = 0.0) -> FourierState:
    """Angular-momentum eigenstate: ``c_m = 1`` on the window ``[m, m]``."""
    return FourierState(delta=delta, n_min=int(m), coeffs=np.array([1.0 + 0.0j]))


def cat_state(alpha: float = 0.0) -> FourierState:
    """Equal superposition of the m = +1 and m = -1 eigenstates.

    The relative phase sits on the counter-rotating component:
    ``c_{+1} = 1/sqrt2`` and ``c_{-1} = exp(-i alpha)/sqrt2``.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    inv_rt2 = 1.0 / sqrt(2.0)
    coeffs = np.array([np.exp(-1j * alpha) * inv_rt2, 0.0, inv_rt2])
    return FourierState(delta=0.0, n_min=-1, coeffs=coeffs)


def von_mises_window_half_width(s: float) -> int:
    """Default truncation half-width; keeps dropped mass below 1e-12."""
    return max(20, ceil(4.0 * s + 15.0))


def von_mises_state(s: float, p_e: float, window_half_width: int | None = None) -> FourierState:
    """Minimal-uncertainty state peaked at angle 0 with mean momentum ``p_e``.

    The angle density is the von Mises distribution
    ``exp(2 s cos phi)/I_0(2 s)``; the coefficients are
    ``c_m = I_{m - n_e}(s)/sqrt(I_0(2 s))`` where ``p_e = n_e + delta``
    splits the mean momentum into integer and fractional parts.  The
    window is truncated at ``window_half_width`` around ``n_e`` and the
    result renormalized; the dropped probability mass is recorded on the
    state.
    """
    if not (np.isfinite(s) and np.isfinite(p_e)):
        raise ValueError("s and p_e must be finite")
    if s <= 0.0:
        raise ValueError("von_mises_state requires s > 0")
    n_e = floor(p_e)
    delta = p_e - n_e
    if delta >= 1.0:  # guard against floor rounding at representable boundaries
        n_e += 1
        delta = p_e - n_e
    half = von_mises_window_half_width(s) if window_half_width is None else int(window_half_width)
    if half < 1:
        raise ValueError("window_half_width must be positive")
    # scaled values: the factors exp(s) / sqrt(exp(2 s)) cancel exactly
    norm = sqrt(bessel_i_scaled(0, 2.0 * s)[0])
    offsets = np.abs(np.arange(-half, half + 1))
    coeffs = bessel_i_scaled(half, s)[offsets].astype(np.complex128) / norm
    kept = float(np.sum(np.abs(coeffs) ** 2))
    discarded = max(0.0, 1.0 - kept)
    coeffs = coeffs / sqrt(kept)
    return FourierState(
        delta=delta, n_min=n_e - half, coeffs=coeffs, discarded_mass=discarded
    )


def evaluate_wavefunction(state: FourierState, phi):
    """``psi(phi) = sum_n c_n exp(i (n + delta) phi)``.

    ``phi`` may be a scalar or array; values outside [-pi, pi) follow
    the quasi-periodic continuation ``psi(phi + 2 pi) =
    exp(i 2 pi delta) psi(phi)`` automatically.
    """
    shape = np.shape(phi)
    ph = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    freqs = state.indices + state.delta
    values = state.coeffs @ np.exp(1j * np.outer(freqs, ph.ravel()))
    values = values.reshape(ph.shape)
    if shape == ():
        return complex(values[0])
    return values.reshape(shape)


def state_expectation_L(state: FourierState) -> float:
    """Mean angular momentum ``sum_n (n + delta) |c_n|^2``."""
    weights = np.abs(state.coeffs) ** 2
    return float(np.sum((state.indices + state.delta) * weights))


def pure_density(state: FourierState) -> DensityMatrix:
    """Projector ``rho_mn = c_m conj(c_n)`` onto a normalized state."""
    rho = np.outer(state.coeffs, state.coeffs.conj())
    out = DensityMatrix(delta=state.delta, n_min=state.n_min, entries=rho)
    out.validate(herm_tol=1e-12, trace_tol=1e-10)
    return out
