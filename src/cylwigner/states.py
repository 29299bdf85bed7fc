"""Rotator states on the circle.

A state is stored as Fourier coefficients ``c_n`` over a finite integer
window together with the covering parameter ``delta`` in [0, 1); the
wavefunction is ``psi(phi) = sum_n c_n exp(i (n + delta) phi)``.  The
coefficients themselves never depend on ``delta`` -- shifting the
covering only re-labels the basis.  Density matrices live on the same
windows.  All objects are immutable after construction and safe to
share across threads.
"""

import operator
from dataclasses import dataclass
from math import ceil, floor, sqrt

import numpy as np

from ._kernels import _HERMITIAN_TOL, _angle_rows, _check_bytes, _check_momenta, _check_phases, _exp_product
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

# the default von Mises window drops every coefficient below this share of
# the peak: far below roundoff of the largest grid values
_VON_MISES_CUT = 2.0**-60
# largest concentration whose Bessel recurrences fit: the default window's
# starts at sqrt((ceil(9.2 sqrt(s)) + 8)^2 + 80 s) + 40 and the norm's
# I_0(2 s) at sqrt(160 s) + 40, and both must stay within the 1e6 ratios
# of specfun._BESSEL_N_LIMIT (the window's reaches it at s = 6.0733e9)
_VON_MISES_S_MAX = 6.07e9
# rows of the Hermiticity residual computed at a time: each temporary holds
# at most this many rows of the window, however large K is (at K = 1161 a
# block and its modulus take 8% of the window's bytes)
_HERM_BLOCK_ROWS = 64


def _dense_hermitian_residual(E) -> float:
    """Largest ``|E_mn - conj(E_nm)|`` of the square complex ``E``, taken
    ``_HERM_BLOCK_ROWS`` rows at a time, so no temporary holds more."""
    herm = 0.0
    for i in range(0, E.shape[0], _HERM_BLOCK_ROWS):
        block = np.conj(E[:, i : i + _HERM_BLOCK_ROWS].T, order="C")
        np.subtract(E[i : i + _HERM_BLOCK_ROWS, :], block, out=block)
        herm = max(herm, float(np.max(np.abs(block))))
        del block  # free it before the next block is allocated
    return herm


def _frozen_array(values, dtype=None):
    # a read-only array that owns its data (of ``dtype``, if given) is held as
    # is, anything else is copied: no caller keeps a writable handle on it
    if (
        isinstance(values, np.ndarray)
        and (dtype is None or values.dtype == dtype)
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _real_view(z: np.ndarray) -> np.ndarray:
    """A complex128 array as its real view with a trailing ``[re, im]`` axis;
    any other array as it is."""
    return z.view(np.float64).reshape(z.shape + (2,)) if z.dtype == np.complex128 else z


def _plain(fields: dict) -> dict:
    """``fields`` with each array as nested lists, complex entries as ``[re,
    im]`` pairs: the ``to_dict`` form of a ``_json_fields`` dict."""
    return {key: _real_view(v).tolist() if isinstance(v, np.ndarray) else v for key, v in fields.items()}


def _numbers_in(values, ndim: int, field: str, pairs: bool = True) -> np.ndarray:
    """The ``ndim``-D array that nested numbers spell: complex from ``[re,
    im]`` pairs, else float; ``ValueError`` naming ``field`` when they spell
    none."""
    tail = (2,) if pairs else ()
    try:
        arr = np.asarray(values)
        ok = arr.dtype.kind in "biuf" and arr.ndim == ndim + len(tail) and arr.shape[ndim:] == tail
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        form = "[re, im] number pairs" if pairs else "numbers"
        raise ValueError(f"state JSON field {field!r} must be a {ndim}-D array of {form}")
    arr = arr.astype(np.float64, copy=False)
    return arr.view(np.complex128)[..., 0] if pairs else arr


def _number_field(data: dict, field: str, kind):
    """``kind(data[field])`` for ``kind`` ``float`` or ``operator.index``;
    ``ValueError`` naming a missing field or one of another type."""
    try:
        return kind(data[field])
    except (KeyError, TypeError, ValueError, OverflowError):
        what = "an integer" if kind is operator.index else "a number"
        raise ValueError(f"state JSON field {field!r} is missing or not {what}") from None


def _check_delta(delta: float) -> float:
    """The covering parameter as a float; ``ValueError`` outside [0, 1)."""
    delta = float(delta)
    if not np.isfinite(delta) or not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    return delta


def _check_index(value, what: str) -> int:
    """A window index or size as a Python int; ``ValueError`` naming
    ``what`` for anything that is not an integer (an integral float too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _check_window(n_min: int, size: int) -> None:
    """``ValueError`` naming the window ``[n_min, n_min + size - 1]`` when
    it leaves ``|n| < 2**62``: the grid kernel indexes the sums of two
    window indices in int64."""
    n_max = n_min + size - 1
    if n_min <= -(2**62) or n_max >= 2**62:
        raise ValueError(f"index window [{n_min}, {n_max}] leaves |n| < 2**62, where index sums fit int64")


def _check_hbar(hbar: float) -> float:
    """The momentum scale as a float; ``ValueError`` unless finite and positive."""
    hbar = float(hbar)
    if not (np.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be finite and positive, got {hbar}")
    return hbar


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a float array of at least one dimension; ``ValueError``
    naming ``what`` when one is not finite."""
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


def _union(a, b) -> tuple:
    """The index window ``(n_min, n_max)`` that spans the windows of ``a``
    and ``b``; ``ValueError`` when their coverings differ."""
    if a.delta != b.delta:
        raise ValueError("states must share the covering parameter delta")
    return min(a.n_min, b.n_min), max(a.n_max, b.n_max)


def _on_window(state, n_min: int, n_max: int) -> np.ndarray:
    """The coefficients of ``state`` on the window ``[n_min, n_max]``, which
    contains the state's own: ``state.coeffs`` itself when the windows
    match, else a zero-padded copy."""
    if (n_min, n_max) == (state.n_min, state.n_max):
        return state.coeffs
    c = np.zeros(n_max - n_min + 1, dtype=np.complex128)
    c[state.n_min - n_min : state.n_max - n_min + 1] = state.coeffs
    return c


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
        object.__setattr__(self, "n_min", _check_index(self.n_min, "n_min"))
        coeffs = _frozen_array(self.coeffs, np.complex128)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        _check_window(self.n_min, coeffs.size)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_max(self) -> int:
        return self.n_min + self.coeffs.size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def _json_fields(self) -> dict:
        return {
            "delta": self.delta,
            "n_min": self.n_min,
            "coeffs": self.coeffs,
            "discarded_mass": float(self.discarded_mass),
        }

    def to_dict(self) -> dict:
        return _plain(self._json_fields())

    @classmethod
    def from_dict(cls, data: dict) -> "FourierState":
        return cls(
            delta=_number_field(data, "delta", float),
            n_min=_number_field(data, "n_min", operator.index),
            coeffs=_numbers_in(data.get("coeffs"), 1, "coeffs"),
            # payloads written before the field was serialized lack it
            discarded_mass=_number_field(data, "discarded_mass", float) if "discarded_mass" in data else 0.0,
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix over an integer index window.

    A diagonal window (a Gibbs density) is held by its real diagonal alone,
    from the private constructor ``_diagonal``, and is written and read as
    those ``weights`` (``to_dict``/``from_dict``).  Its ``entries`` are a
    dense read-only matrix built on each access and not kept, refused with
    a ``ValueError`` naming K above 256 MiB; every other method reads the K
    weights."""

    delta: float
    n_min: int
    entries: np.ndarray
    # the real diagonal of a window held by it; None for dense entries
    _weights = None

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_delta(self.delta))
        object.__setattr__(self, "n_min", _check_index(self.n_min, "n_min"))
        entries = _frozen_array(self.entries, np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
            raise ValueError("entries must be a non-empty square matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        _check_window(self.n_min, entries.shape[0])
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _diagonal(cls, delta: float, n_min: int, weights) -> "DensityMatrix":
        """The diagonal window of real ``weights``, held as they are (a
        read-only owned float64 array is not copied); O(K) checks only."""
        weights = _frozen_array(weights, np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        rho = object.__new__(cls)
        object.__setattr__(rho, "delta", _check_delta(delta))
        object.__setattr__(rho, "n_min", _check_index(n_min, "n_min"))
        _check_window(rho.n_min, weights.size)
        object.__setattr__(rho, "_weights", weights)
        return rho

    def __getattr__(self, name):
        # reached only when the usual lookup fails: a diagonal window holds
        # no entries, so they are built from its weights
        if name != "entries" or self._weights is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        K = self._weights.size
        _check_bytes(f"the dense form of diagonal window K={K}", 16 * K**2)  # complex128
        entries = np.diag(self._weights.astype(np.complex128))
        entries.setflags(write=False)
        return entries

    def __repr__(self):  # a diagonal window shows its weights, builds no K x K matrix
        fields = ", ".join(f"{key}={value!r}" for key, value in self._json_fields().items())
        return f"{type(self).__qualname__}({fields})"

    @property
    def n_max(self) -> int:
        size = self.entries.shape[0] if self._weights is None else self._weights.size
        return self.n_min + size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def trace(self) -> float:
        if self._weights is not None:
            return float(np.sum(self._weights))
        return float(np.trace(self.entries).real)

    def diagonal(self) -> np.ndarray:
        if self._weights is not None:
            return self._weights.copy()
        return self.entries.diagonal().real.copy()

    def validate(self, herm_tol: float = _HERMITIAN_TOL, trace_tol: float = 1e-10) -> None:
        """Raise ``ValueError`` when Hermiticity/trace/positivity drift."""
        diagonal = self._weights  # a real diagonal is exactly Hermitian
        if diagonal is None:
            herm = _dense_hermitian_residual(self.entries)
            if herm > herm_tol:
                raise ValueError(f"density matrix not Hermitian (residual {herm:.3e})")
            diagonal = self.entries.diagonal()
        tr = np.sum(diagonal)  # np.trace sums the same diagonal
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        if np.min(diagonal.real) < -1e-12:
            raise ValueError("density matrix has a negative diagonal entry")

    def _json_fields(self) -> dict:
        name, value = ("entries", self.entries) if self._weights is None else ("weights", self._weights)
        return {"delta": self.delta, "n_min": self.n_min, name: value}

    def to_dict(self) -> dict:
        return _plain(self._json_fields())

    @classmethod
    def from_dict(cls, data: dict) -> "DensityMatrix":
        """The diagonal kind from a ``weights`` payload, else dense ``entries``."""
        delta = _number_field(data, "delta", float)
        n_min = _number_field(data, "n_min", operator.index)
        if "weights" in data:
            return cls._diagonal(delta, n_min, _numbers_in(data["weights"], 1, "weights", pairs=False))
        return cls(delta=delta, n_min=n_min, entries=_numbers_in(data.get("entries"), 2, "entries"))


def basis_state(m: int, delta: float = 0.0) -> FourierState:
    """Angular-momentum eigenstate: ``c_m = 1`` on the window ``[m, m]``."""
    return FourierState(delta=delta, n_min=_check_index(m, "m"), coeffs=np.array([1.0 + 0.0j]))


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


def _von_mises_profile(s: float) -> np.ndarray:
    """``I_k(s) exp(-s)`` for ``k = 0..half``: the default von Mises window.

    ``half`` is the last order with ``I_k(s) >= _VON_MISES_CUT * I_0(s)``;
    the values decrease in ``k``, so every dropped one lies below the cut.
    ``I_k/I_0`` falls like ``exp(-k^2/2s)`` and meets the cut near ``9.12
    sqrt(s)``, so the first window is ``9.2 sqrt(s) + 8`` (the pad covers
    small ``s``, where the tail falls faster but starts later), doubled
    until its edge lies below the cut.  A pure function of ``s``.
    """
    top = ceil(9.2 * sqrt(s)) + 8
    values = bessel_i_scaled(top, s)
    while values[top] >= _VON_MISES_CUT * values[0]:
        top *= 2
        values = bessel_i_scaled(top, s)
    return values[: np.count_nonzero(values >= _VON_MISES_CUT * values[0])]


def von_mises_state(s: float, p_e: float, window_half_width: int | None = None) -> FourierState:
    """Minimal-uncertainty state peaked at angle 0 with mean momentum ``p_e``.

    The angle density is the von Mises distribution
    ``exp(2 s cos phi)/I_0(2 s)``; the coefficients are
    ``c_m = I_{m - n_e}(s)/sqrt(I_0(2 s))`` where ``p_e = n_e + delta``
    splits the mean momentum into integer and fractional parts.  The
    window is ``[n_e - half, n_e + half]`` and the result is renormalized;
    the dropped probability mass is recorded on the state.  ``half`` is
    ``window_half_width`` if given; by default it keeps exactly the
    coefficients at or above ``2**-60`` of the peak ``c_{n_e}``, about
    ``9.1 sqrt(s)`` orders each side (``K = 27, 73, 187, 579`` at ``s`` =
    0.5, 12, 100, 1000), which drops a mass near ``2**-120``.  An ``s``
    above ``_VON_MISES_S_MAX = 6.07e9`` raises ``ValueError`` before any
    Bessel recurrence runs.
    """
    if not (np.isfinite(s) and np.isfinite(p_e)):
        raise ValueError("s and p_e must be finite")
    if s <= 0.0:
        raise ValueError("von_mises_state requires s > 0")
    if s > _VON_MISES_S_MAX:
        raise ValueError(
            f"von_mises_state s = {s!r} is above {_VON_MISES_S_MAX}, the largest s whose window and norm "
            "Bessel recurrences fit"
        )
    n_e = floor(p_e)
    delta = p_e - n_e
    if delta >= 1.0:  # -2**-54 <= p_e < 0, where 1 + p_e rounds to 1: the nearest split is 0 + 0
        n_e += 1
        delta = 0.0
    if window_half_width is None:
        profile = _von_mises_profile(s)
    else:
        half = _check_index(window_half_width, "window_half_width")
        if half < 1:
            raise ValueError("window_half_width must be positive")
        profile = bessel_i_scaled(half, s)
    half = profile.size - 1  # a Python int, so n_e - half cannot wrap before the window check
    # scaled values: the factors exp(s) / sqrt(exp(2 s)) cancel exactly
    norm = sqrt(bessel_i_scaled(0, 2.0 * s)[0])
    coeffs = profile[np.abs(np.arange(-half, half + 1))].astype(np.complex128) / norm
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
    exp(i 2 pi delta) psi(phi)`` automatically.  A non-finite angle raises
    ``ValueError``.

    It is ``exp(i n_min phi) exp(i delta phi) (P c)``, ``P = exp(i k phi)``
    for ``k = n - n_min``, every phase an exact split in the kernel's one
    builder, none rounded at the scale of ``n phi`` (a rounded ``(n + delta)
    phi`` is off by 1.1e-5 at ``n = 10**12``): the result is within ``8 eps
    sum |c_n|`` of the exact sum (mpmath, ``|n| <= 2**50``, ``|phi| <= 50``).
    A window beyond ``|n| < 2**51``, where float64 no longer holds every
    half-integer, is refused with ``ValueError``, as by the grid kernel, and
    so is an angle whose product with the largest index overflows float64.
    """
    phis = _finite(phi, "angles").ravel()
    _check_momenta(state.n_min, state.n_max)
    _check_phases(phis, max(-state.n_min, state.n_max))
    values = _angle_rows(phis, state.coeffs.size, lambda P: P @ state.coeffs, np.complex128)
    front = _exp_product(np.array([[state.n_min], [state.delta]]), phis)
    values *= front[0] * front[1]
    return values.item() if np.ndim(phi) == 0 else values.reshape(np.shape(phi))


def state_expectation_L(state: FourierState) -> float:
    """Mean angular momentum ``sum_n (n + delta) |c_n|^2``."""
    weights = np.abs(state.coeffs) ** 2
    return float(np.sum((state.indices + state.delta) * weights))


def pure_density(state: FourierState) -> DensityMatrix:
    """Projector ``rho_mn = c_m conj(c_n)`` onto a normalized state; Hermitian
    by construction, so only its trace ``||c||^2`` is checked, in O(K)."""
    tr = np.vdot(state.coeffs, state.coeffs)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    rho = np.outer(state.coeffs, state.coeffs.conj())
    rho.setflags(write=False)  # read-only and owned: held, not copied
    return DensityMatrix(delta=state.delta, n_min=state.n_min, entries=rho)
