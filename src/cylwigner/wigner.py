"""Phase-space functions on the cylinder (angle x angular momentum).

The central object is the window matrix element

    V_mn(theta, p) = (1/2pi) exp(i(n-m)theta) sinc_pi(p - (m+n+2 delta)/2)

from which every quasi-probability here is built by contraction with
coefficient matrices: Wigner functions of pure states, Moyal functions
of state pairs, and densities of mixed states.  Both marginals, the
probability-extraction route, overlaps, observable expectations and
density-matrix reconstruction are evaluated *analytically* in the
momentum direction: integrals over all of p pair band-limited sinc
combinations, so they reduce exactly to finite sums (momentum-direction
truncation would cost three to four digits to the slow sinc tail).
Angle-direction integrals use fixed-order Gauss-Legendre quadrature.

Evaluation functions are pure and keep no shared mutable state.
"""

import warnings
from dataclasses import dataclass
from math import pi

import numpy as np

from ._kernels import (
    TWO_PI,
    phase_space_sum_grid,
    phase_space_sum_point,
    sinc_pi_array,
)
from .specfun import gauss_legendre_rule, oscillation_order, sinc_pi
from .states import DensityMatrix, FourierState, evaluate_wavefunction

__all__ = [
    "PhasePoint",
    "CardinalSeries",
    "WignerGrid",
    "wigner_matrix_element",
    "moyal_function",
    "wigner_function",
    "wigner_density",
    "wigner_grid",
    "moyal_grid",
    "default_theta_axis",
    "default_p_axis",
    "write_grid_csv",
    "marginal_angle",
    "marginal_momentum",
    "extract_probability",
    "overlap_from_wigner",
    "reconstruct_density",
    "expectation_via_phase_space",
    "identity_operator",
    "angular_momentum_operator",
    "cosine_operator",
    "sine_operator",
    "UncertaintyProduct",
    "uncertainty_product",
    "rescale_hbar",
]

_IMAG_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class PhasePoint:
    """A point (theta, p); theta is reduced mod 2 pi into [-pi, pi)."""

    theta: float
    p: float

    def __post_init__(self):
        theta = float(self.theta)
        p = float(self.p)
        if not (np.isfinite(theta) and np.isfinite(p)):
            raise ValueError("phase-space coordinates must be finite")
        theta = (theta + pi) % (2.0 * pi) - pi
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "p", p)


def _as_point(at) -> PhasePoint:
    if isinstance(at, PhasePoint):
        return at
    theta, p = at
    return PhasePoint(theta, p)


@dataclass(frozen=True, eq=False)
class CardinalSeries:
    """Momentum marginal ``omega(p) = sum_m b_m sinc_pi(p - m - delta)``.

    Stored by its sample values ``b_m`` on the shifted integer grid;
    evaluation at ``p = m + delta`` returns ``b_m`` exactly because the
    shifted sinc family interpolates.
    """

    delta: float
    m_min: int
    b: np.ndarray

    def __post_init__(self):
        delta = float(self.delta)
        if not (0.0 <= delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        b = np.array(self.b, dtype=np.float64)
        if b.ndim != 1 or b.size == 0 or not np.all(np.isfinite(b)):
            raise ValueError("b must be a finite non-empty 1-D array")
        if np.min(b) < -1e-12:
            raise ValueError("cardinal series samples must be non-negative")
        b = np.clip(b, 0.0, None)
        b.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "m_min", int(self.m_min))
        object.__setattr__(self, "b", b)

    @property
    def m_max(self) -> int:
        return self.m_min + self.b.size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_max + 1)

    def __call__(self, p):
        shape = np.shape(p)
        pv = np.atleast_1d(np.asarray(p, dtype=np.float64))
        centers = self.indices + self.delta
        values = self.b @ sinc_pi_array(pv[None, :] - centers[:, None])
        if shape == ():
            return float(values[0])
        return values.reshape(shape)

    def to_dict(self) -> dict:
        return {"delta": self.delta, "m_min": self.m_min, "b": [float(v) for v in self.b]}

    @classmethod
    def from_dict(cls, data: dict) -> "CardinalSeries":
        return cls(delta=data["delta"], m_min=data["m_min"], b=np.asarray(data["b"]))


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Values on a rectangular (theta, p) grid, row-major over theta."""

    theta_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        theta_axis = np.array(self.theta_axis, dtype=np.float64)
        p_axis = np.array(self.p_axis, dtype=np.float64)
        values = np.array(self.values)
        if values.shape != (theta_axis.size, p_axis.size):
            raise ValueError("values shape must be (len(theta_axis), len(p_axis))")
        for arr in (theta_axis, p_axis, values):
            arr.setflags(write=False)
        object.__setattr__(self, "theta_axis", theta_axis)
        object.__setattr__(self, "p_axis", p_axis)
        object.__setattr__(self, "values", values)


def default_theta_axis(steps: int = 181) -> np.ndarray:
    return np.linspace(-pi, pi, steps)


def default_p_axis(p_min: float = -5.0, p_max: float = 5.0, steps: int = 401) -> np.ndarray:
    return np.linspace(p_min, p_max, steps)


def _require_real(values, tol: float = _IMAG_RESIDUE_TOL):
    """``values`` as real: real input as it is, complex input as its real
    part once the largest imaginary residue is at most ``tol``."""
    if np.isrealobj(values):
        return values
    residue = float(np.max(np.abs(np.imag(values)))) if np.size(values) else 0.0
    if residue > tol:
        raise ArithmeticError(
            f"imaginary residue {residue:.3e} exceeds {tol:.1e}; refusing to take real part"
        )
    return np.real(values)


def _coefficient_matrix(obj):
    """Window matrix A with value = sum_{m,n} A_mn V_mn(theta, p)."""
    if isinstance(obj, FourierState):
        return np.outer(obj.coeffs.conj(), obj.coeffs), obj.n_min, obj.delta
    if isinstance(obj, DensityMatrix):
        # tr[rho V] = sum_mn rho_mn V_nm; entries are read-only, so a view
        return obj.entries.T, obj.n_min, obj.delta
    raise TypeError("expected a FourierState or DensityMatrix")


def _union_moyal_matrix(bra: FourierState, ket: FourierState):
    if bra.delta != ket.delta:
        raise ValueError("bra and ket must share the covering parameter delta")
    n_min = min(bra.n_min, ket.n_min)
    n_max = max(bra.n_max, ket.n_max)
    K = n_max - n_min + 1
    A = np.zeros((K, K), dtype=np.complex128)
    rows = slice(bra.n_min - n_min, bra.n_max - n_min + 1)
    cols = slice(ket.n_min - n_min, ket.n_max - n_min + 1)
    A[rows, cols] = np.outer(bra.coeffs.conj(), ket.coeffs)
    return A, n_min, bra.delta


def wigner_matrix_element(m: int, n: int, delta: float, at) -> complex:
    """Matrix element V_mn at a phase-space point; bounded by 1/2pi."""
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    pt = _as_point(at)
    s = sinc_pi_array(pt.p - 0.5 * (m + n + 2.0 * delta))
    return complex(np.exp(1j * (n - m) * pt.theta) * s / TWO_PI)


def moyal_function(bra: FourierState, ket: FourierState, at) -> complex:
    """Cross phase-space function of two states sharing one covering.

    For ``bra == ket`` the value is real (up to roundoff) and equals the
    Wigner function of the state.
    """
    pt = _as_point(at)
    A, n_min, delta = _union_moyal_matrix(bra, ket)
    return phase_space_sum_point(A, n_min, delta, pt.theta, pt.p)


def wigner_function(state: FourierState, at) -> float:
    """Wigner function of a pure state; real, bounded by 1/pi."""
    pt = _as_point(at)
    A, n_min, delta = _coefficient_matrix(state)
    value = phase_space_sum_point(A, n_min, delta, pt.theta, pt.p)
    return float(_require_real(value))


def wigner_density(rho: DensityMatrix, at) -> float:
    """Wigner function of a mixed state, ``tr[rho V(theta, p)]``."""
    pt = _as_point(at)
    A, n_min, delta = _coefficient_matrix(rho)
    value = phase_space_sum_point(A, n_min, delta, pt.theta, pt.p)
    return float(_require_real(value))


def _grid_axes(theta_axis, p_axis):
    """The given axes as float arrays (the defaults where ``None``); every
    coordinate must be finite, as for :class:`PhasePoint`."""
    theta_axis = default_theta_axis() if theta_axis is None else np.asarray(theta_axis, float)
    p_axis = default_p_axis() if p_axis is None else np.asarray(p_axis, float)
    if not (np.all(np.isfinite(theta_axis)) and np.all(np.isfinite(p_axis))):
        raise ValueError("phase-space coordinates must be finite")
    return theta_axis, p_axis


def moyal_grid(bra: FourierState, ket: FourierState, theta_axis=None, p_axis=None) -> WignerGrid:
    theta_axis, p_axis = _grid_axes(theta_axis, p_axis)
    A, n_min, delta = _union_moyal_matrix(bra, ket)
    values = phase_space_sum_grid(A, n_min, delta, theta_axis, p_axis)
    # a cross function is complex in general, also when bra == ket folds it real
    values = values.astype(np.complex128, copy=False)
    return WignerGrid(theta_axis=theta_axis, p_axis=p_axis, values=values)


def wigner_grid(obj, theta_axis=None, p_axis=None) -> WignerGrid:
    """Real-valued Wigner grid of a state or density matrix."""
    theta_axis, p_axis = _grid_axes(theta_axis, p_axis)
    A, n_min, delta = _coefficient_matrix(obj)
    values = phase_space_sum_grid(A, n_min, delta, theta_axis, p_axis)
    return WignerGrid(theta_axis=theta_axis, p_axis=p_axis, values=_require_real(values))


# entries of one theta row that are formatted and written at a time, so the
# text held in memory stays bounded however long the row is.  Blocks of a few
# tens of kB also keep the heap from fragmenting: with 4096-entry blocks
# (about 230 kB of text each) the peak RSS of repeated exports of one
# 72,581-entry row kept creeping up, by about 30 MB over 100 exports.
_CSV_BLOCK = 512


def write_grid_csv(grid: WignerGrid, path) -> None:
    """CSV emission: header ``theta,p,value``, row-major over theta then p,
    17 significant digits.  Output is deterministic for identical inputs.

    ``path`` is a file path or a text sink with ``write``.  The text is
    streamed in blocks of at most ``_CSV_BLOCK`` entries of one theta row;
    each axis value is formatted once and each block's values by one
    ``%`` call.
    """
    if np.iscomplexobj(grid.values):
        raise ValueError("CSV emission requires a real-valued grid")
    if hasattr(path, "write"):
        _stream_grid_csv(grid, path)
    else:
        with open(path, "w", encoding="ascii") as fh:
            _stream_grid_csv(grid, fh)


def _stream_grid_csv(grid: WignerGrid, sink) -> None:
    # one template per block of momenta, a line "%s,<p>,%.17g\n" per momentum:
    # the momenta are formatted here, once, and each row fills in its theta
    # text and values
    ps = grid.p_axis.tolist()
    starts = range(0, len(ps), _CSV_BLOCK)
    templates = [
        "%%s,%.17g,%%.17g\n" * len(block) % tuple(block)
        for block in (ps[start:start + _CSV_BLOCK] for start in starts)
    ]
    sink.write("theta,p,value\n")
    for theta, row in zip(grid.theta_axis.tolist(), grid.values):
        theta_text = "%.17g" % theta
        for start, template in zip(starts, templates):
            values = row[start:start + _CSV_BLOCK].tolist()
            args = [theta_text] * (2 * len(values))
            args[1::2] = values
            sink.write(template % tuple(args))


def marginal_angle(obj, theta):
    """Angle marginal ``(1/2pi)|psi(theta)|^2`` (or the rho bilinear).

    Computed analytically from the coefficients, never by momentum
    quadrature.  Accepts scalar or array ``theta``.
    """
    if isinstance(obj, FourierState):
        psi = evaluate_wavefunction(obj, theta)
        return np.abs(psi) ** 2 / TWO_PI
    if isinstance(obj, DensityMatrix):
        shape = np.shape(theta)
        th = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        phases = np.exp(1j * np.outer(obj.indices + obj.delta, th))
        tmp = obj.entries @ phases.conj()
        values = _require_real(np.sum(phases * tmp, axis=0)) / TWO_PI
        if shape == ():
            return float(values[0])
        return values.reshape(shape)
    raise TypeError("expected a FourierState or DensityMatrix")


def marginal_momentum(obj) -> CardinalSeries:
    """Momentum marginal as a cardinal series with ``b_m = |c_m|^2``
    (pure state) or ``b_m = rho_mm`` (density matrix)."""
    if isinstance(obj, FourierState):
        return CardinalSeries(delta=obj.delta, m_min=obj.n_min, b=np.abs(obj.coeffs) ** 2)
    if isinstance(obj, DensityMatrix):
        return CardinalSeries(delta=obj.delta, m_min=obj.n_min, b=obj.diagonal())
    raise TypeError("expected a FourierState or DensityMatrix")


def extract_probability(omega: CardinalSeries, m: int) -> float:
    """Probability of momentum quantum number ``m``; 0 outside the window.

    Equals the full-line integral of ``omega(p) sinc_pi(p - m - delta)``
    by the orthonormality of unit-spaced sinc functions (cross-route:
    :func:`cylwigner.verify.extract_probability_via_quadrature`)."""
    m = int(m)
    if m < omega.m_min or m > omega.m_max:
        return 0.0
    return float(omega.b[m - omega.m_min])


def overlap_from_wigner(a: FourierState, b: FourierState) -> float:
    """``2 pi`` times the phase-space product integral of two Wigner
    functions, reduced analytically onto the coefficient windows; equals
    ``|(a, b)|^2``."""
    if a.delta != b.delta:
        raise ValueError("states must share the covering parameter delta")
    n_min = min(a.n_min, b.n_min)
    n_max = max(a.n_max, b.n_max)
    ca = np.zeros(n_max - n_min + 1, dtype=np.complex128)
    cb = np.zeros_like(ca)
    ca[a.n_min - n_min : a.n_max - n_min + 1] = a.coeffs
    cb[b.n_min - n_min : b.n_max - n_min + 1] = b.coeffs
    return float(np.abs(np.vdot(ca, cb)) ** 2)


def reconstruct_density(V, n_min: int, n_max: int, delta: float = 0.0, order: int | None = None) -> DensityMatrix:
    """Rebuild a density matrix from a Wigner density sampled on one grid.

    ``V`` is a grid sampler: called once with the axes pair
    ``(thetas, ps)``, it returns the real ``(len(thetas), len(ps))`` array
    of Wigner values.  For a state or density matrix ``obj`` the sampler is
    ``lambda axes: wigner_grid(obj, *axes).values``.  A sampler output of
    another shape, a complex dtype or a non-finite value raises
    ``ValueError``.

    Each entry is the phase-space pairing of ``V`` with the corresponding
    window element; the momentum integral collapses exactly (the theta
    integral of ``exp(i(l-k)theta) V`` is a cardinal series in p sampled on
    a unit-spaced grid containing the target point), leaving one
    Gauss-Legendre angle quadrature per entry:

        rho_kl = int dtheta exp(i(l-k)theta) V(theta, (k+l)/2 + delta)

    So ``V`` is sampled on the quadrature nodes times the ``2K - 1``
    anti-diagonal momenta ``(k+l)/2 + delta``.  A trace deficit beyond 1e-6
    (window too small for the source state) is reported as a warning on the
    returned matrix.
    """
    n_min, n_max = int(n_min), int(n_max)
    if n_max < n_min:
        raise ValueError("empty reconstruction window")
    K = n_max - n_min + 1
    if order is None:
        order = oscillation_order(2.0 * (K - 1))
    rule = gauss_legendre_rule(order)
    nodes = pi * rule.nodes
    weights = pi * rule.weights
    # distinct momentum samples (k+l)/2 + delta, one per anti-diagonal
    p_samples = n_min + 0.5 * np.arange(2 * K - 1) + delta
    vals = np.asarray(V((nodes, p_samples)))
    if vals.shape != (nodes.size, p_samples.size):
        raise ValueError(
            f"sampler returned shape {vals.shape}, expected {(nodes.size, p_samples.size)}"
        )
    if np.iscomplexobj(vals):
        raise ValueError("sampler returned complex values; a Wigner density is real")
    vals = vals.astype(np.float64, copy=False)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampler returned non-finite values")
    nus = np.arange(-(K - 1), K)
    # W[nu, t] = sum_g w_g exp(i nu theta_g) vals[g, t]
    W = (np.exp(1j * np.outer(nus, nodes)) * weights) @ vals
    k, l = np.indices((K, K))
    rho = W[(l - k) + K - 1, k + l]
    out = DensityMatrix(delta=delta, n_min=n_min, entries=rho)
    deficit = 1.0 - out.trace()
    if abs(deficit) > 1e-6:
        warnings.warn(
            f"reconstruction window [{n_min}, {n_max}] leaves a trace deficit of {deficit:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def expectation_via_phase_space(rho: DensityMatrix, O: np.ndarray, o_n_min: int | None = None) -> float:
    """Expectation value via the phase-space trace-product pairing.

    The pairing ``2 pi int int tr[rho V] tr[O V]`` contracts the angle
    integral to a Kronecker delta and the momentum integral to sinc
    orthonormality, leaving the symmetrized window contraction
    ``(1/2) tr[rho O + O rho]``.  ``O`` must be Hermitian on the window
    of ``rho`` (``o_n_min`` defaults to the window start)."""
    O = np.asarray(O, dtype=np.complex128)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise ValueError("operator must be a square matrix")
    if np.max(np.abs(O - O.conj().T)) > 1e-12:
        raise ValueError("operator must be Hermitian")
    o_n_min = rho.n_min if o_n_min is None else int(o_n_min)
    if o_n_min != rho.n_min or O.shape != rho.entries.shape:
        raise ValueError("operator window must match the density-matrix window")
    value = 0.5 * (np.trace(rho.entries @ O) + np.trace(O @ rho.entries))
    return float(_require_real(value, tol=1e-10))


def identity_operator(n_min: int, n_max: int) -> np.ndarray:
    return np.eye(n_max - n_min + 1, dtype=np.complex128)


def angular_momentum_operator(n_min: int, n_max: int, delta: float = 0.0) -> np.ndarray:
    """Diagonal matrix of momentum eigenvalues ``n + delta``."""
    return np.diag((np.arange(n_min, n_max + 1) + delta).astype(np.complex128))


def cosine_operator(n_min: int, n_max: int) -> np.ndarray:
    """Tridiagonal matrix of ``cos(phi)``: 1/2 on both off-diagonals."""
    K = n_max - n_min + 1
    off = np.full(K - 1, 0.5, dtype=np.complex128)
    return np.diag(off, 1) + np.diag(off, -1)


def sine_operator(n_min: int, n_max: int) -> np.ndarray:
    """Tridiagonal matrix of ``sin(phi)``: -i/2 below, +i/2 above."""
    K = n_max - n_min + 1
    off = np.full(K - 1, 0.5j, dtype=np.complex128)
    return np.diag(off, 1) + np.diag(-off, -1)


@dataclass(frozen=True)
class UncertaintyProduct:
    """Both sides of the angle-momentum uncertainty inequality."""

    lhs: float
    rhs: float


def uncertainty_product(state: FourierState) -> UncertaintyProduct:
    """Evaluate ``(dS)^2 (dL)^2 >= cov_sym(S, L)^2 + |<[S, L]>|^2 / 4``
    for ``S = sin(phi)`` and the angular momentum ``L``.

    The window is padded so the tridiagonal action of ``S`` is exact.
    Minimal-uncertainty states saturate the bound; momentum eigenstates
    send both sides to zero."""
    pad = 2
    n_min = state.n_min - pad
    n_max = state.n_max + pad
    K = n_max - n_min + 1
    c = np.zeros(K, dtype=np.complex128)
    c[pad : pad + state.coeffs.size] = state.coeffs
    S = sine_operator(n_min, n_max)
    lvals = np.arange(n_min, n_max + 1) + state.delta
    s_psi = S @ c
    l_psi = lvals * c
    mean_s = float(np.vdot(c, s_psi).real)
    mean_l = float(np.vdot(c, l_psi).real)
    var_s = float(np.vdot(s_psi, s_psi).real) - mean_s**2
    var_l = float(np.vdot(l_psi, l_psi).real) - mean_l**2
    cross = np.vdot(s_psi, l_psi)  # (S psi, L psi)
    cov_sym = float(cross.real) - mean_s * mean_l
    commutator_sq = float(cross.imag) ** 2  # |<[S, L]>|^2 / 4
    return UncertaintyProduct(lhs=var_s * var_l, rhs=cov_sym**2 + commutator_sq)


def rescale_hbar(p_physical, hbar: float, m: int):
    """Momentum-rescaled sinc ``sinc_pi((p - hbar m)/hbar)``.

    At ``hbar = 1`` this is the usual ``sinc_pi(p - m)``; as
    ``hbar -> 0`` with ``hbar m`` fixed, ``(1/hbar)`` times the result
    concentrates its unit mass at ``p = hbar m``."""
    if not np.isfinite(hbar) or hbar <= 0.0:
        raise ValueError("hbar must be positive")
    return sinc_pi((np.asarray(p_physical, dtype=np.float64) - hbar * m) / hbar)
