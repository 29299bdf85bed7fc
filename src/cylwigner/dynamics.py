"""Time evolution under diagonal Hamiltonians.

Only Hamiltonians diagonal in the angular-momentum basis are supported,
so evolution is exact phase multiplication ``c_n(t) = exp(-i E_n t)
c_n(0)`` -- no ODE integrator, no step error.  The phase-space
generator is the commutator matrix ``K_mn = i (E_m - E_n) V_mn``.
"""

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, FourierState, _check_delta, _check_hbar, _check_index, _frozen_array
from .wigner import _as_point, _require_real, _window_matrix, wigner_matrix_element
from ._kernels import phase_space_sum_point

__all__ = [
    "DiagonalHamiltonian",
    "quadratic_hamiltonian",
    "evolve_state",
    "evolve_density",
    "k_matrix_element",
    "wigner_time_derivative",
]


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Eigenvalues ``E_n`` over an index window.

    ``epsilon`` is set when the spectrum is the quadratic family
    ``E_n = epsilon (n + delta)^2``; that form extends analytically to
    indices outside the stored window.
    """

    n_min: int
    eigenvalues: np.ndarray
    delta: float = 0.0
    epsilon: float | None = None

    def __post_init__(self):
        # delta first: a quadratic spectrum at a NaN delta has NaN eigenvalues
        object.__setattr__(self, "delta", _check_delta(self.delta))
        eig = _frozen_array(self.eigenvalues, np.float64)
        if eig.ndim != 1 or eig.size == 0 or not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be a finite 1-D array")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "n_min", _check_index(self.n_min, "n_min"))

    @property
    def n_max(self) -> int:
        return self.n_min + self.eigenvalues.size - 1

    def energy(self, n: int) -> float:
        n = _check_index(n, "n")
        return float(self.energies(n, n)[0])

    def energies(self, n_min: int, n_max: int) -> np.ndarray:
        """``E_n`` for every ``n`` in ``[n_min, n_max]`` as one array: the
        stored values inside the window, ``epsilon (n + delta)^2`` outside
        it; ``ValueError`` for an index outside a window that has no
        quadratic form to extend it."""
        n_min, n_max = _check_index(n_min, "n_min"), _check_index(n_max, "n_max")
        n = np.arange(n_min, n_max + 1)
        stored = (self.n_min <= n) & (n <= self.n_max)
        if stored.all():
            return self.eigenvalues[n_min - self.n_min : n_max - self.n_min + 1]
        if self.epsilon is None:
            window = f"[{self.n_min}, {self.n_max}]"
            raise ValueError(f"Hamiltonian window {window} does not cover [{n_min}, {n_max}]")
        out = self.epsilon * np.float_power(n + self.delta, 2)
        out[stored] = self.eigenvalues[n[stored] - self.n_min]
        return out


def quadratic_hamiltonian(epsilon: float, n_min: int, n_max: int, delta: float = 0.0) -> DiagonalHamiltonian:
    """Rotor spectrum ``E_n = epsilon (n + delta)^2`` on a window."""
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    n_min, n_max, epsilon = _check_index(n_min, "n_min"), _check_index(n_max, "n_max"), float(epsilon)
    n = np.arange(n_min, n_max + 1)
    # the same float_power as the extension outside the window in energies
    return DiagonalHamiltonian(
        n_min=n_min, eigenvalues=epsilon * np.float_power(n + delta, 2), delta=delta, epsilon=epsilon
    )


def _scaled_time(t: float, hbar: float) -> float:
    """``t / hbar`` for a finite ``t`` and a valid ``hbar``."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return t / _check_hbar(hbar)


def evolve_state(state: FourierState, H: DiagonalHamiltonian, t: float, hbar: float = 1.0) -> FourierState:
    """Phase evolution ``c_n(t) = exp(-i E_n t / hbar) c_n``; norm exact."""
    tau = _scaled_time(t, hbar)
    phases = np.exp(-1j * H.energies(state.n_min, state.n_max) * tau)
    return FourierState(
        delta=state.delta,
        n_min=state.n_min,
        coeffs=state.coeffs * phases,
        discarded_mass=state.discarded_mass,
    )


def evolve_density(rho: DensityMatrix, H: DiagonalHamiltonian, t: float, hbar: float = 1.0) -> DensityMatrix:
    """von Neumann evolution ``rho_mn(t) = exp(-i(E_m - E_n)t) rho_mn``.

    Trace and Hermiticity are preserved exactly; diagonal entries never
    move, so a diagonal window (held by its weights) is its own evolution,
    returned as it is in O(K)."""
    tau = _scaled_time(t, hbar)
    energies = H.energies(rho.n_min, rho.n_max)  # H must cover the window
    if rho._weights is not None:
        return rho
    # phase of the energy *difference*: the diagonal factor is exactly 1,
    # so populations never move even by roundoff
    phase = np.exp(-1j * (energies[:, None] - energies[None, :]) * tau)
    return DensityMatrix(delta=rho.delta, n_min=rho.n_min, entries=phase * rho.entries)


def k_matrix_element(m: int, n: int, H: DiagonalHamiltonian, at) -> complex:
    """Evolution-generator element ``i (E_m - E_n) V_mn(theta, p)``.

    Hermitian as a matrix at fixed phase-space point; its trace over any
    window vanishes identically (the diagonal is zero term by term)."""
    pt = _as_point(at)
    v = wigner_matrix_element(m, n, H.delta, pt)
    return complex(1j * (H.energy(m) - H.energy(n)) * v)


def wigner_time_derivative(state: FourierState, H: DiagonalHamiltonian, at) -> float:
    """Instantaneous rate of change of the Wigner function at a point.

    Contracts the coefficient matrix against the generator matrix; for
    any stationary state (single energy shell) the value is zero."""
    pt = _as_point(at)
    A, n_min, delta = _window_matrix(state)
    energies = H.energies(state.n_min, state.n_max)
    gen = 1j * (energies[:, None] - energies[None, :])
    value = phase_space_sum_point(A * gen, n_min, delta, pt.angle, pt.p)
    return float(_require_real(value))
