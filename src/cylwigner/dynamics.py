"""Time evolution under diagonal Hamiltonians.

Only Hamiltonians diagonal in the angular-momentum basis are supported,
so evolution is exact phase multiplication ``c_n(t) = exp(-i E_n t)
c_n(0)`` -- no ODE integrator, no step error.  The phase-space
generator is the commutator matrix ``K_mn = i (E_m - E_n) V_mn``.
"""

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, FourierState, _frozen_array
from .wigner import _as_point, _coefficient_matrix, _require_real, wigner_matrix_element
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
        eig = _frozen_array(self.eigenvalues, np.float64)
        if eig.ndim != 1 or eig.size == 0 or not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be a finite 1-D array")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "n_min", int(self.n_min))
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def n_max(self) -> int:
        return self.n_min + self.eigenvalues.size - 1

    def energy(self, n: int) -> float:
        if self.n_min <= n <= self.n_max:
            return float(self.eigenvalues[n - self.n_min])
        if self.epsilon is not None:
            return float(self.epsilon * (n + self.delta) ** 2)
        raise ValueError(f"index {n} outside the Hamiltonian window")

    def covers(self, n_min: int, n_max: int) -> bool:
        if self.epsilon is not None:
            return True
        return self.n_min <= n_min and n_max <= self.n_max


def quadratic_hamiltonian(epsilon: float, n_min: int, n_max: int, delta: float = 0.0) -> DiagonalHamiltonian:
    """Rotor spectrum ``E_n = epsilon (n + delta)^2`` on a window."""
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    n = np.arange(int(n_min), int(n_max) + 1)
    return DiagonalHamiltonian(
        n_min=int(n_min),
        eigenvalues=epsilon * (n + delta) ** 2,
        delta=delta,
        epsilon=float(epsilon),
    )


def _window_energies(H: DiagonalHamiltonian, n_min: int, n_max: int) -> np.ndarray:
    if not H.covers(n_min, n_max):
        raise ValueError("Hamiltonian window does not cover the state window")
    return np.array([H.energy(n) for n in range(n_min, n_max + 1)])


def evolve_state(state: FourierState, H: DiagonalHamiltonian, t: float, hbar: float = 1.0) -> FourierState:
    """Phase evolution ``c_n(t) = exp(-i E_n t / hbar) c_n``; norm exact."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    energies = _window_energies(H, state.n_min, state.n_max)
    phases = np.exp(-1j * energies * (t / hbar))
    return FourierState(
        delta=state.delta,
        n_min=state.n_min,
        coeffs=state.coeffs * phases,
        discarded_mass=state.discarded_mass,
    )


def evolve_density(rho: DensityMatrix, H: DiagonalHamiltonian, t: float, hbar: float = 1.0) -> DensityMatrix:
    """von Neumann evolution ``rho_mn(t) = exp(-i(E_m - E_n)t) rho_mn``.

    Trace and Hermiticity are preserved exactly; diagonal entries never
    move."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    energies = _window_energies(H, rho.n_min, rho.n_max)
    # phase of the energy *difference*: the diagonal factor is exactly 1,
    # so populations never move even by roundoff
    phase = np.exp(-1j * (energies[:, None] - energies[None, :]) * (t / hbar))
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
    A, n_min, delta = _coefficient_matrix(state)
    energies = _window_energies(H, state.n_min, state.n_max)
    gen = 1j * (energies[:, None] - energies[None, :])
    value = phase_space_sum_point(A * gen, n_min, delta, pt.theta, pt.p)
    return float(_require_real(value))
