"""Machine-checkable invariant suite.

Each check measures a residual against a pinned tolerance and reports a
``{invariant_id, residual, tolerance, pass}`` record; the CLI ``verify``
command serializes the records as JSON and exits nonzero when any check
fails.  Random sweeps draw from a fixed seed so repeated runs produce
identical reports.

The cross-routes take their angle integrals by Gauss-Legendre quadrature,
which lives here: the library itself reduces every integral to an exact
finite sum.

The sinc-based checks accept an injectable sinc implementation; the
CLI's fault-injection flag routes a perturbed function through them as
a negative control of the suite itself.
"""

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import product
from math import exp, pi, sqrt

import numpy as np

from . import dynamics, thermal, wigner
from ._kernels import TWO_PI, phase_space_sum_grid, sinc_pi_array
from .specfun import (
    bessel_i,
    oscillation_order,
    sinc_pi,
    theta3,
    theta3_jacobi,
)
from .states import (
    FourierState,
    basis_state,
    cat_state,
    evaluate_wavefunction,
    pure_density,
    von_mises_state,
)
from .wigner import CardinalSeries, _require_real, _window_matrix

__all__ = [
    "InvariantCheck", "run_verification", "report_as_json_entries",
    "momentum_marginal_via_quadrature", "angle_marginal_via_swap", "total_integral",
    "total_integral_via_quadrature", "wigner_pair_integral", "extract_probability_via_quadrature",
    "gauss_legendre_rule", "integrate_theta", "integrate_interval",
]

_SEED = 20260808
# Gauss-Legendre orders of the angle quadratures in the cross-routes
_PROBABILITY_ORDER = 96
_PAIR_ORDER = 64
_TOTAL_ORDER = 96


@dataclass(frozen=True)
class InvariantCheck:
    invariant_id: str
    residual: float
    tolerance: float
    passed: bool


def _check(invariant_id: str, residual: float, tolerance: float) -> InvariantCheck:
    residual = float(residual)
    return InvariantCheck(
        invariant_id=invariant_id,
        residual=residual,
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
    )


def _example_states():
    return [
        ("basis", basis_state(2)),
        ("cat", cat_state(0.0)),
        ("von_mises", von_mises_state(0.5, 0.6)),
    ]


# ------------------------------------------------------------- quadrature


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre ``(nodes, weights)`` on [-1, 1], cached and read-only."""
    if order < 1:
        raise ValueError("quadrature order must be positive")
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _apply_rule(f, a: float, b: float, order: int):
    nodes, weights = gauss_legendre_rule(order)
    fx = np.asarray(f(0.5 * (b - a) * nodes + 0.5 * (a + b)))
    if not np.all(np.isfinite(fx)):
        raise ArithmeticError("integrand produced non-finite values")
    total = 0.5 * (b - a) * weights @ fx
    return complex(total) if np.iscomplexobj(fx) else float(total)


def integrate_theta(f, order: int = 64):
    """Gauss-Legendre integral of a vectorized ``f`` over the angle interval
    [-pi, pi]; a minimum order of 8 is enforced.  Real integrands return
    ``float``, complex ones ``complex``."""
    if order < 8:
        raise ValueError("integrate_theta requires order >= 8")
    return _apply_rule(f, -pi, pi, order)


def integrate_interval(f, a: float, b: float, order: int = 64):
    """Gauss-Legendre integral of a vectorized ``f`` over a finite interval."""
    if order < 1:
        raise ValueError("order must be positive")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    return _apply_rule(f, float(a), float(b), order)


# ----------------------------------------------------------- cross-routes
# second routes to analytic results of cylwigner.wigner, for the checks below


def extract_probability_via_quadrature(omega: CardinalSeries, m: int) -> float:
    """Independent route to :func:`cylwigner.wigner.extract_probability`.

    The sinc pair integral over all momenta is swapped into the finite
    Fourier-domain integral ``(1/2pi) int_{-pi}^{pi} exp(i(k-m)a) da``
    per series term and evaluated by quadrature."""
    total = 0.0
    for k, b in zip(omega.indices, omega.b):
        nu = k - m
        pair = integrate_theta(lambda a, nu=nu: np.exp(1j * nu * a), order=_PROBABILITY_ORDER) / TWO_PI
        total += b * float(_require_real(pair, tol=1e-10))
    return total


def wigner_pair_integral(k: int, l: int, m: int, n: int, delta: float = 0.0) -> complex:
    """``2 pi`` times the phase-space product integral of V_kl and V_mn.

    The angle factor is integrated numerically by Gauss-Legendre while
    the momentum factor reduces exactly to a sinc of half-integer
    spacing; the result is ``delta_{kn} delta_{lm}`` up to quadrature
    error."""
    return complex(_pair_integrals(*(np.array([i]) for i in (k, l, m, n)))[0])


def _pair_integrals(k, l, m, n) -> np.ndarray:
    """:func:`wigner_pair_integral` at each index quadruple of the integer
    arrays ``k, l, m, n``: the momentum factors from one sinc call, and the
    angle integral once per distinct ``nu = (l - k) + (n - m)``."""
    distinct, which = np.unique((l - k) + (n - m), return_inverse=True)
    angle = np.array(
        [integrate_theta(lambda t, nu=nu: np.exp(1j * nu * t), order=_PAIR_ORDER) for nu in distinct.tolist()]
    )
    momentum = sinc_pi_array(0.5 * ((k + l) - (m + n)))
    return angle[which] * momentum / TWO_PI


def momentum_marginal_via_quadrature(obj, p: float) -> float:
    """Angle quadrature of the Wigner function at fixed momentum.

    Cross-route for :func:`cylwigner.wigner.marginal_momentum`: integrates
    the grid evaluation over theta instead of reading off the diagonal
    samples."""
    A, n_min, delta = _window_matrix(obj)
    nodes, weights = gauss_legendre_rule(oscillation_order(float(A.shape[0] - 1)))
    values = phase_space_sum_grid(A, n_min, delta, pi * nodes, np.array([float(p)]))[:, 0]
    return float(_require_real(pi * weights @ values, tol=1e-10))


def angle_marginal_via_swap(obj, theta):
    """Momentum integral of the Wigner function done in Fourier domain.

    Each window element integrates over p to ``(1/2pi) exp(i(n-m)theta)``
    exactly, so the marginal is the phase-weighted window contraction.
    Cross-route for :func:`cylwigner.wigner.marginal_angle`."""
    A, n_min, delta = _window_matrix(obj)
    K = A.shape[0]
    # sum_d exp(i d theta) * (sum of the d-th diagonal of A)
    diag_sums = np.array([np.sum(np.diagonal(A, offset=d)) for d in range(-(K - 1), K)])
    phases = np.exp(1j * np.outer(np.asarray(theta, dtype=np.float64), np.arange(-(K - 1), K)))
    values = _require_real(phases @ diag_sums, tol=1e-10) / TWO_PI
    return values.item() if np.ndim(theta) == 0 else values.reshape(np.shape(theta))


def total_integral(obj) -> float:
    """Full phase-space integral, reduced analytically to the trace."""
    A, _, _ = _window_matrix(obj)
    return float(_require_real(np.trace(A), tol=1e-10))


def total_integral_via_quadrature(obj) -> float:
    """Cross-route for :func:`total_integral`: the exact momentum swap
    followed by numerical angle quadrature."""
    return float(integrate_theta(lambda th: angle_marginal_via_swap(obj, th), order=_TOTAL_ORDER))


# ---------------------------------------------------------------- specfun


def _sinc_checks(sinc_fn, rng) -> list[InvariantCheck]:
    out = []
    ms = np.arange(-50, 51)
    vals = np.array([sinc_fn(float(m)) for m in ms])
    want = (ms == 0).astype(float)
    out.append(_check("specfun.sinc_kronecker", np.max(np.abs(vals - want)), 1e-15))

    xs = rng.uniform(-5.0, 5.0, size=100)
    worst = 0.0
    for x in xs:
        integral = integrate_theta(lambda a, x=x: np.exp(1j * x * a), order=64) / TWO_PI
        worst = max(worst, abs(integral - sinc_fn(float(x))))
    out.append(_check("specfun.sinc_fourier_identity", worst, 1e-12))

    # the pairs (m, n) in [-10, 10]^2 enter only through d = n - m
    worst = 0.0
    for d in range(-20, 21):
        swap = integrate_theta(lambda a, d=d: np.exp(1j * d * a), order=96) / TWO_PI
        want = 1.0 if d == 0 else 0.0
        worst = max(worst, abs(swap - want), abs(sinc_fn(float(d)) - want))
    out.append(_check("specfun.sinc_orthonormality_swap", worst, 1e-12))
    return out


def _quadrature_checks() -> list[InvariantCheck]:
    out = []
    worst = 0.0
    for order in (8, 16, 64, 128):
        _, weights = gauss_legendre_rule(order)
        worst = max(worst, abs(np.sum(weights) - 2.0))
    out.append(_check("specfun.quadrature_weight_sum", worst, 1e-14))

    worst = 0.0
    for k in range(16):  # order 8 is exact through degree 15
        got = integrate_interval(lambda x, k=k: x**k, -1.0, 1.0, order=8)
        want = 0.0 if k % 2 else 2.0 / (k + 1)
        worst = max(worst, abs(got - want))
    out.append(_check("specfun.quadrature_monomial_exactness", worst, 1e-14))

    worst = max(
        abs(integrate_theta(lambda t: np.ones_like(t)) - TWO_PI),
        abs(integrate_theta(lambda t: np.cos(3 * t))),
        abs(integrate_theta(lambda t: np.cos(t) ** 2) - pi),
    )
    out.append(_check("specfun.quadrature_trig_values", worst, 1e-12))
    return out


def _bessel_checks() -> list[InvariantCheck]:
    out = []
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 2.0, 3.0):
        total = sum(bessel_i(k, s) ** 2 for k in range(-40, 41))
        worst = max(worst, abs(total / bessel_i(0, 2 * s) - 1.0))
    out.append(_check("specfun.bessel_square_sum", worst, 1e-10))

    worst = 0.0
    for n, z in ((0, 1.0), (1, 0.5), (3, 2.0), (5, 10.0), (0, 20.0), (8, 16.0)):
        integral = integrate_theta(
            lambda t, n=n, z=z: np.exp(z * np.cos(t)) * np.cos(n * t), order=96
        ) / TWO_PI
        worst = max(worst, abs(bessel_i(n, z) - integral) / abs(integral))
    out.append(_check("specfun.bessel_integral_representation", worst, 1e-12))
    return out


def _theta3_checks() -> list[InvariantCheck]:
    out = []
    zs = np.linspace(-6.0, 6.0, 121)
    min_val = min(theta3(z, q) for q in (0.1, 0.5, 0.9) for z in zs)
    out.append(_check("specfun.theta3_positivity", max(0.0, -min_val), 0.0))

    worst = 0.0
    for eb in np.linspace(0.5, 5.0, 10):
        for z in (0.0, 0.3, 1.0):
            direct = theta3(z, exp(-eb))
            trans = theta3_jacobi(z, eb)
            worst = max(worst, abs(trans - direct) / abs(direct))
    out.append(_check("specfun.theta3_jacobi_agreement", worst, 1e-12))
    return out


# ----------------------------------------------------------------- states


def _state_checks(rng) -> list[InvariantCheck]:
    out = []
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 2.0, 400.0):
        # a unit norm, and no more dropped mass than the default window's 1e-12
        state = von_mises_state(s, 0.0)
        worst = max(worst, abs(state.norm() ** 2 - 1.0) + max(0.0, state.discarded_mass - 1e-12))
    out.append(_check("states.von_mises_normalization", worst, 1e-10))

    low = von_mises_state(0.8, 0.3)
    high = von_mises_state(0.8, 1.3)
    profile_diff = np.max(np.abs(low.coeffs - high.coeffs))
    shift_diff = abs((high.n_min - low.n_min) - 1)
    out.append(_check("states.coefficient_delta_independence", profile_diff + shift_diff, 1e-15))

    worst = 0.0
    for _ in range(20):
        delta = float(rng.uniform(0.0, 1.0))
        state = von_mises_state(0.7, rng.integers(-3, 4) + delta)
        phi = float(rng.uniform(-pi, pi))
        lhs = evaluate_wavefunction(state, phi + TWO_PI)
        rhs = np.exp(1j * TWO_PI * state.delta) * evaluate_wavefunction(state, phi)
        worst = max(worst, abs(lhs - rhs))
    out.append(_check("states.quasi_periodicity", worst, 1e-12))

    worst = 0.0
    for _, state in _example_states():
        rho = pure_density(state)
        worst = max(worst, np.max(np.abs(rho.entries @ rho.entries - rho.entries)))
        worst = max(worst, np.max(np.abs(rho.entries - rho.entries.conj().T)))
    out.append(_check("states.pure_density_idempotence", worst, 1e-10))
    return out


# ----------------------------------------------------------------- wigner


def _wigner_checks(rng) -> list[InvariantCheck]:
    out = []
    worst_h = 0.0
    worst_b = 0.0
    for _ in range(200):
        m = int(rng.integers(-6, 7))
        n = int(rng.integers(-6, 7))
        delta = float(rng.uniform(0.0, 1.0))
        pt = wigner.PhasePoint(float(rng.uniform(-pi, pi)), float(rng.uniform(-8, 8)))
        v_mn = wigner.wigner_matrix_element(m, n, delta, pt)
        v_nm = wigner.wigner_matrix_element(n, m, delta, pt)
        worst_h = max(worst_h, abs(v_mn - np.conj(v_nm)))
        worst_b = max(worst_b, abs(v_mn) - 1.0 / TWO_PI)
    out.append(_check("wigner.element_hermiticity", worst_h, 1e-14))
    out.append(_check("wigner.element_bound", max(0.0, worst_b), 1e-15))

    # 1000 random points, each on one state; every state is then checked on
    # the grid of its own angles x its own momenta, which holds its points
    states = [state for _, state in _example_states()]
    drawn = [([], []) for _ in states]
    for _ in range(1000):
        thetas, ps = drawn[int(rng.integers(0, len(states)))]
        thetas.append(float(rng.uniform(-pi, pi)))
        ps.append(float(rng.uniform(-8, 8)))
    worst = max(
        float(np.max(np.abs(wigner.wigner_grid(state, thetas, ps).values)))
        for state, (thetas, ps) in zip(states, drawn)
    )
    out.append(_check("wigner.state_bound", max(0.0, worst - 1.0 / pi), 1e-12))

    worst = 0.0
    quadruples = list(product(range(-2, 3), repeat=4))
    for (k, l, m, n), got in zip(quadruples, _pair_integrals(*np.array(quadruples).T).tolist()):
        want = 1.0 if (k == n and l == m) else 0.0
        worst = max(worst, abs(got - want))
    out.append(_check("wigner.pair_orthogonality", worst, 1e-10))

    worst_ratio = 0.0
    for delta in (0.0, 0.37):
        for N in (50, 200, 800):
            n = np.arange(-N, N + 1)
            for p in np.linspace(-0.5, 0.5, 11):
                total = float(np.sum(sinc_pi(p - n - delta)))
                worst_ratio = max(worst_ratio, abs(total - 1.0) / (2.0 / (pi * N)))
    out.append(_check("wigner.trace_identity_partial_sums", worst_ratio, 1.0))

    worst = 0.0
    for _, state in _example_states():
        worst = max(worst, abs(total_integral(state) - 1.0))
        worst = max(worst, abs(total_integral_via_quadrature(state) - 1.0))
    out.append(_check("wigner.normalization_total_integral", worst, 1e-10))

    worst = 0.0
    for _, state in _example_states():
        series = wigner.marginal_momentum(state)
        for p in rng.uniform(-4.0, 4.0, size=20):
            worst = max(
                worst,
                abs(momentum_marginal_via_quadrature(state, float(p)) - series(float(p))),
            )
    out.append(_check("wigner.marginal_momentum_consistency", worst, 1e-9))

    worst = 0.0
    thetas = np.linspace(-pi, pi, 37)
    for _, state in _example_states():
        direct = wigner.marginal_angle(state, thetas)
        swapped = angle_marginal_via_swap(state, thetas)
        worst = max(worst, float(np.max(np.abs(direct - swapped))))
        worst = max(worst, max(0.0, -float(np.min(direct))))
    out.append(_check("wigner.marginal_angle_consistency", worst, 1e-9))

    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(-5, 6))
        n = int(rng.integers(-5, 6))
        delta = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(-pi, pi))
        p = float(rng.uniform(-6, 6))
        a = wigner.wigner_matrix_element(m, n, delta, (theta, p))
        b = wigner.wigner_matrix_element(m + 1, n + 1, delta, (theta, p + 1.0))
        worst = max(worst, abs(a - b))
    out.append(_check("wigner.delta_shift_covariance", worst, 1e-14))

    cat = cat_state(0.0)
    thetas = np.linspace(-pi, pi, 37)
    grid = TWO_PI * wigner.wigner_grid(cat, thetas, [0.0, 1.0, -1.0]).values
    want = np.column_stack([np.cos(2 * thetas), np.full((thetas.size, 2), 0.5)])
    out.append(_check("wigner.cat_special_values", np.max(np.abs(grid - want)), 1e-10))

    s = 0.5
    vm = von_mises_state(s, 0.0)
    norm = TWO_PI * bessel_i(0, 2 * s)
    dps = np.linspace(-4.0, 4.0, 33)
    got = wigner.wigner_grid(vm, [pi / 2], dps).values[0]
    out.append(_check("wigner.von_mises_axis_values", np.max(np.abs(got - sinc_pi(dps) / norm)), 1e-9))

    worst = 0.0
    for _, state in (("cat", cat), ("von_mises", von_mises_state(0.5, 0.6, window_half_width=8))):
        rho = pure_density(state)
        rebuilt = wigner.reconstruct_density(
            lambda axes: wigner.wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, rho.delta
        )
        worst = max(worst, float(np.max(np.abs(rebuilt.entries - rho.entries))))
    out.append(_check("wigner.reconstruction_round_trip", worst, 1e-8))
    return out


# --------------------------------------------------------------- dynamics


def _dynamics_checks() -> list[InvariantCheck]:
    out = []
    H = dynamics.quadratic_hamiltonian(1.0, -25, 25)
    cat = cat_state(0.0)
    vm = von_mises_state(1.0, 0.0)

    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        evolved = dynamics.evolve_state(vm, H, t)
        worst = max(worst, abs(evolved.norm() - 1.0))
        e0 = sum(H.energy(n) * abs(c) ** 2 for n, c in zip(vm.indices, vm.coeffs))
        e1 = sum(H.energy(n) * abs(c) ** 2 for n, c in zip(evolved.indices, evolved.coeffs))
        worst = max(worst, abs(e1 - e0))
    out.append(_check("dynamics.unitarity_energy_conservation", worst, 1e-12))

    two_step = dynamics.evolve_state(dynamics.evolve_state(vm, H, 0.7), H, 0.55)
    one_step = dynamics.evolve_state(vm, H, 1.25)
    out.append(_check("dynamics.group_law", np.max(np.abs(two_step.coeffs - one_step.coeffs)), 1e-12))

    worst = 0.0
    for pt in ((0.0, 0.0), (0.7, 1.3), (-2.1, -0.4)):
        trace = sum(dynamics.k_matrix_element(m, m, H, pt) for m in range(-6, 7))
        worst = max(worst, abs(trace))
    out.append(_check("dynamics.k_matrix_trace_zero", worst, 0.0))

    theta_axis = np.linspace(-pi, pi, 61)
    p_axis = np.linspace(-4.0, 4.0, 121)
    worst = 0.0
    tp = thermal.ThermalParams(1.0)
    rho_t = thermal.thermal_density(tp)
    base_grids = {
        "basis": wigner.wigner_grid(basis_state(1), theta_axis, p_axis).values,
        "cat": wigner.wigner_grid(cat, theta_axis, p_axis).values,
        "thermal": wigner.wigner_grid(rho_t, theta_axis, p_axis).values,
    }
    for t in (0.1, 1.0, 10.0):
        for name, obj in (
            ("basis", dynamics.evolve_state(basis_state(1), H, t)),
            ("cat", dynamics.evolve_state(cat, H, t)),
            ("thermal", dynamics.evolve_density(rho_t, H, t)),
        ):
            grid = wigner.wigner_grid(obj, theta_axis, p_axis).values
            worst = max(worst, float(np.max(np.abs(grid - base_grids[name]))))
    out.append(_check("dynamics.stationary_states", worst, 1e-12))

    sup = FourierState(delta=0.0, n_min=0, coeffs=np.array([1.0, 0.0, 1.0]) / sqrt(2.0))
    dt = 1e-4
    worst = 0.0
    for pt in ((0.7, 0.9), (-1.2, 1.8), (0.3, -0.5)):
        plus = wigner.wigner_function(dynamics.evolve_state(sup, H, dt), pt)
        minus = wigner.wigner_function(dynamics.evolve_state(sup, H, -dt), pt)
        fd = (plus - minus) / (2.0 * dt)
        worst = max(worst, abs(fd - dynamics.wigner_time_derivative(sup, H, pt)))
    out.append(_check("dynamics.finite_difference_generator", worst, 1e-6))
    return out


# ---------------------------------------------------------------- thermal


def _thermal_checks(rng) -> list[InvariantCheck]:
    out = []
    worst = 0.0
    for eb in (1e-7, 1e-5, 0.01, 0.1, 1.0, 10.0, 40.0):
        tp = thermal.ThermalParams(eb)
        n = np.arange(-tp.half_width, tp.half_width + 1)
        ref = float(np.sum(np.exp(-(n.astype(float) ** 2) * eb)))
        routes = [theta3_jacobi(0.0, eb), thermal.partition_function(tp)]
        if eb >= 0.01:  # the nome exp(-eb) rounds eb away: about 1e-16/eb relative
            routes.append(theta3(0.0, exp(-eb)))
        worst = max(worst, *(abs(v - ref) / ref for v in routes))
    out.append(_check("thermal.partition_cross_routes", worst, 1e-11))

    worst_ratio = 0.0
    for eb in (3.0, 5.0, 8.0):
        tp = thermal.ThermalParams(eb)
        tol = 5.0 * exp(-4.0 * eb) + 1e-12
        ps = np.linspace(-2.5, 2.5, 101)
        exact = wigner.marginal_momentum(thermal.thermal_density(tp))(ps) / TWO_PI
        worst_ratio = max(worst_ratio, float(np.max(np.abs(thermal.low_temp_wigner(tp, ps) - exact) / tol)))
    out.append(_check("thermal.low_temp_agreement", worst_ratio, 1.0))

    tp = thermal.ThermalParams(0.01, window_half_width=400)
    worst = 0.0
    ps = np.linspace(-20.0, 20.0, 81)
    for p, exact in zip(ps, wigner.marginal_momentum(thermal.thermal_density(tp))(ps) / TWO_PI):
        approx = thermal.high_temp_wigner(tp, float(p))
        worst = max(worst, abs(approx / exact - 1.0))
    gauss_integral = sqrt(pi * tp.eps_beta) / (2.0 * pi**2) * sqrt(pi / tp.eps_beta)
    worst_gauss = abs(gauss_integral - 1.0 / TWO_PI)
    out.append(_check("thermal.high_temp_agreement", worst, 1e-3))
    out.append(_check("thermal.high_temp_gaussian_mass", worst_gauss, 1e-15))

    ps = rng.uniform(-4.0, 4.0, 50)
    ps[np.abs(ps - np.round(ps)) < 1e-3] += 0.31
    want = -0.5 * pi * sinc_pi(ps) * (ps / (ps + 1.0) + ps / (ps - 1.0))
    worst = 0.0
    for p, w in zip(ps.tolist(), want.tolist()):
        got = integrate_interval(lambda a, p=p: np.cos(a) * np.cos(p * a), 0.0, pi, order=96)
        worst = max(worst, abs(got - w))
    out.append(_check("thermal.cosine_integral_identity", worst, 1e-10))

    tp = thermal.ThermalParams(1.0)
    rho = thermal.thermal_density(tp)
    series = wigner.marginal_momentum(rho)
    lam = rho.diagonal()
    worst = max(
        abs(wigner.extract_probability(series, m) - lam[m - rho.n_min])
        for m in range(rho.n_min, rho.n_max + 1)
    )
    out.append(_check("thermal.sinc_projection_recovery", worst, 1e-12))

    small = thermal.ThermalParams(1.0, window_half_width=8)
    rho_small = thermal.thermal_density(small)

    def thermal_sampler(axes):
        # the closed form does not depend on theta: one row of momenta, tiled
        thetas, ps = axes
        return np.tile(wigner.marginal_momentum(rho_small)(ps) / TWO_PI, (len(thetas), 1))

    rebuilt = wigner.reconstruct_density(thermal_sampler, rho_small.n_min, rho_small.n_max, 0.0)
    residual = np.max(np.abs(rebuilt.entries - rho_small.entries))
    out.append(_check("thermal.reconstruction_round_trip", residual, 1e-8))
    return out


# every pinned tolerance is multiplied by the profile's factor
_PROFILES = {"default": 1.0, "loose": 10.0}


def run_verification(profile: str = "default", sinc_fn=None) -> list[InvariantCheck]:
    """Run every invariant check and return the report records, each
    tolerance scaled by the profile's factor."""
    if profile not in _PROFILES:
        raise ValueError(f"unknown tolerance profile {profile!r}")
    scale = _PROFILES[profile]
    rng = np.random.default_rng(_SEED)
    checks = [
        *_sinc_checks(sinc_pi if sinc_fn is None else sinc_fn, rng),
        *_quadrature_checks(),
        *_bessel_checks(),
        *_theta3_checks(),
        *_state_checks(rng),
        *_wigner_checks(rng),
        *_dynamics_checks(),
        *_thermal_checks(rng),
    ]
    return [_check(c.invariant_id, c.residual, c.tolerance * scale) for c in checks]


def report_as_json_entries(checks: list[InvariantCheck]) -> list[dict]:
    entries = []
    for check in checks:
        entry = asdict(check)
        entry["pass"] = entry.pop("passed")
        entries.append(entry)
    return entries
