"""Acceptance suite.

One test per release criterion, each asserting its stated tolerance and
printing a single pass/fail line (run with ``pytest -s`` to see them
inline).  Criteria 1 and 3 also enforce their runtime budgets.
"""

import time
from contextlib import contextmanager
from math import exp, pi, sqrt

import numpy as np
import pytest

from cylwigner.dynamics import (
    evolve_density,
    evolve_state,
    k_matrix_element,
    quadratic_hamiltonian,
    wigner_time_derivative,
)
from cylwigner.specfun import bessel_i, sinc_pi, theta3, theta3_jacobi
from cylwigner.states import FourierState, basis_state, cat_state, pure_density, von_mises_state
from cylwigner.thermal import (
    ThermalParams,
    high_temp_wigner,
    low_temp_wigner,
    thermal_density,
    thermal_wigner,
)
from cylwigner.verify import (
    integrate_interval,
    integrate_theta,
    momentum_marginal_via_quadrature,
    wigner_pair_integral,
)
from cylwigner.wigner import (
    marginal_angle,
    marginal_momentum,
    reconstruct_density,
    rescale_hbar,
    uncertainty_product,
    wigner_function,
    wigner_grid,
    wigner_matrix_element,
)

TWO_PI = 2 * pi


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_cat_state_special_values():
    with criterion(1, "cat-state special values"):
        start = time.perf_counter()
        cat = cat_state(0.0)
        thetas = np.linspace(-pi, pi, 37)
        for theta in thetas:
            at_zero = TWO_PI * wigner_function(cat, (float(theta), 0.0))
            assert abs(at_zero - np.cos(2 * theta)) <= 1e-10
            for p in (1.0, -1.0):
                on_shell = TWO_PI * wigner_function(cat, (float(theta), p))
                assert abs(on_shell - 0.5) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"


def test_criterion_2_von_mises_checks():
    with criterion(2, "minimal-uncertainty state checks"):
        s = 0.5
        pe = 0.6
        vm = von_mises_state(s, pe)
        norm = TWO_PI * bessel_i(0, 2 * s)

        # (a) quarter-turn sections carry the bare cardinal profile
        for theta in (pi / 2, -pi / 2):
            for dp in np.linspace(-4.0, 4.0, 33):
                got = wigner_function(vm, (theta, pe + float(dp)))
                assert abs(got - sinc_pi(float(dp)) / norm) <= 1e-9

        # (b) angle marginal is the von Mises density
        thetas = np.linspace(-pi, pi, 73)
        marg = marginal_angle(vm, thetas)
        want = np.exp(2 * s * np.cos(thetas)) / norm
        assert np.max(np.abs(marg - want)) <= 1e-9

        # (c) momentum probabilities are squared Bessel ratios
        series = marginal_momentum(vm)
        n_e = round(pe - vm.delta)
        for m in range(n_e - 6, n_e + 7):
            want_b = bessel_i(m - n_e, s) ** 2 / bessel_i(0, 2 * s)
            got_b = series.b[m - series.m_min]
            assert abs(got_b - want_b) <= 1e-9

        # (d) uncertainty saturation
        for s_val in (0.25, 0.5, 1.0, 2.0):
            u = uncertainty_product(von_mises_state(s_val, 0.7))
            assert abs(u.lhs - u.rhs) <= 1e-8


def test_criterion_3_orthonormality_and_algebra():
    with criterion(3, "orthonormality and algebraic properties"):
        start = time.perf_counter()

        # cardinal orthonormality through the finite Fourier swap
        for delta in (0.0, 0.37):
            for m in range(-10, 11):
                for n in range(-10, 11):
                    swap = integrate_theta(
                        lambda a, d=n - m: np.exp(1j * d * a), order=96
                    ) / TWO_PI
                    want = 1.0 if m == n else 0.0
                    assert abs(swap - want) <= 1e-12
                    assert abs(sinc_pi(float(n - m)) - want) <= 1e-12

        # pair-integral orthogonality on a 5-index window
        idx = range(-2, 3)
        for k in idx:
            for l in idx:
                for m in idx:
                    for n in idx:
                        got = wigner_pair_integral(k, l, m, n)
                        want = 1.0 if (k == n and l == m) else 0.0
                        assert abs(got - want) <= 1e-10

        # Hermiticity and bounds on 1000 random points
        rng = np.random.default_rng(71)
        states = [basis_state(1), cat_state(0.0), von_mises_state(0.5, 0.6)]
        for _ in range(1000):
            m, n = (int(v) for v in rng.integers(-8, 9, size=2))
            delta = float(rng.uniform(0, 1))
            pt = (float(rng.uniform(-pi, pi)), float(rng.uniform(-8, 8)))
            v_mn = wigner_matrix_element(m, n, delta, pt)
            v_nm = wigner_matrix_element(n, m, delta, pt)
            assert abs(v_mn - np.conj(v_nm)) <= 1e-14
            assert abs(v_mn) <= 1 / TWO_PI + 1e-15
            state = states[int(rng.integers(0, 3))]
            assert abs(wigner_function(state, pt)) <= 1 / pi + 1e-12

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 3 took {elapsed:.3f}s"


def _families():
    yield "basis", basis_state(2), pure_density(basis_state(2))
    yield "cat", cat_state(0.0), pure_density(cat_state(0.0))
    vm = von_mises_state(0.5, 0.6)
    yield "von_mises", vm, pure_density(vm)
    rho_t = thermal_density(ThermalParams(1.0))
    yield "thermal", rho_t, rho_t


def test_criterion_4_marginal_round_trips():
    with criterion(4, "marginal and reconstruction round trips"):
        rng = np.random.default_rng(73)
        for name, obj, rho in _families():
            series = marginal_momentum(obj)
            for p in rng.uniform(-4.0, 4.0, size=20):
                quad = momentum_marginal_via_quadrature(obj, float(p))
                assert abs(quad - series(float(p))) <= 1e-9, name
            rebuilt = reconstruct_density(
                lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, rho.delta
            )
            assert np.max(np.abs(rebuilt.entries - rho.entries)) <= 1e-8, name


def test_criterion_5_thermal_regimes():
    with criterion(5, "thermal regime checks"):
        # partition-function cross routes
        for eb in (0.01, 0.1, 1.0, 10.0, 40.0):
            N = ThermalParams(eb).half_width
            n = np.arange(-N, N + 1).astype(float)
            direct = float(np.sum(np.exp(-(n**2) * eb)))
            assert abs(theta3(0.0, exp(-eb)) - direct) <= 1e-11 * direct
            assert abs(theta3_jacobi(0.0, eb) - direct) <= 1e-11 * direct

        # cold closed form
        for eb in (3.0, 5.0, 8.0):
            tp = ThermalParams(eb)
            tol = 5.0 * exp(-4.0 * eb) + 1e-12
            for p in np.linspace(-2.5, 2.5, 101):
                diff = abs(low_temp_wigner(tp, float(p)) - thermal_wigner(tp, (0.0, float(p))))
                assert diff <= tol

        # hot Gaussian
        tp = ThermalParams(0.01, window_half_width=400)
        for p in np.linspace(-20.0, 20.0, 81):
            exact = thermal_wigner(tp, (0.0, float(p)))
            assert abs(high_temp_wigner(tp, float(p)) / exact - 1.0) <= 1e-3
        analytic_mass = sqrt(pi * 0.01) / (2 * pi**2) * sqrt(pi / 0.01)
        assert abs(analytic_mass - 1.0 / TWO_PI) <= 1e-16


def test_criterion_6_dynamics():
    with criterion(6, "diagonal-flow dynamics"):
        H = quadratic_hamiltonian(1.0, -25, 25)
        theta_axis = np.linspace(-pi, pi, 181)
        p_axis = np.linspace(-5.0, 5.0, 401)

        rho_t = thermal_density(ThermalParams(1.0))
        cases = [
            ("basis", basis_state(1), lambda obj, t: evolve_state(obj, H, t)),
            ("cat", cat_state(0.0), lambda obj, t: evolve_state(obj, H, t)),
            ("thermal", rho_t, lambda obj, t: evolve_density(obj, H, t)),
        ]
        for name, obj, step in cases:
            base = wigner_grid(obj, theta_axis, p_axis).values
            for t in (0.1, 1.0, 10.0):
                moved = wigner_grid(step(obj, t), theta_axis, p_axis).values
                assert np.max(np.abs(moved - base)) < 1e-12, name

        sup = FourierState(delta=0.0, n_min=0, coeffs=np.array([1.0, 0.0, 1.0]) / sqrt(2))
        dt = 1e-4
        for pt in ((0.7, 0.9), (-1.2, 1.8), (0.3, -0.5)):
            plus = wigner_function(evolve_state(sup, H, dt), pt)
            minus = wigner_function(evolve_state(sup, H, -dt), pt)
            fd = (plus - minus) / (2 * dt)
            assert abs(fd - wigner_time_derivative(sup, H, pt)) <= 1e-6

        for pt in ((0.0, 0.0), (1.1, -2.3), (-0.6, 4.0)):
            trace = sum(k_matrix_element(m, m, H, pt) for m in range(-7, 8))
            assert trace == 0.0


def test_criterion_7_classical_limit():
    with criterion(7, "classical-limit mass concentration"):
        masses = []
        m_index = 1
        for hbar in (1.0, 0.3, 0.1, 0.03, 0.01):
            mass = integrate_interval(
                lambda p, h=hbar: rescale_hbar(p, h, m_index) / h,
                hbar * m_index - 0.05,
                hbar * m_index + 0.05,
                order=64,
            )
            masses.append(float(mass))
        assert all(a < b for a, b in zip(masses, masses[1:])), masses
        assert masses[-1] >= 0.95, masses
