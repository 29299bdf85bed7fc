"""Verification-suite module API and its cross-routes."""

from math import exp, pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylwigner
from cylwigner import _kernels, thermal, verify, wigner
from cylwigner.specfun import sinc_pi, theta3
from cylwigner.states import DensityMatrix, FourierState, von_mises_state
from cylwigner.verify import (
    InvariantCheck,
    angle_marginal_via_swap,
    momentum_marginal_via_quadrature,
    report_as_json_entries,
    run_verification,
)
from cylwigner.wigner import marginal_angle, marginal_momentum


def test_all_invariants_pass_on_default_profile():
    checks = run_verification()
    assert len(checks) >= 30
    failing = [c.invariant_id for c in checks if not c.passed]
    assert failing == []


def test_report_entries_shape():
    checks = [InvariantCheck("demo", 0.0, 1.0, True)]
    entries = report_as_json_entries(checks)
    assert entries == [{"invariant_id": "demo", "residual": 0.0, "tolerance": 1.0, "pass": True}]


def test_grid_kernel_calls(monkeypatch):
    # grid-shaped checks read one grid each; the suite made 1,227 kernel
    # calls when they sampled one point at a time
    kernel = _kernels.phase_space_sum_grid
    calls = []

    def counting(*args):
        calls.append(None)
        return kernel(*args)

    bindings = [m for m in vars(cylwigner).values() if getattr(m, "phase_space_sum_grid", None) is kernel]
    assert {m.__name__ for m in bindings} >= {"cylwigner._kernels", "cylwigner.wigner", "cylwigner.verify"}
    for module in bindings:
        monkeypatch.setattr(module, "phase_space_sum_grid", counting)
    run_verification()
    assert 0 < len(calls) <= 88


def test_loose_profile_scales_every_tolerance_tenfold():
    default = {c.invariant_id: c.tolerance for c in run_verification()}
    loose = {c.invariant_id: c.tolerance for c in run_verification(profile="loose")}
    assert list(loose) == list(default)
    assert all(loose[name] == 10.0 * tol for name, tol in default.items())


def test_state_bound_reads_the_grid_of_each_state(monkeypatch):
    # tripling the grid of the m = 2 basis state puts it at 3/(2 pi) > 1/pi
    grid = wigner.wigner_grid

    def tripled(obj, *axes):
        out = grid(obj, *axes)
        if obj.n_min == 2:
            return wigner.WignerGrid(out.theta_axis, out.p_axis, 3.0 * out.values)
        return out

    monkeypatch.setattr(wigner, "wigner_grid", tripled)
    assert "wigner.state_bound" in _failed(verify._wigner_checks(np.random.default_rng(0)))


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        run_verification(profile="extreme")


def test_injected_fault_is_detected():
    skewed = lambda x: sinc_pi(np.asarray(x) * (1.0 + 1e-6))
    checks = run_verification(sinc_fn=skewed)
    failed = {c.invariant_id for c in checks if not c.passed}
    assert "specfun.sinc_kronecker" in failed
    assert "specfun.sinc_orthonormality_swap" in failed
    # untouched suites keep passing
    assert "wigner.pair_orthogonality" not in failed
    assert "thermal.partition_cross_routes" not in failed


# Random windows: K in [1, 12], n_min in [-10, 10], delta in [0, 1); the
# entries come from a seeded generator, hypothesis draws the structure.
windows = st.tuples(
    st.integers(1, 12),
    st.integers(-10, 10),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


def _random_source(window):
    K, n_min, delta, seed, mixed = window
    rng = np.random.default_rng(seed)
    if not mixed:
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        return FourierState(delta=delta, n_min=n_min, coeffs=c / np.linalg.norm(c))
    B = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    rho = B @ B.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    return DensityMatrix(delta=delta, n_min=n_min, entries=rho)


@settings(max_examples=60, deadline=None)
@given(windows, st.lists(st.floats(-pi, pi), min_size=1, max_size=5))
def test_angle_marginal_routes_agree(window, thetas):
    obj = _random_source(window)
    thetas = np.array(thetas)
    assert np.max(np.abs(marginal_angle(obj, thetas) - angle_marginal_via_swap(obj, thetas))) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(windows, st.one_of(st.integers(-40, 40).map(lambda k: 0.5 * k), st.floats(-20.0, 20.0)))
def test_momentum_marginal_routes_agree(window, p):
    obj = _random_source(window)
    assert abs(marginal_momentum(obj)(p) - momentum_marginal_via_quadrature(obj, p)) <= 1e-9


def _failed(checks) -> set:
    return {c.invariant_id for c in checks if not c.passed}


def test_von_mises_normalization_checks_the_state(monkeypatch):
    # the invariant must see the state itself, not a Bessel identity; only
    # s > 1 is spoilt, so the other state checks (s <= 0.8) still run
    def unnormalized(s, p_e, window_half_width=None):
        state = von_mises_state(s, p_e, window_half_width)
        scale = 1.0 + 1e-8 if s > 1.0 else 1.0
        return FourierState(delta=state.delta, n_min=state.n_min, coeffs=state.coeffs * scale)

    monkeypatch.setattr(verify, "von_mises_state", unnormalized)
    assert "states.von_mises_normalization" in _failed(verify._state_checks(np.random.default_rng(0)))


def test_von_mises_normalization_checks_the_dropped_mass(monkeypatch):
    def leaky(s, p_e, window_half_width=None):
        state = von_mises_state(s, p_e, window_half_width)
        return FourierState(delta=state.delta, n_min=state.n_min, coeffs=state.coeffs, discarded_mass=1e-9)

    monkeypatch.setattr(verify, "von_mises_state", leaky)
    assert "states.von_mises_normalization" in _failed(verify._state_checks(np.random.default_rng(0)))


def test_partition_cross_routes_see_the_nome_rounding(monkeypatch):
    # theta3 at the nome exp(-eps_beta) is off by 2.4e-10 at eps_beta = 1e-7
    monkeypatch.setattr(thermal, "partition_function", lambda tp: theta3(0.0, exp(-tp.eps_beta)))
    assert "thermal.partition_cross_routes" in _failed(verify._thermal_checks(np.random.default_rng(0)))
