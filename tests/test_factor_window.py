"""A state's window given by its factor pair, the one window builder, and the
bounds that ride with them: far reconstruction windows, the blocked angle
marginal and sliced JSON arrays."""

import contextlib
import io
import json
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylwigner import DensityMatrix, FourierState, PhasePoint, _kernels, cli, reconstruct_density, von_mises_state, wigner
from cylwigner._kernels import TWO_PI, _axis_plan, _half_turns, phase_space_sum_grid, phase_space_sum_point
from cylwigner.cli import _write_json, main
from cylwigner.states import pure_density
from cylwigner.verify import angle_marginal_via_swap

# magnitudes whose products stay normal, turn subnormal or underflow to 0
_SCALES = [0.0, 1.0, 0.3, 1e-150, 1e-160, 1e-170, 1e-300]


def _both_routes(c, n_min, delta, thetas, ps):
    """The grid of the factor pair ``(conj(c), c)`` and of its dense window."""
    pair = phase_space_sum_grid((c.conj(), c), n_min, delta, thetas, ps)
    dense = phase_space_sum_grid(np.outer(c.conj(), c), n_min, delta, thetas, ps)
    return pair, dense


def _assert_same_bits(pair, dense):
    assert pair.dtype == dense.dtype == np.float64
    assert np.array_equal(pair, dense)


@st.composite
def _coefficients(draw):
    K = draw(st.integers(1, 12))
    scales = draw(st.lists(st.sampled_from(_SCALES), min_size=K, max_size=K))
    phases = draw(st.lists(st.floats(-pi, pi), min_size=K, max_size=K))
    c = np.array(scales) * np.exp(1j * np.array(phases))
    return c


@st.composite
def _axes(draw):
    kind = draw(st.sampled_from(["full", "open", "one"]))
    if kind == "full":
        t0 = draw(st.floats(-4.0, 4.0))
        thetas = np.linspace(t0, t0 + TWO_PI, 2 * draw(st.integers(1, 6)) + 1)
    elif kind == "open":
        thetas = np.sort(np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=7))))
    else:
        thetas = np.array([draw(st.floats(-4.0, 4.0))])
    ps = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6)))
    return thetas, ps


class TestFactorPair:
    """The factor pair ``(conj(c), c)`` gives the dense window's grid, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_coefficients(), st.integers(-40, 40), st.floats(0.0, 1.0, exclude_max=True), _axes())
    @example(np.array([0.6, 0.0, 0.0, 0.8j]), -2, 0.3, (np.linspace(-pi, pi, 9), np.array([0.0, 0.4])))
    @example(np.array([0.0, 1.0, 0.0]), 5, 0.25, (np.linspace(-pi, pi, 9), np.array([5.0, 5.6])))
    @example(np.array([1.0 + 0.0j]), 0, 0.0, (np.array([0.3]), np.array([0.0, 0.5])))
    @example(np.array([1e-170, 1.0, 1e-160j]), 3, 0.7, (np.array([0.3, 1.2]), np.array([3.2])))
    def test_equals_the_dense_window(self, c, n_min, delta, axes):
        _assert_same_bits(*_both_routes(c, n_min, delta, *axes))

    @pytest.mark.parametrize("K", [1, 2, 7])
    def test_next_to_the_float_bound(self, K):
        c = np.exp(1j * np.arange(K)) / np.sqrt(K)
        thetas, ps = np.linspace(-pi, pi, 7), np.array([2.0**51 - 3.0])
        _assert_same_bits(*_both_routes(c, 2**51 - K, 0.5, thetas, ps))
        _assert_same_bits(*_both_routes(c, -(2**51) + 1, 0.5, thetas, -ps))
        for n_min in (2**51 - K + 1, -(2**51)):
            for A in ((c.conj(), c), np.outer(c.conj(), c)):
                with pytest.raises(ValueError, match=r"index window \[.*2\*\*51"):
                    phase_space_sum_grid(A, n_min, 0.5, thetas, ps)

    def test_non_contiguous_factors(self):
        rng = np.random.default_rng(3)
        buf = rng.normal(size=(2, 30)) + 1j * rng.normal(size=(2, 30))
        c = buf[0, ::3]
        u = buf[1, ::3]
        u[...] = c.conj()
        assert not (c.flags.c_contiguous or u.flags.c_contiguous)
        thetas, ps = np.linspace(-pi, pi, 11), np.linspace(-4.0, 4.0, 9)
        dense = phase_space_sum_grid(np.outer(c.conj(), c), -3, 0.4, thetas, ps)
        assert np.array_equal(phase_space_sum_grid((u, c), -3, 0.4, thetas, ps), dense)
        assert np.array_equal(phase_space_sum_grid((c.conj(), c), -3, 0.4, thetas, ps), dense)

    def test_zero_window_is_zero(self):
        c = np.array([1e-170, 0.0, 1e-170j])
        pair, dense = _both_routes(c, 0, 0.1, np.linspace(-pi, pi, 5), np.array([0.0, 1.0]))
        _assert_same_bits(pair, dense)
        assert not pair.any()

    def test_wigner_grid_passes_the_pair(self, monkeypatch):
        seen = []

        def recording(*args):
            seen.append(args[0])
            return phase_space_sum_grid(*args)

        monkeypatch.setattr(wigner, "phase_space_sum_grid", recording)
        state = von_mises_state(1.5, 0.3)
        grid = wigner.wigner_grid(state)
        assert isinstance(seen[0], tuple) and len(seen[0]) == 2
        assert seen[0][1] is state.coeffs
        want = phase_space_sum_grid(np.outer(state.coeffs.conj(), state.coeffs), state.n_min, state.delta,
                                    grid.theta_axis, grid.p_axis)
        assert np.array_equal(grid.values, want)
        at = PhasePoint(0.4, 0.7)
        dense = phase_space_sum_point(np.outer(state.coeffs.conj(), state.coeffs), state.n_min, state.delta,
                                      at.theta, at.p)
        assert wigner.wigner_function(state, at) == dense.real


class TestWindowBuilder:
    """``wigner._window`` gives each window as the kernel takes it, and
    ``wigner._window_matrix`` expands it to the K x K matrix, byte for byte."""

    def test_state_is_its_factor_pair(self):
        state = von_mises_state(2.0, 0.3)
        (u, v), n_min, delta = wigner._window(state)
        assert v is state.coeffs and u.tobytes() == state.coeffs.conj().tobytes()
        assert (n_min, delta) == (state.n_min, state.delta)
        A, n_min, delta = wigner._window_matrix(state)
        assert A.tobytes() == np.outer(state.coeffs.conj(), state.coeffs).tobytes()
        assert (n_min, delta) == (state.n_min, state.delta)

    def test_diagonal_window(self):
        w = np.array([0.5, 0.25, 0.0, 0.25])
        rho = DensityMatrix._diagonal(0.4, -2, w)
        assert wigner._window(rho)[0] is rho._weights
        A, n_min, delta = wigner._window_matrix(rho)
        assert A.tobytes() == np.diag(w).tobytes() and (n_min, delta) == (-2, 0.4)

    def test_dense_density(self):
        rho = pure_density(von_mises_state(2.0, 0.3))
        A, n_min, delta = wigner._window_matrix(rho)
        assert A.tobytes() == rho.entries.T.tobytes() and (n_min, delta) == (rho.n_min, rho.delta)

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError, match="expected a FourierState or DensityMatrix"):
            wigner._window(np.eye(2))
        with pytest.raises(TypeError, match="expected a FourierState or DensityMatrix"):
            wigner.marginal_angle(np.eye(2), 0.3)


class TestHalfTurnMemo:
    def test_one_ulp_off_is_not_full_period(self):
        thetas = np.linspace(-pi, pi, 181)
        assert _half_turns(thetas) == 90
        # the grid holds the plan of thetas, H = 90 with it
        c = von_mises_state(2.0, 0.1).coeffs
        phase_space_sum_grid((c.conj(), c), 0, 0.1, thetas, np.array([0.5]))
        off = thetas.copy()
        off[57] = np.nextafter(off[57], np.inf)
        assert (off[0], off.size) == (thetas[0], thetas.size)
        assert _axis_plan(off)[1] == 0
        assert _axis_plan(thetas)[1] == 90

    def test_memo_does_not_change_the_grid(self):
        c = von_mises_state(2.0, 0.1).coeffs
        thetas = np.linspace(-pi, pi, 21)
        off = thetas.copy()
        off[4] = np.nextafter(off[4], -np.inf)
        ps = np.linspace(-3.0, 3.0, 7)
        dense_off = phase_space_sum_grid(np.outer(c.conj(), c), 0, 0.1, off, ps)
        phase_space_sum_grid((c.conj(), c), 0, 0.1, thetas, ps)
        assert np.array_equal(phase_space_sum_grid((c.conj(), c), 0, 0.1, off, ps), dense_off)

    def test_long_axis_still_recognised(self):
        thetas = np.linspace(0.5, 0.5 + TWO_PI, 2**17 + 1)
        assert _half_turns(thetas) == 2**16


def _round_trip(K, n_min, delta):
    rng = np.random.default_rng(K)
    c = rng.normal(size=K) + 1j * rng.normal(size=K)
    A = np.outer(c, c.conj()) + np.eye(K)
    A /= np.trace(A).real
    rho = DensityMatrix(delta=delta, n_min=n_min, entries=A)
    back = reconstruct_density(lambda axes: wigner.wigner_grid(rho, *axes).values, n_min, n_min + K - 1, delta)
    return float(np.max(np.abs(back.entries - A)))


class TestFarReconstructionWindow:
    """Beyond |n| >= 2**20 a delta that the float64 momenta round is refused;
    everywhere else the round trip holds to 1e-10."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.sampled_from([0, 2**19, 2**20 - 6, 2**20 - 1, 2**20, 2**21, 2**30, 2**50]),
        st.booleans(),
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.3]), st.floats(0.0, 1.0, exclude_max=True)),
    )
    @example(5, 2**30, False, 0.3)  # the far window that round-tripped to 2.4e-8
    @example(5, 2**20 - 5, False, 0.3)  # just inside: n_max = 2**20 - 1
    @example(5, 2**20 - 5, True, 0.3)
    def test_refused_or_within_tolerance(self, K, far, negative, delta):
        n_min = -far if negative else far
        n_min = max(n_min, -(2**51) + 1)
        n_max = n_min + K - 1
        edge = max(-n_min, n_max)
        exact = (edge + 1.0 + delta) - (edge + 1.0) == delta
        if edge >= 2**20 and not exact:
            with pytest.raises(ValueError, match=rf"window \[{n_min}, {n_max}\] reaches \|n\| >= 2\*\*20"):
                _round_trip(K, n_min, delta)
        else:
            assert _round_trip(K, n_min, delta) <= 1e-10

    def test_bound_edges(self):
        assert _round_trip(5, 2**20 - 5, 0.3) <= 1e-10
        assert _round_trip(5, -(2**20) + 1, 0.3) <= 1e-10
        for n_min in (2**20 - 4, -(2**20), 2**30):
            with pytest.raises(ValueError, match="reaches"):
                _round_trip(5, n_min, 0.3)
        # a delta the momenta hold exactly keeps the whole float range
        assert _round_trip(5, 2**30, 0.5) <= 1e-15

    def test_cli_reconstruct_exits_two(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        K = 5
        entries = np.eye(K) / K
        pairs = np.stack([entries, np.zeros((K, K))], axis=-1).tolist()
        path.write_text(json.dumps({"delta": 0.3, "n_min": 2**30, "entries": pairs}))
        out = tmp_path / "rec.json"
        assert main(["--command", "reconstruct", "--state-json", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: reconstruction window [{2**30}, {2**30 + 4}]") and err.count("\n") == 1
        assert not out.exists()


class TestBlockedAngleMarginal:
    @pytest.mark.parametrize(
        "obj",
        [
            von_mises_state(3.0, 0.4),
            FourierState(delta=0.2, n_min=-2, coeffs=np.array([0.6, 0.0, 0.8j])),
            DensityMatrix(delta=0.1, n_min=1, entries=np.array([[0.5, 0.2j], [-0.2j, 0.5]])),
        ],
        ids=["vonmises", "pure", "density"],
    )
    def test_blocks_match_one_pass(self, obj, monkeypatch):
        thetas = np.linspace(-pi, pi, 1001)
        one_pass = wigner.marginal_angle(obj, thetas)
        monkeypatch.setattr(_kernels, "_TABLE_BLOCK", 64)
        blocked = wigner.marginal_angle(obj, thetas)
        np.testing.assert_allclose(blocked, one_pass, rtol=0.0, atol=1e-15)
        assert wigner.marginal_angle(obj, thetas.reshape(7, 143)).shape == (7, 143)

    def test_large_window_against_the_swap(self):
        # K = 579, values up to 17.8: the two routes take their phases and
        # sums in different orders, and agree within 4e-15 of the peak
        state = von_mises_state(1000.0, 0.3)
        thetas = np.linspace(-pi, pi, 181)
        for obj in (state, pure_density(state)):
            direct = wigner.marginal_angle(obj, thetas)
            assert np.max(np.abs(direct - angle_marginal_via_swap(obj, thetas))) <= 4e-15 * np.max(direct)

    def test_memory_bounded_by_the_block(self, traced):
        state = von_mises_state(3.0, 0.0)
        thetas = np.linspace(-pi, pi, 200_001)
        _, peak = traced(wigner.marginal_angle, state, thetas)
        # the result (1.6 MB) and one block of phases (2**19 entries, 8 MiB)
        # with its temporaries: 25 MiB, where the K x N matrices took 336 MiB
        assert peak < 40 * 2**20


class TestSlicedJson:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 9])
    def test_bytes_match_json_dumps(self, n, monkeypatch):
        monkeypatch.setattr(cli, "_JSON_SLICE", 3)
        payload = {"a": np.linspace(-1.0, 2.0, n), "b": {"c": np.arange(n, dtype=float) / 7.0}}
        want = json.dumps({"a": payload["a"].tolist(), "b": {"c": payload["b"]["c"].tolist()}}, indent=2, sort_keys=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _write_json(payload, None)
        assert buf.getvalue() == want + "\n"
