"""A diagonal (Gibbs) window held by its K weights, against the dense
DensityMatrix of the same diagonal."""

import contextlib
import io
import json
from math import pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylwigner import _kernels
from cylwigner.cli import RunConfig, _cmd_marginals, _write_json
from cylwigner.dynamics import evolve_density, quadratic_hamiltonian
from cylwigner.states import DensityMatrix, FourierState, pure_density, von_mises_state
from cylwigner.thermal import ThermalParams, thermal_density
from cylwigner.wigner import (
    marginal_angle,
    marginal_momentum,
    moyal_grid,
    reconstruct_density,
    wigner_function,
    wigner_grid,
)

THETAS = np.linspace(-pi, pi, 7)
PS = np.linspace(-3.3, 4.1, 9)

diagonals = st.tuples(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60).filter(lambda w: sum(w) > 0.0),
    st.integers(-40, 40),
    st.floats(0.0, 1.0, exclude_max=True),
)


def both_kinds(weights, n_min, delta):
    """The diagonal kind of the normalized ``weights`` and its dense twin."""
    w = np.array(weights) / np.sum(weights)
    dense = DensityMatrix(delta=delta, n_min=n_min, entries=np.diag(w).astype(np.complex128))
    return DensityMatrix._diagonal(delta, n_min, w), dense


def written(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(payload, None)
    return out.getvalue()


class TestAgainstDense:
    @settings(max_examples=80, deadline=None)
    @given(diagonals)
    def test_same_values(self, case):
        diag, dense = both_kinds(*case)
        assert "entries" not in vars(diag)
        assert np.array_equal(diag.entries, dense.entries) and not diag.entries.flags.writeable
        assert (diag.n_min, diag.n_max, diag.delta) == (dense.n_min, dense.n_max, dense.delta)
        assert np.array_equal(diag.indices, dense.indices)
        assert diag.trace() == pytest.approx(dense.trace(), abs=1e-15)
        assert np.array_equal(diag.diagonal(), dense.diagonal())
        diag.validate()
        dense.validate()

        got = wigner_grid(diag, THETAS, PS).values
        want = wigner_grid(dense, THETAS, PS).values
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert wigner_function(diag, (0.4, 1.3)) == wigner_function(dense, (0.4, 1.3))

        angle = marginal_angle(diag, THETAS)
        assert np.all(angle == diag.trace() / (2 * pi))
        assert np.max(np.abs(angle - marginal_angle(dense, THETAS))) <= 1e-15
        assert type(marginal_angle(diag, 0.5)) is float

        a, b = marginal_momentum(diag), marginal_momentum(dense)
        assert (a.delta, a.m_min) == (b.delta, b.m_min) and np.array_equal(a.b, b.b)

    @settings(max_examples=40, deadline=None)
    @given(diagonals, st.floats(-3.0, 3.0))
    def test_evolution_keeps_the_kind(self, case, t):
        diag, dense = both_kinds(*case)
        H = quadratic_hamiltonian(0.7, diag.n_min, diag.n_max, delta=diag.delta)
        evolved = evolve_density(diag, H, t)
        assert evolved._weights is not None
        assert np.array_equal(evolved.entries, evolve_density(dense, H, t).entries)

    @settings(max_examples=30, deadline=None)
    @given(diagonals)
    def test_reconstruction_round_trip(self, case):
        diag, dense = both_kinds(*case)
        window = (diag.n_min, diag.n_max, diag.delta)
        rebuilt = reconstruct_density(lambda axes: wigner_grid(diag, *axes).values, *window)
        twin = reconstruct_density(lambda axes: wigner_grid(dense, *axes).values, *window)
        assert np.array_equal(rebuilt.entries, twin.entries)
        assert np.max(np.abs(rebuilt.entries - dense.entries)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(diagonals)
    def test_json_bytes(self, case):
        # the diagonal kind writes its weights, the dense twin its entries;
        # both payloads load to the same grids
        diag, dense = both_kinds(*case)
        grids = []
        for rho, key in ((diag, "weights"), (dense, "entries")):
            text = written({"density_matrix": rho._json_fields()})
            data = json.loads(text)["density_matrix"]
            assert set(data) == {"delta", "n_min", key} and data == rho.to_dict()
            back = DensityMatrix.from_dict(data)
            assert (back._weights is None) == (rho._weights is None)
            grids.append(wigner_grid(back, THETAS, PS).values)
        assert np.array_equal(*grids) and np.array_equal(grids[0], wigner_grid(dense, THETAS, PS).values)

    def test_invalid_diagonals_refused_alike(self):
        for w in ([0.5, 0.25], [1.5, -0.5]):
            diag = DensityMatrix._diagonal(0.0, 0, w)
            dense = DensityMatrix(delta=0.0, n_min=0, entries=np.diag(w).astype(np.complex128))
            for rho in (diag, dense):
                with pytest.raises(ValueError, match="trace|negative"):
                    rho.validate()
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix._diagonal(0.0, 0, [1.0, np.nan])
        with pytest.raises(ValueError, match="delta"):
            DensityMatrix._diagonal(1.0, 0, [1.0])


class TestGibbsWindow:
    def test_held_by_its_weights(self):
        rho = thermal_density(ThermalParams(1e-4))
        assert isinstance(rho, DensityMatrix) and "entries" not in vars(rho)
        # built on each read, never kept
        assert rho.entries is not rho.entries
        assert rho.n_max - rho.n_min + 1 == 1161

    def test_holds_o_k_memory(self, traced):
        rho, peak = traced(thermal_density, ThermalParams(1e-4))
        assert peak < 64 * rho.diagonal().size

    def test_grid_memory(self, traced):
        # K = 1161: the dense window alone would take 21 MiB
        _, peak = traced(lambda: wigner_grid(thermal_density(ThermalParams(1e-4))))
        assert peak < 8 * 2**20
        # K = 3645 on 10001 momenta: a 292 MB sinc table, summed in slices
        rho = thermal_density(ThermalParams(1e-5))
        _, peak = traced(wigner_grid, rho, [0.0, 1.0], np.linspace(-50.0, 50.0, 10001))
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("eps_beta", [1e-2, 1e-4])
    def test_every_angle_takes_the_one_angle_row(self, eps_beta):
        # only the diagonal d = 0 is occupied: the grid is one row, repeated
        rho = thermal_density(ThermalParams(eps_beta))
        ps = np.linspace(-5.0, 5.0, 401)
        grid = wigner_grid(rho, np.linspace(-pi, pi, 181), ps).values
        for theta in (0.0, -pi):
            row = wigner_grid(rho, [theta], ps).values
            assert np.array_equal(grid, np.repeat(row, 181, axis=0))

    def test_repr_reads_the_weights(self, traced):
        rho = thermal_density(ThermalParams(1e-4))
        text, peak = traced(repr, rho)
        assert peak < 2**20 and "weights=array(" in text
        dense = DensityMatrix(delta=0.25, n_min=-1, entries=np.eye(2) / 2)
        assert repr(dense) == f"DensityMatrix(delta=0.25, n_min=-1, entries={dense.entries!r})"

    def test_validate_reads_the_weights(self, traced):
        rho = thermal_density(ThermalParams(1e-4))
        _, peak = traced(rho.validate)
        assert peak < 16 * 1161**2 / 4

    def test_marginals_writer_memory(self, tmp_path, traced):
        # eps_beta = 1e-3: K = 375, the window echoed as its weights
        cfg = RunConfig(command="marginals", state="thermal", eps_beta=1e-3)
        out = tmp_path / "marginals.json"
        _, peak = traced(lambda: _write_json(_cmd_marginals(cfg), str(out)))
        assert out.stat().st_size < 64 * 2**10
        assert peak < 16 * 375**2 / 4


class TestSlices:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60).filter(lambda w: sum(w) > 0.0),
        st.integers(-40, 40),
        st.integers(0, 15),
        st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=12),
        st.integers(1, 20),
    )
    def test_series_and_grid_across_slices(self, weights, n_min, sixteenths, offsets, per_slice):
        # a budget of per_slice weights splits every window of more into slices
        w = np.array(weights) / np.sum(weights)
        delta = sixteenths / 16
        centres = n_min + np.arange(w.size) + delta
        ps = np.concatenate([n_min + w.size / 2 + np.array(offsets), centres])
        rho = DensityMatrix._diagonal(delta, n_min, w)
        with mock.patch.object(_kernels, "_TABLE_BLOCK", per_slice * (ps.size + 16)):
            series = marginal_momentum(rho)(ps)
            grid = wigner_grid(rho, THETAS, ps).values
        want = w @ np.sinc(ps[None, :] - centres[:, None])
        assert np.max(np.abs(series - want)) <= 1e-15
        assert np.max(np.abs(grid - want / (2 * pi))) <= 1e-15
        # on the dyadic lattice every other term is an exact zero
        lattice = slice(len(offsets), None)
        assert np.array_equal(series[lattice], w)
        assert np.all(grid[:, lattice] == w * (1 / (2 * pi)))


def _brute_residual(A):
    """``max |A_mn - conj(A_nm)|`` over the nonzero entries of ``A``, entry by entry."""
    K = A.shape[0]
    return max(
        (abs(complex(A[m, n]) - complex(A[n, m]).conjugate()) for m in range(K) for n in range(K) if A[m, n] != 0),
        default=0.0,
    )


@st.composite
def _sparse_windows(draw):
    """A square window with random sparsity: Hermitian, near-Hermitian at
    1e-13 or not at all, with some entries whose mirror is zero."""
    K = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    kind = draw(st.sampled_from(["hermitian", "near", "any"]))
    if kind != "any":
        A = A + A.conj().T
    if kind == "near":
        A = A + 1e-13 * (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K)))
    keep = rng.random((K, K)) < draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        keep = keep & keep.T  # mirrored sparsity: every mirror of an entry is an entry
    return np.where(keep, A, 0.0)


class TestHermiticityTest:
    @settings(max_examples=200, deadline=None)
    @given(_sparse_windows())
    def test_residual_against_brute_force(self, A):
        rows, cols = np.nonzero(A)
        # the moduli may differ in the last bit: numpy's and Python's hypot
        got = _kernels._hermitian_residual(A, rows, cols, A[rows, cols])
        assert got == pytest.approx(_brute_residual(A), rel=4e-16, abs=0.0)

    def test_state_windows_are_not_tested(self, monkeypatch):
        tested = []
        residual = _kernels._hermitian_residual
        monkeypatch.setattr(_kernels, "_hermitian_residual", lambda *a: tested.append(1) or residual(*a))
        wigner_grid(von_mises_state(2.0, 0.3), THETAS, PS)
        wigner_grid(thermal_density(ThermalParams(0.5)), THETAS, PS)
        assert not tested
        wigner_grid(pure_density(von_mises_state(2.0, 0.3)), THETAS, PS)
        assert tested

    @pytest.mark.parametrize(
        "entries, real",
        [
            ({(1, 0): 1.0}, False),  # below the diagonal only: no entry above meets it
            ({(1, 0): 1e-13}, True),  # the same within the 1e-12 tolerance
            ({(0, 1): 1.0}, False),
            ({(0, 1): 1.0, (1, 0): 1.0, (2, 0): 0.5}, False),
            ({(0, 1): 1.0j, (1, 0): -1.0j, (2, 2): 0.5}, True),
            ({(2, 2): 1.0j}, False),
        ],
    )
    def test_each_pair_once(self, entries, real):
        A = np.zeros((3, 3), dtype=np.complex128)
        for (m, n), v in entries.items():
            A[m, n] = v
        out = _kernels.phase_space_sum_grid(A, 0, 0.25, THETAS, PS)
        assert np.isrealobj(out) == real


class TestAngleFree:
    def test_no_angle_chain(self, monkeypatch):
        # a series, a Gibbs grid and a dense diagonal-only grid take neither
        # the angle phases nor the presence tables of the general chain
        def refuse(*args):
            raise AssertionError("an angle-free sum took the angle chain")

        monkeypatch.setattr(_kernels, "_angle_phases", refuse)
        monkeypatch.setattr(_kernels, "_compact", refuse)
        rho = thermal_density(ThermalParams(0.5))
        w = rho.diagonal()
        dense = DensityMatrix(delta=rho.delta, n_min=rho.n_min, entries=np.diag(w))
        want = w @ np.sinc(PS[None, :] - (rho.n_min + np.arange(w.size) + rho.delta)[:, None])
        assert np.max(np.abs(marginal_momentum(rho)(PS) - want)) <= 1e-15
        gibbs = wigner_grid(rho, THETAS, PS).values
        assert np.max(np.abs(gibbs - want / (2 * pi))) <= 1e-15
        assert wigner_grid(dense, THETAS, PS).values.tobytes() == gibbs.tobytes()

    def test_complex_d0_window_is_one_row(self):
        # conj(c_bra) c_ket on one index: a complex, non-Hermitian d = 0 window
        bra = FourierState(delta=0.25, n_min=3, coeffs=[np.exp(0.3j)])
        ket = FourierState(delta=0.25, n_min=3, coeffs=[np.exp(1.1j)])
        values = moyal_grid(bra, ket, THETAS, PS).values
        want = np.exp(0.8j) * np.sinc(PS - 3.25) / (2 * pi)
        assert np.max(np.abs(values - want)) <= 1e-15
        assert values.tobytes() == np.tile(values[0], (THETAS.size, 1)).tobytes()
