"""Command-line interface: figure data, marginals, reconstruction,
verification report, exit codes, and output determinism."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cylwigner import cli
from cylwigner.cli import RunConfig, _build_parser, _cmd_marginals, _write_json, main
from cylwigner.specfun import bessel_i, sinc_pi
from cylwigner.states import FourierState, pure_density, von_mises_state


def run_cli(*args):
    return main(list(args))


def run_module(*args, **kwargs):
    """``python *args`` in a fresh interpreter that imports the cylwigner
    under test, its output captured."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300, **kwargs)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "theta,p,value"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return rows


class TestRunConfig:
    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            RunConfig(command="fig1", p_steps=1)
        with pytest.raises(ValueError):
            RunConfig(command="fig1", p_min=2.0, p_max=-2.0)
        with pytest.raises(ValueError):
            RunConfig(command="fig1", hbar=0.0)
        with pytest.raises(ValueError):
            RunConfig(command="nope")

    @pytest.mark.parametrize("bound", [{"p_max": math.inf}, {"p_min": -math.inf}, {"p_min": math.nan}])
    def test_non_finite_p_range_rejected(self, bound):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(command="fig2", **bound)

    @pytest.mark.parametrize("hbar", [math.inf, math.nan])
    def test_non_finite_hbar_rejected(self, hbar):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(command="fig1", hbar=hbar)

    def test_parser_and_config_name_the_same_options(self):
        # RunConfig holds every default: an option the parser adds without
        # a RunConfig field, or the other way round, would let them drift
        parser = _build_parser()
        options = [a for a in parser._actions if a.dest not in ("help", "version")]
        assert {a.dest for a in options} == {f.name for f in dataclasses.fields(RunConfig)}
        assert all(a.default is argparse.SUPPRESS for a in options)
        assert _build_parser() is parser


class TestFig1:
    def test_basis_profile_rows(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = run_cli(
            "--command", "fig1", "--m", "0",
            "--p-min", "-2", "--p-max", "2", "--p-steps", "9",
            "--out", str(out),
        )
        assert code == 0
        rows = {p: v for _, p, v in read_csv(out)}
        assert rows[0.0] == 1.0
        assert rows[1.0] == 0.0
        assert rows[-2.0] == 0.0
        assert rows[1.5] == pytest.approx(-2.0 / (3.0 * math.pi), abs=1e-15)
        assert rows[1.5] == pytest.approx(-0.2122065907891938, abs=1e-15)

    def test_momentum_rescaling(self, tmp_path):
        out = tmp_path / "fig1h.csv"
        assert run_cli(
            "--command", "fig1", "--m", "2", "--hbar", "0.5",
            "--p-min", "0", "--p-max", "2", "--p-steps", "5",
            "--out", str(out),
        ) == 0
        rows = {p: v for _, p, v in read_csv(out)}
        assert rows[1.0] == 1.0  # peak at hbar * m
        assert rows[1.5] == 0.0  # first rescaled node

    @pytest.mark.parametrize("flags", [("--hbar=1e-310",), ("--hbar=1e308", "--m=2")])
    def test_extreme_hbar(self, flags, tmp_path):
        out = tmp_path / "fig1x.csv"
        assert run_cli("--command", "fig1", *flags, "--p-steps=5", "--out", str(out)) == 0
        assert all(abs(v) <= 2e-309 for _, p, v in read_csv(out) if p != 0.0)


class TestFig2:
    def test_caption_values(self, tmp_path):
        out = tmp_path / "fig2.csv"
        theta_list = "0,0.7853981633974483,1.5707963267948966"
        assert run_cli(
            "--command", "fig2", "--theta-list", theta_list,
            "--p-min", "-1", "--p-max", "1", "--p-steps", "3",
            "--out", str(out),
        ) == 0
        rows = {(t, p): v for t, p, v in read_csv(out)}
        assert rows[(0.0, 0.0)] == pytest.approx(1.0, abs=1e-12)
        assert rows[(0.0, 1.0)] == pytest.approx(0.5, abs=1e-12)
        assert rows[(0.0, -1.0)] == pytest.approx(0.5, abs=1e-12)
        quarter = 0.7853981633974483
        assert rows[(quarter, 0.0)] == pytest.approx(0.0, abs=1e-12)
        half = 1.5707963267948966
        assert rows[(half, 0.0)] == pytest.approx(-1.0, abs=1e-12)
        assert rows[(half, 1.0)] == pytest.approx(0.5, abs=1e-12)

    def test_negative_theta_list_spellings_agree(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        args = ("--command", "fig2", "--p-min", "-1", "--p-max", "1", "--p-steps", "5")
        assert run_cli(*args, "--theta-list", "-1.0,0.5", "--out", str(spaced)) == 0
        assert run_cli(*args, "--theta-list=-1.0,0.5", "--out", str(joined)) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert {t for t, _, _ in read_csv(spaced)} == {-1.0, 0.5}

    def test_phase_parameter_shifts_pattern(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        alpha = 1.1
        assert run_cli(
            "--command", "fig2", "--alpha", str(alpha), "--theta-list", "0.3",
            "--p-min", "0", "--p-max", "0", "--p-steps", "2",
        "--out", str(out),
        ) == 2  # empty p range is a usage error


class TestFig3:
    def test_quarter_turn_curve_is_cardinal(self, tmp_path):
        out = tmp_path / "fig3.csv"
        half = 1.5707963267948966
        assert run_cli(
            "--command", "fig3", "--s", "0.5", "--pe", "0",
            "--theta-list", f"{half}",
            "--p-min", "-4", "--p-max", "4", "--p-steps", "17",
            "--out", str(out),
        ) == 0
        for _, p, v in read_csv(out):
            assert v == pytest.approx(sinc_pi(p), abs=1e-9)

    def test_normalization_constant(self):
        assert bessel_i(0, 1.0) == pytest.approx(1.2661, abs=5e-5)

    def test_tiny_negative_mean_momentum(self, tmp_path):
        assert run_cli("--command", "fig3", "--pe=-1e-20", "--p-steps=5", "--out", str(tmp_path / "f3.csv")) == 0

    def test_peak_sits_at_mean_momentum(self, tmp_path):
        out = tmp_path / "fig3pe.csv"
        assert run_cli(
            "--command", "fig3", "--s", "0.5", "--pe", "1.5", "--theta-list", "0",
            "--p-min", "-3", "--p-max", "6", "--p-steps", "181",
            "--out", str(out),
        ) == 0
        rows = read_csv(out)
        best = max(rows, key=lambda r: r[2])
        assert best[1] == pytest.approx(1.5, abs=0.06)


class TestThermalCommand:
    def test_grid_values(self, tmp_path):
        out = tmp_path / "thermal.csv"
        assert run_cli(
            "--command", "thermal", "--eps-beta", "1.0",
            "--p-min", "-2", "--p-max", "2", "--p-steps", "5",
            "--out", str(out),
        ) == 0
        from cylwigner.thermal import ThermalParams, thermal_wigner

        for t, p, v in read_csv(out):
            assert v == pytest.approx(thermal_wigner(ThermalParams(1.0), (t, p)), abs=1e-13)

    def test_wide_window_matches_high_temp_form(self, tmp_path):
        # eps_beta = 1e-6 has K = 11501: no dense Gibbs matrix is built
        out = tmp_path / "thermal.csv"
        assert run_cli("--command", "thermal", "--eps-beta", "1e-6", "--theta-list=0,2", "--out", str(out)) == 0
        from cylwigner.thermal import ThermalParams, high_temp_wigner

        rows = read_csv(out)
        assert len(rows) == 2 * 401
        for _, p, v in rows:
            assert v == pytest.approx(high_temp_wigner(ThermalParams(1e-6), p), rel=1e-3)

    @pytest.mark.parametrize("eps_beta", ["1.0", "0.01", "1e-4"])
    def test_row_is_the_gibbs_grid(self, tmp_path, eps_beta):
        # the row and a Gibbs grid are one kernel sum: equal bit for bit
        from cylwigner.thermal import ThermalParams, thermal_density
        from cylwigner.wigner import wigner_grid

        out = tmp_path / "thermal.csv"
        assert run_cli("--command", "thermal", "--eps-beta", eps_beta, "--out", str(out)) == 0
        p_axis = RunConfig(command="thermal").p_axis
        grid = wigner_grid(thermal_density(ThermalParams(float(eps_beta))), [0.0], p_axis)
        rows = np.array(read_csv(out))
        assert np.array_equal(rows[:, 1], p_axis) and np.array_equal(rows[:, 2], grid.values[0])

    def test_never_builds_the_density_matrix(self, tmp_path, traced):
        # eps_beta = 1e-6: K = 11501 weights, where a dense K x K matrix would take 2.1 GB
        out = tmp_path / "thermal.csv"
        code, peak = traced(run_cli, "--command", "thermal", "--eps-beta", "1e-6", "--out", str(out))
        assert code == 0 and len(read_csv(out)) == 401
        assert peak < 16 * 2**20


class TestMarginalsCommand:
    def test_json_schema_and_values(self, tmp_path):
        out = tmp_path / "marg.json"
        assert run_cli(
            "--command", "marginals", "--state", "cat", "--theta-steps", "9",
            "--out", str(out),
        ) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"angle_marginal", "momentum_marginal", "state"}
        mm = data["momentum_marginal"]
        assert set(mm) == {"delta", "m_min", "b"}
        assert mm["m_min"] == -1
        assert mm["b"][0] == pytest.approx(0.5)
        assert mm["b"][2] == pytest.approx(0.5)
        thetas = np.array(data["angle_marginal"]["theta"])
        vals = np.array(data["angle_marginal"]["value"])
        want = (1 + np.cos(2 * thetas)) / (2 * math.pi)
        assert np.max(np.abs(vals - want)) <= 1e-12
        assert set(data["state"]) == {"delta", "n_min", "coeffs", "discarded_mass"}

    def test_far_window_angle_marginal(self, tmp_path):
        values = []
        for pe in ("4.6e18", "0"):
            out = tmp_path / f"marg_{pe}.json"
            assert run_cli("--command", "marginals", "--state", "vonmises", "--s", "0.5", "--pe", pe, "--out", str(out)) == 0
            values.append(np.array(json.loads(out.read_text())["angle_marginal"]["value"]))
        assert np.ptp(values[1]) > 0.25
        np.testing.assert_allclose(values[0], values[1], rtol=0.0, atol=1e-15)

    def test_thermal_state_family(self, tmp_path):
        out = tmp_path / "marg_thermal.json"
        assert run_cli(
            "--command", "marginals", "--state", "thermal", "--eps-beta", "2.0",
            "--out", str(out),
        ) == 0
        data = json.loads(out.read_text())
        b = data["momentum_marginal"]["b"]
        assert sum(b) == pytest.approx(1.0, abs=1e-12)
        assert "density_matrix" in data

    def test_thermal_echo_loads_back(self, tmp_path):
        # the echoed density_matrix holds the Gibbs weights, which momentum_marginal.b repeats;
        # fed back through --state-json it gives the same file
        first, second, echo = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "rho.json"
        assert run_cli("--command", "marginals", "--state", "thermal", "--eps-beta", "1e-3", "--out", str(first)) == 0
        data = json.loads(first.read_text())
        assert data["density_matrix"]["weights"] == data["momentum_marginal"]["b"]
        echo.write_text(json.dumps(data["density_matrix"]))
        assert run_cli("--command", "marginals", "--state-json", str(echo), "--out", str(second)) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_state_json_input_round_trip(self, tmp_path):
        from cylwigner.states import von_mises_state

        state_path = tmp_path / "state.json"
        st = von_mises_state(0.8, 1.3)
        state_path.write_text(json.dumps(st.to_dict()))
        out = tmp_path / "marg_custom.json"
        assert run_cli(
            "--command", "marginals", "--state-json", str(state_path),
            "--out", str(out),
        ) == 0
        data = json.loads(out.read_text())
        assert data["momentum_marginal"]["delta"] == pytest.approx(st.delta)
        total = sum(data["momentum_marginal"]["b"])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_state_json_missing_file_is_io_error(self, tmp_path):
        assert run_cli(
            "--command", "marginals", "--state-json", str(tmp_path / "absent.json"),
        ) == 2


class TestReconstructCommand:
    @pytest.mark.parametrize("state", ["basis", "cat", "vonmises", "thermal"])
    def test_round_trip_error_small(self, tmp_path, state):
        out = tmp_path / f"rec_{state}.json"
        assert run_cli(
            "--command", "reconstruct", "--state", state,
            "--s", "0.5", "--pe", "0.6", "--eps-beta", "1.0",
            "--out", str(out),
        ) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"density_matrix", "max_abs_error", "trace"}
        assert data["max_abs_error"] <= 1e-8
        assert data["trace"] == pytest.approx(1.0, abs=1e-8)

    def test_window_just_inside_the_float_bound(self, tmp_path):
        out = tmp_path / "rec.json"
        assert run_cli("--command", "reconstruct", "--state", "vonmises", f"--pe={100 - 2**51}", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["density_matrix"]["n_min"] > -(2**51)
        assert data["max_abs_error"] <= 1e-8
        assert data["trace"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("state", ["basis", "cat", "vonmises", "thermal"])
    def test_runs_without_a_gauss_legendre_rule(self, tmp_path, monkeypatch, state):
        def refuse(order):
            raise AssertionError("reconstruct must not build a Gauss-Legendre rule")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        out = tmp_path / f"rec_{state}.json"
        assert run_cli(
            "--command", "reconstruct", "--state", state,
            "--s", "0.5", "--pe", "0.6", "--eps-beta", "1.0",
            "--out", str(out),
        ) == 0
        assert json.loads(out.read_text())["max_abs_error"] <= 1e-14


class TestVerifyCommand:
    def test_report_schema_and_success(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run_cli("--command", "verify", "--out", str(out)) == 0
        entries = json.loads(out.read_text())
        assert isinstance(entries, list) and len(entries) >= 30
        for entry in entries:
            assert set(entry) == {"invariant_id", "residual", "tolerance", "pass"}
        assert all(entry["pass"] for entry in entries)
        ids = [e["invariant_id"] for e in entries]
        assert "wigner.pair_orthogonality" in ids
        ortho = next(e for e in entries if e["invariant_id"] == "wigner.pair_orthogonality")
        assert ortho["residual"] <= 1e-10

    def test_fault_injection_fails_sinc_suite(self, tmp_path):
        out = tmp_path / "verify_fault.json"
        assert run_cli("--command", "verify", "--inject-sinc-fault", "--out", str(out)) == 1
        entries = json.loads(out.read_text())
        failed = {e["invariant_id"] for e in entries if not e["pass"]}
        assert "specfun.sinc_orthonormality_swap" in failed
        assert "specfun.sinc_kronecker" in failed

    def test_loose_profile_accepted(self, tmp_path):
        out = tmp_path / "verify_loose.json"
        assert run_cli("--command", "verify", "--tol-profile", "loose", "--out", str(out)) == 0

    def test_only_verify_imports_the_verifier(self, tmp_path):
        # the other commands start without compiling the verifier
        done = run_module("-c", "import sys, cylwigner.cli; print('cylwigner.verify' in sys.modules)", text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
        out = tmp_path / "verify.json"
        assert run_module("-m", "cylwigner", "--command", "verify", "--out", str(out)).returncode == 0
        entries = json.loads(out.read_text())
        assert len(entries) >= 30 and all(entry["pass"] for entry in entries)


class TestExitCodes:
    def test_io_error_is_two(self):
        assert run_cli("--command", "fig1", "--out", "/nonexistent_dir/x.csv") == 2

    def test_usage_error_is_two(self):
        assert run_cli("--command", "fig1", "--p-min", "3", "--p-max", "-3") == 2
        assert run_cli("--command", "unknown") == 2

    def test_bad_theta_list_is_two(self):
        assert run_cli("--command", "fig2", "--theta-list", "a,b") == 2

    @pytest.mark.parametrize("angles", ["nan,0.5", "inf,0.5", "0.5,-inf"])
    def test_non_finite_theta_list_is_two(self, angles, capsys):
        assert run_cli("--command", "fig2", f"--theta-list={angles}", "--p-steps=3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("flag", ["--p-max=inf", "--p-min=nan", "--hbar=inf"])
    def test_non_finite_range_or_hbar_is_two(self, flag, capsys):
        assert run_cli("--command", "fig2", flag, "--p-steps=3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err

    def test_overflowing_p_range_width_is_two(self, capsys):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli("--command", "fig1", "--p-min=-1e308", "--p-max=1e308") == 2
        assert not seen
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: p range [-1e+308, 1e+308] is wider than float64 holds\n"

    @pytest.mark.parametrize(
        "args, err",
        [
            (
                ("--command", "fig1", "--p-steps", "1000000000000"),
                "error: p axis of 1000000000000 steps needs 8000000000000 bytes (limit 268435456)\n",
            ),
            (
                ("--command", "marginals", "--theta-steps", "1000000000"),
                "error: theta axis of 1000000000 steps needs 8000000000 bytes (limit 268435456)\n",
            ),
        ],
        ids=["fig1_p_steps", "marginals_theta_steps"],
    )
    def test_axis_over_the_budget_is_two(self, capsys, traced, args, err):
        # refused from the step count alone: nothing near the axis is allocated
        code, peak = traced(run_cli, *args)
        assert code == 2 and peak < 2**20
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err

    def test_axis_at_the_budget_is_accepted(self):
        assert RunConfig(command="marginals", theta_steps=2**25, p_steps=2**25).theta_steps == 2**25
        with pytest.raises(ValueError, match="p axis of 33554433 steps needs 268435464 bytes"):
            RunConfig(command="fig1", p_steps=2**25 + 1)

    def test_overflowing_parameter_is_two(self, capsys):
        assert run_cli("--command", "fig3", "--s", "400") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fig3_scale_refused_before_the_grid(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("fig3 built its grid before its scale")

        monkeypatch.setattr(cli, "wigner_grid", refuse)
        assert run_cli("--command", "fig3", "--s", "400") == 2
        assert capsys.readouterr().err == (
            "error: fig3 --s 400.0 overflows the scale 2 pi I_0(2 s); the largest supported --s is 356.07\n"
        )

    def test_fig3_scale_at_the_largest_supported_s(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert run_cli("--command", "fig3", "--s", "356.07", "--out", str(out)) == 0
        values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
        assert np.all(np.isfinite(values)) and values.max() > 1e307
        assert run_cli("--command", "fig3", "--s", "356.08", "--out", str(tmp_path / "over.csv")) == 2
        assert capsys.readouterr().err == (
            "error: fig3 --s 356.08 overflows the scale 2 pi I_0(2 s); the largest supported --s is 356.07\n"
        )
        assert not (tmp_path / "over.csv").exists()

    def test_marginals_of_a_very_wide_von_mises_state(self, tmp_path):
        # s = 1e7: a window of 57,681 coefficients, its Bessel recurrence
        # started from the window rather than from s
        out = tmp_path / "vm.json"
        assert run_cli("--command", "marginals", "--state", "vonmises", "--s", "1e7", "--out", str(out)) == 0
        assert json.loads(out.read_text())["state"]["n_min"] == -28840

    @pytest.mark.parametrize(
        "args",
        [
            ("--command", "marginals", "--state", "vonmises", "--pe", "1e20"),
            ("--command", "fig3", "--pe", "1e20"),
            ("--command", "reconstruct", "--state", "vonmises", "--pe=-5e18"),
        ],
        ids=["marginals", "fig3", "reconstruct"],
    )
    def test_window_outside_the_index_range_is_two(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli(*args, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index window [") and "2**62" in err and err.count("\n") == 1
        assert not out.exists()

    def test_float_unresolvable_window_is_two(self, tmp_path, capsys):
        # inside |n| < 2**62 but past 2**51, where float64 momenta leave the
        # half-integer lattice: refused, not reconstructed with trace 41
        out = tmp_path / "out"
        assert run_cli("--command", "reconstruct", "--state", "vonmises", "--pe=-4.6e18", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index window [") and "2**51" in err and err.count("\n") == 1
        assert not out.exists()

    def test_oversized_dense_thermal_window_is_two(self, tmp_path, capsys):
        # reconstruct builds a dense K x K result, refused above 256 MiB;
        # marginals reads the K = 11501 Gibbs weights and writes them
        out = tmp_path / "rec.json"
        assert run_cli("--command", "reconstruct", "--state", "thermal", "--eps-beta", "1e-6", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "K=11501" in err and err.count("\n") == 1
        assert not out.exists()
        out = tmp_path / "marg.json"
        assert run_cli("--command", "marginals", "--state", "thermal", "--eps-beta", "1e-6", "--out", str(out)) == 0
        assert len(json.loads(out.read_text())["density_matrix"]["weights"]) == 11501

    def test_oversized_thermal_weights_are_two(self, tmp_path, capsys):
        out = tmp_path / "thermal.csv"
        assert run_cli("--command", "thermal", "--eps-beta", "1e-15", "--out", str(out)) == 2
        assert "K=363318055" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_eps_beta_is_refused_as_oversized(self, tmp_path, capsys):
        # 33 / eps_beta overflows a double; the window is still sized and refused
        out = tmp_path / "thermal.csv"
        assert run_cli("--command", "thermal", "--eps-beta", "1e-320", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: thermal window K=")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["marginals", "reconstruct"])
    @pytest.mark.parametrize(
        "entries, reason",
        [
            ([[[0.5, 0.0], [0.5, 0.0]], [[0.1, 0.0], [0.5, 0.0]]], "not Hermitian"),
            ([[[2.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.5, 0.0]]], "differs from 1"),
            # a flat list is a diagonal window's weights
            pytest.param([1.5, -0.5], "negative diagonal", id="negative-weight"),
            pytest.param([0.25, 0.25], "trace 0.5 differs from 1", id="half-trace-weights"),
        ],
    )
    def test_invalid_density_matrix_json_is_two(self, tmp_path, capsys, command, entries, reason):
        state_path = tmp_path / "rho.json"
        key = "weights" if np.ndim(entries) == 1 else "entries"
        state_path.write_text(json.dumps({"delta": 0.0, "n_min": 0, key: entries}))
        out = tmp_path / "out.json"
        assert run_cli("--command", command, "--state-json", str(state_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["marginals", "reconstruct"])
    def test_unnormalized_state_json_is_two(self, tmp_path, capsys, command):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"delta": 0.0, "n_min": 0, "coeffs": [[2.0, 0.0], [1.0, 0.0]]}))
        out = tmp_path / "out.json"
        assert run_cli("--command", command, "--state-json", str(state_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "norm^2 5" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["marginals", "reconstruct"])
    @pytest.mark.parametrize(
        "payload, reason",
        [
            ({"delta": 0.0, "n_min": 0, "coeffs": [1, 0]}, "'coeffs'"),
            ({"delta": 0.0, "n_min": 0, "coeffs": [["a", "b"]]}, "'coeffs'"),
            ({"delta": 0.0, "n_min": 0, "entries": [[1, 0]]}, "'entries'"),
            ({"delta": None, "n_min": 0, "coeffs": [[1, 0]]}, "'delta'"),
            ({"delta": 0.0, "n_min": None, "coeffs": [[1, 0]]}, "'n_min'"),
            ({"delta": 0.0, "n_min": 2.5, "coeffs": [[1, 0]]}, "'n_min' is missing or not an integer"),
            ({"n_min": 0, "coeffs": [[1, 0]]}, "'delta'"),
            ({"delta": 0.0, "entries": [[[1, 0]]]}, "'n_min'"),
            (5, "object"),
            ({"delta": 0.0, "n_min": 0, "weights": [math.nan, 1.0]}, "weights must be finite"),
            ({"delta": 0.0, "n_min": 0, "weights": [[0.5], [0.5]]}, "'weights' must be a 1-D array of numbers"),
            ({"delta": 0.0, "n_min": 0, "weights": [[1.0, 0.0]]}, "'weights' must be a 1-D array of numbers"),
            ({"delta": 0.0, "n_min": 0, "weights": []}, "weights must be a non-empty 1-D array"),
            ({"delta": 0.0, "weights": [1.0]}, "'n_min'"),
            ({"delta": 0.0, "n_min": 0, "coeffs": [[1, 0]], "weights": [1.0]}, "found ['coeffs', 'weights']"),
            ({"delta": 0.0, "n_min": 0}, "found []"),
        ],
        ids=["flat-coeffs", "text-coeffs", "flat-entries", "null-delta", "null-n_min",
             "fractional-n_min", "missing-delta", "missing-n_min", "number",
             "nan-weights", "2d-weights", "pair-weights", "empty-weights", "weights-missing-n_min",
             "coeffs-and-weights", "no-payload"],
    )
    def test_malformed_state_json_is_two(self, tmp_path, capsys, command, payload, reason):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        assert run_cli("--command", command, "--state-json", str(state_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [{"weights": [1 / 4097] * 4097}, {"coeffs": [[4097**-0.5, 0.0]] * 4097}],
        ids=["weights", "coeffs"],
    )
    def test_oversized_weights_payload_is_refused_before_sampling(self, payload, tmp_path, capsys, traced):
        # K = 4097 weights or coefficients load and validate in O(K); their
        # dense reconstruction (a 268 MB result) is refused before the grid
        # is sampled, and a pure state's before its dense projector is built
        state_path = tmp_path / "rho.json"
        state_path.write_text(json.dumps({"delta": 0.0, "n_min": -2048, **payload}))
        out = tmp_path / "out.json"
        code, peak = traced(run_cli, "--command", "reconstruct", "--state-json", str(state_path), "--out", str(out))
        assert code == 2 and peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error: reconstruction window K=4097") and err.count("\n") == 1
        assert not out.exists()


class TestOutputSinks:
    @pytest.mark.parametrize(
        "args",
        [
            ("--command", "fig1", "--m", "2", "--hbar", "0.5"),
            ("--command", "fig2", "--alpha", "0.3", "--theta-list=-1.0,0.5"),
            ("--command", "fig3", "--s", "2.0", "--pe", "0.4"),
            ("--command", "thermal", "--eps-beta", "0.1", "--theta-list=0,1"),
            ("--command", "marginals", "--state", "vonmises", "--s", "1.5", "--theta-steps", "9"),
            ("--command", "reconstruct", "--state", "cat", "--alpha", "0.3"),
        ],
        ids=["fig1", "fig2", "fig3", "thermal", "marginals", "reconstruct"],
    )
    def test_stdout_equals_out_file(self, args, tmp_path, capsys):
        args = args + ("--p-steps", "41")
        out = tmp_path / "output"
        assert run_cli(*args, "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert run_cli(*args) == 0
        assert capsys.readouterr().out.encode("ascii") == out.read_bytes()

    def test_piped_stdout_equals_out_file(self, tmp_path):
        # run_module's stdout is a pipe, which can neither tell nor seek
        out = tmp_path / "fig2.csv"
        assert run_cli("--command", "fig2", "--out", str(out)) == 0
        done = run_module("-m", "cylwigner", "--command", "fig2")
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == out.read_bytes()

    def test_failed_export_leaves_no_file(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run_cli("--command", "fig3", "--s", "400", "--out", str(out)) == 2
        assert not out.exists()


# subnormal and the largest magnitudes, besides any other finite double
_EXACT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_ARRAYS = hnp.arrays(np.float64, _SHAPES, elements=_EXACT_FLOATS) | hnp.arrays(
    np.complex128, _SHAPES, elements=st.builds(complex, _EXACT_FLOATS, _EXACT_FLOATS)
)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | _EXACT_FLOATS | st.text(max_size=4) | _ARRAYS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=10,
)


def _listed(obj):
    """``obj`` with its arrays as nested lists, complex entries as [re, im]."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return np.stack([obj.real, obj.imag], axis=-1).tolist()
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _listed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_listed(value) for value in obj]
    return obj


def _written(payload) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_json(payload, None)
    return buf.getvalue()


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _mixed_state_path(tmp_path):
    # a 60/40 mixture of a von Mises state and its copy turned in angle
    vm = von_mises_state(0.8, 0.0)
    turned = vm.coeffs * np.exp(0.7j * np.arange(vm.coeffs.size))
    entries = 0.6 * np.outer(vm.coeffs, vm.coeffs.conj()) + 0.4 * np.outer(turned, turned.conj())
    path = tmp_path / "mixed.json"
    pairs = np.stack([entries.real, entries.imag], axis=-1).tolist()
    path.write_text(json.dumps({"delta": 0.0, "n_min": vm.n_min, "entries": pairs}))
    return path


class TestJsonWriter:
    """The streamed JSON is the text of ``json.dumps(indent=2,
    sort_keys=True)`` of the payload's list form, to the byte."""

    @settings(max_examples=200, deadline=None)
    @given(_PAYLOADS)
    @example(
        {
            "\u00e9t\u00e9": [1, 2.5, True, None, []],
            "\u03c0": {"z": (), "a": {}},
            "pairs": np.array([[complex(-0.0, 5e-324)], [complex(1e308, -1e308)]]),
            "cube": np.arange(24.0).reshape(2, 3, 4) - 11.5,
        }
    )
    def test_bytes_match_json_dumps(self, payload):
        want = json.dumps(_listed(payload), indent=2, sort_keys=True) + "\n"
        # a plain bool: pytest's diff of two long texts is slow per example
        assert (_written(payload) == want) is True

    @pytest.mark.parametrize(
        "array, message",
        [
            (np.array([0.5, np.nan]), "non-finite"),
            (np.array([[1.0 + 0.0j, complex(0.0, -np.inf)]]), "non-finite"),
            (np.arange(3), "dtype int64"),
            (np.array([True, False]), "dtype bool"),
        ],
        ids=["nan", "complex-inf", "int", "bool"],
    )
    def test_unwritable_array_is_refused_by_field(self, array, message, capsys):
        with pytest.raises(ValueError, match=rf"'outer\.inner\[1\]' .*{message}"):
            _write_json({"outer": {"inner": [np.zeros(2), array]}}, None)
        assert capsys.readouterr().out == ""

    def test_failed_json_command_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_marginals", lambda cfg: {"value": np.array([np.inf])})
        out = tmp_path / "marg.json"
        assert run_cli("--command", "marginals", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("--command", "marginals", "--state", "basis", "--m", "2", "--delta", "0.25"),
            ("--command", "marginals", "--state", "cat", "--alpha", "0.3"),
            ("--command", "marginals", "--state", "vonmises", "--s", "1.5", "--pe", "0.4"),
            ("--command", "marginals", "--state", "thermal", "--eps-beta", "0.5"),
            ("--command", "reconstruct", "--state", "vonmises", "--s", "0.8"),
            ("--command", "reconstruct", "--state", "thermal", "--eps-beta", "1.0"),
            ("--command", "verify"),
        ],
        ids=["marg-basis", "marg-cat", "marg-vonmises", "marg-thermal", "rec-vonmises", "rec-thermal", "verify"],
    )
    def test_command_output_is_canonical(self, args, tmp_path):
        out = tmp_path / "out.json"
        assert run_cli(*args, "--out", str(out)) == 0
        text = out.read_text(encoding="ascii")
        assert text == _canonical(text)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_reconstruct_state_json_output_is_canonical(self, kind, tmp_path):
        if kind == "pure":
            path = tmp_path / "pure.json"
            path.write_text(json.dumps(von_mises_state(0.8, 1.3).to_dict()))
        else:
            path = _mixed_state_path(tmp_path)
        out = tmp_path / "out.json"
        assert run_cli("--command", "reconstruct", "--state-json", str(path), "--out", str(out)) == 0
        text = out.read_text(encoding="ascii")
        assert text == _canonical(text)
        assert json.loads(text)["max_abs_error"] <= 1e-8

    def test_writer_memory_is_one_row(self, tmp_path, traced):
        # K = 301: the list form and the text of the echoed matrix each take
        # several MB; the writer holds one row of text at a time
        K = 301
        coeffs = np.exp(1j * np.linspace(0.0, 3.0, K)) * np.linspace(1.0, 2.0, K)
        state = FourierState(delta=0.25, n_min=-150, coeffs=coeffs / np.linalg.norm(coeffs))
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(pure_density(state).to_dict()))
        payload = _cmd_marginals(RunConfig(command="marginals", state_json=str(path)))
        out = tmp_path / "marg.json"
        _, peak = traced(_write_json, payload, str(out))
        assert out.stat().st_size > 4 * 2**20
        assert peak < 2**20


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        # the thermal row at K = 11501 is summed in several slices
        for args in (
            ("--command", "fig2", "--p-min", "-3", "--p-max", "3", "--p-steps", "61"),
            ("--command", "thermal", "--eps-beta", "1e-6"),
        ):
            assert run_cli(*args, "--out", str(a)) == 0
            assert run_cli(*args, "--out", str(b)) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_verify_report_deterministic(self, tmp_path):
        a, b = tmp_path / "v1.json", tmp_path / "v2.json"
        assert run_cli("--command", "verify", "--out", str(a)) == 0
        assert run_cli("--command", "verify", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
