"""Command-line interface: figure data, marginals, reconstruction,
verification report, exit codes, and output determinism."""

import json
import math

import numpy as np
import pytest

from cylwigner.cli import RunConfig, main
from cylwigner.specfun import bessel_i, sinc_pi


def run_cli(*args):
    return main(list(args))


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

    def test_overflowing_parameter_is_two(self, capsys):
        assert run_cli("--command", "fig3", "--s", "400") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oversized_thermal_window_is_two(self, tmp_path, capsys):
        out = tmp_path / "thermal.csv"
        assert run_cli("--command", "thermal", "--eps-beta", "1e-6", "--out", str(out)) == 2
        assert "K=11501" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["marginals", "reconstruct"])
    @pytest.mark.parametrize(
        "entries, reason",
        [
            ([[[0.5, 0.0], [0.5, 0.0]], [[0.1, 0.0], [0.5, 0.0]]], "not Hermitian"),
            ([[[2.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.5, 0.0]]], "differs from 1"),
        ],
    )
    def test_invalid_density_matrix_json_is_two(self, tmp_path, capsys, command, entries, reason):
        state_path = tmp_path / "rho.json"
        state_path.write_text(json.dumps({"delta": 0.0, "n_min": 0, "entries": entries}))
        out = tmp_path / "out.json"
        assert run_cli("--command", command, "--state-json", str(state_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
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


class TestOutputSinks:
    @pytest.mark.parametrize(
        "args",
        [
            ("--command", "fig1", "--m", "2", "--hbar", "0.5"),
            ("--command", "fig2", "--alpha", "0.3", "--theta-list=-1.0,0.5"),
            ("--command", "fig3", "--s", "2.0", "--pe", "0.4"),
            ("--command", "thermal", "--eps-beta", "0.1", "--theta-list=0,1"),
        ],
        ids=["fig1", "fig2", "fig3", "thermal"],
    )
    def test_stdout_equals_out_file(self, args, tmp_path, capsys):
        args = args + ("--p-steps", "41")
        out = tmp_path / "grid.csv"
        assert run_cli(*args, "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert run_cli(*args) == 0
        assert capsys.readouterr().out.encode("ascii") == out.read_bytes()

    def test_failed_export_leaves_no_file(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run_cli("--command", "fig3", "--s", "400", "--out", str(out)) == 2
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = (
            "--command", "fig2", "--p-min", "-3", "--p-max", "3", "--p-steps", "61",
        )
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_report_deterministic(self, tmp_path):
        a, b = tmp_path / "v1.json", tmp_path / "v2.json"
        assert run_cli("--command", "verify", "--out", str(a)) == 0
        assert run_cli("--command", "verify", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
