"""Tests of the benchmark itself: quick runs, the negative control, tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_reports_every_end_to_end_metric(workload):
    out = result(run("--workload", workload, "--trace", "0", "--quick"))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_quick_run_reports_every_layer_metric(workload):
    out = result(run("--workload", workload, "--trace", "1", "--quick"))
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert out["metrics"]["trace.absent_targets"]["value"] == 0


# Tomography is held to the program's own round-trip tolerance of 1e-8,
# which a 1e-9 relative change of an entry of modulus <= 1 cannot cross.
@pytest.mark.parametrize(
    "workload, rel", [("phase_grid", 1e-9), ("figure_export", 1e-9), ("tomography", 1e-7)]
)
def test_perturbed_output_counts_as_failed(workload, rel):
    out = result(run("--workload", workload, "--trace", "0", "--quick", "--inject-error", repr(rel)))
    assert out["failed"] == 1
    assert out["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run("--workload", "phase_grid", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + [("cylwigner.wigner", "no_such_layer", "wigner.gone", None, None)]
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cylwigner.wigner.no_such_layer"]


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer._wrap(lambda: inner(), "outer")
    inner = tracer._wrap(lambda: None, "inner")
    outer()  # outer spans ticks 0..3, inner 1..2
    times = tracer.layer_times()
    assert times["outer"] == {"total": 3.0, "self": 2.0}
    assert times["inner"] == {"total": 1.0, "self": 1.0}
