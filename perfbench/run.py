"""Benchmark of cylwigner: one workload per process, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload phase_grid --seed 1 --seconds 20 --trace 0

Workloads are ``phase_grid``, ``figure_export`` and ``tomography`` (see
``workloads.py`` and README.md).  A run

1. times ``COLD_STARTS`` fresh interpreters that import cylwigner from
   ``src/`` and make one small call of the workload (``setup_s``);
2. imports cylwigner in this process and plays one operation of every
   kind untimed, as warm-up;
3. plays whole rounds of seeded operations until ``--seconds`` have
   passed and at least the workload's ``min_rounds`` are done, timing
   each call into the program and checking its output outside the timed
   interval;
4. prints, as its last line, ``{"correct", "attempted", "failed",
   "metrics"}`` with the end-to-end metrics (``--trace 0``) or the
   per-layer metrics (``--trace 1``).

Times are CPU seconds of the measuring process (``time.process_time``)
at a nominal machine speed.  The program is single-threaded once BLAS
is held to one thread, and on a shared machine wall time also counts the
time the process waits to be scheduled.  CPU time itself moved by up to
1.8x between stretches of a few tens of seconds, as other tenants loaded
the machine, so the run times a fixed reference task of the workload's
kind that does not touch the program (``reference.py``), at the start of
every round and after every ``REFERENCE_EVERY_S`` of operations, and
scales each operation time by the nominal over the median reference
time of its round.  The detail
line keeps the unscaled figures.  ``ops_per_s`` is completed
operations over their summed time; the latencies are percentiles of the
single operation times.
"""

import os
import sys

# fixed before numpy is first imported, here and in every cold start
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
WORKLOADS = ("phase_grid", "figure_export", "tomography")
COLD_STARTS = 7
# a reference run after every this many CPU seconds of operations, so a
# round's speed is the median of several samples spread over the round
REFERENCE_EVERY_S = 0.15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one round (two traced), one cold start")
    parser.add_argument(
        "--inject-error",
        type=float,
        default=0.0,
        metavar="REL",
        help="negative control: move one output value of the first timed operation by REL of itself",
    )
    return parser.parse_args(argv)


def cold_start_seconds(code, starts):
    """Median CPU seconds from interpreter start to the end of ``code``, at
    the nominal speed.

    Each start then times the interpreter reference task, so its own time
    is scaled by the machine speed of that moment.  One extra start goes
    first and is not counted: it writes the bytecode caches that every
    later start of a checkout finds.  Returns (scaled, unscaled) medians."""
    child = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); {code}; t = time.process_time(); "
        f"sys.path.insert(0, {str(HERE)!r}); import reference; "
        "r = reference.ReferenceTask('interpreter'); print(t, r.scale(r.seconds(5)))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    raw, scaled = [], []
    for _ in range(starts + 1):
        done = subprocess.run(
            [sys.executable, "-c", child], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{done.stderr}")
        seconds, factor = (float(v) for v in done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * factor)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def play(op, inject=0.0):
    """Run one operation; return (CPU seconds, failure messages)."""
    op.prepare()
    start = time.process_time()
    try:
        raw = op.run()
    except Exception as exc:  # a failed operation is counted, and the run goes on
        return time.process_time() - start, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.process_time() - start
    try:
        values = op.output(raw)
        if inject:
            values = op.perturb(values, inject)
        return elapsed, op.verify(values)
    except Exception as exc:
        return elapsed, [f"unreadable output: {type(exc).__name__}: {exc}"]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cylwigner" / "__init__.py").is_file():
        print(f"error: no cylwigner sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cylwigner
    import reference
    import tracing
    import workloads

    if Path(cylwigner.__file__).resolve().parent != (SRC / "cylwigner").resolve():
        print(f"error: cylwigner imported from {cylwigner.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, WORKDIR)
    workload.setup_prepare()
    setup_s, setup_raw = cold_start_seconds(workload.setup_code, 1 if args.quick else COLD_STARTS)
    speed = reference.ReferenceTask(workload.reference)

    for op in workload.warmup_ops(np.random.default_rng((args.seed, 0))):
        _, fails = play(op)
        if fails:
            print(f"warm-up {op.kind}: {'; '.join(fails)}", file=sys.stderr)

    tracer = tracing.Tracer() if args.trace else None
    min_rounds = (2 if args.trace else 1) if args.quick else workload.min_rounds
    latencies = []  # (round, unscaled CPU seconds) of every completed operation
    round_times = {False: [], True: []}  # keyed by "this round was traced"
    attempted = failed = wrong = traced_ops = 0
    wall_start = time.perf_counter()
    rounds = 0
    scale = []  # nominal-speed factor of each round
    while rounds < min_rounds or (not args.quick and time.perf_counter() - wall_start < args.seconds):
        traced = tracer is not None and rounds % 2 == 1
        ops = workload.round_ops(np.random.default_rng((args.seed, rounds + 1)))
        if traced:
            tracer.install()
        round_time = since_reference = 0.0
        references = [speed.seconds(1)]
        for op in ops:
            inject = args.inject_error if attempted == 0 else 0.0
            elapsed, fails = play(op, inject)
            attempted += 1
            round_time += elapsed
            since_reference += elapsed
            if since_reference >= REFERENCE_EVERY_S:
                references.append(speed.seconds(1))
                since_reference = 0.0
            if fails:
                failed += 1
                wrong += not fails[0].startswith("raised")
                print(f"round {rounds} {op.kind}: {'; '.join(fails)}", file=sys.stderr)
            elif not traced:
                latencies.append((rounds, elapsed))
        if traced:
            tracer.uninstall()
            traced_ops += len(ops)
        round_times[traced].append(round_time)
        scale.append(speed.scale(statistics.median(references)))
        rounds += 1

    scaled = [t * scale[r] for r, t in latencies]
    raw = [t for _, t in latencies]

    ops_per_round = attempted // rounds
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": ops_per_round,
        "samples": len(latencies),
        "tail_percentile": workload.tail_percentile,
        "round_s": [round(t, 4) for t in round_times[False]],
        "speed": [round(f, 4) for f in scale],
        "unscaled": {
            "setup_s": setup_raw,
            "ops_per_s": len(raw) / sum(raw),
            "latency_p50_s": float(np.percentile(raw, 50.0)),
            "latency_tail_s": float(np.percentile(raw, workload.tail_percentile)),
        },
        "wall_s": round(time.perf_counter() - wall_start, 3),
    }
    if tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "latency_p50_s": {"value": float(np.percentile(scaled, 50.0)), "unit": "s"},
            "latency_tail_s": {
                "value": float(np.percentile(scaled, workload.tail_percentile)),
                "unit": "s",
            },
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    else:
        traced_speed = statistics.median(scale[1::2])
        metrics = tracer.layer_metrics(traced_ops)
        for metric in metrics.values():
            if metric["unit"] == "s/op":
                metric["value"] *= traced_speed
        # rounds alternate untraced (even) and traced (odd); compare them at nominal speed
        untraced = [t * f for t, f in zip(round_times[False], scale[0::2])]
        traced_times = [t * f for t, f in zip(round_times[True], scale[1::2])]
        overhead = statistics.median(traced_times) / statistics.median(untraced) - 1.0
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        metrics["trace.absent_targets"] = {"value": len(tracer.absent), "unit": "count"}
        trace_path = WORKDIR / f"trace_{args.workload}_{args.seed}.json"
        tracer.dump(trace_path)
        detail.update(absent=tracer.absent, trace_file=str(trace_path.relative_to(ROOT)))
    print(json.dumps(detail))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
