"""Spans and counts around the program's layers, recorded from outside.

The program has no spans of its own, so the traced run replaces each
public function listed in ``TARGETS`` with a wrapper at the name its
callers bind (``cylwigner.cli.wigner_density`` is the name the CLI's
sampler calls, ``cylwigner.wigner.phase_space_sum_grid`` the name the
grid functions call).  A wrapper records a span (name, start, end, parent)
and per-call counts.  Spans stay in memory; ``Tracer.dump`` writes them
out once the run has ended, and self time is derived from them: a span's
duration minus the durations of its direct children.

Times are process CPU seconds; ``run.py`` scales the per-operation times
to the nominal machine speed, as it does every other time.  A target that
the program no longer has is listed as absent and reads 0.
"""

import importlib
import json
import os
import time

import numpy as np


def _grid_counts(args, kwargs):
    A, _n_min, _delta, thetas, ps = args[:5]
    A = np.asarray(A)
    return {
        "points": np.size(thetas) * np.size(ps),
        "window_entries": A.size,
        "nonzero_entries": int(np.count_nonzero(A)),
    }


def _elements(args, kwargs):
    return {"elements": int(np.size(args[0]))}


def _counting(V, counter):
    """The reconstruction sampler, counting its calls into ``counter[0]``."""

    def counted(point):
        counter[0] += 1
        return V(point)

    return counted


def _density_bytes(result, args):
    return {"bytes": int(result.entries.nbytes)}


def _written_bytes(result, args):
    sink = args[1]
    return {"bytes": sink.tell() if hasattr(sink, "tell") else os.path.getsize(sink)}


# (module, attribute, layer name, counts from the arguments, counts after the call)
TARGETS = [
    ("cylwigner.cli", "main", "cli.main", None, None),
    ("cylwigner", "wigner_grid", "wigner.wigner_grid", None, None),
    ("cylwigner.cli", "wigner_grid", "wigner.wigner_grid", None, None),
    ("cylwigner", "moyal_grid", "wigner.moyal_grid", None, None),
    ("cylwigner.wigner", "phase_space_sum_grid", "_kernels.phase_space_sum_grid", _grid_counts, None),
    ("cylwigner._kernels", "sinc_pi_array", "_kernels.sinc_pi_array", _elements, None),
    ("cylwigner.wigner", "sinc_pi_array", "_kernels.sinc_pi_array", _elements, None),
    ("cylwigner.thermal", "sinc_pi_array", "_kernels.sinc_pi_array", _elements, None),
    ("cylwigner.wigner", "phase_space_sum_point", "_kernels.phase_space_sum_point", None, None),
    ("cylwigner.dynamics", "phase_space_sum_point", "_kernels.phase_space_sum_point", None, None),
    ("cylwigner.cli", "wigner_density", "wigner.wigner_density", None, None),
    ("cylwigner.cli", "reconstruct_density", "wigner.reconstruct_density", None, None),
    ("cylwigner.cli", "write_grid_csv", "wigner.write_grid_csv", None, _written_bytes),
    ("cylwigner", "von_mises_state", "states.von_mises_state", None, None),
    ("cylwigner.cli", "von_mises_state", "states.von_mises_state", None, None),
    ("cylwigner.states", "bessel_i", "specfun.bessel_i", None, None),
    ("cylwigner.cli", "bessel_i", "specfun.bessel_i", None, None),
    ("cylwigner", "evolve_state", "dynamics.evolve_state", None, None),
    ("cylwigner", "thermal_density", "thermal.thermal_density", None, _density_bytes),
    ("cylwigner.cli", "thermal_density", "thermal.thermal_density", None, _density_bytes),
]

# (module, class, method, layer name); classmethods and plain methods
METHOD_TARGETS = [
    ("cylwigner.states", "FourierState", "from_dict", "states.from_dict"),
    ("cylwigner.states", "DensityMatrix", "from_dict", "states.from_dict"),
    ("cylwigner.states", "FourierState", "to_dict", "states.to_dict"),
    ("cylwigner.states", "DensityMatrix", "to_dict", "states.to_dict"),
]

# (metric, unit, layer, kind): kind "calls", "self", "total" or a count key.
# Metric names must start with a letter, so the _kernels layer reports as kernels.
LAYER_METRICS = [
    ("kernels.phase_space_sum_grid.calls", "1/op", "_kernels.phase_space_sum_grid", "calls"),
    ("kernels.phase_space_sum_grid.self_s", "s/op", "_kernels.phase_space_sum_grid", "self"),
    ("kernels.phase_space_sum_grid.points", "1/op", "_kernels.phase_space_sum_grid", "points"),
    ("kernels.phase_space_sum_grid.window_entries", "1/op", "_kernels.phase_space_sum_grid", "window_entries"),
    ("kernels.sinc_pi_array.calls", "1/op", "_kernels.sinc_pi_array", "calls"),
    ("kernels.sinc_pi_array.s", "s/op", "_kernels.sinc_pi_array", "total"),
    ("kernels.sinc_pi_array.elements", "1/op", "_kernels.sinc_pi_array", "elements"),
    ("kernels.phase_space_sum_point.calls", "1/op", "_kernels.phase_space_sum_point", "calls"),
    ("kernels.phase_space_sum_point.self_s", "s/op", "_kernels.phase_space_sum_point", "self"),
    ("wigner.wigner_density.calls", "1/op", "wigner.wigner_density", "calls"),
    ("wigner.wigner_density.self_s", "s/op", "wigner.wigner_density", "self"),
    ("wigner.reconstruct_density.calls", "1/op", "wigner.reconstruct_density", "calls"),
    ("wigner.reconstruct_density.self_s", "s/op", "wigner.reconstruct_density", "self"),
    ("wigner.reconstruct_density.sampler_calls", "1/op", "wigner.reconstruct_density", "sampler_calls"),
    ("wigner.write_grid_csv.calls", "1/op", "wigner.write_grid_csv", "calls"),
    ("wigner.write_grid_csv.s", "s/op", "wigner.write_grid_csv", "total"),
    ("wigner.write_grid_csv.bytes", "B/op", "wigner.write_grid_csv", "bytes"),
    ("wigner.wigner_grid.self_s", "s/op", "wigner.wigner_grid", "self"),
    ("wigner.moyal_grid.self_s", "s/op", "wigner.moyal_grid", "self"),
    ("states.von_mises_state.s", "s/op", "states.von_mises_state", "total"),
    ("specfun.bessel_i.calls", "1/op", "specfun.bessel_i", "calls"),
    ("specfun.bessel_i.s", "s/op", "specfun.bessel_i", "total"),
    ("dynamics.evolve_state.s", "s/op", "dynamics.evolve_state", "total"),
    ("thermal.thermal_density.s", "s/op", "thermal.thermal_density", "total"),
    ("thermal.thermal_density.bytes", "B/op", "thermal.thermal_density", "bytes"),
    ("states.from_dict.s", "s/op", "states.from_dict", "total"),
    ("states.to_dict.s", "s/op", "states.to_dict", "total"),
    ("cli.main.self_s", "s/op", "cli.main", "self"),
]


class Tracer:
    """Records spans between ``install`` and ``uninstall``."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.names = []
        self.name_ids = {}
        self.spans = []  # [name id, start, end, parent span index or -1]
        self.stack = []
        self.counts = {}  # layer -> {key: total}
        self.absent = []
        self._restore = []

    def _name_id(self, layer):
        if layer not in self.name_ids:
            self.name_ids[layer] = len(self.names)
            self.names.append(layer)
            self.counts[layer] = {"calls": 0}
        return self.name_ids[layer]

    def _count(self, layer, extra):
        bucket = self.counts[layer]
        bucket["calls"] += 1
        for key, value in extra.items():
            bucket[key] = bucket.get(key, 0) + value

    def _wrap(self, fn, layer, arg_counts=None, result_counts=None):
        name_id = self._name_id(layer)
        tracer = self

        def traced(*args, **kwargs):
            extra = arg_counts(args, kwargs) if arg_counts else {}
            sampled = None
            if layer == "wigner.reconstruct_density":
                sampled = [0]
                args = (_counting(args[0], sampled),) + tuple(args[1:])
            index = len(tracer.spans)
            span = [name_id, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer.stack.pop()
            if result_counts:
                extra.update(result_counts(result, args))
            if sampled is not None:
                extra["sampler_calls"] = sampled[0]
            tracer._count(layer, extra)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target the program has; note the ones it lacks."""
        for module_name, attr, layer, arg_counts, result_counts in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self._note_absent(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer, arg_counts, result_counts))
            self._restore.append((module, attr, fn))
        for module_name, cls_name, method, layer in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if raw is None:
                self._note_absent(f"{module_name}.{cls_name}.{method}")
                continue
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(raw.__func__, layer)))
            else:
                setattr(cls, method, self._wrap(raw, layer))
            self._restore.append((cls, method, raw))

    def _note_absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def layer_times(self):
        """Total and self seconds per layer, derived from the spans."""
        n = len(self.spans)
        durations = np.empty(n)
        parents = np.empty(n, dtype=np.int64)
        names = np.empty(n, dtype=np.int64)
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            durations[i] = end - start
            parents[i] = parent
            names[i] = name_id
        child_time = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        total = np.zeros(len(self.names))
        self_time = np.zeros(len(self.names))
        np.add.at(total, names, durations)
        np.add.at(self_time, names, durations - child_time)
        return {
            layer: {"total": float(total[i]), "self": float(self_time[i])}
            for i, layer in enumerate(self.names)
        }

    def layer_metrics(self, ops):
        """Every metric of ``LAYER_METRICS`` per traced operation."""
        times = self.layer_times()
        counts = self.counts
        out = {}
        for metric, unit, layer, kind in LAYER_METRICS:
            if kind in ("self", "total"):
                value = times.get(layer, {}).get(kind, 0.0)
            else:
                value = counts.get(layer, {}).get(kind, 0)
            out[metric] = {"value": value / ops, "unit": unit}
        grid = counts.get("_kernels.phase_space_sum_grid", {})
        entries = grid.get("window_entries", 0)
        share = grid.get("nonzero_entries", 0) / entries if entries else 0.0
        out["kernels.phase_space_sum_grid.nonzero_share"] = {"value": share, "unit": "ratio"}
        return out

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counts": self.counts,
                    "absent": self.absent,
                },
                fh,
            )
