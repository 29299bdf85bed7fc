"""Reference tasks: fixed work, apart from the program, to gauge machine speed.

CPU time on a shared machine moves with the load of other tenants, and not
by the same factor for every kind of code: a clock change slows everything,
cache pressure slows string formatting more than a BLAS call.  So each
workload gauges the machine with a task of the same kind as its own main
layer, written here with numpy and plain Python only:

* ``grid``: a sinc table, a Python loop of small matrix-vector products and
  a complex matrix product, on arrays the size of a K = 81 grid;
* ``csv``: ``%.17g`` formatting and joining of 3,000 rows of three floats;
* ``interpreter``: many small numpy calls on 1- to 17-element arrays and
  small frozen dataclasses, the pattern of pointwise sampling and of
  interpreter start-up.

``NOMINAL_S`` holds the CPU seconds each task took on the machine in
README.md at a typical moment; a run scales its times by
``NOMINAL_S / measured``.  Only the ratio matters, so the constants never
need to change; they only keep the scaled figures near the raw ones.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = {"grid": 0.009, "csv": 0.008, "interpreter": 0.007}


def _grid_inputs():
    K, n_t, n_p = 81, 181, 401
    ps = np.linspace(-5.0, 5.0, n_p)
    mu = 0.0125 + 0.5 * np.arange(2 * K - 1)  # halfway between p samples: no 0/0
    thetas = np.linspace(-np.pi, np.pi, n_t)
    weights = np.random.default_rng(0).normal(size=(K, K))
    return K, ps, mu, thetas, weights


def _grid(K, ps, mu, thetas, weights):
    x = np.pi * (ps[None, :] - mu[:, None])
    table = np.sin(x) / x
    rows = np.empty((2 * K - 1, ps.size))
    for d in range(2 * K - 1):
        k = min(d, K - 1)
        rows[d] = weights[k, : k + 1] @ table[d - k : d + 1]
    phases = np.exp(1j * np.outer(thetas, np.arange(2 * K - 1)))
    return (phases @ rows).real


def _csv_inputs():
    return (np.random.default_rng(0).normal(size=(3000, 3)).tolist(),)


def _csv(rows):
    return "\n".join(f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in rows)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _interpreter_inputs():
    return np.arange(-8.0, 9.0) + 0.3, np.random.default_rng(0).normal(size=17)


def _interpreter(offsets, weights):
    total = 0.0
    for i in range(500):
        pt = _Point(0.01 * i, 0.02 * i + 0.001)  # never an integer away from an offset
        x = np.atleast_1d(np.asarray(pt.y - offsets, dtype=np.float64))
        r = np.rint(x)
        sinc = np.where(x == r, 1.0, np.sin(np.pi * x) / (np.pi * x))
        phase = np.exp(1j * np.outer([pt.x], offsets))
        total += float((phase @ (weights * sinc)).real[0])
    return total


_TASKS = {
    "grid": (_grid, _grid_inputs),
    "csv": (_csv, _csv_inputs),
    "interpreter": (_interpreter, _interpreter_inputs),
}


class ReferenceTask:
    """One of the tasks above, with its inputs made once."""

    def __init__(self, kind):
        self.kind = kind
        self._fn, make_inputs = _TASKS[kind]
        self._args = make_inputs()
        self._fn(*self._args)  # first calls pay one-time costs; keep them out

    def seconds(self, reps=3):
        """Median CPU seconds of ``reps`` runs of the task."""
        times = []
        for _ in range(reps):
            start = time.process_time()
            self._fn(*self._args)
            times.append(time.process_time() - start)
        return statistics.median(times)

    def scale(self, measured):
        """Factor that turns CPU seconds into seconds at the nominal speed,
        given the task's ``measured`` CPU seconds."""
        return NOMINAL_S[self.kind] / measured
