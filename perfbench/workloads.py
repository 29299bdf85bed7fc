"""The three workloads: seeded operations, each with its own oracle check.

An operation has four steps.  ``prepare`` makes its input files and is
not timed; ``run`` is the timed call into the program; ``output`` reads
what the program produced into one array, and ``verify`` compares that
array with values from ``oracles`` and returns the failures it found.

Every round of a workload holds the same kinds of operation in the same
numbers, so the work of a round does not depend on the seed, and every
run plays whole rounds.  The program is reached only through
``cylwigner.cli.main`` and the library calls ``wigner_grid``,
``moyal_grid``, ``von_mises_state``, ``evolve_state`` and
``thermal_density`` (with the state classes that carry their inputs),
looked up at call time so that the tracer's wrappers see every call.
"""

import json
from math import pi

import numpy as np

import cylwigner as cw
from cylwigner import cli

import oracles

THETAS = np.linspace(-pi, pi, 181)
PS = np.linspace(-5.0, 5.0, 401)
THETA_LIST = ",".join(repr(float(t)) for t in THETAS)
INV_PI = 1.0 / pi

# Tolerances.  Today's code meets each oracle to about 1e-15; a value
# moved by 1e-9 of itself moves the angle integral by more than 1e-12.
GRID_ATOL = 1e-13
CSV_RTOL = 1e-11
TOMOGRAPHY_ATOL = 1e-8  # the program's own reconstruction_round_trip tolerance


def _random_coeffs(rng, K):
    c = rng.normal(size=K) + 1j * rng.normal(size=K)
    return c / np.linalg.norm(c)


def _random_delta(rng):
    return float(rng.uniform(0.0, 1.0))


def _random_mixture(rng, K):
    """``sum_i w_i c_i c_i^dagger`` of 2-3 random states, Dirichlet weights."""
    n = int(rng.integers(2, 4))
    weights = rng.dirichlet(np.ones(n))
    return sum(w * np.outer(c, c.conj()) for w, c in zip(weights, (_random_coeffs(rng, K) for _ in range(n))))


def _close(name, got, ref, atol, rtol=0.0):
    err = np.abs(np.asarray(got) - np.asarray(ref))
    limit = atol + rtol * np.abs(ref)
    if got.shape != ref.shape or not np.all(err <= limit):
        worst = float(np.max(err)) if got.shape == ref.shape else float("nan")
        return [f"{name}: max error {worst:.3e}"]
    return []


class Op:
    """One operation; subclasses set ``kind`` and fill in the four steps."""

    kind = ""

    def prepare(self):
        pass

    def run(self):
        raise NotImplementedError

    def output(self, raw):
        raise NotImplementedError

    def verify(self, values):
        raise NotImplementedError

    def perturb(self, values, rel):
        """Negative control: move the largest output value by ``rel`` of itself."""
        values = values.copy()
        k = np.argmax(np.abs(values))
        values.flat[k] *= 1.0 + rel
        return values


class Workload:
    """A workload: its rounds, warm-up, cold-start call, tail percentile and
    the kind of ``reference.ReferenceTask`` that gauges the machine for it."""

    def setup_prepare(self):
        """Write what the cold-start call reads (run before the starts are timed)."""

    def round_ops(self, rng):
        ops = self.make_round(rng)
        return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- phase_grid


class GridOp(Op):
    """A library grid on the 181 x 401 axes.

    ``window`` returns the ``oracles.Window`` of the grid, built by the
    benchmark from its own inputs or from the coefficients the program
    returned, so the grid is checked against that window.
    """

    bounded = True  # |W| <= 1/pi holds for states and their mixtures

    def __init__(self, rng):
        self.points = (rng.integers(0, THETAS.size, 3), rng.integers(0, PS.size, 3))

    def output(self, raw):
        return np.array(raw.values)

    def verify(self, values):
        if values.shape != (THETAS.size, PS.size):
            return [f"grid shape {values.shape}"]
        window = self.window()
        fails = _close(
            "angle integral",
            oracles.periodic_trapezoid(values, THETAS),
            window.theta_integral(PS),
            GRID_ATOL,
        )
        i, j = self.points
        fails += _close("brute-force points", values[i, j], window.points(THETAS[i], PS[j]), GRID_ATOL)
        if self.bounded and np.max(np.abs(values)) > INV_PI + GRID_ATOL:
            fails.append(f"|W| = {np.max(np.abs(values)):.17g} exceeds 1/pi")
        return fails


class VonMisesGrid(GridOp):
    kind = "von_mises"

    def __init__(self, rng):
        super().__init__(rng)
        self.s = float(rng.uniform(0.5, 12.0))
        self.p_e = float(rng.uniform(-3.0, 3.0))

    def run(self):
        self.state = cw.von_mises_state(self.s, self.p_e)
        return cw.wigner_grid(self.state, THETAS, PS)

    def window(self):
        c = self.state.coeffs
        return oracles.Window.dense(np.outer(c.conj(), c), self.state.n_min, self.state.delta)


class PureGrid(GridOp):
    kind = "pure"

    def __init__(self, rng):
        super().__init__(rng)
        K = int(rng.integers(5, 61))
        self.state = cw.FourierState(
            delta=_random_delta(rng), n_min=int(rng.integers(-30, 10)), coeffs=_random_coeffs(rng, K)
        )
        self.c = np.array(self.state.coeffs)

    def run(self):
        return cw.wigner_grid(self.state, THETAS, PS)

    def window(self):
        return oracles.Window.dense(np.outer(self.c.conj(), self.c), self.state.n_min, self.state.delta)


class MixtureGrid(GridOp):
    kind = "mixture"

    def __init__(self, rng):
        super().__init__(rng)
        self.rho = _random_mixture(rng, int(rng.integers(5, 61)))
        self.state = cw.DensityMatrix(delta=_random_delta(rng), n_min=int(rng.integers(-30, 10)), entries=self.rho)

    def run(self):
        return cw.wigner_grid(self.state, THETAS, PS)

    def window(self):
        # tr[rho V] = sum_mn rho_mn V_nm
        return oracles.Window.dense(self.rho.T, self.state.n_min, self.state.delta)


class MoyalGrid(GridOp):
    """Cross grid of two states on offset windows (the complex path)."""

    kind = "moyal"
    bounded = False

    def __init__(self, rng):
        super().__init__(rng)
        delta = _random_delta(rng)
        K_bra, K_ket = (int(k) for k in rng.integers(10, 61, 2))
        n_bra = int(rng.integers(-30, 10))
        n_ket = n_bra + int(rng.integers(-30, 31))
        self.bra = cw.FourierState(delta=delta, n_min=n_bra, coeffs=_random_coeffs(rng, K_bra))
        self.ket = cw.FourierState(delta=delta, n_min=n_ket, coeffs=_random_coeffs(rng, K_ket))

    def run(self):
        return cw.moyal_grid(self.bra, self.ket, THETAS, PS)

    def window(self):
        n_min = min(self.bra.n_min, self.ket.n_min)
        K = max(self.bra.n_max, self.ket.n_max) - n_min + 1
        bra = np.zeros(K, complex)
        ket = np.zeros(K, complex)
        bra[self.bra.n_min - n_min : self.bra.n_max - n_min + 1] = self.bra.coeffs
        ket[self.ket.n_min - n_min : self.ket.n_max - n_min + 1] = self.ket.coeffs
        return oracles.Window.dense(np.outer(bra.conj(), ket), n_min, self.bra.delta)


class EvolvedGrid(GridOp):
    """A von Mises state moved by ``exp(-i eps (n + delta)^2 t)``."""

    kind = "evolved"

    def __init__(self, rng):
        super().__init__(rng)
        self.s = float(rng.uniform(0.5, 12.0))
        self.p_e = float(rng.uniform(-3.0, 3.0))
        self.eps = float(rng.uniform(0.1, 1.0))
        self.t = float(rng.uniform(0.0, 1.0))

    def run(self):
        start = cw.von_mises_state(self.s, self.p_e)
        H = cw.quadratic_hamiltonian(self.eps, start.n_min, start.n_max, delta=start.delta)
        self.start = start
        self.state = cw.evolve_state(start, H, self.t)
        return cw.wigner_grid(self.state, THETAS, PS)

    def window(self):
        c = self.state.coeffs
        return oracles.Window.dense(np.outer(c.conj(), c), self.state.n_min, self.state.delta)

    def verify(self, values):
        n = self.start.n_min + np.arange(self.start.coeffs.size) + self.start.delta
        # E t reaches ~4e3 rad, so the two phase roundings may differ by ~1e-12
        expected = self.start.coeffs * np.exp(-1j * (self.eps * n**2) * self.t)
        fails = _close("evolved coefficients", self.state.coeffs, expected, 1e-10)
        return fails + super().verify(values)


class GibbsGrid(GridOp):
    kind = "gibbs"

    def __init__(self, rng, eps_beta):
        super().__init__(rng)
        self.eps_beta = eps_beta

    def run(self):
        self.rho = cw.thermal_density(cw.ThermalParams(self.eps_beta))
        return cw.wigner_grid(self.rho, THETAS, PS)

    def window(self):
        K = self.rho.entries.shape[0]
        return oracles.Window.diagonal(oracles.gibbs_weights(self.eps_beta, self.rho.n_min, K), self.rho.n_min, 0.0)


def gibbs_ladder(rng, count=4):
    """``count`` eps_beta values log-spread over [1e-4, 1], one per equal
    log-stratum, each near its stratum's middle.

    The grid cost grows as 1/eps_beta, so a draw across a whole stratum
    would make a round's cost depend on the seed; the jitter is kept to
    a hundredth of a stratum (about 2% of the cost)."""
    width = 4.0 / count
    return [10.0 ** (-4.0 + width * (j + rng.uniform(0.495, 0.505))) for j in range(count)]


class PhaseGrid(Workload):
    name = "phase_grid"
    reference = "grid"
    # per round: 44 state grids, 4 Gibbs densities (one per decade of eps_beta)
    mix = {VonMisesGrid: 10, PureGrid: 10, MixtureGrid: 8, MoyalGrid: 8, EvolvedGrid: 8}
    tail_percentile = 97.0  # inside the second-costliest Gibbs rung (2.1-4.2% of a round)
    min_rounds = 7  # 7 x 48 ops leave ten beyond the 97th percentile
    setup_code = "import cylwigner as cw; cw.wigner_grid(cw.von_mises_state(1.0, 0.25))"

    def make_round(self, rng):
        ops = [cls(rng) for cls, n in self.mix.items() for _ in range(n)]
        return ops + [GibbsGrid(rng, eb) for eb in gibbs_ladder(rng)]

    def warmup_ops(self, rng):
        # eps_beta = 1e-4 is the low end of the ladder (K = 1161), so the
        # peak RSS always holds the largest window the workload can draw
        return [cls(rng) for cls in self.mix] + [GibbsGrid(rng, 1e-4)]


# ------------------------------------------------------------- figure_export


class ExportOp(Op):
    """One heat-map export through ``cli.main``, written to a CSV file."""

    def __init__(self, rng, workdir):
        self.path = str(workdir / "export.csv")

    def run(self):
        code = cli.main(self.argv() + [f"--out={self.path}"])
        if code != 0:
            raise RuntimeError(f"cylwigner exited with {code}")

    def output(self, raw):
        return np.loadtxt(self.path, delimiter=",", skiprows=1, ndmin=2)

    def axes(self):
        return THETAS, PS

    def perturb(self, values, rel):
        values = values.copy()
        k = np.argmax(np.abs(values[:, 2]))
        values[k, 2] *= 1.0 + rel
        return values

    def verify(self, values):
        thetas, ps = self.axes()
        if values.shape != (thetas.size * ps.size, 3):
            return [f"csv shape {values.shape}"]
        fails = _close("theta column", values[:, 0], np.repeat(thetas, ps.size), 0.0, 1e-15)
        fails += _close("p column", values[:, 1], np.tile(ps, thetas.size), 0.0, 1e-15)
        ref = self.reference(thetas, ps).ravel()
        atol = CSV_RTOL * 1e-2 * np.max(np.abs(ref))
        return fails + _close("value column", values[:, 2], ref, atol, CSV_RTOL)


class Fig1Export(ExportOp):
    """Basis-state profile on a long momentum axis (one theta row)."""

    kind = "fig1"
    P_AXIS = np.linspace(-100.0, 100.0, THETAS.size * PS.size)

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.m = int(rng.integers(-5, 6))
        self.hbar = float(rng.uniform(0.25, 1.0))

    def argv(self):
        return ["--command", "fig1", f"--m={self.m}", f"--hbar={self.hbar!r}",
                "--p-min=-100", "--p-max=100", f"--p-steps={self.P_AXIS.size}"]

    def axes(self):
        return np.array([0.0]), self.P_AXIS

    def reference(self, thetas, ps):
        return oracles.fig1(ps, self.hbar, self.m)


class Fig2Export(ExportOp):
    kind = "fig2"

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.alpha = float(rng.uniform(-pi, pi))

    def argv(self):
        # the "=" form: "--theta-list -3.14,..." is refused by argparse
        return ["--command", "fig2", f"--alpha={self.alpha!r}", f"--theta-list={THETA_LIST}"]

    def reference(self, thetas, ps):
        return oracles.fig2(thetas, ps, self.alpha)


class Fig3Export(ExportOp):
    kind = "fig3"

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.s = float(rng.uniform(0.5, 6.0))
        self.p_e = float(rng.uniform(-3.0, 3.0))

    def argv(self):
        return ["--command", "fig3", f"--s={self.s!r}", f"--pe={self.p_e!r}", f"--theta-list={THETA_LIST}"]

    def reference(self, thetas, ps):
        return oracles.fig3(thetas, ps, self.s, self.p_e)


class ThermalExport(ExportOp):
    kind = "thermal"

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.eps_beta = float(10.0 ** rng.uniform(-2.0, 0.0))

    def argv(self):
        return ["--command", "thermal", f"--eps-beta={self.eps_beta!r}", f"--theta-list={THETA_LIST}"]

    def reference(self, thetas, ps):
        return np.broadcast_to(oracles.thermal(ps, self.eps_beta), (thetas.size, ps.size))


class FigureExport(Workload):
    name = "figure_export"
    reference = "csv"
    kinds = [Fig1Export, Fig2Export, Fig3Export, ThermalExport]
    tail_percentile = 80.0
    min_rounds = 13  # 13 x 4 ops leave ten beyond the 80th percentile

    def __init__(self, workdir):
        self.workdir = workdir
        self.setup_code = (
            "from cylwigner import cli; "
            f"cli.main(['--command', 'fig2', '--p-steps=41', '--out={workdir / 'setup.csv'}'])"
        )

    def make_round(self, rng):
        return [cls(rng, self.workdir) for cls in self.kinds]

    def warmup_ops(self, rng):
        return self.make_round(rng)


# ---------------------------------------------------------------- tomography


class Reconstruction(Op):
    """``reconstruct --state-json`` on a state file the benchmark wrote."""

    def __init__(self, rng, workdir, K, mixed=None):
        if mixed is None:
            mixed = bool(rng.integers(0, 2))
        self.kind = "mixture" if mixed else "pure"
        self.delta = _random_delta(rng)
        self.n_min = int(rng.integers(-10, 10))
        if mixed:
            self.rho = _random_mixture(rng, K)
            self.payload = {"entries": [[[v.real, v.imag] for v in row] for row in self.rho]}
        else:
            c = _random_coeffs(rng, K)
            self.rho = np.outer(c, c.conj())
            self.payload = {"coeffs": [[v.real, v.imag] for v in c]}
        self.payload.update(delta=self.delta, n_min=self.n_min)
        self.state_path = str(workdir / "state.json")
        self.out_path = str(workdir / "reconstructed.json")

    def prepare(self):
        with open(self.state_path, "w", encoding="ascii") as fh:
            json.dump(self.payload, fh)

    def run(self):
        code = cli.main(["--command", "reconstruct", f"--state-json={self.state_path}", f"--out={self.out_path}"])
        if code != 0:
            raise RuntimeError(f"cylwigner exited with {code}")

    def output(self, raw):
        with open(self.out_path, "r", encoding="ascii") as fh:
            data = json.load(fh)["density_matrix"]
        self.window = (data["n_min"], data["delta"])
        return np.array([[complex(re, im) for re, im in row] for row in data["entries"]])

    def verify(self, values):
        if self.window != (self.n_min, self.delta):
            return [f"window {self.window} != {(self.n_min, self.delta)}"]
        return _close("rebuilt matrix", values, self.rho, TOMOGRAPHY_ATOL)


class Tomography(Workload):
    """One reconstruction per window size K = 5..13 in every round; the
    sampler calls, and so the cost, grow with K and not with purity."""

    name = "tomography"
    reference = "interpreter"
    sizes = range(5, 14)
    tail_percentile = 85.0  # inside the K = 12 ninth of a round (77.8-88.9%)
    # interpreter-bound, so the noisiest workload: the longest runs; 14 x 9
    # ops leave 18 beyond the 85th percentile
    min_rounds = 14

    def __init__(self, workdir):
        self.workdir = workdir
        self.setup_state = workdir / "setup_state.json"
        self.setup_code = (
            "from cylwigner import cli; "
            f"cli.main(['--command', 'reconstruct', '--state-json={self.setup_state}', "
            f"'--out={workdir / 'setup_out.json'}'])"
        )

    def setup_prepare(self):
        state = {"delta": 0.25, "n_min": -1, "coeffs": [[0.6, 0.0], [0.0, 0.64], [0.48, 0.0]]}
        with open(self.setup_state, "w", encoding="ascii") as fh:
            json.dump(state, fh)

    def make_round(self, rng):
        return [Reconstruction(rng, self.workdir, K) for K in self.sizes]

    def warmup_ops(self, rng):
        return [Reconstruction(rng, self.workdir, 5, mixed) for mixed in (False, True)]


def make(name, workdir):
    if name == "phase_grid":
        return PhaseGrid()
    if name == "figure_export":
        return FigureExport(workdir)
    if name == "tomography":
        return Tomography(workdir)
    raise ValueError(f"unknown workload {name!r}")
