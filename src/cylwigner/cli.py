"""Command-line front end.

Emits figure data as CSV (``theta,p,value`` rows), marginals and
reconstructed density matrices as JSON, and runs the verification
suite.  Output is data-only and deterministic; plotting is left to
external tools.

Exit codes: 0 on success, 1 when verification fails, 2 on I/O or usage
errors and on parameters whose values overflow.
"""

import argparse
import json
import re
import sys
from dataclasses import dataclass
from math import isfinite, pi

import numpy as np

from . import __version__
from .specfun import bessel_i, sinc_pi
from .states import (
    DensityMatrix,
    FourierState,
    basis_state,
    cat_state,
    pure_density,
    von_mises_state,
)
from .thermal import ThermalParams, thermal_density
from .verify import report_as_json_entries, run_verification
from .wigner import (
    WignerGrid,
    marginal_angle,
    marginal_momentum,
    reconstruct_density,
    rescale_hbar,
    # wigner_density stays bound here: perfbench/tracing.py wraps cylwigner.cli.wigner_density
    wigner_density,  # noqa: F401
    wigner_grid,
    write_grid_csv,
)

__all__ = ["main", "RunConfig"]

_COMMANDS = ("fig1", "fig2", "fig3", "thermal", "marginals", "reconstruct", "verify")
_STATES = ("basis", "cat", "vonmises", "thermal")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters for one CLI invocation."""

    command: str
    m: int = 0
    s: float = 0.5
    pe: float = 0.0
    alpha: float = 0.0
    eps_beta: float = 1.0
    delta: float = 0.0
    hbar: float = 1.0
    state: str = "vonmises"
    state_json: str | None = None
    theta_list: tuple = ()
    theta_steps: int = 181
    p_min: float = -5.0
    p_max: float = 5.0
    p_steps: int = 401
    out: str | None = None
    tol_profile: str = "default"
    inject_sinc_fault: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.state not in _STATES:
            raise ValueError(f"unknown state family {self.state!r}")
        if self.p_steps < 2 or self.theta_steps < 2:
            raise ValueError("grid resolutions must be at least 2")
        if not (isfinite(self.p_min) and isfinite(self.p_max)):
            raise ValueError(f"p range must be finite, got [{self.p_min}, {self.p_max}]")
        if not (self.p_min < self.p_max):
            raise ValueError("p range must be non-empty")
        if not (isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be finite and positive, got {self.hbar}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.p_steps)


def _parse_theta_list(text: str) -> tuple:
    try:
        thetas = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad theta list {text!r}") from exc
    if not all(isfinite(theta) for theta in thetas):
        raise argparse.ArgumentTypeError(f"theta list entries must be finite, got {text!r}")
    return thetas


# a value that argparse would take for an option: "-1.0,0.5" or "-.5"
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _bind_theta_list(argv: list) -> list:
    """Join ``--theta-list VALUE`` into ``--theta-list=VALUE`` when the list
    starts with a negative angle, so both spellings parse alike."""
    out = []
    for tok in argv:
        if out and out[-1] == "--theta-list" and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"--theta-list={tok}"
        else:
            out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylwigner",
        description="Angle/angular-momentum phase-space data generator and verifier.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--command", required=True, choices=_COMMANDS)
    parser.add_argument("--m", type=int, default=0, help="basis-state index")
    parser.add_argument("--s", type=float, default=0.5, help="concentration of the minimal-uncertainty state")
    parser.add_argument("--pe", type=float, default=0.0, help="mean angular momentum of the minimal-uncertainty state")
    parser.add_argument("--alpha", type=float, default=0.0, help="relative phase of the cat state")
    parser.add_argument("--eps-beta", type=float, default=1.0, help="dimensionless temperature parameter")
    parser.add_argument("--delta", type=float, default=0.0, help="covering parameter in [0, 1)")
    parser.add_argument("--hbar", type=float, default=1.0, help="momentum rescaling for fig1")
    parser.add_argument("--state", choices=_STATES, default="vonmises", help="state family for marginals/reconstruct")
    parser.add_argument("--state-json", type=str, default=None, help="JSON file with a serialized state or density matrix (overrides --state)")
    parser.add_argument("--theta-list", type=_parse_theta_list, default=(), help="comma-separated angles")
    parser.add_argument("--theta-steps", type=int, default=181)
    parser.add_argument("--p-min", type=float, default=-5.0)
    parser.add_argument("--p-max", type=float, default=5.0)
    parser.add_argument("--p-steps", type=int, default=401)
    parser.add_argument("--out", type=str, default=None, help="output path (stdout when omitted)")
    parser.add_argument("--tol-profile", choices=("default", "loose"), default="default")
    parser.add_argument("--inject-sinc-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def _write_json(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _select_state(cfg: RunConfig):
    if cfg.state_json is not None:
        with open(cfg.state_json, "r", encoding="ascii") as fh:
            data = json.load(fh)
        if "coeffs" in data:
            state = FourierState.from_dict(data)
            norm2 = state.norm() ** 2
            if abs(norm2 - 1.0) > 1e-10:
                raise ValueError(f"state norm^2 {norm2} differs from 1")
            return state
        if "entries" in data:
            rho = DensityMatrix.from_dict(data)
            rho.validate()
            return rho
        raise ValueError("state JSON must contain 'coeffs' or 'entries'")
    if cfg.state == "basis":
        return basis_state(cfg.m, cfg.delta)
    if cfg.state == "cat":
        return cat_state(cfg.alpha)
    if cfg.state == "vonmises":
        return von_mises_state(cfg.s, cfg.pe)
    return thermal_density(ThermalParams(cfg.eps_beta))


def _cmd_fig1(cfg: RunConfig) -> WignerGrid:
    # basis-state profile: value = sinc((p - hbar m)/hbar), constant in theta
    values = rescale_hbar(cfg.p_axis, cfg.hbar, cfg.m)
    return WignerGrid(theta_axis=np.array([0.0]), p_axis=cfg.p_axis, values=values[None, :])


def _cmd_fig2(cfg: RunConfig) -> WignerGrid:
    thetas = np.asarray(cfg.theta_list or (0.0, pi / 4, pi / 2, 3 * pi / 4, pi))
    grid = wigner_grid(cat_state(cfg.alpha), thetas, cfg.p_axis)
    return WignerGrid(theta_axis=grid.theta_axis, p_axis=grid.p_axis, values=2.0 * pi * grid.values)


def _cmd_fig3(cfg: RunConfig) -> WignerGrid:
    if cfg.s <= 0:
        raise ValueError("fig3 requires s > 0")
    thetas = np.asarray(cfg.theta_list or (0.0, pi / 2, -pi / 2, pi, -pi))
    state = von_mises_state(cfg.s, cfg.pe)
    grid = wigner_grid(state, thetas, cfg.p_axis)
    scale = 2.0 * pi * bessel_i(0, 2.0 * cfg.s)
    return WignerGrid(theta_axis=grid.theta_axis, p_axis=grid.p_axis, values=scale * grid.values)


def _cmd_thermal(cfg: RunConfig) -> WignerGrid:
    rho = thermal_density(ThermalParams(cfg.eps_beta))
    thetas = np.asarray(cfg.theta_list or (0.0,))
    return wigner_grid(rho, thetas, cfg.p_axis)


def _cmd_marginals(cfg: RunConfig) -> dict:
    obj = _select_state(cfg)
    thetas = np.linspace(-pi, pi, cfg.theta_steps)
    angle = marginal_angle(obj, thetas)
    momentum = marginal_momentum(obj)
    source_key = "state" if isinstance(obj, FourierState) else "density_matrix"
    return {
        "angle_marginal": {
            "theta": [float(t) for t in thetas],
            "value": [float(v) for v in np.atleast_1d(angle)],
        },
        "momentum_marginal": momentum.to_dict(),
        source_key: obj.to_dict(),
    }


def _cmd_reconstruct(cfg: RunConfig) -> dict:
    obj = _select_state(cfg)
    rho = pure_density(obj) if isinstance(obj, FourierState) else obj
    rebuilt = reconstruct_density(
        lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, rho.delta
    )
    max_err = float(np.max(np.abs(rebuilt.entries - rho.entries)))
    return {
        "density_matrix": rebuilt.to_dict(),
        "max_abs_error": max_err,
        "trace": rebuilt.trace(),
    }


def _cmd_verify(cfg: RunConfig) -> tuple[list, bool]:
    sinc_fn = None
    if cfg.inject_sinc_fault:
        # negative control: a 1e-6 argument skew must trip the sinc suites
        sinc_fn = lambda x: sinc_pi(np.asarray(x) * (1.0 + 1e-6))
    checks = run_verification(profile=cfg.tol_profile, sinc_fn=sinc_fn)
    return report_as_json_entries(checks), all(c.passed for c in checks)


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _bind_theta_list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        cfg = RunConfig(**vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if cfg.command == "verify":
            entries, ok = _cmd_verify(cfg)
            _write_json(entries, cfg.out)
            return 0 if ok else 1
        if cfg.command in ("fig1", "fig2", "fig3", "thermal"):
            grid = {
                "fig1": _cmd_fig1,
                "fig2": _cmd_fig2,
                "fig3": _cmd_fig3,
                "thermal": _cmd_thermal,
            }[cfg.command](cfg)
            # the grid is complete before the output file is opened
            write_grid_csv(grid, sys.stdout if cfg.out is None else cfg.out)
            return 0
        if cfg.command == "marginals":
            _write_json(_cmd_marginals(cfg), cfg.out)
            return 0
        if cfg.command == "reconstruct":
            _write_json(_cmd_reconstruct(cfg), cfg.out)
            return 0
        raise AssertionError("unreachable")
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
