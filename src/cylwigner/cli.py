"""Command-line front end.

Emits figure data as CSV (``theta,p,value`` rows), marginals and
reconstructed density matrices as JSON, and runs the verification
suite.  Output is data-only and deterministic; plotting is left to
external tools.

Exit codes: 0 on success, 1 when verification fails, 2 on I/O or usage
errors and on parameters whose values overflow.
"""

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from math import exp, isfinite, pi

import numpy as np

from . import __version__
# bessel_i stays bound here: perfbench/tracing.py wraps cylwigner.cli.bessel_i
from .specfun import bessel_i, bessel_i_scaled, sinc_pi  # noqa: F401
from .states import (
    _MAX_DENSE_BYTES,
    DensityMatrix,
    FourierState,
    _check_delta,
    _check_hbar,
    _real_view,
    basis_state,
    cat_state,
    pure_density,
    von_mises_state,
)
from .thermal import ThermalParams, thermal_density
from .wigner import (
    WignerGrid,
    _check_reconstruction_size,
    default_p_axis,
    default_theta_axis,
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
# values of a 1-D JSON array formatted and written at a time (about 100 kB
# of text), so a long angle marginal is never held as one string
_JSON_SLICE = 4096
# largest fig3 s whose scale 2 pi I_0(2 s) fits in a double (it overflows
# above s = 356.0738), rounded down
_FIG3_S_MAX = 356.07


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
        # each axis is a float64 array, refused before it is built
        for axis, steps in (("theta", self.theta_steps), ("p", self.p_steps)):
            if 8 * steps > _MAX_DENSE_BYTES:
                raise ValueError(f"{axis} axis of {steps} steps needs {8 * steps} bytes (limit {_MAX_DENSE_BYTES})")
        if not (isfinite(self.p_min) and isfinite(self.p_max)):
            raise ValueError(f"p range must be finite, got [{self.p_min}, {self.p_max}]")
        if not (self.p_min < self.p_max):
            raise ValueError("p range must be non-empty")
        if not isfinite(self.p_max - self.p_min):
            raise ValueError(f"p range [{self.p_min}, {self.p_max}] is wider than float64 holds")
        _check_hbar(self.hbar)
        _check_delta(self.delta)

    @property
    def p_axis(self) -> np.ndarray:
        return default_p_axis(self.p_min, self.p_max, self.p_steps)


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


# one parser per process (parse_args leaves it unchanged); an option left
# out is absent from the namespace and takes its RunConfig default
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylwigner",
        description="Angle/angular-momentum phase-space data generator and verifier.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--command", required=True, choices=_COMMANDS)
    parser.add_argument("--m", type=int, help="basis-state index")
    parser.add_argument("--s", type=float, help="concentration of the minimal-uncertainty state")
    parser.add_argument("--pe", type=float, help="mean angular momentum of the minimal-uncertainty state")
    parser.add_argument("--alpha", type=float, help="relative phase of the cat state")
    parser.add_argument("--eps-beta", type=float, help="dimensionless temperature parameter")
    parser.add_argument("--delta", type=float, help="covering parameter in [0, 1)")
    parser.add_argument("--hbar", type=float, help="momentum rescaling for fig1")
    parser.add_argument("--state", choices=_STATES, help="state family for marginals/reconstruct")
    parser.add_argument("--state-json", help="JSON file with a serialized state or density matrix (overrides --state)")
    parser.add_argument("--theta-list", type=_parse_theta_list, help="comma-separated angles")
    parser.add_argument("--theta-steps", type=int)
    parser.add_argument("--p-min", type=float)
    parser.add_argument("--p-max", type=float)
    parser.add_argument("--p-steps", type=int)
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--tol-profile", choices=("default", "loose"))
    parser.add_argument("--inject-sinc-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def _json_arrays(obj, field: str = ""):
    """``obj`` with each array replaced by its real view (``_real_view``);
    ``ValueError`` naming the field of an array that JSON text cannot hold
    as ``json`` would write it: not float64 or complex128, or not finite."""
    if isinstance(obj, dict):
        return {key: _json_arrays(value, f"{field}.{key}" if field else key) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_arrays(value, f"{field}[{i}]") for i, value in enumerate(obj)]
    if not isinstance(obj, np.ndarray):
        return obj
    if obj.dtype not in (np.float64, np.complex128):
        raise ValueError(f"JSON field {field!r} has dtype {obj.dtype}, not float64 or complex128")
    arr = _real_view(obj)
    # min and max are NaN or infinite when any value is, with no temporary
    if arr.size and not (isfinite(arr.min()) and isfinite(arr.max())):
        raise ValueError(f"JSON field {field!r} has a non-finite value")
    return arr


def _array_template(shape: tuple, level: int) -> str:
    """The ``%r`` template of a nested list of ``shape`` opened at indent
    ``level``, laid out as ``json.dumps(indent=2)`` lays it out; ``%r`` of a
    finite float is the text ``json`` writes for it."""
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    items = ("," + pad).join([_array_template(shape[1:], level + 1)] * shape[0])
    return "[" + pad + items + "\n" + "  " * level + "]"


def _stream_json(obj, level: int, write) -> None:
    """Write ``obj``, as ``_json_arrays`` returns it, at indent ``level`` as
    ``json.dumps(obj, indent=2, sort_keys=True)`` would, with a float64
    array as its nested list: a 1-D array ``_JSON_SLICE`` values at a time,
    a deeper one a first-axis row at a time, each from one ``%`` template."""
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0 or obj.shape[0] == 0:
            write(_array_template(obj.shape, level) % tuple(obj.ravel().tolist()))
            return
        if obj.ndim == 1:
            for lo in range(0, obj.size, _JSON_SLICE):
                values = obj[lo : lo + _JSON_SLICE].tolist()
                write(("[" if lo == 0 else ",") + pad + ("," + pad).join(["%r"] * len(values)) % tuple(values))
        else:
            template = _array_template(obj.shape[1:], level + 1)
            for i, row in enumerate(obj):
                write(("[" if i == 0 else ",") + pad + template % tuple(row.ravel().tolist()))
    elif isinstance(obj, dict) and obj:
        for i, key in enumerate(sorted(obj)):
            write(("{" if i == 0 else ",") + pad + json.dumps(key) + ": ")
            _stream_json(obj[key], level + 1, write)
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            write(("[" if i == 0 else ",") + pad)
            _stream_json(value, level + 1, write)
    else:
        # a scalar or an empty container
        write(json.dumps(obj))
        return
    write(pad[:-2] + ("}" if isinstance(obj, dict) else "]"))


def _write_json(payload, out: str | None) -> None:
    """Stream ``payload`` as the text of ``json.dumps(payload, indent=2,
    sort_keys=True) + "\\n"``.  Its arrays are checked before the output file
    is opened; beyond them, the memory held is one array row's text."""
    payload = _json_arrays(payload)
    if out is None:
        _stream_json(payload, 0, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="ascii") as fh:
            _stream_json(payload, 0, fh.write)
            fh.write("\n")


def _select_state(cfg: RunConfig):
    if cfg.state_json is not None:
        with open(cfg.state_json, "r", encoding="ascii") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("state JSON must be an object")
        found = [key for key in ("coeffs", "entries", "weights") if key in data]
        if len(found) != 1:
            raise ValueError(f"state JSON must contain one of 'coeffs', 'entries' or 'weights', found {found}")
        if found == ["coeffs"]:
            state = FourierState.from_dict(data)
            norm2 = state.norm() ** 2
            if abs(norm2 - 1.0) > 1e-10:
                raise ValueError(f"state norm^2 {norm2} differs from 1")
            return state
        rho = DensityMatrix.from_dict(data)
        rho.validate()
        return rho
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
    if cfg.s > _FIG3_S_MAX:  # refused before the grid is built
        raise ValueError(f"fig3 --s {cfg.s} overflows the scale 2 pi I_0(2 s); the largest supported --s is {_FIG3_S_MAX}")
    # 2 pi I_0(2 s) = 2 pi (I_0(2 s) exp(-2 s)) exp(s) exp(s): no factor
    # overflows while the product fits in a double
    scale = 2.0 * pi * float(bessel_i_scaled(0, 2.0 * cfg.s)[0]) * exp(cfg.s) * exp(cfg.s)
    thetas = np.asarray(cfg.theta_list or (0.0, pi / 2, -pi / 2, pi, -pi))
    grid = wigner_grid(von_mises_state(cfg.s, cfg.pe), thetas, cfg.p_axis)
    return WignerGrid(theta_axis=grid.theta_axis, p_axis=grid.p_axis, values=scale * grid.values)


def _cmd_thermal(cfg: RunConfig) -> WignerGrid:
    return wigner_grid(thermal_density(ThermalParams(cfg.eps_beta)), cfg.theta_list or (0.0,), cfg.p_axis)


def _cmd_marginals(cfg: RunConfig) -> dict:
    obj = _select_state(cfg)
    thetas = default_theta_axis(cfg.theta_steps)
    angle = marginal_angle(obj, thetas)
    momentum = marginal_momentum(obj)
    source_key = "state" if isinstance(obj, FourierState) else "density_matrix"
    return {
        "angle_marginal": {"theta": thetas, "value": np.atleast_1d(angle)},
        "momentum_marginal": momentum._json_fields(),
        source_key: obj._json_fields(),
    }


def _cmd_reconstruct(cfg: RunConfig) -> dict:
    obj = _select_state(cfg)
    if isinstance(obj, FourierState):
        # the dense projector is as large as the result, so it is refused first
        _check_reconstruction_size(obj.n_max - obj.n_min + 1)
    rho = pure_density(obj) if isinstance(obj, FourierState) else obj
    rebuilt = reconstruct_density(
        lambda axes: wigner_grid(rho, *axes).values, rho.n_min, rho.n_max, rho.delta
    )
    max_err = float(np.max(np.abs(rebuilt.entries - rho.entries)))
    return {
        "density_matrix": rebuilt._json_fields(),
        "max_abs_error": max_err,
        "trace": rebuilt.trace(),
    }


def _cmd_verify(cfg: RunConfig) -> tuple[list, bool]:
    # imported here: the other commands start without compiling the verifier
    from .verify import report_as_json_entries, run_verification

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
