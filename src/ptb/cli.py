"""Command line front end.

Scenario configs are JSON documents with a schema version; every flag
mirrors a config field and wins over the file.  Errors map to the exit
codes their classes declare, and an OSError to 2:

    0  success
    2  configuration problem (bad file, bad value, bad potential params)
    3  admissibility violation (shell bounds)
    4  run failure (integration, root finding, frame, domain)
    5  non-monotone center-of-mass time under strict_time

and are reported as a single machine-parsable "ErrorName: reason" line on
stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import math
import os
import sys
from dataclasses import astuple, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .binding import binding_energy, self_consistent_circular, self_consistent_shell
from .circular import CircularOrbit, find_circular, verify_circular
from .errors import ConfigError, PtbError
from .mass_ratio import RatioRow, _checked, limit_report
from .mass_shell import MassShell, mass_shell_from_lambda, shell_from_M
from .minkowski import FourVector
from .output import diagnostics, format_float, json_payload, trajectory_rows, write_csv, write_json
from .potentials import PotentialSpec, _float, builtin
from .reduced import IntegratorOptions, ReducedState, Trajectory, integrate
from .reduced import synchronize  # noqa: F401 (unused until perfbench/tracing.py stops patching it)
from .toy import ToyParams, analytic_T, analytic_state, initial_state, shell_for_toy
from .worldline import export_lab_frame, worldlines

__all__ = ["main"]

log = logging.getLogger(__name__)

_TOL_RANGE = (1e-14, 1e-3)


def _error_line(err: Exception) -> str:
    return f"{type(err).__name__}: {err}".replace("\n", " ")


# ---------------------------------------------------------------- config

def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {path}: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8 text: {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


_REQUIRED = object()


def _block(cfg: dict, name: str, keys: set, default=_REQUIRED):
    """cfg[name] as an object with keys only from keys: default when absent (or
    null, for default None), and required when there is no default."""
    block = cfg.get(name, default)
    if block is default and default is not _REQUIRED:
        return block
    if not isinstance(block, dict):
        if default is _REQUIRED:
            article = "an" if name[0] in "aeiou" else "a"
            raise ConfigError(f'config needs {article} "{name}" object')
        raise ConfigError(f"{name} must be an object")
    _check_keys(block, keys, name)
    return block


def _number(x, where: str, positive: bool = False) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where} must be a number, got {x!r}")
    v = _float(x, where, ConfigError)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    if positive and not v > 0.0:
        raise ConfigError(f"{where} must be positive")
    return v


def _tol(x, where: str) -> float:
    tol, (lo, hi) = _number(x, where), _TOL_RANGE
    if not lo <= tol <= hi:
        raise ConfigError(f"{where} must lie in [{lo:g}, {hi:g}], got {tol:g}")
    return tol


def _vec(x, n: int, where: str) -> tuple:
    if not isinstance(x, (list, tuple)) or len(x) != n:
        raise ConfigError(f"{where} must be a list of {n} numbers")
    return tuple(_number(c, where) for c in x)


@dataclass
class Scenario:
    cfg: dict
    shell: MassShell
    model: PotentialSpec
    initial: ReducedState
    span: float
    opts: IntegratorOptions
    frame_k: Optional[FourVector]
    out_format: str
    out_path: str
    orbit: Optional[CircularOrbit] = None


def build_scenario(cfg: dict) -> Scenario:
    _check_keys(cfg, {"schema", "masses", "potential", "initial", "circular",
                      "shell", "integrator", "frame", "output"}, "config")
    if cfg.get("schema") != 1:
        raise ConfigError("config must declare \"schema\": 1")

    masses = _block(cfg, "masses", {"m1", "m2"})
    m1 = _number(masses.get("m1"), "masses.m1")
    m2 = _number(masses.get("m2"), "masses.m2")
    if m1 > m2:
        log.warning("warning: m1 > m2; swapping so particle 1 is the lighter one")
        m1, m2 = m2, m1

    pot = _block(cfg, "potential", {"kind", "params"})
    kind = pot.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("potential.kind must be a string")
    params = pot.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("potential.params must be an object")
    for key, val in params.items():  # the model checks the range, with its own message
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"potential.params.{key} must be a number, got {val!r}")
    model = builtin(kind, **params)

    integ = _block(cfg, "integrator", {"tol", "max_step", "lambda_span", "sample_interval",
                                       "strict_time"}, {})
    tol = _tol(integ.get("tol", 1e-10), "integrator.tol")
    max_step = integ.get("max_step")
    if max_step == math.inf:  # echoed as null, the same run: strict JSON has no inf
        cfg = {**cfg, "integrator": {**integ, "max_step": None}}
    max_step = (math.inf if max_step in (None, math.inf)
                else _number(max_step, "integrator.max_step", positive=True))
    sample_interval = integ.get("sample_interval")
    if sample_interval is not None:
        sample_interval = _number(sample_interval, "integrator.sample_interval", positive=True)
    strict = integ.get("strict_time", False)
    if not isinstance(strict, bool):
        raise ConfigError("integrator.strict_time must be true or false")
    opts = IntegratorOptions(tol=tol, max_step=max_step,
                             sample_interval=sample_interval, strict_time=strict)

    span = integ.get("lambda_span")
    if span is not None:
        if isinstance(span, (list, tuple)):
            lo, span = _vec(span, 2, "integrator.lambda_span")
            if lo != 0.0:
                raise ConfigError("integrator.lambda_span must start at 0")
        span = _number(span, "integrator.lambda_span", positive=True)

    shell_cfg = _block(cfg, "shell", {"lambda"}, None)
    if shell_cfg is not None and "lambda" not in shell_cfg:
        raise ConfigError("shell block needs a \"lambda\" value")
    lam_override = None if shell_cfg is None else _number(shell_cfg["lambda"], "shell.lambda")

    has_initial = "initial" in cfg
    if has_initial == ("circular" in cfg):
        raise ConfigError("config needs exactly one of \"initial\" or \"circular\"")
    if has_initial:
        init = _block(cfg, "initial", {"ztil", "ytil"}, {})
        z0 = _vec(init.get("ztil"), 3, "initial.ztil")
        e0 = _vec(init.get("ytil"), 3, "initial.ytil")
        if not math.isfinite(sum(c * c for c in z0 + e0)):  # which also bounds ztil.ytil
            raise ConfigError("initial.ztil and initial.ytil overflow: |ztil|^2 + |ytil|^2 = inf")
        if not math.isfinite(sum(c * c for c in z0) * sum(c * c for c in e0)):  # L2's terms
            raise ConfigError("initial.ztil and initial.ytil overflow: |ztil|^2 |ytil|^2 = inf")
        if span is None:
            raise ConfigError("integrator.lambda_span is required with \"initial\"")
    else:
        circ = _block(cfg, "circular", {"l2"}, {})
        l2 = _number(circ.get("l2"), "circular.l2", positive=True)

    k = None
    frame = _block(cfg, "frame", {"k"}, None)
    if frame is not None and frame.get("k") is not None:
        k = _vec(frame["k"], 4, "frame.k")
        e = math.frexp(max(map(abs, k)))[1]  # scaled by 2^-e, k.k cannot overflow or underflow
        k = FourVector(*(math.ldexp(c, -e) for c in k))
        if not (k.norm2() > 0.0 and k.t > 0.0):
            raise ConfigError("frame.k must be future-pointing timelike")

    out = _block(cfg, "output", {"format", "path"})
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    path = out.get("path")
    if not isinstance(path, str) or not path:
        raise ConfigError("output.path must be a non-empty string")
    path = _resolve_out(path)

    # every check of the document and its output path is above: both exit 2 before any solve
    orbit = None
    if lam_override is not None:
        shell = mass_shell_from_lambda(m1, m2, lam_override)
    elif has_initial:
        shell = self_consistent_shell(m1, m2, model, z0, e0)
    else:
        shell, orbit = self_consistent_circular(m1, m2, model, l2)
    if has_initial:
        state0 = ReducedState(lambda_=0.0, ztil=np.array(z0), ytil=np.array(e0))
    else:
        if orbit is None:
            orbit = find_circular(model, shell, l2)
        state0 = orbit.initial_state()
        if span is None:
            span = orbit.period_lambda
    # only the direction of k matters; rescale it onto the collective shell
    frame_k = None if k is None else k * (shell.M / math.sqrt(k.norm2()))

    return Scenario(cfg=cfg, shell=shell, model=model, initial=state0,
                    span=span, opts=opts, frame_k=frame_k, out_format=fmt,
                    out_path=path, orbit=orbit)


def _resolve_out(path: str) -> str:
    """path, moved into PTB_OUTPUT_DIR if set, with its directory made; a
    directory there is refused as open() refuses it, but nothing is opened."""
    base = os.environ.get("PTB_OUTPUT_DIR")
    path = os.path.join(base, os.path.basename(path)) if base else path
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return path


def run_scenario(sc: Scenario) -> tuple[str, dict, Trajectory]:
    traj = integrate(sc.initial, sc.shell, sc.model, sc.span, sc.opts)
    ws = worldlines(traj)
    if sc.frame_k is not None:
        ws = export_lab_frame(ws, sc.frame_k)
    diag = diagnostics(traj)
    if sc.out_format == "csv":
        write_csv(sc.out_path, trajectory_rows(traj, ws))
    else:
        extra = {"scenario": sc.cfg, "exit": 0}
        write_json(sc.out_path, json_payload(traj, ws, extra=extra, diag=diag))
    # the orbit keys go to the caller only, not into the file
    if sc.orbit is not None:
        diag.update(orbit_rho=sc.orbit.rho, orbit_Omega=sc.orbit.Omega,
                    orbit_period_T=sc.orbit.period_T)
    return sc.out_path, diag, traj


def _print_fields(fields: dict, indent: str = "") -> None:
    for key, val in fields.items():
        if isinstance(val, float):
            val = format_float(val)
        print(f"{indent}{key} = {val}")


# ---------------------------------------------------------------- simulate

def _parse_floats(text: str, n: Optional[int], what: str) -> tuple:
    try:
        vals = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}")
    if n and len(vals) != n:
        raise ConfigError(f"{what} needs {n} components, got {len(vals)}")
    return vals


# the model parameters of simulate and circular: (name, type, help on simulate)
_PARAMS = (
    ("chi", float, "harmonic strength"),
    ("g", float, "central_power strength (g < 0 attracts)"),
    ("n", int, "central_power exponent"),
)

# simulate's override flags: (flag, config path, n, argparse keywords).  A
# given flag sets the field at its dotted path; with n set its text is n
# comma-separated numbers, any count for n = 0, and a lone number stays a number.
_OVERRIDES = (
    ("--m1", "masses.m1", None, {"type": float}),
    ("--m2", "masses.m2", None, {"type": float}),
    ("--potential", "potential.kind", None, {"help": "free, harmonic or central_power"}),
    *((f"--{name}", f"potential.params.{name}", None, {"type": typ, "help": text})
      for name, typ, text in _PARAMS),
    ("--ztil", "initial.ztil", 3, {"help": "initial separation, e.g. 1,0,0"}),
    ("--ytil", "initial.ytil", 3, {"help": "initial relative momentum, e.g. 0,0.5,0"}),
    ("--l2", "circular.l2", None,
     {"type": float, "help": "circular scenario: squared angular momentum"}),
    ("--lambda-span", "integrator.lambda_span", 0, {"help": "length L or 0,L"}),
    ("--tol", "integrator.tol", None, {"type": float}),
    ("--max-step", "integrator.max_step", None, {"type": float}),
    ("--sample-interval", "integrator.sample_interval", None, {"type": float}),
    ("--strict-time", "integrator.strict_time", None, {"action": "store_true"}),
    ("--shell-lambda", "shell.lambda", None,
     {"type": float, "help": "expert: bypass self-consistency with this shell lambda"}),
    ("--frame-k", "frame.k", 4, {"help": "lab-frame direction as t,x,y,z (future timelike)"}),
    ("--format", "output.format", None, {"choices": ("csv", "json")}),
    ("--out", "output.path", None, {"help": "output path (overrides config output.path)"}),
)


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    cfg.setdefault("schema", 1)
    for flag, path, n, _ in _OVERRIDES:
        val = getattr(args, flag[2:].replace("-", "_"))
        if val is None or val is False:
            continue
        if n is not None:
            vals = list(_parse_floats(val, n, flag))
            val = vals[0] if len(vals) == 1 else vals
        *blocks, key = path.split(".")
        block = cfg
        for depth, name in enumerate(blocks, 1):
            block = block.setdefault(name, {})
            if not isinstance(block, dict):
                raise ConfigError(f"{'.'.join(blocks[:depth])} must be an object")
        block[key] = val
    return cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.sweep and args.config:
        raise ConfigError("give --config or --sweep, not both")
    if args.sweep:
        codes = []
        for path in args.sweep:  # in sequence; a failed member does not stop the rest
            try:
                out_path, diag, traj = run_scenario(build_scenario(load_config(path)))
            except (PtbError, OSError) as e:
                codes.append(getattr(e, "exit_code", 2))
                print(f"{path}: exit {codes[-1]}: {_error_line(e)}")
                continue
            codes.append(0)
            fault = next(filter(None, traj.faults), None)  # None when the clock is monotone
            note = f" [flagged: {diag['n_flagged']}; {fault}]" if fault else ""
            print(f"{path}: ok: wrote {out_path} ({diag['n_samples']} samples){note}")
        return max(codes)

    cfg = _apply_overrides(load_config(args.config) if args.config else {}, args)
    path, diag, _ = run_scenario(build_scenario(cfg))
    print(f"wrote {path} ({diag['n_samples']} samples)")
    _print_fields(diag, indent="  ")
    return 0


# ---------------------------------------------------------------- circular

def cmd_circular(args: argparse.Namespace) -> int:
    params = {name: getattr(args, name) for name, _, _ in _PARAMS
              if getattr(args, name) is not None}
    model = builtin(args.potential, **params)
    _number(args.l2, "--l2", positive=True)
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if args.nu is not None and args.M is None:
        raise ConfigError("--nu needs --M: with --m1 and --m2 the masses fix nu")
    if args.M is not None and (args.m1 is not None or args.m2 is not None):
        raise ConfigError("give either --M or --m1/--m2, not both")
    if args.M is None and (args.m1 is None or args.m2 is None):
        raise ConfigError("circular needs --M or both --m1 and --m2")
    out = _resolve_out(args.out) if args.out else None
    if args.M is not None:
        shell = shell_from_M(args.M, 0.0 if args.nu is None else args.nu)
        orbit = find_circular(model, shell, args.l2)
    else:
        shell, orbit = self_consistent_circular(args.m1, args.m2, model, args.l2)

    constancy, period = verify_circular(orbit, model, shell, n_samples=args.samples)
    speed = orbit.rho * orbit.Omega / abs(orbit.dTdlambda) if orbit.dTdlambda else math.inf
    report = {
        "rho": orbit.rho,
        "speed2": orbit.speed2,
        "Omega": orbit.Omega,
        "l2": orbit.l2,
        "dT_dlambda": orbit.dTdlambda,
        "period_lambda": orbit.period_lambda,
        "period_T": orbit.period_T,
        "v1": shell.E2 / shell.M * speed,  # rest-frame speeds (E_b/M) |dzeta/dT|
        "v2": shell.E1 / shell.M * speed,
        "M": shell.M,
        "lambda": shell.lambda_,
        "binding_energy": binding_energy(shell),
        "max_scalar_variation": constancy.max_variation,
        "scalars_constant": constancy.ok(),
        "closure_ztil": period.closure_ztil,
        "closure_ytil": period.closure_ytil,
        "T_advance_error": period.T_advance_error,
        "T_linear_residual": period.linear_residual,
        "periodic": period.ok(),
    }
    if report["v1"] >= 1.0:  # v1 >= v2, as E2 >= E1
        log.warning("warning: spacelike world line: particle 1 moves at v1 = %.4g >= 1 in the "
                    "rest frame (v2 = %.4g)", report["v1"], report["v2"])
    _print_fields(report)
    if out:
        write_json(out, {"schema": 1, "circular": report})
    return 0


# ---------------------------------------------------------------- mass-ratio

def cmd_mass_ratio(args: argparse.Namespace) -> int:
    eps_list = _parse_floats(args.eps, None, "--eps")
    _checked(args.m2, args.alpha, eps_list)  # before --out makes its directory
    path = _resolve_out(args.out) if args.out else sys.stdout
    rows = [astuple(r) for r in limit_report(args.m2, args.alpha, eps_list)]
    write_csv(path, rows, [f.name for f in fields(RatioRow)])
    if args.out:
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------- verify-toy

def cmd_verify_toy(args: argparse.Namespace) -> int:
    A = _parse_floats(args.A, 3, "--A")
    B = _parse_floats(args.B, 3, "--B")
    periods = _number(args.periods, "--periods", positive=True)
    tol = _tol(args.tol, "--tol")
    _number(args.threshold, "--threshold", positive=True)
    p = ToyParams(chi=args.chi, M=args.M, A=A, B=B, C=args.C, nu=args.nu)
    shell = shell_for_toy(p)
    z0, e0 = initial_state(p)
    state0 = ReducedState(lambda_=0.0, ztil=np.array(z0), ytil=np.array(e0))
    traj = integrate(state0, shell, builtin("harmonic", chi=p.chi), periods * p.period,
                     IntegratorOptions(tol=tol))

    za, ea = (np.stack(v, axis=-1) for v in analytic_state(p, traj.lam))
    dev_state = float(max(np.max(np.abs(traj.ztil - za)), np.max(np.abs(traj.ytil - ea))))
    dev_T = float(np.max(np.abs(traj.T - analytic_T(p, traj.lam))))
    worst = max(dev_state, dev_T)

    print(f"collective mass M = {format_float(shell.M)} "
          f"(masses {format_float(shell.m1)}, {format_float(shell.m2)})")
    print(f"periods = {args.periods}, samples = {len(traj.lam)}, tol = {args.tol:g}")
    print(f"max |numeric - analytic| state = {dev_state:.3e}")
    print(f"max |numeric - analytic| T     = {dev_T:.3e}")
    if worst <= args.threshold:
        print(f"max |numeric-analytic| <= {args.threshold:g}: ok")
        return 0
    print(f"max |numeric-analytic| = {worst:.3e} exceeds {args.threshold:g}",
          file=sys.stderr)
    return 4


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ptb",
        description="Two-body relativistic dynamics: shell algebra, reduced "
                    "integration, equal-time world lines.")
    ap.add_argument("--version", action="version", version=f"ptb {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario config end to end")
    sim.add_argument("--config", help="JSON scenario file")
    sim.add_argument("--sweep", nargs="+", metavar="CONFIG",
                     help="run several configs one after another, each to its own file")
    for flag, _, _, kwargs in _OVERRIDES:
        sim.add_argument(flag, **kwargs)
    sim.set_defaults(func=cmd_simulate)

    circ = sub.add_parser("circular", help="find and verify a circular orbit")
    circ.add_argument("--potential", required=True)
    for name, typ, _ in _PARAMS:
        circ.add_argument(f"--{name}", type=typ)
    circ.add_argument("--l2", type=float, required=True)
    circ.add_argument("--M", type=float, help="collective mass (bypasses masses)")
    circ.add_argument("--nu", type=float,
                      help="mass-squared asymmetry with --M (default 0), must be <= 0")
    circ.add_argument("--m1", type=float)
    circ.add_argument("--m2", type=float)
    circ.add_argument("--samples", type=int, default=400)
    circ.add_argument("--out", help="also write the report as JSON")
    circ.set_defaults(func=cmd_circular)

    mr = sub.add_parser("mass-ratio", help="extreme mass-ratio offset report")
    mr.add_argument("--m2", type=float, default=1.0)
    mr.add_argument("--alpha", type=float, default=0.0)
    mr.add_argument("--eps", default="1e-2,1e-4,1e-6",
                    help="comma-separated squared mass ratios")
    mr.add_argument("--out", help="write CSV here instead of stdout")
    mr.set_defaults(func=cmd_mass_ratio)

    vt = sub.add_parser("verify-toy",
                        help="integrate the oscillator and compare to closed forms")
    vt.add_argument("--chi", type=float, default=0.125)
    vt.add_argument("--M", type=float, default=4.0)
    vt.add_argument("--A", default="1,0,0")
    vt.add_argument("--B", default="0,0.5,0")
    vt.add_argument("--C", type=float, default=0.0)
    vt.add_argument("--nu", type=float, default=0.0)
    vt.add_argument("--periods", type=float, default=10.0)
    vt.add_argument("--tol", type=float, default=1e-10)
    vt.add_argument("--threshold", type=float, default=1e-8)
    vt.set_defaults(func=cmd_verify_toy)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PtbError, OSError) as e:
        print(_error_line(e), file=sys.stderr)
        return getattr(e, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
