"""Command line front end.

Scenario configs are JSON documents with a schema version; every flag
mirrors a config field and wins over the file.  Errors map to exit codes:

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
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .binding import binding_energy, self_consistent_circular, self_consistent_shell
from .circular import CircularOrbit, find_circular, verify_periodicity, verify_constancy
from .errors import (
    AdmissibilityViolation,
    BadParameter,
    ConfigError,
    InadmissibleAlpha,
    NonMonotoneTime,
    NonTimelikeP,
    PtbError,
)
from .mass_ratio import limit_report
from .mass_shell import MassShell, mass_shell_from_lambda, shell_from_M
from .minkowski import FourVector
from .output import (
    diagnostics,
    format_float,
    json_payload,
    trajectory_rows,
    write_csv,
    write_json,
)
from .potentials import PotentialSpec, builtin
from .reduced import IntegratorOptions, ReducedState, Trajectory, integrate, synchronize
from .toy import (
    ToyParams,
    analytic_T,
    analytic_state,
    initial_state,
    shell_for_toy,
)
from .worldline import export_lab_frame, worldlines

__all__ = ["main"]

log = logging.getLogger(__name__)

_TOL_RANGE = (1e-14, 1e-3)


def _exit_code(err: PtbError) -> int:
    if isinstance(err, NonMonotoneTime):
        return 5
    if isinstance(err, (AdmissibilityViolation, InadmissibleAlpha, NonTimelikeP)):
        return 3
    if isinstance(err, (ConfigError, BadParameter)):
        return 2
    return 4


def _fail(err: PtbError) -> int:
    line = f"{type(err).__name__}: {err}".replace("\n", " ")
    print(line, file=sys.stderr)
    return _exit_code(err)


# ---------------------------------------------------------------- config

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where} must be a number, got {x!r}")
    v = float(x)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    return v


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

    masses = cfg.get("masses")
    if not isinstance(masses, dict):
        raise ConfigError("config needs a \"masses\" object")
    _check_keys(masses, {"m1", "m2"}, "masses")
    m1 = _number(masses.get("m1"), "masses.m1")
    m2 = _number(masses.get("m2"), "masses.m2")
    if m1 > m2:
        log.warning("warning: m1 > m2; swapping so particle 1 is the lighter one")
        m1, m2 = m2, m1

    pot = cfg.get("potential")
    if not isinstance(pot, dict):
        raise ConfigError("config needs a \"potential\" object")
    _check_keys(pot, {"kind", "params"}, "potential")
    kind = pot.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("potential.kind must be a string")
    params = pot.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("potential.params must be an object")
    model = builtin(kind, **params)

    integ = cfg.get("integrator", {})
    if not isinstance(integ, dict):
        raise ConfigError("integrator must be an object")
    _check_keys(integ, {"tol", "max_step", "lambda_span", "sample_interval",
                        "strict_time"}, "integrator")
    tol = _number(integ.get("tol", 1e-10), "integrator.tol")
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise ConfigError(
            f"integrator.tol must lie in [{_TOL_RANGE[0]:g}, {_TOL_RANGE[1]:g}], got {tol:g}")
    max_step = integ.get("max_step", math.inf)
    if max_step is not None:
        max_step = _number(max_step, "integrator.max_step") if max_step != math.inf else math.inf
        if not max_step > 0.0:
            raise ConfigError("integrator.max_step must be positive")
    else:
        max_step = math.inf
    sample_interval = integ.get("sample_interval")
    if sample_interval is not None:
        sample_interval = _number(sample_interval, "integrator.sample_interval")
        if not sample_interval > 0.0:
            raise ConfigError("integrator.sample_interval must be positive")
    strict = integ.get("strict_time", False)
    if not isinstance(strict, bool):
        raise ConfigError("integrator.strict_time must be true or false")
    opts = IntegratorOptions(tol=tol, max_step=max_step,
                             sample_interval=sample_interval, strict_time=strict)

    span = integ.get("lambda_span")
    if span is not None:
        if isinstance(span, (list, tuple)):
            lo, hi = _vec(span, 2, "integrator.lambda_span")
            if lo != 0.0:
                raise ConfigError("integrator.lambda_span must start at 0")
            span = hi
        else:
            span = _number(span, "integrator.lambda_span")
        if not span > 0.0:
            raise ConfigError("integrator.lambda_span must be positive")

    shell_cfg = cfg.get("shell")
    lam_override = None
    if shell_cfg is not None:
        if not isinstance(shell_cfg, dict):
            raise ConfigError("shell must be an object")
        _check_keys(shell_cfg, {"lambda"}, "shell")
        if "lambda" not in shell_cfg:
            raise ConfigError("shell block needs a \"lambda\" value")
        lam_override = _number(shell_cfg["lambda"], "shell.lambda")

    has_initial = "initial" in cfg
    has_circular = "circular" in cfg
    if has_initial == has_circular:
        raise ConfigError("config needs exactly one of \"initial\" or \"circular\"")

    orbit = None
    if has_initial:
        init = cfg["initial"]
        if not isinstance(init, dict):
            raise ConfigError("initial must be an object")
        _check_keys(init, {"ztil", "ytil"}, "initial")
        z0 = _vec(init.get("ztil"), 3, "initial.ztil")
        e0 = _vec(init.get("ytil"), 3, "initial.ytil")
        if lam_override is not None:
            shell = mass_shell_from_lambda(m1, m2, lam_override)
        else:
            shell = self_consistent_shell(m1, m2, model, z0, e0)
        state0 = ReducedState(lambda_=0.0, ztil=np.array(z0), ytil=np.array(e0))
        if span is None:
            raise ConfigError("integrator.lambda_span is required with \"initial\"")
    else:
        circ = cfg["circular"]
        if not isinstance(circ, dict):
            raise ConfigError("circular must be an object")
        _check_keys(circ, {"l2"}, "circular")
        l2 = _number(circ.get("l2"), "circular.l2")
        if not l2 > 0.0:
            raise ConfigError("circular.l2 must be positive")
        if lam_override is not None:
            shell = mass_shell_from_lambda(m1, m2, lam_override)
            orbit = find_circular(model, shell, l2)
        else:
            shell, orbit = self_consistent_circular(m1, m2, model, l2)
        state0 = orbit.initial_state()
        if span is None:
            span = orbit.period_lambda

    frame_k = None
    frame = cfg.get("frame")
    if frame is not None:
        if not isinstance(frame, dict):
            raise ConfigError("frame must be an object")
        _check_keys(frame, {"k"}, "frame")
        if frame.get("k") is not None:
            k = _vec(frame["k"], 4, "frame.k")
            kv = FourVector(*k)
            k2 = kv.norm2()
            if not (k2 > 0.0 and kv.t > 0.0):
                raise ConfigError("frame.k must be future-pointing timelike")
            # only the direction matters; rescale onto the collective shell
            frame_k = kv * (shell.M / math.sqrt(k2))

    out = cfg.get("output")
    if not isinstance(out, dict):
        raise ConfigError("config needs an \"output\" object")
    _check_keys(out, {"format", "path"}, "output")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    path = out.get("path")
    if not isinstance(path, str) or not path:
        raise ConfigError("output.path must be a non-empty string")

    return Scenario(cfg=cfg, shell=shell, model=model, initial=state0,
                    span=span, opts=opts, frame_k=frame_k, out_format=fmt,
                    out_path=path, orbit=orbit)


def _resolve_out(path: str) -> str:
    base = os.environ.get("PTB_OUTPUT_DIR")
    if base:
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, os.path.basename(path))
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def run_scenario(sc: Scenario) -> tuple[str, dict, Trajectory]:
    traj = integrate(sc.initial, sc.shell, sc.model, sc.span, sc.opts)
    traj = synchronize(traj)
    ws = worldlines(traj)
    if sc.frame_k is not None:
        ws = export_lab_frame(ws, sc.frame_k)
    diag = diagnostics(traj)
    if sc.orbit is not None:
        diag["orbit_rho"] = sc.orbit.rho
        diag["orbit_Omega"] = sc.orbit.Omega
        diag["orbit_period_T"] = sc.orbit.period_T
    path = _resolve_out(sc.out_path)
    if sc.out_format == "csv":
        write_csv(path, trajectory_rows(traj, ws))
    else:
        extra = {"scenario": sc.cfg, "exit": 0}
        write_json(path, json_payload(traj, ws, extra=extra))
    return path, diag, traj


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
    if n is not None and len(vals) != n:
        raise ConfigError(f"{what} needs {n} components, got {len(vals)}")
    return vals


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    def ensure(key):
        block = cfg.setdefault(key, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{key} must be an object")
        return block

    cfg.setdefault("schema", 1)
    if args.m1 is not None:
        ensure("masses")["m1"] = args.m1
    if args.m2 is not None:
        ensure("masses")["m2"] = args.m2
    if args.potential is not None:
        ensure("potential")["kind"] = args.potential
    for name in ("chi", "g", "n"):
        val = getattr(args, name)
        if val is not None:
            pot = ensure("potential")
            pot.setdefault("params", {})[name] = val
    if args.ztil is not None:
        ensure("initial")["ztil"] = list(_parse_floats(args.ztil, 3, "--ztil"))
    if args.ytil is not None:
        ensure("initial")["ytil"] = list(_parse_floats(args.ytil, 3, "--ytil"))
    if args.l2 is not None:
        ensure("circular")["l2"] = args.l2
    if args.lambda_span is not None:
        vals = _parse_floats(args.lambda_span, None, "--lambda-span")
        ensure("integrator")["lambda_span"] = vals[0] if len(vals) == 1 else list(vals)
    if args.tol is not None:
        ensure("integrator")["tol"] = args.tol
    if args.max_step is not None:
        ensure("integrator")["max_step"] = args.max_step
    if args.sample_interval is not None:
        ensure("integrator")["sample_interval"] = args.sample_interval
    if args.strict_time:
        ensure("integrator")["strict_time"] = True
    if args.shell_lambda is not None:
        ensure("shell")["lambda"] = args.shell_lambda
    if args.frame_k is not None:
        ensure("frame")["k"] = list(_parse_floats(args.frame_k, 4, "--frame-k"))
    if args.format is not None:
        ensure("output")["format"] = args.format
    if args.out is not None:
        ensure("output")["path"] = args.out
    return cfg


def _sweep_worker(path: str) -> tuple[str, int, str]:
    try:
        sc = build_scenario(load_config(path))
        out_path, diag, _ = run_scenario(sc)
    except PtbError as e:
        msg = f"{type(e).__name__}: {e}".replace("\n", " ")
        return path, _exit_code(e), msg
    line = f"wrote {out_path} ({diag['n_samples']} samples)"
    if diag.get("monotone") is False:
        line += f" [flagged: {diag['n_flagged']}]"
    return path, 0, line


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.sweep:
        codes = []
        with ProcessPoolExecutor(max_workers=min(len(args.sweep), os.cpu_count() or 1)) as ex:
            for path, code, msg in ex.map(_sweep_worker, args.sweep):
                status = "ok" if code == 0 else f"exit {code}"
                print(f"{path}: {status}: {msg}")
                codes.append(code)
        return max(codes)

    cfg = load_config(args.config) if args.config else {}
    cfg = _apply_overrides(cfg, args)
    sc = build_scenario(cfg)
    path, diag, _ = run_scenario(sc)
    print(f"wrote {path} ({diag['n_samples']} samples)")
    _print_fields(diag, indent="  ")
    return 0


# ---------------------------------------------------------------- circular

def cmd_circular(args: argparse.Namespace) -> int:
    params = {}
    if args.chi is not None:
        params["chi"] = args.chi
    if args.g is not None:
        params["g"] = args.g
    if args.n is not None:
        params["n"] = args.n
    model = builtin(args.potential, **params)
    if not args.l2 > 0.0:
        raise ConfigError("--l2 must be positive")

    if args.M is not None:
        if args.m1 is not None or args.m2 is not None:
            raise ConfigError("give either --M or --m1/--m2, not both")
        shell = shell_from_M(args.M, args.nu)
        orbit = find_circular(model, shell, args.l2)
    elif args.m1 is not None and args.m2 is not None:
        shell, orbit = self_consistent_circular(args.m1, args.m2, model, args.l2)
    else:
        raise ConfigError("circular needs --M or both --m1 and --m2")

    constancy = verify_constancy(orbit, model, shell, n_samples=args.samples)
    period = verify_periodicity(orbit, model, shell)
    report = {
        "rho": orbit.rho,
        "speed2": orbit.speed2,
        "Omega": orbit.Omega,
        "l2": orbit.l2,
        "dT_dlambda": orbit.dTdlambda,
        "period_lambda": orbit.period_lambda,
        "period_T": orbit.period_T,
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
    _print_fields(report)
    if args.out:
        write_json(_resolve_out(args.out), {"schema": 1, "circular": report})
    return 0


# ---------------------------------------------------------------- mass-ratio

def cmd_mass_ratio(args: argparse.Namespace) -> int:
    eps_list = _parse_floats(args.eps, None, "--eps")
    rows = limit_report(args.m2, args.alpha, eps_list)
    header = "eps,gamma,alpha,offset,limit,residual"
    lines = [header]
    for r in rows:
        lines.append(",".join(format_float(v) for v in
                              (r.eps, r.gamma, r.alpha, r.offset, r.limit, r.residual)))
    text = "\n".join(lines) + "\n"
    if args.out:
        path = _resolve_out(args.out)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- verify-toy

def cmd_verify_toy(args: argparse.Namespace) -> int:
    A = _parse_floats(args.A, 3, "--A")
    B = _parse_floats(args.B, 3, "--B")
    p = ToyParams(chi=args.chi, M=args.M, A=A, B=B, C=args.C, nu=args.nu)
    shell = shell_for_toy(p)
    z0, e0 = initial_state(p)
    state0 = ReducedState(lambda_=0.0, ztil=np.array(z0), ytil=np.array(e0))
    span = args.periods * p.period
    model = builtin("harmonic", chi=p.chi)
    traj = synchronize(integrate(state0, shell, model, span,
                                 IntegratorOptions(tol=args.tol)))

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
                     help="run several configs in parallel, each to its own file")
    sim.add_argument("--m1", type=float)
    sim.add_argument("--m2", type=float)
    sim.add_argument("--potential", help="free, harmonic or central_power")
    sim.add_argument("--chi", type=float, help="harmonic strength")
    sim.add_argument("--g", type=float, help="central_power strength (g < 0 attracts)")
    sim.add_argument("--n", type=int, help="central_power exponent")
    sim.add_argument("--ztil", help="initial separation, e.g. 1,0,0")
    sim.add_argument("--ytil", help="initial relative momentum, e.g. 0,0.5,0")
    sim.add_argument("--l2", type=float, help="circular scenario: squared angular momentum")
    sim.add_argument("--lambda-span", dest="lambda_span", help="length L or 0,L")
    sim.add_argument("--tol", type=float)
    sim.add_argument("--max-step", dest="max_step", type=float)
    sim.add_argument("--sample-interval", dest="sample_interval", type=float)
    sim.add_argument("--strict-time", dest="strict_time", action="store_true")
    sim.add_argument("--shell-lambda", dest="shell_lambda", type=float,
                     help="expert: bypass self-consistency with this shell lambda")
    sim.add_argument("--frame-k", dest="frame_k",
                     help="lab-frame direction as t,x,y,z (future timelike)")
    sim.add_argument("--format", choices=("csv", "json"))
    sim.add_argument("--out", help="output path (overrides config output.path)")
    sim.set_defaults(func=cmd_simulate)

    circ = sub.add_parser("circular", help="find and verify a circular orbit")
    circ.add_argument("--potential", required=True)
    circ.add_argument("--chi", type=float)
    circ.add_argument("--g", type=float)
    circ.add_argument("--n", type=int)
    circ.add_argument("--l2", type=float, required=True)
    circ.add_argument("--M", type=float, help="collective mass (bypasses masses)")
    circ.add_argument("--nu", type=float, default=0.0,
                      help="mass-squared asymmetry with --M, must be <= 0")
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
    if args.command == "simulate" and args.sweep and args.config:
        print("ConfigError: give --config or --sweep, not both", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except PtbError as e:
        return _fail(e)


if __name__ == "__main__":
    sys.exit(main())
