import builtins
import copy
import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ptb.cli
import ptb.output
from ptb.binding import self_consistent_circular
from ptb.cli import main
from ptb.potentials import CentralPowerPotential
from ptb.reduced import IntegratorOptions, integrate
from ptb.worldline import worldlines

PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env=None, timeout=120):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "ptb", *args],
                          capture_output=True, text=True, env=full_env,
                          timeout=timeout, cwd=PKG)


def write_config(path, **overrides):
    cfg = {
        "schema": 1,
        "masses": {"m1": math.sqrt(2.75), "m2": math.sqrt(2.75)},
        "potential": {"kind": "harmonic", "params": {"chi": 0.125}},
        "initial": {"ztil": [1.0, 0.0, 0.0], "ytil": [0.0, 0.5, 0.0]},
        "integrator": {"lambda_span": 6.0, "sample_interval": 0.5},
        "output": {"format": "csv", "path": str(path.parent / "out.csv")},
    }
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return cfg


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "0.1.0" in r.stdout


def test_simulate_csv_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 0, r.stderr
    out = tmp_path / "out.csv"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("lam,T,tau1,tau2,ztil_x")
    assert len(lines[0].split(",")) == 25
    assert len(lines) == 14  # header + 13 samples (0, 0.5, ..., 6.0)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == 1.0


def test_simulate_deterministic_reruns(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out.csv"
    run_cli("simulate", "--config", str(cfg_path))
    b1 = out.read_bytes()
    run_cli("simulate", "--config", str(cfg_path))
    assert out.read_bytes() == b1


def test_simulate_json_format(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, output={"format": "json",
                                   "path": str(tmp_path / "out.json")})
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 0, r.stderr
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["schema"] == 1
    assert payload["exit"] == 0
    assert payload["diagnostics"]["monotone"] is True
    assert payload["scenario"]["potential"]["kind"] == "harmonic"


def test_a_json_run_computes_its_diagnostics_once(tmp_path, monkeypatch):
    # the file gets the run's diagnostics; the orbit keys go to the caller only
    calls = []

    def counted(traj):
        calls.append(traj)
        return diagnostics(traj)

    diagnostics = ptb.cli.diagnostics
    monkeypatch.setattr(ptb.cli, "diagnostics", counted)
    monkeypatch.setattr(ptb.output, "diagnostics", counted)
    cfg = write_config(tmp_path / "cfg.json", initial=None, circular={"l2": 2.0},
                       output={"format": "json", "path": str(tmp_path / "out.json")})
    _, diag, traj = ptb.cli.run_scenario(ptb.cli.build_scenario(cfg))
    assert len(calls) == 1 and calls[0] is traj
    written = json.loads((tmp_path / "out.json").read_text())["diagnostics"]
    assert {k for k in diag if k.startswith("orbit_")} == {"orbit_rho", "orbit_Omega",
                                                          "orbit_period_T"}
    assert written == json.loads(json.dumps({k: v for k, v in diag.items()
                                             if not k.startswith("orbit_")}))


def test_missing_config_file(tmp_path):
    r = run_cli("simulate", "--config", str(tmp_path / "absent.json"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1  # single-line error
    assert "ConfigError" in r.stderr


def test_non_utf8_config(tmp_path, capsys):
    p = tmp_path / "latin.json"
    p.write_bytes(b'{"schema": 1, "note": "\xe9"}')
    code, err = run_main(capsys, "simulate", "--config", str(p))
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"ConfigError: config is not UTF-8 text: {p}: ")


def unwritable(tmp_path, kind):
    """A path that cannot be opened as a file: a directory, or one under a
    regular file."""
    if kind == "directory":
        (tmp_path / "dir").mkdir()
        return tmp_path / "dir"
    (tmp_path / "plain").write_text("")
    return tmp_path / "plain" / "a.csv"


@pytest.mark.parametrize("kind", ["directory", "under a file"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}", "--out", "{out}"],
    ["circular", "--potential", "harmonic", "--chi", "0.125", "--l2", "1", "--M", "4",
     "--samples", "20", "--out", "{out}"],
    ["mass-ratio", "--out", "{out}"],
    ["simulate", "--config", "{out}"],
], ids=["simulate-out", "circular-out", "mass-ratio-out", "simulate-config"])
def test_an_unusable_path_is_one_error_line(tmp_path, capsys, monkeypatch, argv, kind):
    # an OSError names its path on one line and exits 2, like a config error
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    cfg, out = tmp_path / "cfg.json", unwritable(tmp_path, kind)
    write_config(cfg)
    code, err = run_main(capsys, *(a.format(cfg=cfg, out=out) for a in argv))
    assert code == 2 and err.count("\n") == 1
    name, reason = err.rstrip("\n").split(": ", 1)
    assert issubclass(getattr(builtins, name), OSError)
    assert str(tmp_path) in reason


def test_a_sweep_member_with_an_unusable_path_stops_only_itself(tmp_path):
    paths = []
    for i, out in enumerate([tmp_path / "a.csv", unwritable(tmp_path, "directory"),
                             tmp_path / "c.csv"]):
        paths.append(tmp_path / f"cfg{i}.json")
        write_config(paths[-1], output={"format": "csv", "path": str(out)})
    r = run_cli("simulate", "--sweep", *map(str, paths))
    assert r.returncode == 2 and not r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].startswith(f"{paths[0]}: ok: wrote ")
    assert lines[1].startswith(f"{paths[1]}: exit 2: IsADirectoryError: ")
    assert lines[2].startswith(f"{paths[2]}: ok: wrote ")
    assert (tmp_path / "a.csv").exists() and (tmp_path / "c.csv").exists()


SOLVERS = ("self_consistent_shell", "self_consistent_circular", "mass_shell_from_lambda",
           "shell_from_M", "find_circular", "verify_circular", "integrate", "limit_report")


@pytest.mark.parametrize("redirect", [False, True], ids=["out", "PTB_OUTPUT_DIR"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}", "--out", "{out}"],
    ["simulate", "--config", "{circ}", "--out", "{out}"],
    ["circular", "--potential", "harmonic", "--chi", "0.125", "--l2", "1", "--M", "4",
     "--out", "{out}"],
    ["circular", "--potential", "central_power", "--g", "-1", "--n", "1", "--m1", "1",
     "--m2", "2", "--l2", "50", "--out", "{out}"],
    ["mass-ratio", "--out", "{out}"],
], ids=["simulate", "simulate-circular", "circular-M", "circular-masses", "mass-ratio"])
def test_a_directory_out_path_is_refused_before_any_solve(tmp_path, capsys, monkeypatch,
                                                          argv, redirect):
    # no shell, orbit or integration runs and nothing is printed: the one
    # line is the one open() gives
    calls = []

    def counted(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in SOLVERS:
        monkeypatch.setattr(ptb.cli, name, counted(name, getattr(ptb.cli, name)))
    cfg, circ = tmp_path / "cfg.json", tmp_path / "circ.json"
    write_config(cfg)
    write_config(circ, **CIRCULAR)
    out = unwritable(tmp_path, "directory")
    if redirect:
        monkeypatch.setenv("PTB_OUTPUT_DIR", str(tmp_path))
        argv = [a.replace("{out}", "elsewhere/{out}") for a in argv]
    else:
        monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    code = main([a.format(cfg=cfg, circ=circ, out="dir" if redirect else out) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (2, "", [])
    assert captured.err == f"IsADirectoryError: [Errno 21] Is a directory: '{out}'\n"


def test_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    r = run_cli("simulate", "--config", str(p))
    assert r.returncode == 2
    assert "ConfigError" in r.stderr


def test_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, typo={"oops": 1})
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 2
    assert "typo" in r.stderr


def test_admissibility_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, masses={"m1": 1.5, "m2": 2.0},
                 shell={"lambda": -2.3})
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 3
    assert "LambdaBoundViolation" in r.stderr
    assert "m1^2 + lambda > 0" in r.stderr


def test_exit_codes_are_declared_on_the_error_classes():
    # a subclass takes its base's code: InadmissibleAlpha is an admissibility violation
    from ptb import errors
    assert {name: cls.exit_code for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.PtbError)} == {
        "PtbError": 4, "NonTimelikeP": 3, "AdmissibilityViolation": 3,
        "LambdaBoundViolation": 3, "InadmissibleAlpha": 3, "DomainError": 4,
        "BadParameter": 2, "StepFailure": 4, "NonMonotoneTime": 5, "OutOfRange": 4,
        "FrameMismatch": 4, "NoRoot": 4, "NotCentral": 4, "DegenerateOrbit": 4,
        "ConfigError": 2}


def test_strict_time_exit_code(tmp_path):
    # off-shell data: declared shell lambda far below the orbit's own value
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, masses={"m1": 1.0, "m2": 1.0},
                 potential={"kind": "harmonic", "params": {"chi": 1.0}},
                 initial={"ztil": [0.0, 8.0, 0.0], "ytil": [0.5, 0.0, 0.0]},
                 shell={"lambda": 0.01},
                 integrator={"lambda_span": 5.0, "sample_interval": 0.5,
                             "strict_time": True})
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 5
    assert "NonMonotoneTime" in r.stderr


def test_relaxed_off_shell_flags_rows(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, masses={"m1": 1.0, "m2": 1.0},
                 potential={"kind": "harmonic", "params": {"chi": 1.0}},
                 initial={"ztil": [0.0, 8.0, 0.0], "ytil": [0.5, 0.0, 0.0]},
                 shell={"lambda": 0.01},
                 integrator={"lambda_span": 5.0, "sample_interval": 0.5})
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 0
    body = (tmp_path / "out.csv").read_text().splitlines()[1:]
    assert any("nan" in line for line in body)


def test_mass_swap_warning(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, masses={"m1": 2.0, "m2": 1.0},
                 potential={"kind": "free"})
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 0
    assert "swap" in r.stderr.lower() or "swapped" in r.stderr.lower()


def test_output_dir_redirect(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, output={"format": "csv", "path": "nested/run.csv"})
    target = tmp_path / "redirect"
    r = run_cli("simulate", "--config", str(cfg_path),
                env={"PTB_OUTPUT_DIR": str(target)})
    assert r.returncode == 0, r.stderr
    assert (target / "run.csv").exists()


def test_cli_overrides(tmp_path):
    out = tmp_path / "o.csv"
    r = run_cli("simulate", "--m1", "1", "--m2", "2", "--potential", "free",
                "--ztil", "1,0,0", "--ytil", "0,0.5,0",
                "--lambda-span", "4", "--sample-interval", "1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 6


def test_config_and_sweep_conflict(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    r = run_cli("simulate", "--config", str(cfg_path),
                "--sweep", str(cfg_path))
    assert r.returncode == 2


def test_sweep_runs_all(tmp_path):
    paths = []
    for i in range(3):
        p = tmp_path / f"cfg{i}.json"
        write_config(p, output={"format": "csv",
                                "path": str(tmp_path / f"out{i}.csv")})
        paths.append(str(p))
    r = run_cli("simulate", "--sweep", *paths)
    assert r.returncode == 0, r.stderr
    for i in range(3):
        assert (tmp_path / f"out{i}.csv").exists()


def test_sweep_propagates_worst_exit(tmp_path):
    good = tmp_path / "good.json"
    write_config(good, output={"format": "csv", "path": str(tmp_path / "g.csv")})
    bad = tmp_path / "bad.json"
    write_config(bad, masses={"m1": 1.5, "m2": 2.0}, shell={"lambda": -2.3},
                 output={"format": "csv", "path": str(tmp_path / "b.csv")})
    r = run_cli("simulate", "--sweep", str(good), str(bad))
    assert r.returncode == 3
    assert (tmp_path / "g.csv").exists()
    assert not (tmp_path / "b.csv").exists()


def test_a_sweep_line_names_the_clock_fault_of_a_member(tmp_path, capsys, monkeypatch):
    # the clock dips between step ends while every sample rate stays positive:
    # nothing is flagged, yet the member is not monotone, and its line says why
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    dip, good = tmp_path / "dip.json", tmp_path / "good.json"
    write_config(dip, masses={"m1": 2.0, "m2": 2.0}, shell={"lambda": 0.0},
                 initial={"ztil": [0.0, 0.5, 0.0], "ytil": [3.0, 0.0, 0.0]},
                 integrator={"lambda_span": 8 * math.pi, "sample_interval": 2 * math.pi},
                 output={"format": "csv", "path": str(tmp_path / "dip.csv")})
    write_config(good, output={"format": "csv", "path": str(tmp_path / "good.csv")})
    assert main(["simulate", "--sweep", str(dip), str(good)]) == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = ptb.cli.build_scenario(ptb.cli.load_config(str(dip)))
    traj = integrate(cfg.initial, cfg.shell, cfg.model, cfg.span, cfg.opts)
    assert not traj.monotone and not traj.flagged.any()
    assert lines[0] == (f"{dip}: ok: wrote {tmp_path / 'dip.csv'} (5 samples) "
                        f"[flagged: 0; {traj.faults[0]}]")
    assert lines[1] == f"{good}: ok: wrote {tmp_path / 'good.csv'} (13 samples)"


def parse_report(stdout):
    report = {}
    for line in stdout.strip().splitlines():
        key, _, val = line.partition(" = ")
        if val in ("True", "False"):
            report[key] = val == "True"
        else:
            try:
                report[key] = float(val)
            except ValueError:
                report[key] = val
    return report


def test_circular_command(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("circular", "--potential", "harmonic", "--chi", "0.125",
                "--l2", "1.0", "--M", "4", "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = parse_report(r.stdout)
    assert report["rho"] == pytest.approx(1.0, rel=1e-12)
    assert report["Omega"] == pytest.approx(1.0, rel=1e-12)
    assert report["period_T"] == pytest.approx(2.0 * math.pi * 0.875, rel=1e-10)
    assert report["max_scalar_variation"] < 1e-9
    assert report["scalars_constant"] is True
    assert report["periodic"] is True
    # --M mode picks masses that carry the whole M at lambda = 0
    assert report["binding_energy"] == pytest.approx(0.0, abs=1e-15)
    assert report["lambda"] == 0.0
    # the JSON sidecar mirrors the stdout report
    payload = json.loads(out.read_text())
    assert payload["circular"]["rho"] == pytest.approx(report["rho"], rel=1e-15)


def test_circular_masses_mode():
    r = run_cli("circular", "--potential", "central_power", "--g", "-1",
                "--n", "1", "--l2", "50", "--m1", "1", "--m2", "2")
    assert r.returncode == 0, r.stderr
    report = parse_report(r.stdout)
    assert report["rho"] == pytest.approx(50.0 / report["M"], rel=1e-9)


def test_circular_masses_mode_closes_a_strongly_bound_orbit():
    # lambda = -M(lambda)^2/l2 has a root for every l2 > 3 at masses (1, 2);
    # at l2 = 4 it sits at E1 = 0.21, close to the bound lambda > -m1^2
    r = run_cli("circular", "--potential", "central_power", "--g", "-1",
                "--n", "1", "--m1", "1", "--m2", "2", "--l2", "4")
    assert r.returncode == 0, r.stderr
    report = parse_report(r.stdout)
    assert report["lambda"] == pytest.approx(-0.9557189138830738, abs=1e-12)


def test_circular_reports_each_particles_speed_and_warns_past_light(tmp_path, capsys, caplog):
    # the light particle of the l2 = 5 orbit circles faster than light: v1 is
    # reported, with a warning, and read off the world line it would write
    out = tmp_path / "report.json"
    with caplog.at_level(logging.WARNING, logger="ptb.cli"):
        code = main(["circular", "--potential", "central_power", "--g", "-1", "--n", "1",
                     "--m1", "1", "--m2", "2", "--l2", "5", "--out", str(out)])
    assert code == 0
    report = parse_report(capsys.readouterr().out)
    assert [r.getMessage() for r in caplog.records] == [
        "warning: spacelike world line: particle 1 moves at v1 = 1.119 >= 1 in the rest "
        "frame (v2 = 0.215)"]
    assert report["v1"] > 1.0 > report["v2"] > 0.0
    payload = json.loads(out.read_text())["circular"]
    assert (payload["v1"], payload["v2"]) == (report["v1"], report["v2"])
    # the chord speeds of the two world lines over the verified period
    model = CentralPowerPotential(-1.0, 1)
    shell, orbit = self_consistent_circular(1.0, 2.0, model, 5.0)
    opts = IntegratorOptions(tol=1e-10, sample_interval=orbit.period_lambda / 400)
    ws = worldlines(integrate(orbit.initial_state(), shell, model, orbit.period_lambda, opts))
    for key, x in (("v1", ws.x1), ("v2", ws.x2)):
        d = np.diff(x, axis=0)
        speeds = np.linalg.norm(d[:, 1:], axis=1) / d[:, 0]
        assert np.max(np.abs(speeds - report[key])) <= 1e-4


def test_circular_repulsive_fails_cleanly():
    r = run_cli("circular", "--potential", "central_power", "--g", "1",
                "--n", "1", "--l2", "1.0", "--M", "4")
    assert r.returncode == 4
    assert "NoRoot" in r.stderr


def test_circular_rejects_M_with_masses():
    r = run_cli("circular", "--potential", "harmonic", "--chi", "1",
                "--l2", "1", "--M", "4", "--m1", "1", "--m2", "2")
    assert r.returncode == 2


def test_mass_ratio_command():
    r = run_cli("mass-ratio", "--alpha", "0", "--eps", "1e-2,1e-4,1e-6")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "eps,gamma,alpha,offset,limit,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][3]) == pytest.approx(0.1 / 1.1, rel=1e-12)
    assert float(rows[1][3]) == pytest.approx(0.01 / 1.01, rel=1e-12)
    assert float(rows[2][3]) == pytest.approx(0.001 / 1.001, rel=1e-12)


def test_mass_ratio_stdout_is_the_csv_file(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    args = ["mass-ratio", "--alpha", "0.5", "--eps", "1e-2,1e-4"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "r.csv")]) == 0
    assert (tmp_path / "r.csv").read_text() == out


@pytest.mark.parametrize("argv, error", [
    (["--eps", "2"], "BadParameter: need eps in (0, 1], got 2.0"),
    (["--alpha", "-1", "--eps", "0.5"], "InadmissibleAlpha: requires alpha > -eps"),
    (["--m2", "0"], "BadParameter: need m2 > 0, got 0.0"),
])
def test_mass_ratio_checks_its_inputs_before_it_makes_the_out_directory(
        tmp_path, capsys, monkeypatch, argv, error):
    # a refused input used to leave the new directories of --out behind, empty
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    out = tmp_path / "D" / "deep" / "out.csv"
    code, err = run_main(capsys, "mass-ratio", *argv, "--out", str(out))
    assert err.startswith(error) and err.count("\n") == 1 and code in (2, 3)
    assert not (tmp_path / "D").exists()


def test_mass_ratio_inadmissible():
    r = run_cli("mass-ratio", "--alpha", "-1", "--eps", "0.5")
    assert r.returncode == 3
    assert "InadmissibleAlpha" in r.stderr


def test_verify_toy_default_pass():
    r = run_cli("verify-toy")
    assert r.returncode == 0, r.stderr
    assert "ok" in r.stdout.lower()


def test_verify_toy_impossible_threshold():
    r = run_cli("verify-toy", "--periods", "5", "--tol", "1e-6",
                "--threshold", "1e-15")
    assert r.returncode == 4
    assert r.stderr.strip()


def test_no_subcommand_is_usage_error():
    r = run_cli()
    assert r.returncode == 2


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    code = ("import sys, ptb.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120, cwd=PKG)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_near_collision_is_a_run_failure(tmp_path):
    # the central_power kernel overflows at this separation: a DomainError
    # from the first RHS call and exit code 4, not a traceback
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, potential={"kind": "central_power", "params": {"g": -1.0, "n": 3}},
                 initial={"ztil": [1e-120, 0.0, 0.0], "ytil": [0.0, 0.5, 0.0]},
                 shell={"lambda": 1.25})
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 4, r.stderr
    assert r.stderr.startswith("DomainError: ")
    assert "n = 3" in r.stderr


def test_an_overflowing_first_step_probe_is_a_run_failure(tmp_path, capsys):
    # |ytil| = 1e145 overflows the square in the scaled norm of f(t0, y0) that
    # picks the first step: it used to end in an OverflowError traceback
    assert run_main(capsys, "simulate", "--m1", "1", "--m2", "2", "--potential", "free",
                    "--ztil", "1,0,0", "--ytil", "0,1e145,0", "--lambda-span", "1",
                    "--out", str(tmp_path / "out.csv")) == (
        4, "StepFailure: scaled norm of f(t0, y0) overflows in the first-step probe at t0 = 0.0\n")


@pytest.mark.parametrize("argv, points", [
    (["simulate", "--sample-interval", "1e-12"], "6e+12"),
    (["circular", "--potential", "harmonic", "--chi", "0.125", "--l2", "1", "--M", "4",
      "--samples", "1000000000000"], "1e+12"),
], ids=["simulate", "circular"])
def test_a_sample_grid_beyond_the_step_budget_is_a_run_failure(tmp_path, capsys, argv, points):
    # refused before the grid is built: each point would end a step of its own
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    argv = argv + ["--config", str(cfg_path)] if argv[0] == "simulate" else argv
    assert run_main(capsys, *argv) == (
        4, f"StepFailure: a sample grid of {points} points needs more accepted steps than "
           "the step budget of 3532045\n")
    assert not (tmp_path / "out.csv").exists()


def test_a_span_below_the_underflow_scale_runs(tmp_path, capsys):
    # the whole span is one step that lands on its end; it was refused with
    # StepFailure: step size underflow at t = 0.0 (h = 1e-15, ...)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, masses={"m1": 1.0, "m2": 2.0},
                 integrator={"lambda_span": 1e-15})
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert "n_samples = 2\n" in capsys.readouterr().out
    assert main(["verify-toy", "--periods", "1e-16"]) == 0
    assert "samples = 2," in capsys.readouterr().out


def run_main(capsys, *args):
    """(exit code, stderr) of the CLI run in this process."""
    code = main(list(args))
    return code, capsys.readouterr().err


CIRCULAR = {"initial": None, "circular": {"l2": 1.0}}

# one document per rejection branch of build_scenario: the overrides of the
# write_config base document and the exact error line
CONFIG_ERRORS = [
    ({"typo": 1}, "ConfigError: unknown key(s) in config: typo"),
    ({"schema": 2}, 'ConfigError: config must declare "schema": 1'),
    ({"masses": [1.0, 2.0]}, 'ConfigError: config needs a "masses" object'),
    ({"masses": {"m1": 1.0, "m2": 2.0, "m3": 3.0}}, "ConfigError: unknown key(s) in masses: m3"),
    ({"masses": {"m2": 2.0}}, "ConfigError: masses.m1 must be a number, got None"),
    ({"masses": {"m1": 1.0, "m2": "2"}}, "ConfigError: masses.m2 must be a number, got '2'"),
    ({"masses": {"m1": 1.0, "m2": True}}, "ConfigError: masses.m2 must be a number, got True"),
    ({"masses": {"m1": 1.0, "m2": math.inf}}, "ConfigError: masses.m2 must be finite, got inf"),
    ({"potential": "harmonic"}, 'ConfigError: config needs a "potential" object'),
    ({"potential": {"kind": "harmonic", "chi": 0.125}},
     "ConfigError: unknown key(s) in potential: chi"),
    ({"potential": {"kind": 3}}, "ConfigError: potential.kind must be a string"),
    ({"potential": {"kind": "harmonic", "params": [0.125]}},
     "ConfigError: potential.params must be an object"),
    ({"integrator": 6.0}, "ConfigError: integrator must be an object"),
    ({"integrator": {"lambda_span": 6.0, "step": 0.1}},
     "ConfigError: unknown key(s) in integrator: step"),
    ({"integrator": {"lambda_span": 6.0, "tol": "small"}},
     "ConfigError: integrator.tol must be a number, got 'small'"),
    ({"integrator": {"lambda_span": 6.0, "tol": 0.1}},
     "ConfigError: integrator.tol must lie in [1e-14, 0.001], got 0.1"),
    ({"integrator": {"lambda_span": 6.0, "max_step": 0}},
     "ConfigError: integrator.max_step must be positive"),
    ({"integrator": {"lambda_span": 6.0, "sample_interval": -0.5}},
     "ConfigError: integrator.sample_interval must be positive"),
    ({"integrator": {"lambda_span": 6.0, "strict_time": "yes"}},
     "ConfigError: integrator.strict_time must be true or false"),
    ({"integrator": {"lambda_span": [0.0, 1.0, 2.0]}},
     "ConfigError: integrator.lambda_span must be a list of 2 numbers"),
    ({"integrator": {"lambda_span": [1.0, 6.0]}},
     "ConfigError: integrator.lambda_span must start at 0"),
    ({"integrator": {"lambda_span": "6"}},
     "ConfigError: integrator.lambda_span must be a number, got '6'"),
    ({"integrator": {"lambda_span": -1.0}}, "ConfigError: integrator.lambda_span must be positive"),
    ({"integrator": {"lambda_span": [0.0, 0.0]}},
     "ConfigError: integrator.lambda_span must be positive"),
    ({"shell": 0.1}, "ConfigError: shell must be an object"),
    ({"shell": {"lambda": 0.1, "M": 3.0}}, "ConfigError: unknown key(s) in shell: M"),
    ({"shell": {}}, 'ConfigError: shell block needs a "lambda" value'),
    ({"shell": {"lambda": "0.1"}}, "ConfigError: shell.lambda must be a number, got '0.1'"),
    ({"circular": {"l2": 1.0}}, 'ConfigError: config needs exactly one of "initial" or "circular"'),
    ({"initial": None}, 'ConfigError: config needs exactly one of "initial" or "circular"'),
    ({"initial": [1.0, 0.0, 0.0]}, "ConfigError: initial must be an object"),
    ({"initial": {"ztil": [1.0, 0.0, 0.0], "ytil": [0.0, 0.5, 0.0], "zeta": 1}},
     "ConfigError: unknown key(s) in initial: zeta"),
    ({"initial": {"ztil": [1.0, 0.0], "ytil": [0.0, 0.5, 0.0]}},
     "ConfigError: initial.ztil must be a list of 3 numbers"),
    ({"initial": {"ztil": [1.0, 0.0, 0.0]}},
     "ConfigError: initial.ytil must be a list of 3 numbers"),
    ({"initial": {"ztil": [1.0, 0.0, 0.0], "ytil": [0.0, "a", 0.0]}},
     "ConfigError: initial.ytil must be a number, got 'a'"),
    ({"integrator": {"sample_interval": 0.5}},
     'ConfigError: integrator.lambda_span is required with "initial"'),
    ({**CIRCULAR, "circular": 1.0}, "ConfigError: circular must be an object"),
    ({**CIRCULAR, "circular": {"l2": 1.0, "rho": 1.0}},
     "ConfigError: unknown key(s) in circular: rho"),
    ({**CIRCULAR, "circular": {}}, "ConfigError: circular.l2 must be a number, got None"),
    ({**CIRCULAR, "circular": {"l2": 0.0}}, "ConfigError: circular.l2 must be positive"),
    ({"frame": [1.0, 0.0, 0.0, 0.0]}, "ConfigError: frame must be an object"),
    ({"frame": {"v": 0.5}}, "ConfigError: unknown key(s) in frame: v"),
    ({"frame": {"k": [1.0, 0.0, 0.0]}}, "ConfigError: frame.k must be a list of 4 numbers"),
    ({"frame": {"k": [1.0, 2.0, 0.0, 0.0]}}, "ConfigError: frame.k must be future-pointing timelike"),
    ({"frame": {"k": [-2.0, 0.0, 0.0, 0.0]}},
     "ConfigError: frame.k must be future-pointing timelike"),
    ({"output": None}, 'ConfigError: config needs an "output" object'),
    ({"output": {"path": "x.csv", "compress": True}},
     "ConfigError: unknown key(s) in output: compress"),
    ({"output": {"format": "xml", "path": "x.xml"}},
     "ConfigError: output.format must be csv or json, got 'xml'"),
    ({"output": {"format": "csv"}}, "ConfigError: output.path must be a non-empty string"),
    ({"output": {"path": ""}}, "ConfigError: output.path must be a non-empty string"),
    ({"potential": {"kind": "harmonic", "params": {"chi": "x"}}},
     "ConfigError: potential.params.chi must be a number, got 'x'"),
    ({"potential": {"kind": "harmonic", "params": {"chi": "0.125"}}},
     "ConfigError: potential.params.chi must be a number, got '0.125'"),
    ({"potential": {"kind": "central_power", "params": {"g": -0.1, "n": True}}},
     "ConfigError: potential.params.n must be a number, got True"),
    ({"potential": {"kind": "harmonic", "params": {"chi": math.nan}}},
     "BadParameter: harmonic model needs chi > 0, got nan"),
    ({"potential": {"kind": "yukawa"}},
     "BadParameter: unknown potential 'yukawa', expected one of "
     "['central_power', 'free', 'harmonic']"),
]


@pytest.mark.parametrize("overrides, line", CONFIG_ERRORS,
                         ids=[line.split(": ", 1)[1] for _, line in CONFIG_ERRORS])
def test_config_error_lines(tmp_path, capsys, overrides, line):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **overrides)
    assert run_main(capsys, "simulate", "--config", str(cfg_path)) == (2, line + "\n")


# every numeric field of a document: (dotted path, list index or None, base
# overrides); the harmonic base holds chi, the central_power one g and n
CENTRAL = {"potential": {"kind": "central_power", "params": {"g": -1.0, "n": 1}}}
NUMERIC_FIELDS = [
    ("masses.m1", None, {}), ("masses.m2", None, {}),
    ("initial.ztil", 0, {}), ("initial.ytil", 1, {}), ("circular.l2", None, CIRCULAR),
    ("integrator.tol", None, {}), ("integrator.max_step", None, {}),
    ("integrator.lambda_span", None, {}), ("integrator.lambda_span", 1, {}),
    ("integrator.sample_interval", None, {}), ("shell.lambda", None, {}),
    ("frame.k", 0, {"frame": {"k": [1.0, 0.0, 0.0, 0.0]}}),
    ("potential.params.chi", None, {}),
    ("potential.params.g", None, CENTRAL), ("potential.params.n", None, CENTRAL),
]
UNFIT = [math.nan, math.inf, -math.inf, 10 ** 400]  # 10 ** 400 has 401 digits


@pytest.mark.parametrize("value", UNFIT, ids=["nan", "inf", "-inf", "401 digits"])
@pytest.mark.parametrize("path, index, overrides", NUMERIC_FIELDS,
                         ids=[f"{p}[{i}]" if i is not None else p for p, i, _ in NUMERIC_FIELDS])
def test_numbers_no_float_holds_are_refused(tmp_path, capsys, monkeypatch,
                                            path, index, overrides, value):
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    cfg = write_config(tmp_path / "base.json", **copy.deepcopy(overrides))
    if index is not None and path == "integrator.lambda_span":
        cfg["integrator"]["lambda_span"] = [0.0, 6.0]
    *blocks, key = path.split(".")
    block = cfg
    for name in blocks:
        block = block.setdefault(name, {})
    if index is None:
        block[key] = value
    else:
        block[key][index] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))  # NaN, Infinity and 401 digits in the JSON text
    code, err = run_main(capsys, "simulate", "--config", str(cfg_path))
    if (path, value) == ("integrator.max_step", math.inf):  # no cap: the default
        assert (code, err) == (0, "")
        return
    assert code == 2
    assert re.fullmatch(r"(ConfigError|BadParameter): [^\n]+\n", err), err
    assert key in err, err


def test_infinite_max_step_echoes_as_null_and_reruns(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    flags = ["simulate", "--potential", "harmonic", "--chi", "0.125", "--m1", "1", "--m2", "2",
             "--ztil", "1,0,0", "--ytil", "0,0.5,0", "--lambda-span", "1", "--format", "json"]
    uncapped, default, echo = (tmp_path / f"{name}.json" for name in ("inf", "default", "echo"))
    assert main([*flags, "--max-step", "inf", "--out", str(uncapped)]) == 0
    assert main([*flags, "--out", str(default)]) == 0
    doc = json.loads(uncapped.read_text())
    assert doc["scenario"]["integrator"]["max_step"] is None
    assert doc["rows"] == json.loads(default.read_text())["rows"]
    # the echoed document is a config of the same run
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc["scenario"]))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(echo)]) == 0
    assert json.loads(echo.read_text())["rows"] == doc["rows"]
    # a max_step that overflows to inf as it is read; the caller's dict is left as it was
    cfg = json.loads(cfg_path.read_text().replace('"max_step": null', '"max_step": 1e400'))
    assert cfg["integrator"]["max_step"] == math.inf
    given = copy.deepcopy(cfg)
    cfg["output"]["path"] = given["output"]["path"] = str(echo)
    ptb.cli.run_scenario(ptb.cli.build_scenario(cfg))
    assert cfg == given
    assert json.loads(echo.read_text())["scenario"]["integrator"]["max_step"] is None


# a second fault in each document: masses (1, 2) with shell.lambda = -10 break
# the lambda bound, which only the shell solve notices
READ_BEFORE_SOLVE = [
    ({"output": None}, 'ConfigError: config needs an "output" object'),
    ({"frame": {"k": [1.0, 2.0, 0.0, 0.0]}}, "ConfigError: frame.k must be future-pointing timelike"),
    ({"integrator": {"sample_interval": 0.5}},
     'ConfigError: integrator.lambda_span is required with "initial"'),
]


@pytest.mark.parametrize("overrides, line", READ_BEFORE_SOLVE)
def test_config_errors_come_before_the_shell_solve(tmp_path, capsys, overrides, line):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, masses={"m1": 1.0, "m2": 2.0}, shell={"lambda": -10.0}, **overrides)
    assert run_main(capsys, "simulate", "--config", str(cfg_path)) == (2, line + "\n")


@pytest.mark.parametrize("circular, overrides, line", [
    *((False, *case) for case in READ_BEFORE_SOLVE),
    *((True, *case) for case in READ_BEFORE_SOLVE[:2]),  # circular needs no lambda_span
])
def test_config_errors_solve_nothing(tmp_path, capsys, monkeypatch, circular, overrides, line):
    def solve(*args, **kwargs):
        raise AssertionError("a document with a config error reached a solver")

    for name in ("self_consistent_shell", "self_consistent_circular",
                 "mass_shell_from_lambda", "find_circular"):
        monkeypatch.setattr(ptb.cli, name, solve)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **(CIRCULAR if circular else {}), **overrides)
    assert run_main(capsys, "simulate", "--config", str(cfg_path)) == (2, line + "\n")


def test_circular_refuses_invalid_masses_as_bad_input(capsys):
    code, err = run_main(capsys, "circular", "--potential", "central_power", "--g", "-1",
                         "--n", "1", "--l2", "5", "--m1", "-1", "--m2", "2")
    assert (code, err) == (2, "BadParameter: masses must satisfy 0 < m1 <= m2, got (-1.0, 2.0)\n")


@pytest.mark.parametrize("alpha, eps", [
    ("-5e-17", "1e-16"),
    ("-3.1425159681571004e-17", "4.8023019378706765e-17"),
])
def test_mass_ratio_near_the_alpha_bound(capsys, alpha, eps):
    # admissible inputs whose shell the discriminant form refused or could
    # not take the square root of
    assert main(["mass-ratio", f"--alpha={alpha}", "--eps", eps]) == 0
    out = capsys.readouterr().out.splitlines()
    e, gamma, a, offset, limit, residual = map(float, out[1].split(","))
    # offset = E1/M = sqrt(eps + alpha)/(sqrt(eps + alpha) + sqrt(1 + alpha))
    want = math.sqrt(e + a) / (math.sqrt(e + a) + math.sqrt(1.0 + a))
    assert offset == pytest.approx(want, rel=1e-12)
    assert limit == 0.0


@pytest.mark.parametrize("k", [(1e200, 0.0, 0.0, 0.0), (1e-200, 1e-201, 0.0, 0.0)])
def test_frame_k_is_a_direction_at_any_scale(tmp_path, capsys, monkeypatch, k):
    # k.k overflows or underflows here; k times the power of two that brings
    # it near 1 must write the same bytes
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    written = []
    for scale in (0, -math.frexp(k[0])[1]):
        path = tmp_path / f"{scale}.csv"
        flag = ",".join(repr(math.ldexp(c, scale)) for c in k)
        assert run_main(capsys, "simulate", "--config", str(cfg_path), "--frame-k", flag,
                        "--out", str(path)) == (0, "")
        written.append(path.read_bytes())
    assert written[0] == written[1]


# one override per flag-parsing branch of simulate: the base document's
# overrides, the flags and the exact error line
OVERRIDE_ERRORS = [
    ({}, ["--ztil", "1,a,0"], "ConfigError: --ztil must be comma-separated numbers, got '1,a,0'"),
    ({}, ["--frame-k", "1,0,0"], "ConfigError: --frame-k needs 4 components, got 3"),
    ({}, ["--lambda-span", "0,1,2"],
     "ConfigError: integrator.lambda_span must be a list of 2 numbers"),
    ({"masses": [1.0, 2.0]}, ["--m1", "1"], "ConfigError: masses must be an object"),
    ({"potential": {"kind": "harmonic", "params": [0.125]}}, ["--chi", "1"],
     "ConfigError: potential.params must be an object"),
]


@pytest.mark.parametrize("overrides, flags, line", OVERRIDE_ERRORS,
                         ids=[line.split(": ", 1)[1] for _, _, line in OVERRIDE_ERRORS])
def test_override_error_lines(tmp_path, capsys, overrides, flags, line):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **overrides)
    assert run_main(capsys, "simulate", "--config", str(cfg_path), *flags) == (2, line + "\n")


def listed_flags(command):
    """{flag: (type, default, choices, required, help)} of every option that
    `ptb <command> --help` lists, whatever its layout."""
    ap = ptb.cli._build_parser()
    sub = next(a for a in ap._actions if isinstance(a.choices, dict)).choices[command]
    return {a.option_strings[-1]: (getattr(a.type, "__name__", None), a.default, a.choices,
                                   a.required, a.help) for a in sub._actions}


HELP = (None, "==SUPPRESS==", None, False, "show this help message and exit")

SIMULATE_FLAGS = {
    "--help": HELP,
    "--config": (None, None, None, False, "JSON scenario file"),
    "--sweep": (None, None, None, False, "run several configs one after another, each to its own file"),
    "--m1": ("float", None, None, False, None),
    "--m2": ("float", None, None, False, None),
    "--potential": (None, None, None, False, "free, harmonic or central_power"),
    "--chi": ("float", None, None, False, "harmonic strength"),
    "--g": ("float", None, None, False, "central_power strength (g < 0 attracts)"),
    "--n": ("int", None, None, False, "central_power exponent"),
    "--ztil": (None, None, None, False, "initial separation, e.g. 1,0,0"),
    "--ytil": (None, None, None, False, "initial relative momentum, e.g. 0,0.5,0"),
    "--l2": ("float", None, None, False, "circular scenario: squared angular momentum"),
    "--lambda-span": (None, None, None, False, "length L or 0,L"),
    "--tol": ("float", None, None, False, None),
    "--max-step": ("float", None, None, False, None),
    "--sample-interval": ("float", None, None, False, None),
    "--strict-time": (None, False, None, False, None),
    "--shell-lambda": ("float", None, None, False,
                       "expert: bypass self-consistency with this shell lambda"),
    "--frame-k": (None, None, None, False, "lab-frame direction as t,x,y,z (future timelike)"),
    "--format": (None, None, ("csv", "json"), False, None),
    "--out": (None, None, None, False, "output path (overrides config output.path)"),
}

CIRCULAR_FLAGS = {
    "--help": HELP,
    "--potential": (None, None, None, True, None),
    "--chi": ("float", None, None, False, None),
    "--g": ("float", None, None, False, None),
    "--n": ("int", None, None, False, None),
    "--l2": ("float", None, None, True, None),
    "--M": ("float", None, None, False, "collective mass (bypasses masses)"),
    "--nu": ("float", None, None, False,
             "mass-squared asymmetry with --M (default 0), must be <= 0"),
    "--m1": ("float", None, None, False, None),
    "--m2": ("float", None, None, False, None),
    "--samples": ("int", 400, None, False, None),
    "--out": (None, None, None, False, "also write the report as JSON"),
}


@pytest.mark.parametrize("command, flags", [("simulate", SIMULATE_FLAGS),
                                            ("circular", CIRCULAR_FLAGS)])
def test_help_lists_the_same_flags(command, flags):
    assert listed_flags(command) == flags


def test_every_simulate_flag_reaches_the_scenario(tmp_path):
    out = tmp_path / "o.json"
    args = ptb.cli._build_parser().parse_args([
        "simulate", "--m1", "2", "--m2", "1", "--potential", "central_power", "--chi", "0.5",
        "--g", "-1", "--n", "2", "--ztil", "1,0,0", "--ytil", "0,0.5,0", "--l2", "3",
        "--lambda-span", "0,4", "--tol", "1e-9", "--max-step", "0.5", "--sample-interval", "1",
        "--strict-time", "--shell-lambda", "-0.1", "--frame-k", "2,1,0,0", "--format", "json",
        "--out", str(out)])
    assert ptb.cli._apply_overrides({}, args) == {
        "schema": 1,
        "masses": {"m1": 2.0, "m2": 1.0},
        "potential": {"kind": "central_power", "params": {"chi": 0.5, "g": -1.0, "n": 2}},
        "initial": {"ztil": [1.0, 0.0, 0.0], "ytil": [0.0, 0.5, 0.0]},
        "circular": {"l2": 3.0},
        "integrator": {"lambda_span": [0.0, 4.0], "tol": 1e-9, "max_step": 0.5,
                       "sample_interval": 1.0, "strict_time": True},
        "shell": {"lambda": -0.1},
        "frame": {"k": [2.0, 1.0, 0.0, 0.0]},
        "output": {"format": "json", "path": str(out)},
    }


# numeric flags of the other subcommands: refused before any solve
FLAG_ERRORS = [
    (["circular", "--potential", "harmonic", "--chi", "0.125", "--l2", "1", "--M", "4",
      "--samples", "0"], "ConfigError: --samples must be at least 1, got 0"),
    (["circular", "--potential", "harmonic", "--chi", "0.125", "--l2", "1", "--M", "4",
      "--samples", "-5"], "ConfigError: --samples must be at least 1, got -5"),
    (["verify-toy", "--periods", "0"], "ConfigError: --periods must be positive"),
    (["verify-toy", "--periods", "-2"], "ConfigError: --periods must be positive"),
    (["verify-toy", "--periods", "inf"], "ConfigError: --periods must be finite, got inf"),
    (["verify-toy", "--tol", "0"], "ConfigError: --tol must lie in [1e-14, 0.001], got 0"),
    (["verify-toy", "--tol", "nan"], "ConfigError: --tol must be finite, got nan"),
    (["circular", "--potential", "harmonic", "--chi", "0.125", "--M", "4", "--l2", "inf"],
     "ConfigError: --l2 must be finite, got inf"),
    (["circular", "--potential", "harmonic", "--chi", "0.125", "--l2", "1", "--M", "4",
      "--nu", "nan"], "BadParameter: requires nu <= 0 and M^2 > 2 |nu|, got nu = nan"),
    (["circular", "--potential", "harmonic", "--chi", "0.125", "--l2", "1", "--m1", "1",
      "--m2", "2", "--nu", "-0.7"],
     "ConfigError: --nu needs --M: with --m1 and --m2 the masses fix nu"),
    (["verify-toy", "--threshold", "nan"], "ConfigError: --threshold must be finite, got nan"),
    (["verify-toy", "--threshold", "inf"], "ConfigError: --threshold must be finite, got inf"),
    (["verify-toy", "--threshold", "-1"], "ConfigError: --threshold must be positive"),
    (["verify-toy", "--threshold", "0"], "ConfigError: --threshold must be positive"),
    (["mass-ratio", "--alpha", "nan"], "BadParameter: need a finite alpha, got nan"),
    (["mass-ratio", "--alpha", "inf"], "BadParameter: need a finite alpha, got inf"),
    (["simulate", "--m1", "1", "--m2", "2", "--potential", "harmonic", "--chi", "0.125",
      "--ytil", "0,0.5,0", "--lambda-span", "20", "--ztil", "1e200,0,0"],
     "ConfigError: initial.ztil and initial.ytil overflow: |ztil|^2 + |ytil|^2 = inf"),
    # each square is finite, but the L2 column would be inf
    (["simulate", "--m1", "1", "--m2", "2", "--potential", "free", "--ytil", "0,2,0",
      "--lambda-span", "1", "--ztil", "1e154,0,0"],
     "ConfigError: initial.ztil and initial.ytil overflow: |ztil|^2 |ytil|^2 = inf"),
    # the free model's one-pass shell squared m1 + m2 and ended in an OverflowError
    (["simulate", "--m1", "1", "--potential", "free", "--ztil", "1,0,0", "--ytil", "0,1,0",
      "--lambda-span", "1", "--out", os.devnull, "--m2", "1e200"],
     "BadParameter: need a finite M^2 = (m1 + m2)^2, got m1 = 1.0, m2 = 1e+200"),
]


# non-finite oscillator parameters are named, before any solve; a nan in A
# used to surface as "masses must be finite" and --C nan reached the solver
TOY_ERRORS = [
    (["verify-toy", "--A", "1,0,nan"], "BadParameter: A must be finite, got (1.0, 0.0, nan)"),
    (["verify-toy", "--B", "0,inf,0"], "BadParameter: B must be finite, got (0.0, inf, 0.0)"),
    (["verify-toy", "--C", "nan"], "BadParameter: C must be finite, got nan"),
    (["verify-toy", "--nu", "nan"], "BadParameter: nu must be finite, got nan"),
]


@pytest.mark.parametrize("argv, line", FLAG_ERRORS,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in FLAG_ERRORS])
def test_bad_numeric_flags_are_config_errors(capsys, monkeypatch, argv, line):
    assert run_without_solvers(capsys, monkeypatch, *argv) == (2, line + "\n")


@pytest.mark.parametrize("argv, line", TOY_ERRORS, ids=[" ".join(a[1:]) for a, _ in TOY_ERRORS])
def test_non_finite_toy_parameters_are_refused(capsys, monkeypatch, argv, line):
    assert run_without_solvers(capsys, monkeypatch, *argv) == (2, line + "\n")


def run_without_solvers(capsys, monkeypatch, *argv):
    """(exit code, stderr) of the CLI with every solver made to fail."""
    def solve(*args, **kwargs):
        raise AssertionError("a bad flag reached a solver")

    for name in ("integrate", "find_circular", "self_consistent_circular", "shell_for_toy"):
        monkeypatch.setattr(ptb.cli, name, solve)
    return run_main(capsys, *argv)
