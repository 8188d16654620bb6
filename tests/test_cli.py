import json
import math
import os
import subprocess
import sys

import pytest

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


def test_missing_config_file(tmp_path):
    r = run_cli("simulate", "--config", str(tmp_path / "absent.json"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1  # single-line error
    assert "ConfigError" in r.stderr


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
