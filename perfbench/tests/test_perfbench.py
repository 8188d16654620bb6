"""Tests of the benchmark itself, on shortened workloads.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import CircularScan, OrbitStrict, OscillatorLab

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "orbit_strict": lambda seed, out: OrbitStrict(seed, out, span=10.0),
    "oscillator_lab": lambda seed, out: OscillatorLab(seed, out, periods=1.0, n_resample=21),
    "circular_scan": lambda seed, out: CircularScan(seed, out, central=(5.0, 50.0, 2),
                                                    harmonic=(0.5, 1.0, 1)),
}


def one_pass(workload):
    _, outcomes = run.run_pass(workload)
    for out in outcomes:
        assert not isinstance(out, Exception), out
        assert workload.gate(out) == []
    return outcomes


def rewrite_csv(path, row, column, delta):
    lines = Path(path).read_text().splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row + 1] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column", ["ztil_z", "ytil_x", "N", "T"])
def test_orbit_gate_fails_on_one_perturbed_sample(tmp_path, column):
    w = SMALL["orbit_strict"](3, str(tmp_path))
    (result,) = one_pass(w)
    rewrite_csv(result[0], 7, column, 1e-6 if column != "T" else -1.0)
    assert w.gate(result)


@pytest.mark.parametrize("column", ["ztil_x", "ytil_y", "T", "x1_y"])
def test_oscillator_gate_fails_on_one_perturbed_sample(tmp_path, column):
    w = SMALL["oscillator_lab"](3, str(tmp_path))
    (result,) = one_pass(w)
    rewrite_csv(w.csv_path, 5, column, 1e-6)
    failures = w.gate(result)
    assert failures
    assert any("JSON rows differ" in f for f in failures)


def test_oscillator_gate_checks_lab_frame_and_resampling(tmp_path):
    w = SMALL["oscillator_lab"](3, str(tmp_path))
    (result,) = one_pass(w)
    payload = json.loads(Path(w.json_path).read_text())
    payload["frame"][0] *= 1.0 + 1e-9
    Path(w.json_path).write_text(json.dumps(payload))
    assert any("k.k" in f for f in w.gate(result))

    (result,) = one_pass(w)
    bad = list(result.samples)
    s = bad[10]
    bad[10] = dataclasses.replace(s, T=s.T + 1e-6)
    assert w.gate(dataclasses.replace(result, samples=tuple(bad)))


@pytest.mark.parametrize("field", ["closure_ztil", "closure_ytil", "T_advance_error",
                                   "linear_residual"])
def test_circular_gate_fails_on_corrupted_report(tmp_path, field):
    w = SMALL["circular_scan"](3, str(tmp_path))
    orbit, constancy, period, energy = one_pass(w)[0]
    bad = dataclasses.replace(period, **{field: 1e-6})
    assert w.gate((orbit, constancy, bad, energy))
    bad_constancy = dataclasses.replace(constancy, max_variation=1e-6)
    assert w.gate((orbit, bad_constancy, period, energy))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_fixed_seed_repeats_step_counts(tmp_path, name):
    counts = []
    for _ in range(2):
        counter = tracing.Tracer(tracing.INTEGRATE_ALIASES, proxy_models=False)
        counter.run("pass", one_pass, SMALL[name](5, str(tmp_path)))
        counts.append(dict(counter.totals(0)["attrs"]))
    assert counts[0] == counts[1]
    assert counts[0]["steps_accepted"] > 0


def _outputs(workload, outcomes):
    """Everything a pass produced, as comparable values."""
    if isinstance(workload, CircularScan):
        return [(o.rho, o.Omega, o.period_T, c.variations, p, e)
                for o, c, p, e in outcomes]
    paths = [outcomes[0][0]] if isinstance(workload, OrbitStrict) else \
        [workload.csv_path, workload.json_path]
    files = [Path(p).read_bytes() for p in paths]
    if isinstance(workload, OscillatorLab):
        files.append([(s.state.lambda_, s.T, tuple(s.state.ztil)) for s in outcomes[0].samples])
    return files


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_bit_identical_outputs(tmp_path, name):
    plain = SMALL[name](2, str(tmp_path / "plain"))
    traced = SMALL[name](2, str(tmp_path / "traced"))
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    expected = _outputs(plain, one_pass(plain))
    tracer = tracing.Tracer()
    got = _outputs(traced, tracer.run("pass", one_pass, traced))
    assert got == expected
    calls = tracer.totals(0)["calls"]
    assert calls["potentials.evaluate"] > 0
    assert calls["reduced.rhs"] > 0


def test_counting_potential_forwards_the_model(tmp_path):
    import ptb.potentials
    tracer = tracing.Tracer()
    for model in (ptb.potentials.builtin("harmonic", chi=0.125),
                  ptb.potentials.builtin("central_power", g=-1.0, n=1)):
        proxy = tracing.CountingPotential(model, tracer)
        assert isinstance(proxy, ptb.potentials.PotentialSpec)
        for attr in ("name", "central", "p2_independent", "w_independent"):
            assert getattr(proxy, attr) == getattr(model, attr)
        assert proxy.describe() == model.describe()
        assert repr(proxy) == repr(model).replace(type(model).__name__, "CountingPotential")


def test_layers_are_restored_after_a_traced_pass(tmp_path):
    import ptb.reduced
    original = ptb.reduced.rhs
    tracing.Tracer().run("pass", one_pass, SMALL["orbit_strict"](1, str(tmp_path)))
    assert ptb.reduced.rhs is original


def test_import_cost_counts_outermost_modules_of_a_package():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |     scipy._lib",
        "import time:        40 |         45 |   scipy",
        "import time:        50 |        125 | ptb.cli",
        "import time:         7 |          7 | scipy.optimize",
    ])
    assert run.import_cost(log, "ptb") == pytest.approx(125e-6)
    assert run.import_cost(log, "scipy") == pytest.approx(52e-6)
    assert run.import_cost(log, "numpy") == pytest.approx(30e-6)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit_strict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

