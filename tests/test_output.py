import json
import math

import numpy as np
import pytest

from ptb.kinematics import noether_N
from ptb.mass_shell import mass_shell_from_lambda
from ptb.output import (
    COLUMNS,
    diagnostics,
    format_float,
    json_payload,
    trajectory_rows,
    write_csv,
    write_json,
)
from ptb.potentials import HarmonicPotential
from ptb.reduced import IntegratorOptions, ReducedState, integrate, rest_quintet, synchronize
from ptb.worldline import worldlines


@pytest.fixture(scope="module")
def run():
    shell = mass_shell_from_lambda(math.sqrt(2.75), math.sqrt(2.75), 1.25)
    traj = synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])),
        shell, HarmonicPotential(0.125), 6.0,
        IntegratorOptions(sample_interval=0.5)))
    return traj, worldlines(traj)


@pytest.fixture(scope="module")
def flagged_run():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    traj = synchronize(integrate(
        ReducedState(0.0, np.array([0.0, 8.0, 0.0]), np.array([0.5, 0.0, 0.0])),
        shell, HarmonicPotential(1.0), 3.0,
        IntegratorOptions(sample_interval=0.5)))
    return traj, worldlines(traj)


def test_column_contract():
    assert len(COLUMNS) == 25
    assert COLUMNS[0] == "lam"
    assert COLUMNS[-1] == "dT_dlambda"
    assert COLUMNS.index("x1_t") == 10
    assert COLUMNS.index("Xi_z") == 21


def test_format_float_17_digits():
    assert format_float(1.0) == "1"
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert format_float(math.pi) == "3.1415926535897931"
    assert format_float(float("nan")) == "nan"
    # round-trip exactness
    for x in (0.1, 1e-300, -2.5e17, 7.0):
        assert float(format_float(x)) == x


def test_rows_shape_and_alignment(run):
    traj, ws = run
    rows = trajectory_rows(traj, ws)
    assert len(rows) == len(traj.samples)
    for row, s in zip(rows, traj.samples):
        assert len(row) == 25
        assert row[0] == s.state.lambda_
        assert row[1] == s.T
        assert row[4:7] == tuple(s.state.ztil)
        assert row[24] == s.dTdlambda
        assert not any(math.isnan(v) for v in row)


def test_rows_consistency_checks(run):
    traj, ws = run
    with pytest.raises(ValueError):
        trajectory_rows(traj, worldlines(synchronize(integrate(
            traj.samples[0].state, traj.shell, traj.model, 6.0,
            IntegratorOptions(sample_interval=1.0)))))


def test_flagged_rows_blank_positions(flagged_run):
    traj, ws = flagged_run
    rows = trajectory_rows(traj, ws)
    n_flagged = sum(1 for s in traj.samples if s.flagged)
    assert n_flagged > 0
    for row, s in zip(rows, traj.samples):
        pos = row[10:22]
        if s.flagged:
            assert all(math.isnan(v) for v in pos)
            # lambda-parametrized columns stay valid
            assert not any(math.isnan(v) for v in row[:10])
            assert not math.isnan(row[24])
        else:
            assert not any(math.isnan(v) for v in pos)


def test_diagnostics_content(run):
    traj, _ = run
    d = diagnostics(traj)
    assert d["n_samples"] == len(traj.samples)
    assert d["n_rhs"] == traj.n_rhs == 2 + 6 * (d["n_accepted"] + d["n_rejected"])
    assert d["lambda_span"] == [0.0, 6.0]
    assert d["N_drift"] < 1e-9
    assert d["L2_drift"] < 1e-9
    assert d["N_plus_lambda"] < 1e-9
    assert d["planarity_residual"] < 1e-12
    assert d["monotonicity_margin"] > 0.0
    assert d["synchronized"] is True
    assert d["monotone"] is True
    assert d["n_flagged"] == 0
    assert d["min_dT_dlambda"] > 0.0
    assert d["T_span"][0] == 0.0


def test_diagnostics_flagged(flagged_run):
    traj, _ = flagged_run
    d = diagnostics(traj)
    assert d["monotone"] is False
    assert d["n_flagged"] > 0
    assert d["min_dT_dlambda"] <= 0.0
    # the margin guarantee assumes on-shell data: a positive margin next to
    # monotone = False is the fingerprint of a foreign shell, and the
    # N + lambda residual names the culprit
    assert d["monotonicity_margin"] > 0.0
    assert d["N_plus_lambda"] > 0.5  # relative residual, saturates near 1


def test_csv_deterministic(run, tmp_path):
    traj, ws = run
    rows = trajectory_rows(traj, ws)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, rows)
    write_csv(p2, rows)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == len(rows) + 1
    # every value parses back to the exact float
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert len(parts) == 25
        for text, val in zip(parts, row):
            assert float(text) == val


def test_csv_nan_cells(flagged_run, tmp_path):
    traj, ws = flagged_run
    path = tmp_path / "flagged.csv"
    write_csv(path, trajectory_rows(traj, ws))
    body = path.read_text().splitlines()[1:]
    assert any("nan" in line for line in body)


def test_json_payload(run):
    traj, ws = run
    payload = json_payload(traj, ws, extra={"exit": 0})
    assert payload["schema"] == 1
    assert payload["shell"]["M"] == traj.shell.M
    assert payload["model"] == {"kind": "harmonic", "chi": 0.125}
    assert payload["frame"] == [traj.shell.M, 0.0, 0.0, 0.0]
    assert payload["columns"] == list(COLUMNS)
    assert len(payload["rows"]) == len(traj.samples)
    assert payload["exit"] == 0
    assert payload["diagnostics"]["monotone"] is True


def test_json_nan_becomes_null(flagged_run, tmp_path):
    traj, ws = flagged_run
    payload = json_payload(traj, ws)
    path = tmp_path / "out.json"
    write_json(path, payload)
    text = path.read_text()
    assert "NaN" not in text
    back = json.loads(text)
    flagged_rows = [r for r in back["rows"] if r[10] is None]
    assert flagged_rows
    for r in flagged_rows:
        assert all(v is None for v in r[10:22])
        assert all(v is not None for v in r[:10])
    # strict JSON: the file parses under the default (no NaN literals needed)
    json.loads(text, parse_constant=lambda s: pytest.fail(f"bad literal {s}"))


def test_json_deterministic(run, tmp_path):
    traj, ws = run
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, json_payload(traj, ws))
    write_json(p2, json_payload(traj, ws))
    assert p1.read_bytes() == p2.read_bytes()


class CountingHarmonic(HarmonicPotential):
    def __init__(self, chi):
        super().__init__(chi)
        self.calls = 0

    def evaluate(self, q):
        self.calls += 1
        return super().evaluate(q)


def test_N_takes_one_model_evaluation_per_sample():
    # rows, diagnostics and the JSON payload share one N column; the
    # builtin rest-frame fast path keeps evaluate out of rhs
    model = CountingHarmonic(0.125)
    shell = mass_shell_from_lambda(math.sqrt(2.75), math.sqrt(2.75), 1.25)
    traj = synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])),
        shell, model, 6.0, IntegratorOptions(sample_interval=0.5)))
    ws = worldlines(traj)
    assert model.calls == 0
    trajectory_rows(traj, ws)
    diagnostics(traj)
    json_payload(traj, ws)
    assert model.calls == len(traj.lam) == 13


def test_rows_are_the_columns(run):
    traj, ws = run
    rows = np.array(trajectory_rows(traj, ws))
    N, L2 = traj.first_integrals
    for i, col in enumerate((traj.lam, traj.T, traj.tau1, traj.tau2)):
        assert np.array_equal(rows[:, i], col)
    assert np.array_equal(rows[:, 4:10], traj.u[:, 0:6])
    assert np.array_equal(rows[:, 10:22], np.hstack((ws.x1, ws.x2, ws.Xi)))
    assert np.array_equal(rows[:, 22:], np.column_stack((N, L2, traj.dTdlambda)))
    # the N and L2 columns are the scalar formulas applied sample by sample
    for i, (z, y) in enumerate(zip(traj.ztil, traj.ytil)):
        q = rest_quintet(z, y, traj.shell)
        assert (N[i], L2[i]) == (noether_N(q, traj.model.evaluate(q).value), q.L2)
