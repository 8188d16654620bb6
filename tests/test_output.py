import dataclasses
import io
import json
import math
import re
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ptb.dopri
import ptb.output
import ptb.reduced
from ptb.mass_shell import mass_shell_from_lambda
from ptb.output import (
    COLUMNS,
    RowTable,
    _json_clean,
    _json_rows,
    diagnostics,
    format_float,
    json_payload,
    trajectory_rows,
    write_csv,
    write_json,
)
from ptb.binding import self_consistent_shell
from ptb.potentials import CentralPowerPotential, FreePotential, HarmonicPotential
from ptb.reduced import IntegratorOptions, ReducedState, integrate, synchronize
from ptb.minkowski import FourVector
from ptb.worldline import export_lab_frame, worldlines
from ptb_fixtures import Forwarding

from covariant import (
    CanonicalState,
    add,
    angular_momentum_L2,
    scalar_quintet,
    split,
    sub,
    tilde_project,
)

EPS = np.finfo(float).eps


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


def read_back(table: RowTable) -> np.ndarray:
    """The rows of a table, read back from its CSV text."""
    text = "".join(table.blocks())
    return np.array([[float(x) for x in line.split(",")] for line in text.splitlines()])


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
    assert rows.n == len(traj.lam) and rows.ncols == 25
    back = read_back(rows)
    assert back.shape == (len(traj.lam), 25)
    assert np.array_equal(back[:, 0], traj.lam) and np.array_equal(back[:, 1], traj.T)
    assert np.array_equal(back[:, 4:7], traj.ztil)
    assert np.array_equal(back[:, 24], traj.dTdlambda)
    assert not np.isnan(back).any()


def test_rows_consistency_checks(run):
    traj, ws = run
    with pytest.raises(ValueError):
        trajectory_rows(traj, worldlines(synchronize(integrate(
            ReducedState(0.0, traj.ztil[0], traj.ytil[0]), traj.shell, traj.model, 6.0,
            IntegratorOptions(sample_interval=1.0)))))


def test_rows_belong_to_their_trajectory(run):
    # a set from another trajectory is refused even on the same sample grid
    traj, ws = run
    other = synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.4, 0.0])),
        traj.shell, traj.model, 6.0, IntegratorOptions(sample_interval=0.5)))
    assert np.array_equal(other.lam, traj.lam)
    with pytest.raises(ValueError, match="another trajectory"):
        trajectory_rows(other, ws)
    with pytest.raises(ValueError, match="another trajectory"):
        json_payload(traj, worldlines(other))
    # the set holds one table for both writers; a boosted set gets its own
    rows = trajectory_rows(traj, ws)
    assert trajectory_rows(traj, ws) is rows and json_payload(traj, ws)["rows"] is rows
    M = traj.shell.M
    lab = export_lab_frame(ws, FourVector(1.25 * M, 0.75 * M, 0.0, 0.0))
    assert rows.rows is None  # the floats go once the text is formatted
    lab_rows = trajectory_rows(traj, lab)
    assert lab_rows is not rows
    assert np.array_equal(read_back(lab_rows)[:, 10:22], np.hstack((lab.x1, lab.x2, lab.Xi)))
    assert np.array_equal(read_back(lab_rows)[:, :10], read_back(rows)[:, :10])


def test_flagged_rows_blank_positions(flagged_run):
    traj, ws = flagged_run
    rows = read_back(trajectory_rows(traj, ws))
    assert traj.flagged.any() and len(rows) == len(traj.lam)
    for row, flagged in zip(rows, traj.flagged):
        pos = row[10:22]
        if flagged:
            assert all(math.isnan(v) for v in pos)
            # lambda-parametrized columns stay valid
            assert not any(math.isnan(v) for v in row[:10])
            assert not math.isnan(row[24])
        else:
            assert not any(math.isnan(v) for v in pos)


def test_step_telemetry_on_a_sample_grid():
    # every grid point after lambda = 0 is the end of exactly one accepted
    # step cut short to land on it; free stepping lands only on the span end
    shell = mass_shell_from_lambda(math.sqrt(2.75), math.sqrt(2.75), 1.25)
    state = ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0]))
    traj = integrate(state, shell, HarmonicPotential(0.125), 6.0,
                     IntegratorOptions(sample_interval=0.5, max_step=0.05))
    d = diagnostics(traj)
    assert d["n_landed"] == traj.stats.n_landed == len(traj.lam) - 1 == 12
    assert 0.0 < d["h_min"] == traj.stats.h_min <= d["h_max"] == traj.stats.h_max <= 0.05
    hs = np.diff(traj.dense.t)
    assert traj.stats.h_min == hs.min() and traj.stats.h_max == hs.max()
    free = integrate(state, shell, HarmonicPotential(0.125), 6.0, IntegratorOptions())
    assert free.stats.n_landed == 1
    assert free.stats.h_min <= free.stats.h_max <= 6.0


def test_diagnostics_keys_and_the_solver_counters(monkeypatch):
    # the key order fixes the JSON bytes and the simulate stdout; the
    # counters are the solver's own record, and the two shims read it
    solved = []

    def recording(*args, **kwargs):
        solved.append(ptb.dopri.solve_dopri5(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(ptb.reduced, "solve_dopri5", recording)
    shell = mass_shell_from_lambda(math.sqrt(2.75), math.sqrt(2.75), 1.25)
    traj = integrate(ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])),
                     shell, HarmonicPotential(0.125), 6.0, IntegratorOptions(sample_interval=0.5))
    d = diagnostics(traj)
    assert list(d) == [
        "n_samples", "n_accepted", "n_rejected", "n_rhs", "h_min", "h_max", "n_landed",
        "lambda_span", "N_drift", "L2_drift", "N_plus_lambda", "planarity_residual",
        "monotonicity_margin", "T_span", "min_dT_dlambda", "monotone", "n_flagged"]
    [sol] = solved
    assert traj.stats is sol.stats
    assert (traj.n_accepted, traj.n_rejected) == (sol.stats.n_accepted, sol.stats.n_rejected)
    assert [d[k] for k in list(d)[1:7]] == list(dataclasses.astuple(sol.stats))


def test_diagnostics_content(run):
    traj, _ = run
    d = diagnostics(traj)
    assert d["n_samples"] == len(traj.lam)
    assert d["n_rhs"] == traj.stats.n_rhs == 2 + 6 * (d["n_accepted"] + d["n_rejected"])
    assert d["lambda_span"] == [0.0, 6.0]
    assert d["N_drift"] < 1e-9
    assert d["L2_drift"] < 1e-9
    assert d["N_plus_lambda"] < 1e-9
    assert d["planarity_residual"] < 1e-12
    assert d["monotonicity_margin"] > 0.0
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
    assert len(lines) == rows.n + 1
    # every value parses back to the exact float
    for line, row in zip(lines[1:], read_back(trajectory_rows(*run))):
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
    assert payload["rows"] is trajectory_rows(traj, ws)
    assert payload["rows"].n == len(traj.lam)
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


def test_N_takes_one_model_evaluation_per_sample():
    # rows, diagnostics and the JSON payload share one N column, built with
    # one evaluate per sample for a generic model
    model = Forwarding(HarmonicPotential(0.125))
    shell = mass_shell_from_lambda(math.sqrt(2.75), math.sqrt(2.75), 1.25)
    traj = synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])),
        shell, model, 6.0, IntegratorOptions(sample_interval=0.5)))
    ws = worldlines(traj)
    assert model.calls == traj.stats.n_rhs  # the call path: one evaluate per rhs
    trajectory_rows(traj, ws)
    diagnostics(traj)
    json_payload(traj, ws)
    assert model.calls - traj.stats.n_rhs == len(traj.lam) == 13


def test_rows_are_the_columns(run):
    traj, ws = run
    rows = read_back(trajectory_rows(traj, ws))
    N, L2 = traj.first_integrals
    for i, col in enumerate((traj.lam, traj.T, traj.tau1, traj.tau2)):
        assert np.array_equal(rows[:, i], col)
    assert np.array_equal(rows[:, 4:10], traj.u[:, 0:6])
    assert np.array_equal(rows[:, 10:22], np.hstack((ws.x1, ws.x2, ws.Xi)))
    assert np.array_equal(rows[:, 22:], np.column_stack((N, L2, traj.dTdlambda)))
    # the N and L2 columns agree with the covariant formulas on the state
    # rebuilt from each sample's world-line points and rest-frame momenta
    M, nu = traj.shell.M, traj.shell.nu
    P = FourVector(M, 0.0, 0.0, 0.0)
    for i, ytil in enumerate(traj.ytil):
        y = FourVector(nu / M, *ytil.tolist())
        ei = split(CanonicalState(q1=FourVector(*ws.x1[i]), q2=FourVector(*ws.x2[i]),
                                  p1=add(0.5 * P, y), p2=sub(0.5 * P, y)))
        q = scalar_quintet(ei)
        V = traj.model.evaluate(q).value
        L2_cov = angular_momentum_L2(tilde_project(ei.z, P), tilde_project(ei.y, P))
        # 16 eps of the largest term of each sum
        assert abs(N[i] - (q.ytil2 + 2.0 * V)) <= 16 * EPS * max(abs(q.ytil2), abs(2.0 * V))
        assert abs(L2[i] - L2_cov) <= 16 * EPS * max(abs(q.ztil2 * q.ytil2), q.zy * q.zy)


# tables of the values a row can hold: nan, signed zeros, integral values up
# to and past 1e17 (where "%.17g" turns to an exponent), subnormals, the ends
# of the float range, numpy float64 scalars and plain floats
EDGE = [math.nan, 0.0, -0.0, 3.0, -7.0, 1e16, 9.9e16, 1e17, -1e17, 5e-324, -2.5e-310,
        2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.0]
values = st.one_of(st.floats(allow_infinity=False), st.sampled_from(EDGE),
                   st.floats(allow_infinity=False).map(np.float64),
                   st.sampled_from(EDGE).map(np.float64))


def tables(ncols):
    return st.lists(st.lists(values, min_size=ncols, max_size=ncols), max_size=12)


def csv_text(rows) -> str:
    """The CSV lines of rows as a per-value loop over format_float."""
    return "".join(",".join(format_float(x) for x in row) + "\n" for row in rows)


def csv_reference(path, rows, columns):
    """write_csv as a per-value loop over format_float."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n" + csv_text(rows))


def json_reference(path, payload):
    """write_json as one json.dump of the cleaned payload."""
    with open(path, "w", newline="") as fh:
        json.dump(_json_clean(payload), fh, indent=1, allow_nan=False)
        fh.write("\n")


def bits(x) -> bytes:
    return struct.pack("<d", x)


def assert_decodes_like_json_dump(path, payload, rows):
    """The file at path decodes to what json.dump(_json_clean(payload),
    indent=1) decodes to, with rows as the payload's table, value by value:
    every cell of rows is a float bit-equal to its input, or None for nan."""
    want = json.loads(json.dumps(_json_clean({**payload, "rows": rows}), indent=1,
                                 allow_nan=False))
    got = json.loads(path.read_text())
    assert got == want
    # reprs tell ints from floats and -0.0 from 0.0, which == does not
    assert json.dumps(got) == json.dumps(want)
    assert len(got["rows"]) == len(rows)
    for got_row, row in zip(got["rows"], rows):
        assert len(got_row) == len(row)
        for g, x in zip(got_row, row):
            assert g is None if math.isnan(x) else type(g) is float and bits(g) == bits(x)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), tables(n))))
def test_write_csv_is_the_per_value_format(tmp_path_factory, table):
    ncols, rows = table
    columns = [f"c{i}" for i in range(ncols)]
    d = tmp_path_factory.mktemp("csv")
    write_csv(d / "got.csv", rows, columns)
    csv_reference(d / "want.csv", rows, columns)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()
    # an open text file takes the same text
    buf = io.StringIO()
    write_csv(buf, rows, columns)
    assert buf.getvalue() == (d / "want.csv").read_bytes().decode()


@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), tables(n))))
def test_write_json_is_json_dump(tmp_path_factory, table):
    # the rows entry sits among other keys, nested ones included; a plain
    # list goes through json as it is, a RowTable decodes to the same values
    ncols, rows = table
    payload = {"schema": 1, "shell": {"M": 1.5, "lambda": math.nan, "rows": [1.0, math.nan]},
               "columns": ("a", "b"), "rows": [tuple(r) for r in rows],
               "diagnostics": {"N_drift": np.float64(1e-12), "n": np.int64(3)}}
    d = tmp_path_factory.mktemp("json")
    write_json(d / "got.json", payload)
    json_reference(d / "want.json", payload)
    assert (d / "got.json").read_bytes() == (d / "want.json").read_bytes()
    write_json(d / "table.json", {**payload, "rows": RowTable(rows, ncols)})
    assert_decodes_like_json_dump(d / "table.json", payload, rows)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), tables(n).filter(len))))
def test_array_tables_write_like_lists(tmp_path_factory, table):
    # an array is formatted in one "%" per block, a list of rows row by row;
    # both give the same text
    ncols, rows = table
    d = tmp_path_factory.mktemp("json")
    write_json(d / "list.json", {"rows": RowTable(rows, ncols)})
    write_json(d / "array.json", {"rows": RowTable(np.array(rows, dtype=float), ncols)})
    assert (d / "array.json").read_bytes() == (d / "list.json").read_bytes()


@pytest.mark.parametrize("x", EDGE)
def test_each_value_alone_in_an_array_table(tmp_path, x):
    # x first, inside, last and alone in its row, one table each
    for rows in ([[x, 0.5, 0.5]], [[0.5, x, 0.5]], [[0.5, 0.5, x]], [[x]]):
        write_json(tmp_path / "got.json", {"rows": RowTable(np.array(rows), len(rows[0]))})
        assert_decodes_like_json_dump(tmp_path / "got.json", {}, rows)


@pytest.mark.parametrize("rows", [[], [[]], [[1.0], []]])
def test_write_json_empty_tables(tmp_path, rows):
    # plain lists, ragged ones included, go through json as they are
    payload = {"rows": rows, "tail": [1, 2]}
    write_json(tmp_path / "got.json", payload)
    json_reference(tmp_path / "want.json", payload)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("rows", [[], [[]], [[], []]])
def test_write_json_empty_row_tables(tmp_path, rows):
    payload = {"rows": RowTable(rows, 0), "tail": [1, 2]}
    write_json(tmp_path / "got.json", payload)
    assert_decodes_like_json_dump(tmp_path / "got.json", payload, rows)


def test_write_json_layout(tmp_path):
    # one row per line in the CSV's spelling, nan as null and ".0" on integral
    # values; the rest of the payload laid out as json.dump(indent=1)
    rows = [[0.0, -0.0, 0.1, 3.0], [math.nan, 1e17, -2.5e-310, 9.9e16]]
    write_json(tmp_path / "got.json", {"schema": 1, "rows": RowTable(rows, 4), "tail": {"x": 1.5}})
    assert (tmp_path / "got.json").read_text() == (
        '{\n "schema": 1,\n "rows": [\n'
        '  [0.0,-0.0,0.10000000000000001,3.0],\n'
        '  [null,1e+17,-2.5000000000000171e-310,99000000000000000.0]\n'
        ' ],\n "tail": {\n  "x": 1.5\n }\n}\n')


# the JSON text of a whole block as it was made before the row table listed
# the lines to fix: the ".0" regex over every cell, then nan to null
_BLOCK_INTEGRAL = re.compile(r"([\[,]-?\d+)(?=[,\]])")


def every_block(block):
    text = "\n  [" + block[:-1].replace("\n", "],\n  [") + "]"
    return _BLOCK_INTEGRAL.sub(r"\1.0", text).replace("nan", "null")


@pytest.mark.parametrize("x", [0.0, -0.0, 1e16, 1e20, math.nan, -math.inf])
def test_integral_pass_matches_the_regex_on_every_block(x):
    # x spells 0, -0, 10000000000000000, 1e+20, nan, -inf; first, inside,
    # last and alone in a row, in the first or a later line of a block, and
    # absent; only the lines the table lists are fixed
    tables = [[[x, 0.5, 2.5]], [[0.5, x, 2.5]], [[0.5, 2.5, x]], [[x]], [[0.5], [x]],
              [[0.5, 1e-5, 2.5], [-1.5, 3.25, x]], [[0.5, 1e-5, 2.5], [-1.5, 3.25, 7.5]]]
    for rows in tables:
        table = RowTable(rows, len(rows[0]))
        (block,), (lines,) = table.blocks(), table.json_lines
        assert _json_rows(block, lines) == every_block(block)


# the cells JSON must fix, each of them placed in the first, a middle and the
# last line of a later block and of the final partial block of 2,100 rows
FIXED = [math.nan, 0.0, -0.0, 1e16, 9.9e16, 1e17, -1e17]


def layout_rows():
    rows = np.random.default_rng(5).normal(size=(2100, len(FIXED) + 1))
    for k, i in enumerate((1024, 1536, 2047, 2048, 2074, 2099)):
        rows[i, :-1] = np.roll(FIXED, k)  # each value in several columns, first and last included
    return rows


@pytest.mark.parametrize("kind", [np.array, np.ndarray.tolist])
def test_multi_block_rows_match_the_whole_block_transform(tmp_path, kind):
    rows = layout_rows()
    table = RowTable(kind(rows), rows.shape[1])
    write_json(tmp_path / "got.json", {"schema": 1, "rows": table, "tail": [1, 2]})
    blocks = table.blocks()
    assert [len(b.splitlines()) for b in blocks] == [1024, 1024, 52]
    assert table.json_lines == [[], [0, 512, 1023], [0, 26, 51]] and table.inf is None
    assert (tmp_path / "got.json").read_text() == (
        '{\n "schema": 1,\n "rows": [' + ",".join(map(every_block, blocks))
        + '\n ],\n "tail": [\n  1,\n  2\n ]\n}\n')
    assert_decodes_like_json_dump(tmp_path / "got.json", {"schema": 1, "rows": None,
                                                          "tail": [1, 2]}, rows.tolist())


@pytest.mark.parametrize("kind", [np.array, np.ndarray.tolist])
def test_an_inf_in_the_third_block_is_refused_like_json(tmp_path, kind):
    # the first infinite value in row order is the one json names
    rows = layout_rows()
    rows[2050, 3], rows[2060, 0], rows[2090, 7] = math.inf, -math.inf, math.inf
    with pytest.raises(ValueError) as want:
        json.dumps(_json_clean({"rows": rows.tolist()}), indent=1, allow_nan=False)
    path = tmp_path / "out.json"
    path.write_text("before\n")
    with pytest.raises(ValueError) as got:
        write_json(path, {"rows": RowTable(kind(rows), rows.shape[1])})
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("not JSON compliant: inf")
    assert path.read_text() == "before\n"


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.one_of(values, st.sampled_from([math.inf, -math.inf])), min_size=n, max_size=n),
    max_size=12)))
def test_the_table_lists_the_lines_json_must_fix(rows):
    # a cell is to be fixed exactly when "%.17g" spells it nan or with digits
    # and a sign only; a line is listed when one of its cells is
    def to_fix(x):
        return re.fullmatch(r"nan|[-+]?\d+", format_float(x)) is not None

    ncols = len(rows[0]) if rows else 1
    table = RowTable(rows, ncols)
    table.blocks()
    assert table.json_lines == ([[i for i, row in enumerate(rows) if any(map(to_fix, row))]]
                                if rows else [])
    infs = [x for row in rows for x in row if math.isinf(x)]
    assert table.inf == (infs[0] if infs else None)
    assert type(table.inf) is (float if infs else type(None))


def assert_spelled_like_format_float(a: np.ndarray):
    """A table of the rows of a, as an array and as a list, spells each value
    as format_float does."""
    want = csv_text(a.tolist())
    for rows in (a, a.tolist()):
        assert "".join(RowTable(rows, a.shape[1]).blocks()) == want


# every class of float: nan, ±0, ±inf, subnormals, the ends of the range,
# powers of ten, and the magnitudes "%.17g" writes in fixed notation
FLOAT_CLASSES = st.one_of(
    st.floats(), st.sampled_from(EDGE + [math.inf, -math.inf, 1e20, 1e-4, 1e-5, 1e280, 1e-280]),
    st.floats(-1e-300, 1e-300), st.integers(-10 ** 18, 10 ** 18).map(float),
    st.integers(-400, 400).map(lambda k: 10.0 ** (k / 20)))


@st.composite
def big_tables(draw):
    """At least 1,024 cells in 1 to 8 columns: half of them raw bit patterns,
    half of them of magnitude 1e-22 to 1e22, and up to 64 drawn classes."""
    ncols = draw(st.integers(1, 8))
    n = ncols * -(-draw(st.integers(1024, 1300)) // ncols)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.where(rng.random(n) < 0.5, np.frombuffer(rng.bytes(8 * n), np.float64),
                 rng.standard_normal(n) * 10.0 ** rng.integers(-22, 23, size=n))
    for i, x in draw(st.lists(st.tuples(st.integers(0, n - 1), FLOAT_CLASSES), max_size=64)):
        a[i] = x
    return a.reshape(-1, ncols)


@given(big_tables())
def test_every_float_class_is_spelled_as_format_float_spells_it(a):
    assert_spelled_like_format_float(a)


def test_powers_of_ten_and_their_neighbours(monkeypatch):
    # 4 ulps either side of each power of ten: where floor(log10) errs, where
    # 10^(16 - e) is inexact (for 1e20 the rest r comes out at -5.6e-17, and e
    # must not move down), and where "%.17g" turns to an exponent (the digits
    # of 9.9999999999999991e-05 stay below 1e-4, so it is no 0.0000999...)
    p = np.array([float(f"1e{k}") for k in range(-307, 309)])
    near = [p]
    for _ in range(4):
        near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], np.inf)]
    a = np.concatenate(near)
    a = a[np.isfinite(a)]
    assert_spelled_like_format_float(np.concatenate([a, -a]).reshape(-1, 1))
    spelled = []
    monkeypatch.setattr(ptb.output, "format_float", lambda x: spelled.append(x) or format_float(x))
    assert "".join(RowTable([[1e20, 9.9999999999999991e-05]], 2).blocks()) == \
        "1e+20,9.9999999999999991e-05\n"
    assert spelled == []  # 1e20 settles in the slack below 1e16, though 10^-4 is inexact


def dyadic_ties():
    """Floats n / 2^j, n odd, with exactly 18 significant digits (those of
    n 5^j): exact ties of the 17-digit rounding, which format_float rounds to
    even.  j runs to 25, where 10^(16 - e) is inexact (e = -7 and -8)."""
    out = []
    for j in range(1, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        out += [n / 2.0 ** j for n in np.linspace(lo, hi - 1, 60).astype(np.int64).tolist()
                if n % 2 and len(Decimal(n / 2.0 ** j).as_tuple().digits) == 18]
    return out


def test_ties_and_near_ties_of_the_17th_digit(monkeypatch):
    ties = np.array(dyadic_ties())
    assert ties.min() < 1e-7 and ties.max() > 1e15
    assert format_float(1.00000762939453125) == "1.0000076293945312"  # a tie, to even
    # the floats nearest (D + 1/2) 10^k, a 17-digit D, across the range
    rng = np.random.default_rng(17)
    near = np.array([float(Fraction(2 * int(d) + 1, 2) * Fraction(10) ** int(k))
                     for d, k in zip(rng.integers(10 ** 16, 10 ** 17, size=4000),
                                     rng.integers(-320, 292, size=4000))])
    spelled = []
    monkeypatch.setattr(ptb.output, "format_float", lambda x: spelled.append(x) or format_float(x))
    assert_spelled_like_format_float(np.concatenate([ties, -ties]).reshape(-1, 2))
    assert sorted(spelled) == sorted(np.concatenate([ties, -ties]).tolist() * 2)  # ties only
    assert_spelled_like_format_float(np.concatenate([near, -near]).reshape(-1, 2))


@pytest.mark.parametrize("kind", [list, np.array])
def test_empty_narrow_and_one_column_tables(kind):
    assert RowTable(kind([]), 3).blocks() == []
    assert RowTable(np.zeros((0, 3)), 3).blocks() == []
    table = RowTable([[], [], []] if kind is list else np.zeros((3, 0)), 0)
    assert table.blocks() == ["\n\n\n"] and table.json_lines == [[]]
    one = RowTable(kind([[1.5], [math.nan], [-0.0], [math.inf], [1e-7]]), 1)
    assert one.blocks() == ["1.5\nnan\n-0\ninf\n9.9999999999999995e-08\n"]
    assert one.json_lines == [[1, 2]] and one.inf == math.inf


@pytest.mark.parametrize("kind", [list, np.array])
def test_json_lines_and_inf_follow_the_float_definition(kind):
    # each pair of EDGE values and infinities in a row, 1,024 rows to a block
    values = EDGE + [math.inf, -math.inf, 0.5]
    rows = [[x, y, 0.25] for x in values for y in values] * 5
    table = RowTable(kind(rows), 3)
    table.blocks()
    a = np.array(rows)
    fix = np.isnan(a) | ((np.abs(a) < 1e17) & (a == np.trunc(a)))
    lines = np.flatnonzero(fix.any(axis=1))
    assert table.json_lines == [(lines[(lines >= i) & (lines < i + 1024)] - i).tolist()
                                for i in range(0, len(rows), 1024)]
    assert table.inf == a[np.isinf(a)][0] == math.inf and type(table.inf) is float


def test_numpy_scalars_round_trip_as_their_python_values(tmp_path):
    payload = {"n": np.int64(3), "ok": np.bool_(True), "no": [np.bool_(False)],
               "x": np.float32(0.5), "gap": np.float64(math.nan), "rows": RowTable([[1.0]], 1)}
    write_json(tmp_path / "got.json", payload)
    back = json.loads((tmp_path / "got.json").read_text())
    assert back == {"n": 3, "ok": True, "no": [False], "x": 0.5, "gap": None, "rows": [[1.0]]}
    assert type(back["n"]) is int and type(back["ok"]) is bool


def test_ragged_rows_are_refused_before_writing(tmp_path):
    # a row table is rectangular: a row of another length is refused before
    # the file opens, so a file already at the path stays as it was; also
    # deep in the first block of 1,024 rows and in a later one
    path = tmp_path / "out"
    path.write_text("before\n")
    with pytest.raises(TypeError):
        write_json(path, {"schema": 1, "rows": RowTable([[1.0], []], 1)})
    with pytest.raises(TypeError):
        write_csv(path, [[1.0, 2.0], [3.0]], ["a", "b"])
    for n in (300, 1500):
        with pytest.raises(TypeError, match="holds 2 values"):
            write_csv(path, [[1.0, 2.0]] * n + [[3.0, 4.0, 5.0]], ["a", "b"])
    with pytest.raises(ValueError, match="columns"):
        write_csv(path, RowTable(np.zeros((2, 3)), 3), ["a", "b"])
    assert path.read_text() == "before\n"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, np.float64(math.inf)])
def test_inf_is_refused_like_json(tmp_path, bad):
    payload = {"rows": [[0.0, 1.0], [2.0, bad]]}
    with pytest.raises(ValueError) as want:
        json_reference(tmp_path / "want.json", payload)
    with pytest.raises(ValueError) as got:
        write_json(tmp_path / "got.json", payload)
    assert str(got.value) == str(want.value)


def test_refused_json_leaves_the_file_untouched(tmp_path):
    # the rows are checked before the file opens, a list or a row table alike
    path = tmp_path / "out.json"
    path.write_text("before\n")
    with pytest.raises(ValueError, match="not JSON compliant: inf"):
        write_json(path, {"schema": 1, "rows": [(1.0, 2.0), (math.inf, 0.0)]})
    with pytest.raises(ValueError, match="not JSON compliant: -inf"):
        write_json(path, {"schema": 1, "rows": RowTable(np.array([[1.0, 2.0], [0.0, -math.inf]]), 2)})
    assert path.read_text() == "before\n"


def test_run_payloads_match_json_dump(run, flagged_run, tmp_path):
    for traj, ws in (run, flagged_run):
        payload = json_payload(traj, ws, extra={"scenario": {"rows": [1, 2]}, "exit": 0})
        write_json(tmp_path / "got.json", payload)
        rows = read_back(payload["rows"]).tolist()
        assert_decodes_like_json_dump(tmp_path / "got.json", payload, rows)
        write_csv(tmp_path / "got.csv", trajectory_rows(traj, ws))
        csv_reference(tmp_path / "want.csv", rows, COLUMNS)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("model, ytil, span, nulls", [
    (HarmonicPotential(0.125), (0.3, 0.0, 0.0), 20.0, {"L2_drift"}),
    (CentralPowerPotential(-1.0, 1), (0.0, math.sqrt(6.0), 0.0), 5.0,
     {"N_drift", "N_plus_lambda"}),
], ids=["radial", "marginal"])
def test_a_first_integral_at_rounding_level_has_no_relative_drift(tmp_path, model, ytil, span,
                                                                  nulls):
    # L2 of a radial orbit starts at 0, and N of a marginally bound orbit
    # (lambda = -5e-16) within rounding of its terms 6 and -6: the drifts
    # were divided by 1e-300 or by that rounding, giving 1.1e284, 6.9e288
    # and 13825
    shell = self_consistent_shell(1.0, 2.0, model, (1.0, 0.0, 0.0), ytil)
    traj = integrate(ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array(ytil)),
                     shell, model, span)
    d = diagnostics(traj)
    drifts = {k: d[k] for k in ("N_drift", "L2_drift", "N_plus_lambda")}
    assert {k for k, v in drifts.items() if v is None} == nulls
    assert all(0.0 < v < 1e-9 for k, v in drifts.items() if k not in nulls)
    write_json(tmp_path / "run.json", json_payload(traj, worldlines(traj)))
    written = json.loads((tmp_path / "run.json").read_text())["diagnostics"]
    assert {k for k in drifts if written[k] is None} == nulls


def test_a_first_integral_that_stays_at_zero_drifts_by_zero():
    # at rest in the free model N and L2 are 0 with terms 0: no drift is 0.0
    shell = mass_shell_from_lambda(1.0, 2.0, 0.0)
    traj = integrate(ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.zeros(3)),
                     shell, FreePotential(), 3.0)
    d = diagnostics(traj)
    assert (d["N_drift"], d["L2_drift"], d["N_plus_lambda"]) == (0.0, 0.0, 0.0)
