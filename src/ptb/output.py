"""Deterministic serialization of trajectories and reports.

A run's rows are formatted once, each float as "%.17g", and both files
take that text: CSV as it is, JSON with nan as null and ".0" on integral
values.  Identical runs give byte-identical files.  Flagged samples
(non-positive clock rate) blank out the position columns with nan, since the
equal-time slice is unreliable there; the lambda columns stay valid.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import nullcontext
from typing import Iterable, Optional, Sequence

import numpy as np

from .mass_shell import monotonicity_margin
from .reduced import Trajectory
from .worldline import WorldlineSet

__all__ = ["COLUMNS", "format_float", "RowTable", "trajectory_rows", "diagnostics",
           "write_csv", "write_json", "json_payload"]

# fixed column order; position blocks go nan on flagged samples
COLUMNS = (
    "lam", "T", "tau1", "tau2",
    "ztil_x", "ztil_y", "ztil_z",
    "ytil_x", "ytil_y", "ytil_z",
    "x1_t", "x1_x", "x1_y", "x1_z",
    "x2_t", "x2_x", "x2_y", "x2_z",
    "Xi_t", "Xi_x", "Xi_y", "Xi_z",
    "N", "L2", "dT_dlambda",
)


def format_float(x: float) -> str:
    return "%.17g" % x


class RowTable:
    """Rows of ncols floats (a 2-d array, or a list of rows: "%" refuses one
    of another length with a TypeError), formatted on first use as CSV lines
    in "%.17g" and kept in blocks of 1024 lines; the rows are then dropped.
    From each block's floats it records in json_lines the lines JSON must fix,
    those with a nan or an integral value below 1e17 in magnitude ("%.17g"
    spells these with digits and a sign only, ±0 included), and in inf the
    first infinite value in row order, or None."""

    def __init__(self, rows, ncols: int):
        self.rows, self.ncols, self.n, self._blocks = rows, ncols, len(rows), None
        self.json_lines, self.inf = [], None

    def blocks(self) -> list[str]:
        if self._blocks is None:
            line = ",".join(["%.17g"] * self.ncols) + "\n"
            blocks, lines, infs = [], [], []
            for i in range(0, self.n, 1024):
                rows = self.rows[i:i + 1024]
                blocks.append(_format(line, rows))
                a = np.asarray(rows, dtype=float)
                fix = np.isnan(a) | ((np.abs(a) < 1e17) & (a == np.trunc(a)))
                lines.append(np.flatnonzero(fix.any(axis=1)).tolist())
                infs.extend(a[np.isinf(a)][:1].tolist())
            self._blocks, self.json_lines, self.inf = blocks, lines, (infs + [None])[0]
            self.rows = None
        return self._blocks


def _format(line: str, rows) -> str:
    if isinstance(rows, np.ndarray):
        return line * len(rows) % tuple(rows.ravel().tolist())
    return "".join([line % tuple(row) for row in rows])


def trajectory_rows(traj: Trajectory, ws: WorldlineSet) -> RowTable:
    """The run's table of COLUMNS, one row per sample, built on the first
    call and kept on ws, so both writers share it."""
    if ws.traj is not traj:
        raise ValueError("the world-line set was built from another trajectory")
    if "_rows" not in ws.__dict__:
        N, L2 = traj.first_integrals
        pos = np.hstack((ws.x1, ws.x2, ws.Xi))
        pos[traj.flagged] = math.nan
        ws.__dict__["_rows"] = RowTable(np.column_stack((
            traj.lam, traj.T, traj.tau1, traj.tau2, traj.ztil, traj.ytil, pos, N, L2,
            traj.dTdlambda)), len(COLUMNS))
    return ws.__dict__["_rows"]


def diagnostics(traj: Trajectory) -> dict:
    """First-integral drifts and clock-rate checks for a finished run.

    Drifts are relative to the scale of the first sample.  A positive
    monotonicity_margin guarantees dT/dlambda > 0 for any state on the shell.
    """
    shell = traj.shell
    N, L2 = traj.first_integrals
    N_scale = max(abs(float(N[0])), 1e-300)
    L2_scale = max(abs(float(L2[0])), 1e-300)
    return {
        "n_samples": len(traj.lam),
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "n_rhs": traj.n_rhs,
        "h_min": traj.h_min,
        "h_max": traj.h_max,
        "n_landed": traj.n_landed,
        "lambda_span": [float(traj.lam[0]), float(traj.lam[-1])],
        "N_drift": float(np.abs(N - N[0]).max()) / N_scale,
        "L2_drift": float(np.abs(L2 - L2[0]).max()) / L2_scale,
        "N_plus_lambda": float(np.abs(N + shell.lambda_).max()) / max(N_scale, abs(shell.lambda_)),
        "planarity_residual": _planarity(traj),
        "monotonicity_margin": monotonicity_margin(shell.M2, shell.nu, shell.lambda_),
        "T_span": [float(traj.T[0]), float(traj.T[-1])],
        "min_dT_dlambda": float(np.min(traj.dTdlambda)),
        "monotone": traj.monotone,
        "n_flagged": int(np.count_nonzero(traj.flagged)),
    }


def _planarity(traj: Trajectory) -> float:
    """Max out-of-plane component relative to the in-plane scale.

    The plane is spanned by the first sample with independent ztil, ytil;
    degenerate (collinear) data is planar by construction.
    """
    z, y = traj.ztil, traj.ytil
    cross = np.cross(z, y)
    norm = np.linalg.norm(cross, axis=1)
    zn, yn = np.linalg.norm(z, axis=1), np.linalg.norm(y, axis=1)
    independent = norm > 1e-12 * (zn * yn + 1e-300)
    if not independent.any():
        return 0.0
    i = int(np.argmax(independent))
    normal = cross[i] / norm[i]
    worst = 0.0
    for v, scale in ((z, zn), (y, yn)):
        moving = scale != 0.0
        worst = max(worst, float(np.max(np.abs(v[moving] @ normal) / scale[moving],
                                        initial=0.0)))
    return worst


def write_csv(path, rows: Iterable[Sequence[float]],
              columns: Sequence[str] = COLUMNS) -> None:
    """Write the header and one line per row to path, or to an open text
    file, each value spelled as format_float spells it; all rows are
    formatted before the file opens."""
    table = rows if isinstance(rows, RowTable) else RowTable(list(rows), len(columns))
    if table.ncols != len(columns):
        raise ValueError(f"a table of {table.ncols} columns under {len(columns)} names")
    lines = [",".join(columns) + "\n", *table.blocks()]
    with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as fh:
        fh.writelines(lines)


def _json_clean(x):
    if isinstance(x, float):
        return None if math.isnan(x) else x
    if isinstance(x, dict):
        return {k: _json_clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_clean(v) for v in x]
    if isinstance(x, np.generic):
        return _json_clean(x.item())
    return x


def json_payload(traj: Trajectory, ws: WorldlineSet,
                 extra: Optional[dict] = None) -> dict:
    shell = traj.shell
    payload = {
        "schema": 1,
        "shell": {
            "m1": shell.m1, "m2": shell.m2, "lambda": shell.lambda_,
            "M": shell.M, "E1": shell.E1, "E2": shell.E2,
        },
        "model": traj.model.describe(),
        "frame": list(ws.frame),
        "columns": list(COLUMNS),
        "rows": trajectory_rows(traj, ws),
        "diagnostics": diagnostics(traj),
    }
    if extra:
        payload.update(extra)
    return payload


def write_json(path, payload: dict) -> None:
    """Write payload as strict JSON, laid out as json.dump(indent=1) lays it
    out: nan becomes null, tuples become arrays and numpy scalars the int,
    float or bool they hold, and inf is refused with json's ValueError.

    A RowTable under "rows" is written one row per line in the CSV's
    spelling, with nan as null and ".0" on integral values, so that every
    value reads back as a float; it is checked before the file opens.
    """
    rows = payload.get("rows")
    table = isinstance(rows, RowTable)
    text = json.dumps(_json_clean({**payload, "rows": None} if table else payload),
                      indent=1, allow_nan=False)
    if table:
        blocks = rows.blocks()
        if rows.inf is not None:
            json.dumps(rows.inf, indent=1, allow_nan=False)  # json's own refusal
        # a newline and one space open only top-level keys, so this splits
        # at the rows entry and nowhere else
        head, text = text.split('\n "rows": null', 1)
    with open(path, "w", newline="") as fh:
        if table:
            fh.write(head + '\n "rows": [')
            fh.writelines(("," if i else "") + _json_rows(b, lines)
                          for i, (b, lines) in enumerate(zip(blocks, rows.json_lines)))
            fh.write("\n ]" if blocks else "]")
        fh.write(text + "\n")


# an integral cell of a CSV line, which JSON would read back as an integer
_INTEGRAL = re.compile(r"(?<![^,])-?\d+(?![^,])")


def _json_rows(block: str, lines: Sequence[int]) -> str:
    """A block of CSV lines as JSON arrays, one per line, with nan as null and
    ".0" on integral values, which only the listed lines (ascending) hold."""
    text = block[:-1].split("\n", lines[-1] + 1) if lines else [block[:-1]]
    for i in lines:
        text[i] = _INTEGRAL.sub(r"\g<0>.0", text[i]).replace("nan", "null")
    # the lines after the last listed one stay one string; popped, it is
    # converted with no second copy of the block alive
    text.append(text.pop().replace("\n", "],\n  [") + "]")
    text[0] = "\n  [" + text[0]
    return "],\n  [".join(text)
