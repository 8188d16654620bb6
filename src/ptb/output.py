"""Deterministic serialization of trajectories and reports.

CSV prints every float with 17 significant digits and JSON with the
shortest repr that reads back to it, so identical runs produce
byte-identical files; flagged samples (non-positive clock rate) blank out
the position columns with nan, since the equal-time slice is unreliable
there, while the lambda-parametrized columns stay valid.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .reduced import Trajectory
from .worldline import WorldlineSet

__all__ = [
    "COLUMNS",
    "format_float",
    "trajectory_rows",
    "diagnostics",
    "write_csv",
    "write_json",
    "json_payload",
]

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


def trajectory_rows(traj: Trajectory, ws: WorldlineSet) -> list[tuple[float, ...]]:
    """One 25-tuple per sample, aligned between trajectory and world lines."""
    if len(ws.lam) != len(traj.lam):
        raise ValueError("world-line set does not match the trajectory grid")
    if not np.array_equal(ws.lam, traj.lam):
        raise ValueError("sample grids diverged between trajectory and world lines")
    N, L2 = traj.first_integrals
    pos = np.hstack((ws.x1, ws.x2, ws.Xi))
    pos[ws.flagged] = math.nan
    table = np.column_stack((traj.lam, traj.T, traj.tau1, traj.tau2, traj.ztil, traj.ytil,
                             pos, N, L2, traj.dTdlambda))
    return list(map(tuple, table.tolist()))


def diagnostics(traj: Trajectory) -> dict:
    """First-integral drifts and clock-rate checks for a finished run.

    Drifts are relative to the scale of the first sample.  The monotonicity
    margin is M^2/4 - nu^2/M^2 - Lambda/2; a positive value guarantees
    dT/dlambda > 0 for any state on the shell.
    """
    shell = traj.shell
    N, L2 = traj.first_integrals
    N_scale = max(abs(float(N[0])), 1e-300)
    L2_scale = max(abs(float(L2[0])), 1e-300)
    diag = {
        "n_samples": len(traj.lam),
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "n_rhs": traj.n_rhs,
        "h_min": traj.h_min,
        "h_max": traj.h_max,
        "n_landed": traj.n_landed,
        "lambda_span": list(traj.lambda_span),
        "N_drift": float(np.abs(N - N[0]).max()) / N_scale,
        "L2_drift": float(np.abs(L2 - L2[0]).max()) / L2_scale,
        "N_plus_lambda": float(np.abs(N + shell.lambda_).max()) / max(N_scale, abs(shell.lambda_)),
        "planarity_residual": _planarity(traj),
        "monotonicity_margin": shell.M2 / 4.0 - shell.nu ** 2 / shell.M2 - 0.5 * shell.lambda_,
        "synchronized": traj.synchronized,
    }
    if traj.synchronized:
        diag.update({
            "T_span": [float(traj.T[0]), float(traj.T[-1])],
            "min_dT_dlambda": float(np.min(traj.dTdlambda)),
            "monotone": bool(traj.monotone),
            "n_flagged": int(np.count_nonzero(traj.flagged)),
        })
    return diag


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
    """Write the header and one line per row, each value spelled as
    format_float spells it; every row has one value per column."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _json_clean(x):
    if isinstance(x, float):
        return None if math.isnan(x) else x
    if isinstance(x, dict):
        return {k: _json_clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_clean(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return _json_clean(float(x))
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
    out: nan becomes null, tuples become arrays and numpy scalars plain
    numbers, and inf is refused with json's ValueError.

    A "rows" entry, a table of floats (numpy float64 included), is written
    here row by row, each value spelled by float.__repr__ as json spells
    it; the rest of the payload goes through json.
    """
    rows = payload.get("rows")
    text = json.dumps(_json_clean(payload if rows is None else {**payload, "rows": None}),
                      indent=1, allow_nan=False)
    with open(path, "w", newline="") as fh:
        if rows is not None:
            # a newline and one space open only top-level keys, so this
            # splits at the rows entry and nowhere else
            head, text = text.split('\n "rows": null', 1)
            fh.write(head + '\n "rows": [')
            for i, row in enumerate(rows):
                fh.write((",\n  " if i else "\n  ") + _json_row(row))
            fh.write("\n ]" if len(rows) else "]")
        fh.write(text + "\n")


def _json_row(row) -> str:
    """One row of floats as json.dump(indent=1) writes it at depth 2."""
    text = ",\n   ".join(map(float.__repr__, row))
    if "n" in text:  # nan or inf: a finite float's spelling has no n
        # indent selects the encoder json.dump(indent=1) runs, and its errors
        text = ",\n   ".join(json.dumps(_json_clean(x), indent=1, allow_nan=False)
                               for x in row)
    return "[\n   " + text + "\n  ]" if text else "[]"
