"""Deterministic serialization of trajectories and reports.

All floats are printed with 17 significant digits so identical runs produce
byte-identical files; flagged samples (non-positive clock rate) blank out
the position columns with nan, since the equal-time slice is unreliable
there, while the lambda-parametrized columns stay valid.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .kinematics import noether_N
from .reduced import Trajectory, rest_quintet
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

_NAN_BLOCK = (math.nan,) * 12


def format_float(x: float) -> str:
    return "%.17g" % x


def trajectory_rows(traj: Trajectory, ws: WorldlineSet) -> list[tuple[float, ...]]:
    """One 25-tuple per sample, aligned between trajectory and world lines."""
    if len(ws) != len(traj.samples):
        raise ValueError("world-line set does not match the trajectory grid")
    rows = []
    for s, w in zip(traj.samples, ws):
        st = s.state
        if not (st.lambda_ == w.lam):
            raise ValueError("sample grids diverged between trajectory and world lines")
        q = rest_quintet(st.ztil, st.ytil, traj.shell)
        N = noether_N(q, traj.model.evaluate(q).value)
        if w.flagged:
            pos = _NAN_BLOCK
        else:
            pos = (*w.x1, *w.x2, *w.Xi)
        rows.append((
            st.lambda_, s.T, s.tau1, s.tau2,
            st.ztil[0], st.ztil[1], st.ztil[2],
            st.ytil[0], st.ytil[1], st.ytil[2],
            *pos,
            N, q.L2, s.dTdlambda,
        ))
    return rows


def diagnostics(traj: Trajectory) -> dict:
    """First-integral drifts and clock-rate checks for a finished run.

    Drifts are relative to the scale of the first sample.  The monotonicity
    margin is M^2/4 - nu^2/M^2 - Lambda/2; a positive value guarantees
    dT/dlambda > 0 for any state on the shell.
    """
    shell = traj.shell
    Ns, L2s = [], []
    for s in traj.samples:
        q = rest_quintet(s.state.ztil, s.state.ytil, shell)
        Ns.append(noether_N(q, traj.model.evaluate(q).value))
        L2s.append(q.L2)
    N0, L20 = Ns[0], L2s[0]
    N_scale = max(abs(N0), 1e-300)
    L2_scale = max(abs(L20), 1e-300)
    rates = [s.dTdlambda for s in traj.samples]
    lo, hi = traj.lambda_span
    diag = {
        "n_samples": len(traj.samples),
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "n_rhs": traj.n_rhs,
        "lambda_span": [lo, hi],
        "N_drift": max(abs(N - N0) for N in Ns) / N_scale,
        "L2_drift": max(abs(L2 - L20) for L2 in L2s) / L2_scale,
        "N_plus_lambda": max(abs(N + shell.lambda_) for N in Ns) / max(N_scale, abs(shell.lambda_)),
        "planarity_residual": _planarity(traj),
        "monotonicity_margin": shell.M2 / 4.0 - shell.nu ** 2 / shell.M2 - 0.5 * shell.lambda_,
        "synchronized": traj.synchronized,
    }
    if traj.synchronized:
        diag.update({
            "T_span": [traj.samples[0].T, traj.samples[-1].T],
            "min_dT_dlambda": min(rates),
            "monotone": bool(traj.monotone),
            "n_flagged": sum(1 for s in traj.samples if s.flagged),
        })
    return diag


def _planarity(traj: Trajectory) -> float:
    """Max out-of-plane component relative to the in-plane scale.

    The plane is spanned by the first sample with independent ztil, ytil;
    degenerate (collinear) data is planar by construction.
    """
    normal = None
    for s in traj.samples:
        n = np.cross(s.state.ztil, s.state.ytil)
        norm = float(np.linalg.norm(n))
        if norm > 1e-12 * (np.linalg.norm(s.state.ztil) * np.linalg.norm(s.state.ytil) + 1e-300):
            normal = n / norm
            break
    if normal is None:
        return 0.0
    worst = 0.0
    for s in traj.samples:
        for v in (s.state.ztil, s.state.ytil):
            scale = float(np.linalg.norm(v))
            if scale == 0.0:
                continue
            worst = max(worst, abs(float(v @ normal)) / scale)
    return worst


def write_csv(path, rows: Iterable[Sequence[float]],
              columns: Sequence[str] = COLUMNS) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_float(x) for x in row) + "\n")


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
    return _json_clean(payload)


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(_json_clean(payload), fh, indent=1, allow_nan=False)
        fh.write("\n")
