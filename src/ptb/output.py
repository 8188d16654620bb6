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
from dataclasses import asdict
from functools import cache
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
    """Rows of ncols floats (a 2-d array, or a list of rows: a TypeError
    refuses one of another length), formatted on first use as "%.17g" CSV
    lines in blocks of 1024; the rows are then dropped.  json_lines lists per
    block the lines with a nan or a value spelled in digits and a sign only
    (±0 and integers below 1e17); inf is the first infinite value, or None."""

    def __init__(self, rows, ncols: int):
        self.rows, self.ncols, self.n, self._blocks = rows, ncols, len(rows), None
        self.json_lines, self.inf = [], None

    def blocks(self) -> list[str]:
        if self._blocks is None:
            blocks, lines, infs = [], [], []
            for i in range(0, self.n, 1024):
                rows = self.rows[i:i + 1024]
                if not isinstance(rows, np.ndarray) and any(len(r) != self.ncols for r in rows):
                    raise TypeError(f"every row of this table holds {self.ncols} values")
                text, fix, inf = _spell(np.asarray(rows, float).reshape(len(rows), self.ncols))
                blocks.append(text)
                lines.append(np.flatnonzero(fix).tolist())
                infs.extend(inf)
            self._blocks, self.json_lines, self.inf = blocks, lines, (infs + [None])[0]
            self.rows = None
        return self._blocks


@cache
def _tables():
    """_spell's tables, built on first use: 10^(16 - e) = hi + lo and the
    exponent text per e; "0000" to "9999" and their trailing zeros; per class
    min(max(e, -5), 17) + 5 and count k of significant digits, the masks and
    shift of a cell's bytes: for e in [0, 16] the digits after digit e move one
    byte, behind the point; for e in [-4, -1] all move five, behind "0.000"
    cut to -e - 1 zeros; for an exponent the point follows the first digit."""
    e = np.arange(-284, 285)
    nd = [(10 ** max(p, 0), 10 ** max(-p, 0)) for p in (16 - e).tolist()]  # 10^p = n / d
    hi, lo = np.array([(h := n / d, (n * (r := h.as_integer_ratio())[1] - r[0] * d) / (d * r[1]))
                       for n, d in nd]).T
    words = lambda b: np.ascontiguousarray(b, np.uint8).view("<u8").astype(np.uint64)  # noqa: E731
    g = np.arange(10000)
    pairs = (g[:100] // 10 + 48 | (g[:100] % 10 + 48) << 8).astype(np.uint64)
    c, k, j = np.ogrid[:23, :18, :24]
    B, P = (c >= 1) & (c <= 4), np.where((c >= 5) & (c <= 21), c - 4, 1)
    keep = np.where(B, (j >= 5) & (j < 5 + k), (j < np.maximum(k, P) + (k > P)) & (j != P))
    put = np.where(B, 48 * ((j == 0) | (j > c) & (j < 5)) + 46 * (j == 1), 46 * (j == P) * (k > P))
    return (hi, lo, 134217729.0 * hi - (134217729.0 * hi - hi),
            words([list(b"\0\0e%+03d\0\0" % x if x < -4 or x > 16 else bytes(8))[:8]
                   for x in e.tolist()])[:, 0], pairs[g // 100] | pairs[g % 100] << np.uint64(16),
            sum((g % 10 ** i == 0).astype(np.uint8) for i in range(1, 5)),
            *[words(m).reshape(-1, 3).T.copy() for m in
              (((j < P) & ~B & (k >= 0)) * 255, keep * 255, put)],
            np.repeat(np.where(B, 40, 8), 18).astype(np.uint64))


def _spell(x: np.ndarray) -> tuple[str, np.ndarray, list]:
    """The CSV lines of the rows of x as format_float spells them, the lines
    JSON must fix and a list of the first infinite value, built in one buffer
    128 rows at a time.  D = round(|x| 10^(16 - e)) is exact by Dekker's
    product, with e where 1e16 - 1e-6 <= |x| 10^(16 - e) < 1e17 (in the slack
    e - 1 gives the same D) and 10^17 carried.  format_float spells the cells
    within 1e-6 of a tie and the nonzero finite ones out of [1e-280, 1e280]."""
    HI, LO, HH, SUFFIX, DIGITS, TZ, SEL, KEEP, PUT, SHIFT = _tables()
    (rows, ncols), flat = x.shape, x.ravel()
    buf = np.frombuffer(raw := bytearray(32 * flat.size + 1), "<u8", 4 * flat.size).reshape(-1, 4)
    fixes = np.zeros(flat.size, bool)
    for j in range(0, flat.size, 128 * ncols or 1):
        x, cells, fix = flat[j:j + 128 * ncols], buf[j:j + 128 * ncols], fixes[j:j + 128 * ncols]
        a = np.where(ok := (np.abs(x) >= 1e-280) & (np.abs(x) <= 1e280), np.abs(x), 1.0)
        e = np.floor(np.log10(a)).astype(np.intp)
        al = a - (ah := (c := 134217729.0 * a) - (c - a))
        for _ in range(3):
            hh, hl, p = HH[e + 284], HI[e + 284] - HH[e + 284], a * HI[e + 284]
            r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * LO[e + 284]
            up, down = (p > 1e17) | (p == 1e17) & (r >= 0), (p < 1e16) | (p == 1e16) & (r < -1e-6)
            if not (moved := up | down).any():
                break
            e += up.astype(np.intp) - down
        D = p.astype(np.int64) + (rr := np.rint(r)).astype(np.int64)
        fb = np.where(ok, moved | (np.abs(r - rr) > 0.5 - 1e-6), np.isfinite(x) & (x != 0))
        e += (carry := D == 10 ** 17)
        D[carry] = 10 ** 16
        q, d = np.divmod(D, 10)  # q as two groups of eight digits, each two of four
        ge, g = np.divmod(np.stack(np.divmod(q, 10 ** 8)), 10000)
        w = np.vstack([DIGITS[ge] | DIGITS[g] << np.uint64(32), (d + 48).astype(np.uint64)])
        (t0, t2), (t1, t3) = TZ[ge], TZ[g]  # k: the significant digits
        k = 17 - (d == 0) * (1 + t3 + (t3 == 4) * (t2 + (t2 == 4) * (t1 + (t1 == 4) * t0)))
        # a cell: separator, sign, 24 bytes from w before the split and shifted after it
        i = (np.minimum(np.maximum(e, -5), 17) + 5) * 18 + k
        h = w << SHIFT[i]
        h[1:] |= w[:2] >> (np.uint64(64) - SHIFT[i])
        w = ((w ^ h) & np.take(SEL, i, 1) ^ h) & np.take(KEEP, i, 1) | np.take(PUT, i, 1)
        w[2] |= SUFFIX[e + 284]
        s = np.flatnonzero(~np.isfinite(x) | (x == 0))  # "0", "nan", "inf"
        w[0, s] = np.array([48, 0x6E616E, 0x666E69], np.uint64)[np.isnan(x[s]) + 2 * np.isinf(x[s])]
        cells[:, 1:] = w.T
        cells[:, 0] = np.where(np.signbit(x) & ~np.isnan(x), np.uint64(0x2D << 56), np.uint64(0))
        cells[:, 0] |= np.array([10] + [44] * (ncols - 1), np.uint64)[np.arange(len(x)) % ncols]
        fix[:] = (k <= e + 1) & (e <= 16) & ~np.isinf(x)
        for f in np.flatnonzero(fb).tolist():
            s = format_float(x[f]).encode()
            cells.view(np.uint8)[f, 7:] = list(s.ljust(25, b"\0"))
            fix[f] = s.lstrip(b"-").isdigit()
    raw[0], raw[-1] = 0, 10  # no newline before the first line, one after the last
    text = raw.translate(None, b"\0").decode("ascii") if ncols else "\n" * rows
    return text, fixes.reshape(rows, ncols).any(axis=1), flat[np.isinf(flat)][:1].tolist()


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
    min_dT_dlambda and monotone read the samples and every step end;
    n_flagged counts the samples with a non-positive rate.
    """
    shell = traj.shell
    N, L2 = traj.first_integrals
    N_scale = max(abs(float(N[0])), 1e-300)
    L2_scale = max(abs(float(L2[0])), 1e-300)
    return {
        "n_samples": len(traj.lam),
        **asdict(traj.stats),
        "lambda_span": [float(traj.lam[0]), float(traj.lam[-1])],
        "N_drift": float(np.abs(N - N[0]).max()) / N_scale,
        "L2_drift": float(np.abs(L2 - L2[0]).max()) / L2_scale,
        "N_plus_lambda": float(np.abs(N + shell.lambda_).max()) / max(N_scale, abs(shell.lambda_)),
        "planarity_residual": _planarity(traj),
        "monotonicity_margin": monotonicity_margin(shell.M2, shell.nu, shell.lambda_),
        "T_span": [float(traj.T[0]), float(traj.T[-1])],
        "min_dT_dlambda": float(min(np.min(traj.dTdlambda), np.min(traj.clock_ends[1]))),
        "monotone": traj.monotone,
        "n_flagged": int(np.count_nonzero(traj.flagged)),
    }


def _planarity(traj: Trajectory) -> float:
    """Max component of zeta and eta across the plane of traj.basis, each
    relative to its own length."""
    v = np.vstack((traj.ztil, traj.ytil))
    scale = np.linalg.norm(v, axis=1)
    moving = scale != 0.0
    return float(np.max(np.abs(v[moving] @ np.cross(*traj.basis)) / scale[moving], initial=0.0))


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


def json_payload(traj: Trajectory, ws: WorldlineSet, extra: Optional[dict] = None,
                 diag: Optional[dict] = None) -> dict:
    """The JSON document of a run; diag, when given, is diagnostics(traj)."""
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
        "diagnostics": diagnostics(traj) if diag is None else diag,
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
