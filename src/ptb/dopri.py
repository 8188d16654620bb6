"""Adaptive Dormand-Prince 5(4) integrator.

Embedded explicit Runge-Kutta pair with FSAL, PI step-size control
(Lund stabilization) and the quartic dense-output interpolant.  The driver
lands exactly on requested sample points, so emitted samples are genuine
solution points rather than interpolated ones; the dense output is kept
for root finding between samples.

f(t, y) receives the state as a list of Python floats and returns a
sequence of Python floats; the step loop calls no numpy, which at length 6
costs more than the arithmetic, and a numpy scalar from f would slow every
later stage.  The error norm is the RMS over the n scaled components of the
error estimate.  The dense output is (m + 1) groups of six blocks of n
floats, one flat buffer in the loop: group 0 is (y0, 0, 0, 0, 0, k1) and each
accepted step appends (y_new, k3, k4, k5, k6, k7), packed by the attempt.  Step
i takes y and k1 from group i (FSAL) and the rest from group i + 1; k2 has no
dense weight.  Step i runs from t[i] to t[i + 1] of the step grid t.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cache
from string import Template
from struct import Struct
from typing import Callable, Sequence

import numpy as np

from .errors import OutOfRange, StepFailure

__all__ = ["MAX_STEPS", "MAX_DENSE_BYTES", "DenseOutput", "SolveStats", "DopriResult",
           "dense_steps", "quartic", "solve_dopri5"]

MAX_STEPS = 10_000_000  # budget of accepted plus rejected steps
MAX_DENSE_BYTES = 2 ** 30  # budget of the dense output; see dense_steps

# Dormand-Prince 5(4) tableau as rows: nodes C, stage rows A ending with the
# fifth-order weights (so the seventh stage is the derivative at the new
# solution point, FSAL), the error weights E (the difference to the embedded
# fourth-order solution) and the weights D of the dense-output deviation
# polynomial.  The second stage has zero weight in the last row of A, E and D.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)

# controller constants; the estimate is compared against tol * h (error per unit t), so
# err/h scales like h^4 and the PI exponent follows the effective order 4.  An estimate
# below 1e-4 is near the stages' rounding (~1e-6 at tol 1e-10): the update reads 1e-4
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.25 - _BETA * 0.75
_FAC_SHRINK = 5.0   # step never shrinks by more than this factor at once
_FAC_GROW = 10.0    # nor grows by more


@dataclass(frozen=True, eq=False)
class DenseOutput:
    """Quartic interpolant over the m accepted steps of one run.

    t holds the m + 1 step boundaries, each step's start and then the end of
    the last; groups, the (m + 1, 6, n) groups of the module docstring.  Both
    are numpy views of the step loop's buffers.  rows and quartic are the one
    spelling of a step's polynomial: a caller that needs the rate
    differentiates the quartic of rows(i) in theta and divides by h.
    """

    t: np.ndarray
    groups: np.ndarray

    def __call__(self, t):
        """State at t on the step that contains it: a list of floats for a
        scalar t, a (len(t), n) array for an array of t.  A t outside
        [t[0], t[-1]] raises OutOfRange."""
        ts, grid = np.atleast_1d(np.asarray(t, dtype=float)), self.t
        outside = ~((grid[0] <= ts) & (ts <= grid[-1]))
        if outside.any():
            raise OutOfRange(f"t = {float(ts[outside.argmax()])!r} outside "
                             f"[{float(grid[0])!r}, {float(grid[-1])!r}]")
        start, h, rows = self.rows(np.searchsorted(grid[:-1], ts, side="right") - 1)
        out = quartic((ts - start) / h, *rows)
        return out[:, 0].tolist() if np.ndim(t) == 0 else out.T

    def rows(self, i):
        """Start, size h and the rows (y, r2, r3, r4, r5) of the quartic in
        theta of the steps i, an index array: r2 = y_new - y, r3 = h k1 - r2,
        r4 = r2 - h k7 - r3 and r5 = h D.k, each (n, len(i))."""
        # blocks as (6, n, len(i)), so that every operation runs along i
        y, _, _, _, _, k1 = self.groups[i].transpose(1, 2, 0)
        y1, k3, k4, k5, k6, k7 = self.groups[i + 1].transpose(1, 2, 0)
        h = self.t[i + 1] - self.t[i]
        r2 = y1 - y
        r3 = h * k1 - r2
        r4 = r2 - h * k7 - r3
        r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
        return self.t[i], h, (y, r2, r3, r4, r5)


def quartic(theta, y, r2, r3, r4, r5):
    """The dense quartic at theta in [0, 1] of its step, from the step's rows."""
    return y + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))


@dataclass(frozen=True)
class SolveStats:
    """The counters of one run."""

    n_accepted: int
    n_rejected: int
    n_rhs: int               # evaluations of f
    h_min: float             # smallest and largest accepted step
    h_max: float
    n_landed: int            # accepted steps that end on a sample or on t1


@dataclass
class DopriResult:
    t: np.ndarray            # emitted sample times
    y: np.ndarray            # (len(t), n) sample states
    dy: np.ndarray           # (len(t), n) derivatives f(t, y) at the samples
    dense: DenseOutput
    stats: SolveStats


@cache
def _attempt(n: int, stage: tuple[str, str, tuple] | None = None):
    """attempt(c, t, h, t_new, start) -> (end, group, s) unrolled over n state
    components: start = (y, k1) and end = (y_new, k7), group the dense group the
    step appends, packed as raw doubles, s the sum of the squared error components
    scaled by 1 + max(|y|, |y_new|), each sum in its row's order.  A stage (head,
    body, names) is source text that assigns no argument, state or stage of the
    attempt: head runs once, body sets $k_0, ... from the state $u_0, ... at $t in
    each stage; names pairs its globals with their objects.  A state the body does
    not read is not computed; a rate it never sets is zero: its component keeps its
    value and adds no error term.  The default calls c = f on a list."""
    def names(k, zero=None):  # k_0, k_1, ...; for a zero rate, zero or else y_i
        return "".join(f"{k}_{i}, " if i in rated else f"{zero or f'y_{i}'}, " for i in range(n))

    def dot(row, i):
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in enumerate(row, 1) if w)

    rated = range(n)  # every rate, until the body is known
    head, body, globals_ = stage or ("", f"{names('$k')}= c($t, [{names('$u')}])", ())
    used = set(re.findall(r"\$(\w+)", body))
    rated = [i for i in range(n) if f"k_{i}" in used]
    src = [f"{names('y')}{names('k1', '_')}= start", *head.splitlines()]
    for s, node, row in zip(range(2, 8), [f"t + {c!r} * h" for c in _C[1:6]] + ["t_new"], _A):
        y = "y_new" if s == 7 else f"y{s}"
        src += [f"{y}_{i} = y_{i} + h * ({dot(row, i)})" for i in rated
                if s == 7 or f"u_{i}" in used]  # y_new whole, stage states as read
        src += Template(body).substitute(t=node, **{f"u_{i}": f"{y if i in rated else 'y'}_{i}"
                                                    for i in range(n)},
                                         **{f"k_{i}": f"k{s}_{i}" for i in range(n)}).splitlines()
    for i in rated:
        src += [f"a = -y_{i} if y_{i} < 0.0 else y_{i}",
                f"b = -y_new_{i} if y_new_{i} < 0.0 else y_new_{i}",
                f"r_{i} = ({dot(_E, i)}) / (1.0 + (a if a > b else b))"]
    y_new, ks = names("y_new"), [names(f"k{s}", "0.0") for s in range(3, 8)]
    squares = " + ".join(f"r_{i} * r_{i}" for i in rated)
    src.append(f"return ({y_new}{ks[-1]}), pack({y_new}{''.join(ks)}), {squares}")
    namespace = dict(globals_, pack=Struct(f"{6 * n}d").pack)  # bound as a default: a local
    exec(compile("def attempt(c, t, h, t_new, start, pack=pack):\n    " + "\n    ".join(src),
                 f"<dopri5 attempt, n = {n}>", "exec"), namespace)
    return namespace["attempt"]


def dense_steps(n: int) -> int:
    """The most accepted steps whose dense output and size, 8 (6 n + 2) bytes each, fit."""
    return MAX_DENSE_BYTES // (8 * (6 * n + 2))


def _rms(v, scale, t0: float, probe: str) -> float:
    try:
        return math.sqrt(sum((a / s) ** 2 for a, s in zip(v, scale)) / len(scale))
    except OverflowError:  # a square past the largest float: as inf, it would make h0 = 0
        raise StepFailure(f"scaled norm of {probe} overflows in the first-step probe "
                          f"at t0 = {t0!r}") from None


def _require_finite(where: str, *named) -> None:
    """Raise StepFailure naming where and the first non-finite component of
    the (name, values) pairs, taken in order."""
    for name, values in named:
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise StepFailure(f"non-finite {name}[{i}] = {v!r} {where}")


def _initial_step(f, t0, y0, f0, tol, max_step, span):
    """Classic two-probe heuristic for the first step size."""
    sc = [tol + tol * abs(v) for v in y0]
    d0, d1 = _rms(y0, sc, t0, "y0"), _rms(f0, sc, t0, "f(t0, y0)")
    h0 = min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1, span, max_step)
    f1 = f(t0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
    d2 = _rms([a - b for a, b in zip(f1, f0)], sc, t0, "f(t0 + h0) - f(t0, y0)") / h0
    d12 = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if d12 <= 1e-15 else (0.01 / d12) ** 0.25
    return min(100.0 * h0, h1, span, max_step)


def solve_dopri5(
    f: Callable[[float, list[float]], Sequence[float]],
    t_span: tuple[float, float],
    y0,
    *,
    tol: float = 1e-10,
    max_step: float = math.inf,
    sample_interval: float | None = None,
    stage: tuple[tuple[str, str, tuple], tuple] | None = None,
) -> DopriResult:
    """Integrate y' = f(t, y) from t_span[0] to t_span[1], f as the module
    docstring says.  tol is the error target per unit t, absolute and
    relative alike, so the deviation scales like tol times span.  With a
    sample_interval d, steps are cut short to land on each t0 + k d of the
    span, t1 in place of a last point within 1e-12 span of it, and these
    states, t0 and t1 included, are emitted; otherwise every accepted step
    is.  A cut step keeps the step size proposed before the cut and the PI
    memory facold for the next, unless its error exceeds facold, so the grid
    costs at most one extra attempt per point.  dy holds the derivative (the
    FSAL stage) of every emitted sample.  stage = (source, c) runs the stages
    inline, with constants c, as f would."""
    if not (0.0 < tol < math.inf and max_step > 0.0):
        raise ValueError(f"need 0 < tol < inf and max_step > 0, got {tol=!r}, {max_step=!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 < t1 < math.inf:
        raise ValueError(f"need finite t0 < t1, got {t_span!r}")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError("y0 must be one-dimensional")
    y, n, span = y0.tolist(), len(y0), t1 - t0

    max_accepted = dense_steps(n)
    budget = min(MAX_STEPS, max_accepted)  # each point past t0 ends an accepted step of its own
    pts = np.array([t0, t1])  # t0, then the points to land on
    if sample_interval is not None:
        if not sample_interval > 0.0:
            raise ValueError(f"sample_interval must be positive, got {sample_interval!r}")
        points = span / sample_interval + 1e-9
        k = math.floor(min(points, budget + 1))  # the last multiple, or one past the budget
        # t1 ends the grid, in place of a last multiple within rounding of it
        kept = not t1 - (t0 + k * sample_interval) <= 1e-12 * span
        if k + kept > budget:
            raise StepFailure(f"a sample grid of {points + 1:.4g} points needs more accepted "
                              f"steps than the step budget of {budget}")
        pts = np.append(t0 + np.arange(k + kept) * sample_interval, t1)
        if not (pts[1:] > pts[:-1]).all():
            raise ValueError(f"sample_interval = {sample_interval!r} is below the float "
                             f"spacing of t in {t_span!r}")
    if span / max_step > budget:  # each accepted step is at most max_step
        raise StepFailure(f"max_step = {max_step!r} over a span of {span!r} needs more "
                          f"accepted steps than the step budget of {budget}")
    k1 = f(t0, y)
    _require_finite(f"at t = {t0!r}", ("y0", y), ("f(t0, y0)", k1))
    h = _initial_step(f, t0, y, k1, tol, max_step, span)
    attempt, c = (_attempt(n), f) if stage is None else (_attempt(n, stage[0]), stage[1])

    data, grid = array("d", (*y, *[0.0] * (4 * n), *k1)), array("d")
    extend, add_t = data.frombytes, grid.append  # for an accepted step's group and start

    t, start, facold, just_rejected = t0, (*y, *k1), 1e-4, False
    eval_pts = pts[1:].tolist()
    n_accepted = n_rejected = n_landed = eval_idx = 0  # eval_idx: the next point to land on
    h_used = err = math.nan

    # min, max and abs are spelled out, for speed, as the comparisons that pick their float
    while t < t1:
        if n_accepted + n_rejected >= MAX_STEPS:
            raise StepFailure(f"step budget {MAX_STEPS} exhausted at t = {t!r} "
                              f"(last h = {h_used!r}, last error estimate = {err!r})")
        if n_accepted == max_accepted:
            raise StepFailure(f"dense output budget {MAX_DENSE_BYTES} bytes full at t = {t!r}")

        # shorten to land exactly on the next target (sample point or t1)
        target = eval_pts[eval_idx]
        h_try = max_step if max_step < h else h
        landed = target - t <= h_try
        if h < 1e-14 * (t if t > 1.0 else -t if t < -1.0 else 1.0) and not landed:
            raise StepFailure(f"step size underflow at t = {t!r} "
                              f"(h = {h!r}, last error estimate = {err!r})")
        t_new = target if landed else t + h_try
        h_used = t_new - t

        # k7 is evaluated at exactly the y_new that is emitted; the error is per
        # unit step against tol (1 + max|y|), so drift stays ~ tol * span
        end, group, s = attempt(c, t, h_used, t_new, start)
        err = math.sqrt(s / n) / tol

        if err <= 1.0:
            add_t(t)
            extend(group)
            n_accepted += 1
            n_landed += landed
            eval_idx += t_new == target  # landed, or ended on it uncut
            t, start = t_new, end
            # PI update (Lund stabilization); a landing cut no worse than facold keeps h, facold
            if not (landed and h_used < h_try and err <= facold):
                fac = (e := 1e-4 if 1e-4 > err else err) ** _EXPO1 / facold ** _BETA / _SAFETY
                fac = fac if fac < _FAC_SHRINK else _FAC_SHRINK
                h = h_used / (fac if fac > 1.0 / _FAC_GROW else 1.0 / _FAC_GROW)
                h = h_used if just_rejected and h_used < h else h
                facold = e
            just_rejected = False
        else:
            if err != err:
                # a nan stage would reject every step down to the budget; f redoes k2 (a21 = 0.2)
                k2 = f(t + 0.2 * h_used, [v + h_used * (0.2 * d)
                                          for v, d in zip(start, start[n:])])
                b = np.frombuffer(group).reshape(6, n).tolist()
                _require_finite(f"in the step from t = {t!r} (h = {h_used!r})", ("k2", k2), *zip(
                    ("k3", "k4", "k5", "k6", "y_new", "k7"), b[1:5] + b[:1] + b[5:]))
            n_rejected += 1
            fac = err ** _EXPO1 / _SAFETY
            h = h_used / (fac if fac < _FAC_SHRINK else _FAC_SHRINK)
            just_rejected = True

    add_t(t)
    dense = DenseOutput(np.frombuffer(grid), np.frombuffer(data).reshape(-1, 6, n))
    hs = np.diff(dense.t)  # each step's t_new - t, bit for bit
    # an emitted sample is a step end: group j holds the state after j accepted steps
    rows = np.arange(n_accepted + 1) if sample_interval is None else np.searchsorted(dense.t, pts)
    stats = SolveStats(n_accepted, n_rejected, 2 + 6 * (n_accepted + n_rejected),
                       float(hs.min()), float(hs.max()), n_landed)
    return DopriResult(dense.t[rows], dense.groups[rows, 0], dense.groups[rows, 5], dense, stats)
