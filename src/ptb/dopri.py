"""Adaptive Dormand-Prince 5(4) integrator.

Embedded explicit Runge-Kutta pair with FSAL, PI step-size control
(Lund stabilization) and the quartic dense-output interpolant.  The driver
lands exactly on requested sample points, so emitted samples are genuine
solution points rather than interpolated ones; the dense segments are kept
for root finding between samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepFailure

__all__ = ["DenseSegment", "DopriResult", "solve_dopri5"]

# Dormand-Prince 5(4) tableau.  Rows 0-6 of _W are the stage weights; row 6
# holds the fifth-order weights b, so the seventh stage is the derivative at
# the new solution point (FSAL).  Row 7 is the difference to the embedded
# fourth-order solution.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_W = np.array([
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
])
# the five dense coefficient rows as one matrix acting on (y, y_new, h K):
#   r1 = y, r2 = y_new - y, r3 = h k1 - r2, r4 = r2 - h k7 - r3, r5 = h D.K
# with D the dense-output weights of the deviation polynomial
_DENSE = np.array([
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (-1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (-2.0, 2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0),
    (0.0, 0.0, -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423),
])

# controller constants; the estimate is compared against tol * h (error per
# unit t), so the controlled quantity err/h scales like h^4 and the PI
# exponent follows the effective order 4
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.25 - _BETA * 0.75
_FAC_SHRINK = 5.0   # step never shrinks by more than this factor at once
_FAC_GROW = 10.0    # nor grows by more


@dataclass(frozen=True)
class DenseSegment:
    """Quartic interpolant over one accepted step [t0, t0 + h]."""

    t0: float
    h: float
    r: np.ndarray  # (5, n)

    def __call__(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.h
        th1 = 1.0 - theta
        r1, r2, r3, r4, r5 = self.r
        return r1 + theta * (r2 + th1 * (r3 + theta * (r4 + th1 * r5)))


@dataclass
class DopriResult:
    t: np.ndarray            # emitted sample times
    y: np.ndarray            # (len(t), n) sample states
    dy: np.ndarray           # (len(t), n) derivatives f(t, y) at the samples
    segments: list[DenseSegment]
    n_accepted: int
    n_rejected: int
    n_rhs: int               # evaluations of f


def _initial_step(f, t0, y0, f0, tol, max_step, span):
    """Classic two-probe heuristic for the first step size."""
    sc = tol + tol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.25
    return min(100.0 * h0, h1, span, max_step)


def solve_dopri5(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0,
    *,
    tol: float = 1e-10,
    max_step: float = math.inf,
    t_eval: Sequence[float] | None = None,
    on_step: Callable[[float, np.ndarray, np.ndarray], None] | None = None,
    max_steps: int = 10_000_000,
) -> DopriResult:
    """Integrate y' = f(t, y) from t_span[0] to t_span[1].

    tol is the error target per unit t, applied absolutely and relatively
    alike, so the accumulated deviation scales like tol times span.  When
    t_eval is given (sorted, inside the span) the stepper shortens steps to
    land exactly on each entry and emits the propagated state there;
    otherwise every accepted step is emitted.  on_step(t, y, dy) runs after
    each accepted step with the fresh derivative (FSAL stage), which is how
    callers watch derived quantities without extra evaluations; the same
    derivative of every emitted sample is returned as dy.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got {t_span!r}")
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1:
        raise ValueError("y0 must be one-dimensional")

    eval_pts: list[float] | None = None
    if t_eval is not None:
        eval_pts = [float(t) for t in t_eval]
        if any(b <= a for a, b in zip(eval_pts, eval_pts[1:])):
            raise ValueError("t_eval must be strictly increasing")
        if eval_pts and (eval_pts[0] < t0 or eval_pts[-1] > t1 * (1 + 1e-15) + 1e-300):
            raise ValueError("t_eval must lie within t_span")

    out_t: list[float] = []
    out_y: list[np.ndarray] = []
    out_dy: list[np.ndarray] = []
    eval_idx = 0
    n = y.size
    # X = (y, y_new, h K): the dense rows are _DENSE @ X; K is the stage
    # derivatives, row 0 the derivative at y (FSAL)
    X = np.empty((9, n))
    K = np.empty((7, n))
    K[0] = f(t0, y)
    h = _initial_step(f, t0, y, K[0], tol, max_step, t1 - t0)
    n_rhs = 2

    def emit(tc: float, yc: np.ndarray, dyc: np.ndarray):
        out_t.append(tc)
        out_y.append(yc)
        out_dy.append(dyc.copy())

    if eval_pts is None:
        emit(t0, y, K[0])
    else:
        while eval_idx < len(eval_pts) and eval_pts[eval_idx] <= t0:
            emit(t0, y, K[0])
            eval_idx += 1

    t = t0
    facold = 1e-4
    just_rejected = False
    segments: list[DenseSegment] = []
    n_accepted = 0
    n_rejected = 0
    h_used = err = math.nan
    ay = np.abs(y)
    # stage weights scaled by h once per attempt, read through fixed views
    W = np.empty_like(_W)
    stage_w = [W[i, :i] for i in range(7)]
    stage_k = [K[:i] for i in range(7)]
    err_w = W[7]

    while t < t1:
        if n_accepted + n_rejected >= max_steps:
            raise StepFailure(
                f"step budget {max_steps} exhausted at t = {t!r} "
                f"(last h = {h_used!r}, last error estimate = {err!r})")
        if h < 1e-14 * max(abs(t), 1.0):
            raise StepFailure(
                f"step size underflow at t = {t!r} "
                f"(h = {h!r}, last error estimate = {err!r})")

        # shorten to land exactly on the next target (sample point or t1)
        target = t1
        if eval_pts is not None and eval_idx < len(eval_pts):
            target = min(target, eval_pts[eval_idx])
        h_try = min(h, max_step, target - t)
        landed = h_try >= target - t
        t_new = target if landed else t + h_try
        h_used = t_new - t

        np.multiply(_W, h_used, out=W)
        for i in range(1, 6):
            K[i] = f(t + _C[i] * h_used, y + stage_w[i] @ stage_k[i])
        y_new = y + stage_w[6] @ stage_k[6]
        # the seventh stage is evaluated at exactly the y_new that is emitted
        K[6] = f(t_new, y_new)
        n_rhs += 6
        ay_new = np.abs(y_new)
        # error per unit step against tol (1 + max|y|): global drift stays
        # proportional to tol * span
        ratio = (err_w @ K) / (1.0 + np.maximum(ay, ay_new))
        err = math.sqrt(ratio @ ratio / n) / (tol * h_used)

        if err <= 1.0:
            X[0] = y
            X[1] = y_new
            np.multiply(K, h_used, out=X[2:])
            segments.append(DenseSegment(t, h_used, _DENSE @ X))
            n_accepted += 1
            if on_step is not None:
                on_step(t_new, y_new, K[6])
            if eval_pts is None:
                emit(t_new, y_new, K[6])
            else:
                while eval_idx < len(eval_pts) and eval_pts[eval_idx] <= t_new:
                    emit(t_new, y_new, K[6])
                    eval_idx += 1
            t = t_new
            y = y_new
            ay = ay_new
            K[0] = K[6]
            # PI update (Lund stabilization)
            fac11 = err ** _EXPO1
            fac = fac11 / facold ** _BETA
            fac = max(1.0 / _FAC_GROW, min(_FAC_SHRINK, fac / _SAFETY))
            h_next = h_used / fac
            if just_rejected:
                h_next = min(h_next, h_used)
            facold = max(err, 1e-4)
            h = h_next
            just_rejected = False
        else:
            n_rejected += 1
            fac11 = err ** _EXPO1
            h = h_used / min(_FAC_SHRINK, fac11 / _SAFETY)
            just_rejected = True

    return DopriResult(
        t=np.array(out_t),
        y=np.array(out_y) if out_y else np.empty((0, n)),
        dy=np.array(out_dy) if out_dy else np.empty((0, n)),
        segments=segments,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
    )
