"""Adaptive Dormand-Prince 5(4) integrator.

Embedded explicit Runge-Kutta pair with FSAL, PI step-size control
(Lund stabilization) and the quartic dense-output interpolant.  The driver
lands exactly on requested sample points, so emitted samples are genuine
solution points rather than interpolated ones; the dense output is kept
for root finding between samples.

f(t, y) receives the state as a list of Python floats and returns a
sequence of Python floats; the step loop calls no numpy, which at length 8
costs more than the arithmetic, and a numpy scalar from f would slow every
later stage.  The dense output is one flat buffer of groups of six blocks
of n floats: group 0 is (y0, 0, 0, 0, 0, k1) and each accepted step appends
(y_new, k3, k4, k5, k6, k7).  Step i takes y and k1 from group i (the FSAL
stage) and the rest from group i + 1; k2 has no dense weight.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import StepFailure

__all__ = ["DenseOutput", "DopriResult", "solve_dopri5"]

# Dormand-Prince 5(4) tableau: nodes C, stage weights A, fifth-order
# weights B (so the seventh stage is the derivative at the new solution
# point, FSAL), the difference E to the embedded fourth-order solution and
# the weights D of the dense-output deviation polynomial.  The second stage
# has zero weight in B, E and D.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)

# controller constants; the estimate is compared against tol * h (error per
# unit t), so the controlled quantity err/h scales like h^4 and the PI
# exponent follows the effective order 4
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.25 - _BETA * 0.75
_FAC_SHRINK = 5.0   # step never shrinks by more than this factor at once
_FAC_GROW = 10.0    # nor grows by more


@dataclass(frozen=True, eq=False)
class DenseOutput:
    """Quartic interpolant over the m accepted steps of one run.

    t0 and h hold the start and size of each step; data is the dense
    buffer described in the module docstring, (m + 1) groups of six blocks
    of n floats.
    """

    t0: array
    h: array
    data: array
    n: int

    @property
    def groups(self) -> np.ndarray:
        """The buffer as an (m + 1, 6, n) array view."""
        return np.frombuffer(self.data).reshape(-1, 6, self.n)

    def __call__(self, t):
        """State at t on the step that contains it: a list of floats for a
        scalar t, a (len(t), n) array for an array of t.  Outside
        [t0[0], t0[-1] + h[-1]] the nearest step's quartic is extrapolated."""
        theta, _, y, r2, r3, r4, r5 = self._quartic(t)
        out = y + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))
        return out[:, 0].tolist() if np.ndim(t) == 0 else out.T

    def rate(self, t) -> np.ndarray:
        """Derivative d/dt of the interpolant at an array of t, (len(t), n)."""
        theta, h, _, r2, r3, r4, r5 = self._quartic(t)
        th1 = 1.0 - theta
        return ((r2 + (th1 - theta) * (r3 + 2.0 * theta * th1 * r5)
                 + theta * (2.0 - 3.0 * theta) * r4) / h).T

    def _quartic(self, t):
        """theta, h and the rows of the quartic in theta on the step that
        holds each t: r1 = y, r2 = y_new - y, r3 = h k1 - r2,
        r4 = r2 - h k7 - r3 and r5 = h D.k, each (n, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        starts, sizes = np.frombuffer(self.t0), np.frombuffer(self.h)
        i = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        # blocks as (6, n, len(t)), so that every operation runs along t
        y, _, _, _, _, k1 = self.groups[i].transpose(1, 2, 0)
        y1, k3, k4, k5, k6, k7 = self.groups[i + 1].transpose(1, 2, 0)
        h = sizes[i]
        r2 = y1 - y
        r3 = h * k1 - r2
        r4 = r2 - h * k7 - r3
        r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
        return (t - starts[i]) / h, h, y, r2, r3, r4, r5


@dataclass
class DopriResult:
    t: np.ndarray            # emitted sample times
    y: np.ndarray            # (len(t), n) sample states
    dy: np.ndarray           # (len(t), n) derivatives f(t, y) at the samples
    dense: DenseOutput
    n_accepted: int
    n_rejected: int
    n_rhs: int               # evaluations of f
    h_min: float             # smallest and largest accepted step
    h_max: float
    n_landed: int            # accepted steps cut short to end on a sample or t1


def _rms(v, scale) -> float:
    return math.sqrt(sum((a / s) ** 2 for a, s in zip(v, scale)) / len(scale))


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
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    f1 = f(t0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
    d2 = _rms([a - b for a, b in zip(f1, f0)], sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.25
    return min(100.0 * h0, h1, span, max_step)


def solve_dopri5(
    f: Callable[[float, list[float]], Sequence[float]],
    t_span: tuple[float, float],
    y0,
    *,
    tol: float = 1e-10,
    max_step: float = math.inf,
    t_eval: Sequence[float] | None = None,
    on_step: Callable[[float, list[float], Sequence[float]], None] | None = None,
    max_steps: int = 10_000_000,
) -> DopriResult:
    """Integrate y' = f(t, y) from t_span[0] to t_span[1].

    f follows the contract of the module docstring: a list of floats in, a
    sequence of floats out.  tol is the error target per unit t, applied
    absolutely and relatively alike, so the accumulated deviation scales
    like tol times span.  When t_eval is given (sorted, inside the span)
    the stepper shortens steps to land exactly on each entry and emits the
    propagated state there; otherwise every accepted step is emitted.
    on_step(t, y, dy) runs after each accepted step with the fresh
    derivative (FSAL stage), which is how callers watch derived quantities
    without extra evaluations; the same derivative of every emitted sample
    is returned as dy.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got {t_span!r}")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError("y0 must be one-dimensional")
    y = y0.tolist()
    n = len(y)

    eval_pts: list[float] = []
    if t_eval is not None:
        eval_pts = [float(t) for t in t_eval]
        if any(b <= a for a, b in zip(eval_pts, eval_pts[1:])):
            raise ValueError("t_eval must be strictly increasing")
        if eval_pts and (eval_pts[0] < t0 or eval_pts[-1] > t1 * (1 + 1e-15) + 1e-300):
            raise ValueError("t_eval must lie within t_span")
    n_eval = len(eval_pts)

    k1 = f(t0, y)
    _require_finite(f"at t = {t0!r}", ("y0", y), ("f(t0, y0)", k1))
    h = _initial_step(f, t0, y, k1, tol, max_step, t1 - t0)
    n_rhs = 2

    # emitted samples as indices of buffer groups: group j holds the state
    # after j accepted steps
    out_idx: list[int] = []
    eval_idx = 0
    while eval_idx < n_eval and eval_pts[eval_idx] <= t0:
        out_idx.append(0)
        eval_idx += 1

    data = array("d", y)
    data.extend([0.0] * (4 * n))
    data.extend(k1)
    starts = array("d")
    sizes = array("d")
    extend, start, size = data.extend, starts.append, sizes.append

    t = t0
    facold = 1e-4
    just_rejected = False
    n_accepted = n_rejected = n_landed = 0
    h_used = err = math.nan

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
        target = min(t1, eval_pts[eval_idx]) if eval_idx < n_eval else t1
        h_try = min(h, max_step, target - t)
        landed = h_try >= target - t
        t_new = target if landed else t + h_try
        h_used = t_new - t

        k2 = f(t + _C2 * h_used, [a + h_used * (_A21 * c1) for a, c1 in zip(y, k1)])
        k3 = f(t + _C3 * h_used, [a + h_used * (_A31 * c1 + _A32 * c2)
                                  for a, c1, c2 in zip(y, k1, k2)])
        k4 = f(t + _C4 * h_used, [a + h_used * (_A41 * c1 + _A42 * c2 + _A43 * c3)
                                  for a, c1, c2, c3 in zip(y, k1, k2, k3)])
        k5 = f(t + _C5 * h_used, [a + h_used * (_A51 * c1 + _A52 * c2 + _A53 * c3 + _A54 * c4)
                                  for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)])
        k6 = f(t + h_used, [a + h_used * (_A61 * c1 + _A62 * c2 + _A63 * c3 + _A64 * c4
                                          + _A65 * c5)
                            for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)])
        y_new = [a + h_used * (_B1 * c1 + _B3 * c3 + _B4 * c4 + _B5 * c5 + _B6 * c6)
                 for a, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)]
        # the seventh stage is evaluated at exactly the y_new that is emitted
        k7 = f(t_new, y_new)
        n_rhs += 6
        # error per unit step against tol (1 + max|y|): global drift stays
        # proportional to tol * span
        s = 0.0
        for a, b, c1, c3, c4, c5, c6, c7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            # max(|a|, |b|) by comparisons, cheaper than three builtin calls
            if a < 0.0:
                a = -a
            if b < 0.0:
                b = -b
            r = (_E1 * c1 + _E3 * c3 + _E4 * c4 + _E5 * c5 + _E6 * c6 + _E7 * c7) \
                / (1.0 + (a if a > b else b))
            s += r * r
        err = math.sqrt(s / n) / tol

        if err <= 1.0:
            start(t)
            size(h_used)
            extend(chain(y_new, k3, k4, k5, k6, k7))
            n_accepted += 1
            n_landed += landed
            if on_step is not None:
                on_step(t_new, y_new, k7)
            while eval_idx < n_eval and eval_pts[eval_idx] <= t_new:
                out_idx.append(n_accepted)
                eval_idx += 1
            t = t_new
            y = y_new
            k1 = k7
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
            if err != err:
                # a nan stage would reject every step down to the budget
                _require_finite(f"in the step from t = {t!r} (h = {h_used!r})",
                                ("k2", k2), ("k3", k3), ("k4", k4), ("k5", k5), ("k6", k6),
                                ("y_new", y_new), ("k7", k7))
            n_rejected += 1
            fac11 = err ** _EXPO1
            h = h_used / min(_FAC_SHRINK, fac11 / _SAFETY)
            just_rejected = True

    dense = DenseOutput(starts, sizes, data, n)
    groups = dense.groups
    times = np.append(np.frombuffer(starts), t)
    rows = np.arange(n_accepted + 1) if t_eval is None else np.array(out_idx, dtype=int)
    return DopriResult(
        t=times[rows], y=groups[rows, 0], dy=groups[rows, 5], dense=dense,
        n_accepted=n_accepted, n_rejected=n_rejected, n_rhs=n_rhs,
        h_min=min(sizes), h_max=max(sizes), n_landed=n_landed,
    )
