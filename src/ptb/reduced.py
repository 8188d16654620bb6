"""Reduced relative dynamics in the rest frame of the total momentum.

The internal motion collapses to a six-dimensional system for the spatial
parts (zeta, eta) of the projected separation and momentum, driven by the
collective parameter lambda = tau1 + tau2:

    dzeta/dlambda = (1 + 2 dV/dytil2) eta + (dV/dzy) zeta
    deta/dlambda  = -2 (dV/dztil2) zeta - (dV/dzy) eta

Two quadratures ride along as extra state components,

    F = 2 P^2 dV/dP2,      G = 2 (y.P) dV/dw,

and feed the equal-time synchronization: the slice z.P = 0 fixes
tau1 - tau2, and the center-of-mass clock is T = Q.P / M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .dopri import DenseSegment, solve_dopri5
from .errors import NonMonotoneTime, NotSynchronized, OutOfRange
from .kinematics import ScalarQuintet
from .mass_shell import MassShell
from .potentials import PotentialSpec

__all__ = [
    "IntegratorOptions",
    "ReducedState",
    "TrajectorySample",
    "Trajectory",
    "rest_quintet",
    "rhs",
    "dT_dlambda",
    "equal_time_clock",
    "integrate",
    "synchronize",
]


@dataclass(frozen=True)
class IntegratorOptions:
    """tol is the error target per unit lambda (absolute and relative alike),
    so end-to-end deviations scale like tol times the integrated span.

    sample_interval = None emits every accepted step.  strict_time makes a
    non-positive dT/dlambda abort with NonMonotoneTime instead of flagging.
    """

    tol: float = 1e-10
    max_step: float = math.inf
    sample_interval: Optional[float] = None
    strict_time: bool = False


@dataclass(frozen=True)
class ReducedState:
    """Rest-frame internal state at one value of lambda.

    ztil and ytil hold the spatial parts; the four-vector scalars follow the
    sign map ztil2 = -|ztil|^2 etc.  intF and intG are the accumulated
    quadratures from lambda = 0.
    """

    lambda_: float
    ztil: np.ndarray
    ytil: np.ndarray
    intF: float = 0.0
    intG: float = 0.0


@dataclass(frozen=True)
class TrajectorySample:
    state: ReducedState
    F: float
    G: float
    zdotP: float = math.nan
    QdotP: float = math.nan
    tau1: float = math.nan
    tau2: float = math.nan
    T: float = math.nan
    dTdlambda: float = math.nan
    flagged: bool = False


@dataclass(frozen=True)
class Trajectory:
    shell: MassShell
    model: PotentialSpec
    samples: tuple[TrajectorySample, ...]
    segments: tuple[DenseSegment, ...]
    n_accepted: int
    n_rejected: int
    n_rhs: int
    opts: IntegratorOptions
    synchronized: bool = False
    monotone: Optional[bool] = None

    @property
    def lambda_span(self) -> tuple[float, float]:
        return self.samples[0].state.lambda_, self.samples[-1].state.lambda_

    @cached_property
    def _seg_starts(self) -> np.ndarray:
        return np.array([s.t0 for s in self.segments])

    @cached_property
    def clock_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, lambda) of the samples as arrays, built once per trajectory."""
        return (np.array([s.T for s in self.samples]),
                np.array([s.state.lambda_ for s in self.samples]))

    def vector_at(self, lam: float) -> np.ndarray:
        """Dense-output state vector (zeta, eta, intF, intG) at lambda."""
        lo, hi = self.lambda_span
        if not (lo <= lam <= hi):
            raise OutOfRange(f"lambda = {lam!r} outside [{lo!r}, {hi!r}]")
        i = int(np.searchsorted(self._seg_starts, lam, side="right")) - 1
        return self.segments[min(max(i, 0), len(self.segments) - 1)](lam)

    def state_at(self, lam: float) -> ReducedState:
        """Dense-output evaluation anywhere in the integrated span."""
        return _state_from_vector(lam, self.vector_at(lam))

    def sample_at(self, lam: float) -> TrajectorySample:
        """Fully synchronized sample at an arbitrary lambda."""
        u = self.vector_at(lam)
        F, G = rhs(u, self.shell, self.model)[6:8].tolist()
        return _synchronized_sample(_state_from_vector(lam, u), F, G, self.shell)


def _state_from_vector(lam: float, u: np.ndarray) -> ReducedState:
    return ReducedState(lambda_=lam, ztil=u[0:3].copy(), ytil=u[3:6].copy(),
                        intF=float(u[6]), intG=float(u[7]))


def rest_quintet(ztil: np.ndarray, ytil: np.ndarray, shell: MassShell) -> ScalarQuintet:
    """Scalar quintet of a rest-frame state; y.P is the first integral nu."""
    return ScalarQuintet.at_rest(shell.M2, shell.nu, float(ztil @ ztil),
                                 float(ytil @ ytil), float(ztil @ ytil))


def rhs(u: np.ndarray, shell: MassShell, model: PotentialSpec) -> np.ndarray:
    """Right-hand side (dzeta, deta, F, G) of the flat state
    u = (zeta, eta, intF, intG), in plain float arithmetic.

    Depends on lambda only through the state itself; tau1 and tau2 never
    appear separately.
    """
    z0, z1, z2, y0, y1, y2, _, _ = u.tolist()
    M2, nu = shell.M2, shell.nu
    dP2, dztil2, dytil2, dzy, dw = model.rest_partials(
        M2, nu, z0 * z0 + z1 * z1 + z2 * z2, y0 * y0 + y1 * y1 + y2 * y2,
        z0 * y0 + z1 * y1 + z2 * y2)
    a = 1.0 + 2.0 * dytil2
    b = -2.0 * dztil2
    return np.array((a * y0 + dzy * z0, a * y1 + dzy * z1, a * y2 + dzy * z2,
                     b * z0 - dzy * y0, b * z1 - dzy * y1, b * z2 - dzy * y2,
                     2.0 * M2 * dP2, 2.0 * nu * dw))


def dT_dlambda(F: float, G: float, shell: MassShell) -> float:
    """Clock rate M/4 - nu^2/M^3 - nu G/M^3 + F/M of the equal-time slice."""
    M = shell.M
    M3 = M * shell.M2
    return 0.25 * M - shell.nu ** 2 / M3 - shell.nu * G / M3 + F / M


def _sample_grid(span: float, interval: Optional[float]) -> Optional[np.ndarray]:
    if interval is None:
        return None
    if not (interval > 0.0):
        raise ValueError(f"sample_interval must be positive, got {interval!r}")
    n = int(math.floor(span / interval + 1e-9))
    grid = [i * interval for i in range(n + 1)]
    if span - grid[-1] > 1e-12 * span:
        grid.append(span)
    else:
        grid[-1] = span
    return np.array(grid)


def integrate(initial: ReducedState, shell: MassShell, model: PotentialSpec,
              span: float, opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Advance the reduced system over lambda in [0, span].

    The quadratures are co-integrated, so they share the step-error control
    of the vector part; the F and G of each sample are the solver's
    derivative at that sample.  In strict mode the run aborts as soon as the
    clock rate dT/dlambda fails to be positive at an accepted step.
    """
    if not (span > 0.0):
        raise ValueError(f"span must be positive, got {span!r}")
    lam0 = initial.lambda_
    if lam0 != 0.0:
        raise ValueError("integration starts at lambda = 0 by convention")

    def f(lam: float, u: np.ndarray) -> np.ndarray:
        return rhs(u, shell, model)

    last_lam = 0.0

    def strict_clock(lam: float, u: np.ndarray, du: np.ndarray) -> None:
        nonlocal last_lam
        rate = dT_dlambda(float(du[6]), float(du[7]), shell)
        if not (rate > 0.0):
            raise NonMonotoneTime(
                f"dT/dlambda = {rate!r} at lambda = {lam!r} after a step of "
                f"h = {lam - last_lam!r} (strict mode)")
        last_lam = lam

    u0 = np.concatenate((initial.ztil, initial.ytil, (initial.intF, initial.intG)))
    sol = solve_dopri5(f, (0.0, span), u0, tol=opts.tol, max_step=opts.max_step,
                       t_eval=_sample_grid(span, opts.sample_interval),
                       on_step=strict_clock if opts.strict_time else None)

    samples = tuple(TrajectorySample(state=_state_from_vector(lam, u), F=F, G=G)
                    for lam, u, F, G in zip(sol.t.tolist(), sol.y, sol.dy[:, 6].tolist(),
                                            sol.dy[:, 7].tolist()))
    return Trajectory(
        shell=shell, model=model, samples=samples, segments=tuple(sol.segments),
        n_accepted=sol.n_accepted, n_rejected=sol.n_rejected, n_rhs=sol.n_rhs,
        opts=opts,
    )


def equal_time_clock(lam: float, intF: float, intG: float, shell: MassShell):
    """(tau1, tau2, Q.P, T) at lambda on the equal-time slice.

    z.P = 0 along the whole slice pins tau1 - tau2; constants vanish at
    lambda = 0 where both quadratures start from zero.
    """
    M, M2, nu = shell.M, shell.M2, shell.nu
    delta = -(2.0 / M2) * (nu * lam + intG)
    QdotP = 0.5 * nu * delta + 0.25 * M2 * lam + intF
    return 0.5 * (lam + delta), 0.5 * (lam - delta), QdotP, QdotP / M


def _synchronized_sample(state: ReducedState, F: float, G: float,
                         shell: MassShell) -> TrajectorySample:
    tau1, tau2, QdotP, T = equal_time_clock(state.lambda_, state.intF, state.intG, shell)
    rate = dT_dlambda(F, G, shell)
    return TrajectorySample(
        state=state, F=F, G=G, zdotP=0.0, QdotP=QdotP,
        tau1=tau1, tau2=tau2, T=T, dTdlambda=rate,
        flagged=not (rate > 0.0),
    )


def synchronize(traj: Trajectory) -> Trajectory:
    """Fill tau1, tau2, T and the clock rate on every sample.

    Returns a new trajectory; the monotone flag records whether T is
    strictly increasing with a positive rate throughout.  Strict-mode
    trajectories raise NonMonotoneTime instead of carrying flags.
    """
    if traj.synchronized:
        return traj
    new_samples = []
    monotone = True
    prev_T = None
    for s in traj.samples:
        ns = _synchronized_sample(s.state, s.F, s.G, traj.shell)
        if ns.flagged:
            monotone = False
        if prev_T is not None and not (ns.T > prev_T):
            monotone = False
        prev_T = ns.T
        new_samples.append(ns)
    if traj.opts.strict_time and not monotone:
        worst = min(ns.dTdlambda for ns in new_samples)
        raise NonMonotoneTime(f"min dT/dlambda = {worst!r} (strict mode)")
    return replace(traj, samples=tuple(new_samples), synchronized=True,
                   monotone=monotone)


def require_synchronized(traj: Trajectory) -> None:
    if not traj.synchronized:
        raise NotSynchronized("call synchronize(trajectory) first")
