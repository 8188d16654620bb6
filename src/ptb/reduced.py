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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .dopri import MAX_STEPS, DenseOutput, solve_dopri5
from .errors import NonMonotoneTime, OutOfRange, StepFailure
from .kinematics import ScalarQuintet, noether_N
from .mass_shell import MassShell
from .potentials import PotentialSpec, _KernelModel

__all__ = [
    "IntegratorOptions",
    "ReducedState",
    "TrajectorySample",
    "Trajectory",
    "rest_quintet",
    "rhs",
    "rhs_for",
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
    """One sample as an object; see Trajectory.samples."""

    state: ReducedState
    F: float
    G: float
    tau1: float
    tau2: float
    T: float
    dTdlambda: float
    flagged: bool


class _SampleView(Sequence):
    """TrajectorySample objects over the rows of a trajectory, built on first
    access: a convenience for callers outside the package, which itself reads
    the columns."""

    def __init__(self, traj: "Trajectory"):
        # the columns, not the trajectory: a reference cycle would keep every
        # finished run in memory until the next full garbage collection
        self._cols = traj.lam, traj.u, traj.F, traj.G, traj.shell

    def __len__(self) -> int:
        return len(self._cols[0])

    def __getitem__(self, i):
        return self._rows[i]

    @cached_property
    def _rows(self) -> tuple[TrajectorySample, ...]:
        lam, u, F, G, _ = self._cols
        clock = _clock_columns(*self._cols)[:4]
        return tuple(
            TrajectorySample(ReducedState(lam, u[0:3].copy(), u[3:6].copy(), float(u[6]),
                                          float(u[7])), F, G, *c, flagged=not (c[3] > 0.0))
            for lam, u, F, G, *c in zip(lam.tolist(), u, F.tolist(), G.tolist(),
                                        *(c.tolist() for c in clock)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A reduced run as columns over its n samples: lam (n), the state
    u = (zeta, eta, intF, intG) (n, 8) and the quadrature rates F, G (n).
    The clock, tau1, tau2, T, its rate dTdlambda, flagged (n each) and
    monotone, is built from them on first read: a replace gets its own.
    dense is the solver's interpolant over every accepted step; h_min,
    h_max and n_landed are its step-size range and the steps it cut short
    to land on a sample or on the end of the span.

    samples is a per-sample view of the same data, built on first access;
    a tuple given explicitly is kept as it is.
    """

    shell: MassShell
    model: PotentialSpec
    lam: np.ndarray
    u: np.ndarray
    F: np.ndarray
    G: np.ndarray
    dense: DenseOutput
    n_accepted: int
    n_rejected: int
    n_rhs: int
    h_min: float
    h_max: float
    n_landed: int
    opts: IntegratorOptions
    samples: Sequence[TrajectorySample] = field(default=None, repr=False)

    def __post_init__(self):
        # a view carried over by dataclasses.replace belongs to the old columns
        if not isinstance(self.samples, tuple):
            object.__setattr__(self, "samples", _SampleView(self))

    _clock = cached_property(lambda t: _clock_columns(t.lam, t.u, t.F, t.G, t.shell))
    tau1 = property(lambda t: t._clock[0])
    tau2 = property(lambda t: t._clock[1])
    T = property(lambda t: t._clock[2])
    dTdlambda = property(lambda t: t._clock[3])
    monotone = property(lambda t: t._clock[4], doc="T rises at a positive rate throughout.")
    flagged = property(lambda t: ~(t._clock[3] > 0.0), doc="Samples with a non-positive rate.")

    @property
    def ztil(self) -> np.ndarray:
        return self.u[:, 0:3]

    @property
    def ytil(self) -> np.ndarray:
        return self.u[:, 3:6]

    @property
    def lambda_span(self) -> tuple[float, float]:
        return float(self.lam[0]), float(self.lam[-1])

    @cached_property
    def first_integrals(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns of N = ytil2 + 2 V and L2, built once per trajectory; V
        takes one model evaluation per sample, the only per-sample loop after
        integration."""
        q = rest_quintet(self.ztil, self.ytil, self.shell)
        V = [self.model.evaluate(ScalarQuintet(q.P2, *row, q.w)).value
             for row in zip(q.ztil2.tolist(), q.ytil2.tolist(), q.zy.tolist())]
        return noether_N(q, np.array(V)), q.L2

    def vector_at(self, lam: float) -> np.ndarray:
        """Dense-output state vector (zeta, eta, intF, intG) at lambda."""
        lo, hi = self.lambda_span
        if not (lo <= lam <= hi):
            raise OutOfRange(f"lambda = {lam!r} outside [{lo!r}, {hi!r}]")
        return np.array(self.dense(lam))


def _dot(a: np.ndarray, b: np.ndarray):
    """Dot product over the last axis of 3-vectors, summed as in rhs."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def rest_quintet(ztil: np.ndarray, ytil: np.ndarray, shell: MassShell) -> ScalarQuintet:
    """Scalar quintet of a rest-frame state, or of (n, 3) columns of them;
    y.P is the first integral nu."""
    return ScalarQuintet.at_rest(shell.M2, shell.nu, _dot(ztil, ztil), _dot(ytil, ytil),
                                 _dot(ztil, ytil))


def rhs(u: Sequence[float], shell: MassShell,
        model: PotentialSpec) -> tuple[float, ...]:
    """Right-hand side (dzeta, deta, F, G) of the flat state
    u = (zeta, eta, intF, intG), in plain float arithmetic: u is a sequence
    of eight Python floats (an array row goes in as row.tolist()).

    Depends on lambda only through the state itself; tau1 and tau2 never
    appear separately.
    """
    z0, z1, z2, y0, y1, y2, _, _ = u
    M2, nu = shell.M2, shell.nu
    dP2, dztil2, dytil2, dzy, dw = model.rest_partials(
        M2, nu, z0 * z0 + z1 * z1 + z2 * z2, y0 * y0 + y1 * y1 + y2 * y2,
        z0 * y0 + z1 * y1 + z2 * y2)
    a = 1.0 + 2.0 * dytil2
    b = -2.0 * dztil2
    return (a * y0 + dzy * z0, a * y1 + dzy * z1, a * y2 + dzy * z2,
            b * z0 - dzy * y0, b * z1 - dzy * y1, b * z2 - dzy * y2,
            2.0 * M2 * dP2, 2.0 * nu * dw)


def rhs_for(shell: MassShell, model: PotentialSpec):
    """The solver's f(lam, u) for a run.  A central kernel model that keeps
    the kernel's rest partials gets its kernel with M^2, 2 M^2 and G = 2 nu 0
    bound once: the floats of rhs up to the sign of a zero.  Any other model
    goes through rhs, looked up as a module attribute on each call."""
    if type(model).rest_partials is not _KernelModel.rest_partials:
        return lambda lam, u: rhs(u, shell, model)
    kernel, M2, M2x2, G = model._kernel, shell.M2, 2.0 * shell.M2, 2.0 * shell.nu * 0.0

    def f(lam: float, u: list[float]) -> tuple[float, ...]:
        z0, z1, z2, y0, y1, y2, _, _ = u
        _, dP2, dztil2 = kernel(M2, -(z0 * z0 + z1 * z1 + z2 * z2))
        b = -2.0 * dztil2
        return y0, y1, y2, b * z0, b * z1, b * z2, M2x2 * dP2, G
    return f


def dT_dlambda(F, G, shell: MassShell):
    """Clock rate M/4 - nu^2/M^3 - nu G/M^3 + F/M of the equal-time slice,
    for scalars or elementwise over columns."""
    M = shell.M
    M3 = M * shell.M2
    return 0.25 * M - shell.nu ** 2 / M3 - shell.nu * G / M3 + F / M


def _sample_grid(span: float, interval: Optional[float]) -> Optional[np.ndarray]:
    if interval is None:
        return None
    if not (interval > 0.0):
        raise ValueError(f"sample_interval must be positive, got {interval!r}")
    n = span / interval + 1e-9
    # each point past lambda = 0 ends an accepted step of its own
    if not (n < MAX_STEPS + 1):
        raise StepFailure(f"a sample grid of {n + 1:.4g} points needs more accepted "
                          f"steps than the step budget of {MAX_STEPS}")
    grid = np.arange(math.floor(n) + 1) * interval
    # span ends the grid, in place of a last point within rounding of it
    return np.append(grid[:-1] if span - grid[-1] <= 1e-12 * span else grid, span)


def integrate(initial: ReducedState, shell: MassShell, model: PotentialSpec,
              span: float, opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Advance the reduced system over lambda in [0, span].

    The quadratures are co-integrated, so they share the step-error control
    of the vector part; the F and G of each sample are the solver's
    derivative at that sample.  In strict mode the run aborts as soon as the
    clock rate dT/dlambda fails to be positive at an accepted step, and
    synchronize checks the samples it returns.
    """
    if not (span > 0.0):
        raise ValueError(f"span must be positive, got {span!r}")
    start = (initial.lambda_, initial.intF, initial.intG)
    if start != (0.0, 0.0, 0.0):
        raise ValueError("integration starts at lambda = 0 with both quadratures at 0, "
                         f"got (lambda, intF, intG) = {start!r}")

    last_lam = 0.0

    def strict_clock(lam: float, u: list[float], du: tuple[float, ...]) -> None:
        nonlocal last_lam
        rate = dT_dlambda(du[6], du[7], shell)
        if not (rate > 0.0):
            raise NonMonotoneTime(
                f"dT/dlambda = {rate!r} at lambda = {lam!r} after a step of "
                f"h = {lam - last_lam!r} (strict mode)")
        last_lam = lam

    u0 = np.concatenate((initial.ztil, initial.ytil, (initial.intF, initial.intG)))
    sol = solve_dopri5(rhs_for(shell, model), (0.0, span), u0, tol=opts.tol,
                       max_step=opts.max_step, t_eval=_sample_grid(span, opts.sample_interval),
                       on_step=strict_clock if opts.strict_time else None)

    return synchronize(Trajectory(
        shell=shell, model=model, lam=sol.t, u=sol.y, F=sol.dy[:, 6], G=sol.dy[:, 7],
        dense=sol.dense, n_accepted=sol.n_accepted, n_rejected=sol.n_rejected,
        n_rhs=sol.n_rhs, h_min=sol.h_min, h_max=sol.h_max, n_landed=sol.n_landed,
        opts=opts,
    ))


def equal_time_clock(lam, intF, intG, shell: MassShell):
    """(tau1, tau2, Q.P, T) at lambda on the equal-time slice, for scalars
    or elementwise over columns.

    z.P = 0 along the whole slice pins tau1 - tau2; constants vanish at
    lambda = 0 where both quadratures start from zero.
    """
    M, M2, nu = shell.M, shell.M2, shell.nu
    delta = -(2.0 / M2) * (nu * lam + intG)
    QdotP = 0.5 * nu * delta + 0.25 * M2 * lam + intF
    return 0.5 * (lam + delta), 0.5 * (lam - delta), QdotP, QdotP / M


def _clock_columns(lam, u, F, G, shell: MassShell) -> tuple:
    """tau1, tau2, T and the clock rate over the columns of a run, and
    whether T rises at a positive rate throughout."""
    tau1, tau2, _, T = equal_time_clock(lam, u[:, 6], u[:, 7], shell)
    rate = dT_dlambda(F, G, shell)
    return tau1, tau2, T, rate, bool(np.all(rate > 0.0) and np.all(np.diff(T) > 0.0))


def synchronize(traj: Trajectory) -> Trajectory:
    """traj itself, unless it is strict and T does not rise at a positive
    rate throughout: then NonMonotoneTime."""
    if traj.opts.strict_time and not traj.monotone:
        raise NonMonotoneTime(f"min dT/dlambda = {float(traj.dTdlambda.min())!r} (strict mode)")
    return traj
