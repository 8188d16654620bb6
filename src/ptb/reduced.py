"""Reduced relative dynamics in the rest frame of the total momentum.

The internal motion collapses to a six-dimensional system for the spatial
parts (zeta, eta) of the projected separation and momentum, driven by the
collective parameter lambda = tau1 + tau2:

    dzeta/dlambda = (1 + 2 dV/dytil2) eta + (dV/dzy) zeta
    deta/dlambda  = -2 (dV/dztil2) zeta - (dV/dzy) eta

Both rates are combinations of zeta and eta, so the motion stays in the
plane of (zeta0, eta0) and is integrated there, as two components each on
a basis (e1, e2) of it.  Two quadratures ride along as state components,

    F = 2 P^2 dV/dP2,      G = 2 (y.P) dV/dw,

and feed the equal-time synchronization: the slice z.P = 0 fixes
tau1 - tau2, and the center-of-mass clock is T = Q.P / M.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .dopri import DenseOutput, SolveStats, _attempt, _require_finite, solve_dopri5
from .errors import NonMonotoneTime
from .mass_shell import MassShell
from .potentials import PotentialSpec, ScalarQuintet, _KernelModel

__all__ = ["IntegratorOptions", "ReducedState", "TrajectorySample", "Trajectory", "plane_basis",
           "lift", "rest_quintet", "rhs", "dT_dlambda", "equal_time_clock", "integrate",
           "synchronize"]


@dataclass(frozen=True)
class IntegratorOptions:
    """tol is the error target per unit lambda (absolute and relative alike),
    so end-to-end deviations scale like tol times the integrated span.

    sample_interval = None emits every accepted step, else solve_dopri5's grid.
    strict_time makes a clock that is not monotone raise NonMonotoneTime instead of flagging.
    """

    tol: float = 1e-10
    max_step: float = math.inf
    sample_interval: Optional[float] = None
    strict_time: bool = False


@dataclass(frozen=True)
class ReducedState:
    """Rest-frame internal state at one value of lambda: ztil and ytil hold
    the spatial parts; the four-vector scalars follow the sign map
    ztil2 = -|ztil|^2 etc."""

    lambda_: float
    ztil: np.ndarray
    ytil: np.ndarray


@dataclass(frozen=True)
class TrajectorySample:
    """One sample as an object, a shim the benchmark reads; see Trajectory.samples."""

    state: ReducedState
    T: float


class _SampleView(Sequence):
    """TrajectorySample objects over the rows of a trajectory, built on first
    access: a shim that the benchmark reads, while the package reads the
    columns.  T comes from equal_time_clock, the same floats as Trajectory.T."""

    def __init__(self, traj: "Trajectory"):
        # the columns, not the trajectory: a reference cycle would keep every
        # finished run in memory until the next full garbage collection
        self._cols = traj.lam, traj.u, traj.shell

    def __len__(self) -> int:
        return len(self._cols[0])

    def __getitem__(self, i):
        return self._rows[i]

    @cached_property
    def _rows(self) -> tuple[TrajectorySample, ...]:
        lam, u, shell = self._cols
        T = equal_time_clock(lam, u[:, 6], u[:, 7], shell)[3]
        return tuple(TrajectorySample(ReducedState(at, row[0:3].copy(), row[3:6].copy()), t)
                     for at, row, t in zip(lam.tolist(), u, T.tolist()))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A reduced run as columns over its n samples: lam (n), the rest-frame
    state u = (zeta, eta, intF, intG) (n, 8), lifted from the solver's
    in-plane samples on basis, the orbital plane's rows (e1, e2), and the
    quadrature rates F, G (n).  dense is the solver's interpolant of the
    in-plane state over every accepted step and stats its counters.  The
    clock is built on first read (a replace gets its own): tau1, tau2, T, its
    rate dTdlambda and flagged (n each) from the columns, clock_ends from
    dense, and monotone, true unless faults names a fault at a step end or
    sample.  samples, a per-sample view of lam, ztil, ytil and T built on
    first access, is a shim the benchmark still reads and replaces (a tuple
    given explicitly is kept as it is); it goes once the benchmark reads the
    columns.
    """

    shell: MassShell
    model: PotentialSpec
    lam: np.ndarray
    u: np.ndarray
    F: np.ndarray
    G: np.ndarray
    dense: DenseOutput
    basis: np.ndarray
    stats: SolveStats
    opts: IntegratorOptions
    samples: Sequence[TrajectorySample] = field(default=None, repr=False)

    def __post_init__(self):
        # a view carried over by dataclasses.replace belongs to the old columns
        if not isinstance(self.samples, tuple):
            object.__setattr__(self, "samples", _SampleView(self))

    @cached_property
    def _clock(self) -> tuple:
        """tau1, tau2, T and the clock rate, from the columns."""
        tau1, tau2, _, T = equal_time_clock(self.lam, self.u[:, 6], self.u[:, 7], self.shell)
        return tau1, tau2, T, dT_dlambda(self.F, self.G, self.shell)

    @cached_property
    def clock_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """T and dT/dlambda at lambda = 0 and every accepted step end, from the
        state and FSAL blocks of dense.groups: the one read of the clock there."""
        lam, g = self.dense.t, self.dense.groups
        return (equal_time_clock(lam, g[:, 0, 4], g[:, 0, 5], self.shell)[3],
                dT_dlambda(g[:, 5, 4], g[:, 5, 5], self.shell))

    @cached_property
    def faults(self) -> tuple[Optional[str], Optional[str], Optional[str]]:
        """The clock's faults as messages, None where it holds: the first step
        end with a non-positive rate, the first pair of step ends between which
        T does not rise, and the samples, whose rates must be positive and T rise."""
        lam, (T, rate), rate_s = self.dense.t, self.clock_ends, self.dTdlambda
        j, k = int(np.argmin(rate > 0.0)), int(np.argmin(np.diff(T) > 0.0))
        step = f" after a step of h = {float(lam[j] - lam[j - 1])!r}" if j else ""
        ends_rate = f"dT/dlambda = {float(rate[j])!r} at lambda = {float(lam[j])!r}{step}"
        ends_rise = (f"T falls from {float(T[k])!r} to {float(T[k + 1])!r} "
                     f"between lambda = {float(lam[k])!r} and {float(lam[k + 1])!r}")
        sampled = np.all(rate_s > 0.0) and np.all(np.diff(self.T) > 0.0)
        return (None if rate[j] > 0.0 else ends_rate, None if T[k + 1] > T[k] else ends_rise,
                None if sampled else f"min dT/dlambda = {float(rate_s.min())!r}")

    tau1 = property(lambda t: t._clock[0])
    tau2 = property(lambda t: t._clock[1])
    T = property(lambda t: t._clock[2])
    dTdlambda = property(lambda t: t._clock[3])
    monotone = property(lambda t: not any(t.faults), doc="T rises at a positive rate throughout.")
    flagged = property(lambda t: ~(t._clock[3] > 0.0), doc="Samples with a non-positive rate.")

    ztil = property(lambda t: t.u[:, 0:3])
    ytil = property(lambda t: t.u[:, 3:6])
    # benchmark shims, as samples is: they go with ROADMAP item 9
    n_accepted = property(lambda t: t.stats.n_accepted)
    n_rejected = property(lambda t: t.stats.n_rejected)

    @cached_property
    def _integrals(self) -> tuple:
        """Columns of N = ytil2 + 2 V (conserved at -lambda) and L2 = ztil2 ytil2 - zy^2, then
        |ytil2| + |2 V| and |ztil2 ytil2|, the sizes of their terms at the first sample."""
        q = rest_quintet(self.ztil, self.ytil, self.shell)
        partials = self.model.partials_at(self.shell.M2, self.shell.nu)
        V = [p[0] for p in map(partials, q.ztil2.tolist(), q.ytil2.tolist(), q.zy.tolist())]
        V2, z2y2 = 2.0 * np.array(V), q.ztil2 * q.ytil2
        return q.ytil2 + V2, z2y2 - q.zy * q.zy, abs(q.ytil2[0]) + abs(V2[0]), abs(z2y2[0])

    first_integrals = property(lambda t: t._integrals[:2])
    first_integral_terms = property(lambda t: t._integrals[2:])


def _dot(a: np.ndarray, b: np.ndarray):
    """Dot product over the last axis of 3-vectors, summed in component order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def rest_quintet(ztil: np.ndarray, ytil: np.ndarray, shell: MassShell) -> ScalarQuintet:
    """Scalar quintet of a rest-frame state, or of (n, 3) columns of them: there
    P2 = M2, the projected products are minus those of zeta and eta, y.P = nu."""
    return ScalarQuintet(shell.M2, -_dot(ztil, ztil), -_dot(ytil, ytil), -_dot(ztil, ytil),
                         shell.nu * shell.nu / shell.M2)


def plane_basis(ztil, ytil) -> np.ndarray:
    """Orthonormal rows (e1, e2) of a plane holding zeta = ztil and eta = ytil:
    e1 along zeta (along eta if zeta = 0, an axis if both are), e2 along the
    part of eta across e1 or, where that part is zero or at rounding level,
    along the axis least aligned with e1; e2 is orthogonalized twice."""
    a, b = (np.asarray(v, dtype=float) for v in ((ztil, ytil) if np.any(ztil) else (ytil, ztil)))
    e1 = a / math.hypot(*a) if a.any() else np.array([1.0, 0.0, 0.0])
    r = b - (b @ e1) * e1
    if not math.hypot(*r) > 8.0 * np.finfo(float).eps * math.hypot(*b):
        r = np.eye(3)[np.argmin(np.abs(e1))]
    for _ in range(2):
        r = r - (r @ e1) * e1
        r = r / math.hypot(*r)
    return np.array((e1, r))


def lift(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rest-frame states (zeta, eta, intF, intG) (n, 8) of in-plane states x (n, 6)."""
    (e1, e2), c = basis, x[:, :4, None]
    return np.hstack((c[:, 0] * e1 + c[:, 1] * e2, c[:, 2] * e1 + c[:, 3] * e2, x[:, 4:6]))


def rhs(x: Sequence[float], shell: MassShell, partials) -> tuple[float, ...]:
    """Right-hand side (dzeta, deta, F, G) of the in-plane state x = (zeta,
    eta, intF, intG), zeta and eta on an orthonormal basis of the orbital
    plane, in plain float arithmetic: six Python floats in (an array row as
    row.tolist()) and out, with the model's partials_at(M2, nu) of the shell.
    Depends on lambda only through the state."""
    z0, z1, y0, y1, _, _ = x
    M2, nu = shell.M2, shell.nu
    _, dP2, dztil2, dytil2, dzy, dw = partials(
        -(z0 * z0 + z1 * z1), -(y0 * y0 + y1 * y1), -(z0 * y0 + z1 * y1))
    a = 1.0 + 2.0 * dytil2
    b = -2.0 * dztil2
    return (a * y0 + dzy * z0, a * y1 + dzy * z1, b * z0 - dzy * y0, b * z1 - dzy * y1,
            2.0 * M2 * dP2, 2.0 * nu * dw)


@cache
def _kernel_stage(cls, cells: tuple[str, ...]):
    """The DOPRI5 stage (head, body, names) of rhs for a kernel model class, which
    sets no rate G = 0: its lines per ztil2 run as written, the text that
    partials_at compiles.  A _source binding a name of the stage or attempt is refused."""
    body, names, bound = cls._stage_text
    if clash := sorted(bound & {"M2x2", *_attempt(6).__code__.co_varnames}):
        raise TypeError(f"{cls.__name__}'s _source binds {clash[0]}, a name of the fused stage")
    return (f"M2x2, {''.join(v + ', ' for v in cells)}= c\n",
            f"ztil2 = -($u_0 * $u_0 + $u_1 * $u_1)\n{body}b = -2.0 * dztil2\n"
            "$k_0 = $u_2; $k_1 = $u_3; $k_2 = b * $u_0; $k_3 = b * $u_1\n"
            "$k_4 = M2x2 * dP2", names)


def _stage(shell: MassShell, model: PotentialSpec, partials):
    """The stage (source, c) that fuses rhs, up to the sign of a zero, into each
    attempt for a kernel model, else None; c is 2 M2 and the cells of its partials."""
    if not isinstance(model, _KernelModel):
        return None
    return _kernel_stage(type(model), partials.__code__.co_freevars), (
        2.0 * shell.M2, *(v.cell_contents for v in partials.__closure__ or ()))


def dT_dlambda(F, G, shell: MassShell):
    """Clock rate M/4 - nu^2/M^3 - nu G/M^3 + F/M of the equal-time slice,
    for scalars or elementwise over columns."""
    M = shell.M
    M3 = M * shell.M2
    return 0.25 * M - shell.nu ** 2 / M3 - shell.nu * G / M3 + F / M


def integrate(initial: ReducedState, shell: MassShell, model: PotentialSpec,
              span: float, opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Advance the reduced system over lambda in [0, span] in the plane of plane_basis, the
    model's partials bound once for rhs and _stage, and lift the samples of solve_dopri5's
    grid back.  The quadratures share the in-plane error control; F and G are the solver's
    derivative at each sample.  synchronize checks strict mode."""
    if not 0.0 < span < math.inf:
        raise ValueError(f"span must be positive and finite, got {span!r}")
    if initial.lambda_ != 0.0:
        raise ValueError(f"integration starts at lambda = 0, got {initial.lambda_!r}")

    z0, y0 = (np.asarray(v, dtype=float) for v in (initial.ztil, initial.ytil))
    _require_finite("at lambda = 0", ("ztil", z0.tolist()), ("ytil", y0.tolist()))
    basis = plane_basis(z0, y0)
    x0 = (*(basis @ z0).tolist(), *(basis @ y0).tolist(), 0.0, 0.0)
    partials = model.partials_at(shell.M2, shell.nu)
    sol = solve_dopri5(lambda lam, x: rhs(x, shell, partials), (0.0, span), x0, tol=opts.tol,
                       max_step=opts.max_step, sample_interval=opts.sample_interval,
                       stage=_stage(shell, model, partials))

    return synchronize(Trajectory(
        shell=shell, model=model, lam=sol.t, u=lift(sol.y, basis), F=sol.dy[:, 4],
        G=sol.dy[:, 5], dense=sol.dense, basis=basis, stats=sol.stats, opts=opts))


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


def synchronize(traj: Trajectory) -> Trajectory:
    """traj itself, unless it is strict and its clock is not monotone: then
    NonMonotoneTime names the first of traj.faults, a non-positive rate at
    lambda = 0 or at the end of an accepted step, a fall of T from one step
    end to the next, or the samples."""
    fault = traj.opts.strict_time and next(filter(None, traj.faults), None)
    if fault:
        raise NonMonotoneTime(f"{fault} (strict mode)")
    return traj
