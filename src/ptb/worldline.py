"""Equal-time world lines and the center-of-energy line.

On the slice z.P = 0 both particles share the rest-frame time T, and their
positions follow from the relative separation alone:

    x1 = Xi + (E2/M) (0, zeta),
    x2 = Xi - (E1/M) (0, zeta),

with Xi = (T, 0, 0, 0) the straight line through the spatial origin and
E1, E2 the shell's individual energies.  The energy-weighted mean
(E1 x1 + E2 x2)/M reproduces Xi identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import reduced
from .errors import FrameMismatch, NoRoot, NonMonotoneTime, OutOfRange
from .minkowski import FourVector, boost_from_rest, lorentz_dot
from .dopri import quartic
from .reduced import Trajectory, equal_time_clock, synchronize

__all__ = [
    "WorldlineSet",
    "worldlines",
    "lambda_from_T",
    "resample_uniform_T",
    "export_lab_frame",
]

_ORIGIN = (0.0, 0.0, 0.0)  # adding it turns a -0 of zeta into +0 in the x1 and x2 columns


@dataclass(frozen=True, eq=False)
class WorldlineSet:
    """Sampled world lines of both particles and the center of energy, built
    from the trajectory traj (its lam, T and flagged columns are theirs).

    x1, x2 and Xi are (n, 4) arrays of components (t, x, y, z) in the
    frame whose total momentum has components frame: the rest frame itself
    carries (M, 0, 0, 0).
    """

    x1: np.ndarray
    x2: np.ndarray
    Xi: np.ndarray
    frame: FourVector
    traj: Trajectory = field(repr=False)


def worldlines(traj: Trajectory) -> WorldlineSet:
    """Emit the two world lines and the center-of-energy line in the rest
    frame, anchored at Xi(T = 0) = (0, 0, 0, 0)."""
    shell = traj.shell

    def events(spatial) -> np.ndarray:
        return np.hstack((traj.T[:, None], np.broadcast_to(spatial, traj.ztil.shape)))

    return WorldlineSet(x1=events(_ORIGIN + (shell.E2 / shell.M) * traj.ztil),
                        x2=events(_ORIGIN - (shell.E1 / shell.M) * traj.ztil), Xi=events(_ORIGIN),
                        frame=FourVector(shell.M, 0.0, 0.0, 0.0), traj=traj)


def lambda_from_T(traj: Trajectory, T_query):
    """Invert the clock map T(lambda) on a monotone trajectory, for one T (a
    float comes back) or an array of them (an array of the same shape).

    A sampled T maps to its own lambda.  The other queries are solved
    together on the dense output: T at every step end must not fall, or
    NonMonotoneTime names the step, and each query is found on the step whose
    ends bracket it, else NoRoot names it.  There T is the quartic whose rows
    are the clock of the state's rows (T is linear in lambda, intF and intG),
    and 60 halvings of theta in [0, 1], past its float spacing, pin the root.
    """
    if not traj.monotone:
        raise NonMonotoneTime("T(lambda) is not invertible on a flagged trajectory")
    Ts, lams, dense, shell = traj.T, traj.lam, traj.dense, traj.shell
    shape = np.shape(T_query)
    Tq = np.asarray(T_query, dtype=float).ravel()
    outside = ~((Ts[0] <= Tq) & (Tq <= Ts[-1]))
    if outside.any():
        raise OutOfRange(f"T = {float(Tq[outside.argmax()])!r} outside "
                         f"[{float(Ts[0])!r}, {float(Ts[-1])!r}]")
    i = np.searchsorted(Ts, Tq)
    lam = lams[i]  # a copy: i is an index array
    open_ = np.flatnonzero(Ts[i] != Tq)
    if open_.size:
        Tq, ends = Tq[open_], dense.groups[:, 0]
        T_ends = equal_time_clock(np.frombuffer(dense.t), ends[:, 4], ends[:, 5], shell)[3]
        if (dips := np.flatnonzero(np.diff(T_ends) < 0.0)).size:
            j = int(dips[0])
            raise NonMonotoneTime(f"T falls from {float(T_ends[j])!r} to {float(T_ends[j + 1])!r} "
                                  f"between lambda = {dense.t[j]!r} and {dense.t[j + 1]!r}")
        step = np.searchsorted(T_ends, Tq) - 1
        if (bad := (step < 0) | (step >= len(T_ends) - 1)).any():
            raise NoRoot(f"T = {float(Tq[bad.argmax()])!r} is not bracketed: the dense clock "
                         f"runs from {float(T_ends[0])!r} to {float(T_ends[-1])!r}")
        start, h, rows = dense.rows(step)
        T_rows = [equal_time_clock(at, r[4], r[5], shell)[3]
                  for at, r in zip((start, h, 0.0, 0.0, 0.0), rows)]
        lo, hi = np.zeros_like(Tq), np.ones_like(Tq)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            up = quartic(mid, *T_rows) >= Tq
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        lam[open_] = start + hi * h
    return float(lam[0]) if not shape else lam.reshape(shape)


def resample_uniform_T(traj: Trajectory, n: Optional[int] = None) -> Trajectory:
    """Rebuild the sample columns on an equispaced grid of T values from the
    dense output, which the result keeps for the same queries; the sample
    lambdas become non-uniform, and the two end samples are kept exactly."""
    if n is None:
        n = len(traj.lam)
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"need an integer of at least two samples, got n = {n!r}")
    inner = lambda_from_T(traj, np.linspace(traj.T[0], traj.T[-1], n)[1:-1])
    lam = np.concatenate((traj.lam[:1], inner, traj.lam[-1:]))
    x = np.insert(traj.dense.groups[[0, -1], 0], 1, traj.dense(inner), axis=0)  # in-plane
    partials = traj.model.partials_at(traj.shell.M2, traj.shell.nu)
    dx = np.array([reduced.rhs(v, traj.shell, partials) for v in x.tolist()])
    return synchronize(replace(traj, lam=lam, u=reduced.lift(x, traj.basis), F=dx[:, 4],
                               G=dx[:, 5], samples=None))


def export_lab_frame(ws: WorldlineSet, k: FourVector) -> WorldlineSet:
    """Boost all sampled points of a rest-frame set into the frame where the
    total momentum has components k.  k must satisfy k.k = M^2 of the shell
    (1e-9 relative); a set already boosted is refused."""
    M, M2 = ws.traj.shell.M, ws.traj.shell.M2
    if ws.frame != FourVector(M, 0.0, 0.0, 0.0):
        raise FrameMismatch(f"the world lines are in the frame {ws.frame}, not the rest frame")
    kk = lorentz_dot(k, k)
    if not (abs(kk - M2) <= 1e-9 * M2):
        raise FrameMismatch(f"k.k = {kk!r} but the shell has M^2 = {M2!r}")
    if k.t <= 0.0:
        raise FrameMismatch("k must be future-pointing")
    return replace(ws, x1=boost_from_rest(ws.x1, k), x2=boost_from_rest(ws.x2, k),
                   Xi=boost_from_rest(ws.Xi, k), frame=k)
