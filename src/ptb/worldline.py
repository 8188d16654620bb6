"""Equal-time world lines and the center-of-energy line.

On the slice z.P = 0 both particles share the rest-frame time T, and their
positions follow from the relative separation alone:

    x1 = Xi + (E2/M) (0, zeta),
    x2 = Xi - (E1/M) (0, zeta),

with Xi = (T, Xi0) a straight line through the chosen spatial anchor Xi0
and E1, E2 the shell's individual energies.  The energy-weighted mean
(E1 x1 + E2 x2)/M reproduces Xi identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import reduced
from .errors import FrameMismatch, NonMonotoneTime, OutOfRange
from .mass_shell import MassShell
from .minkowski import FourVector, boost_from_rest, lorentz_dot
from .reduced import Trajectory, equal_time_clock, require_synchronized, synchronize
from .roots import brent

__all__ = [
    "WorldlineSet",
    "worldlines",
    "lambda_from_T",
    "resample_uniform_T",
    "export_lab_frame",
]


@dataclass(frozen=True, eq=False)
class WorldlineSet:
    """Sampled world lines of both particles and the center of energy.

    x1, x2 and Xi are (n, 4) arrays of components (t, x, y, z) in the
    frame whose total momentum has components frame: the rest frame itself
    carries (M, 0, 0, 0).  lam, T and flagged are the (n) sample columns of
    the trajectory they come from.
    """

    shell: MassShell
    lam: np.ndarray
    T: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    Xi: np.ndarray
    flagged: np.ndarray
    frame: FourVector


def worldlines(traj: Trajectory, Xi0: Sequence[float] = (0.0, 0.0, 0.0)) -> WorldlineSet:
    """Emit the two world lines and the center-of-energy line in the rest
    frame, anchored at Xi(T = 0) = (0, Xi0)."""
    require_synchronized(traj)
    shell = traj.shell
    anchor = np.asarray(Xi0, dtype=float)
    if anchor.shape != (3,):
        raise ValueError("Xi0 must be a 3-vector")

    def events(spatial) -> np.ndarray:
        return np.hstack((traj.T[:, None], np.broadcast_to(spatial, traj.ztil.shape)))

    return WorldlineSet(shell=shell, lam=traj.lam, T=traj.T,
                        x1=events(anchor + (shell.E2 / shell.M) * traj.ztil),
                        x2=events(anchor - (shell.E1 / shell.M) * traj.ztil), Xi=events(anchor),
                        flagged=traj.flagged, frame=FourVector(shell.M, 0.0, 0.0, 0.0))


def lambda_from_T(traj: Trajectory, T_query: float) -> float:
    """Invert the clock map T(lambda) on a monotone trajectory.

    A sampled T maps to its own lambda; between samples Brent's method
    refines on the dense output, so |T(result) - T_query| stays at
    root-finder level, and a bracket whose ends do not straddle T_query
    raises NoRoot.
    """
    require_synchronized(traj)
    if traj.monotone is False:
        raise NonMonotoneTime("T(lambda) is not invertible on a flagged trajectory")
    Ts, lams = traj.T, traj.lam
    if not (Ts[0] <= T_query <= Ts[-1]):
        raise OutOfRange(f"T = {T_query!r} outside [{Ts[0]!r}, {Ts[-1]!r}]")
    i = int(np.searchsorted(Ts, T_query))
    if Ts[i] == T_query:
        return float(lams[i])
    lo, hi = float(lams[i - 1]), float(lams[i])

    def residual(lam: float) -> float:
        _, _, _, _, _, _, intF, intG = traj.dense(lam)
        return equal_time_clock(lam, intF, intG, traj.shell)[3] - T_query

    return brent(residual, lo, hi, xtol=1e-15 * max(1.0, hi))


def resample_uniform_T(traj: Trajectory, n: Optional[int] = None) -> Trajectory:
    """Rebuild the sample columns on an equispaced grid of T values.

    The dense output is retained, so the result supports the same
    queries as the original; sample lambdas become non-uniform.  The two
    end samples are kept exactly.
    """
    require_synchronized(traj)
    if traj.monotone is False:
        raise NonMonotoneTime("cannot resample a non-monotone trajectory in T")
    if n is None:
        n = len(traj.lam)
    if n < 2:
        raise ValueError("need at least two samples")
    inner = [lambda_from_T(traj, T) for T in np.linspace(traj.T[0], traj.T[-1], n)[1:-1].tolist()]
    rows = [traj.u[0].tolist(), *map(traj.dense, inner), traj.u[-1].tolist()]
    du = np.array([reduced.rhs(v, traj.shell, traj.model) for v in rows])
    return synchronize(replace(traj, lam=np.array([traj.lam[0], *inner, traj.lam[-1]]),
                               u=np.array(rows), F=du[:, 6], G=du[:, 7], synchronized=False,
                               samples=None))


def export_lab_frame(ws: WorldlineSet, k: FourVector) -> WorldlineSet:
    """Boost all sampled points into the frame where the total momentum has
    components k.  k must satisfy k.k = M^2 of the shell (1e-9 relative)."""
    M2 = ws.shell.M2
    kk = lorentz_dot(k, k)
    if not (abs(kk - M2) <= 1e-9 * M2):
        raise FrameMismatch(f"k.k = {kk!r} but the shell has M^2 = {M2!r}")
    if k.t <= 0.0:
        raise FrameMismatch("k must be future-pointing")
    return replace(ws, x1=boost_from_rest(ws.x1, k), x2=boost_from_rest(ws.x2, k),
                   Xi=boost_from_rest(ws.Xi, k), frame=k)
