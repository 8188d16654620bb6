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
from .reduced import Trajectory, dT_dlambda, equal_time_clock, synchronize

__all__ = [
    "WorldlineSet",
    "worldlines",
    "lambda_from_T",
    "resample_uniform_T",
    "export_lab_frame",
]

_EPS = float(np.finfo(float).eps)
_ORIGIN = (0.0, 0.0, 0.0)  # adding it turns a -0 of zeta into +0 in the x1 and x2 columns
_NEWTON_MAXITER = 60  # bisection alone narrows any bracket 2^60-fold


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
    together by Newton steps on the dense output, T'(lambda) being the clock
    rate of the dense quadratures: the samples on either side bracket each
    root, and a step that leaves its bracket bisects it instead.  So
    |T(result) - T_query| ends at rounding level.  A bracket whose ends do
    not straddle its query, a nan clock, or a query still open at the
    iteration cap raises NoRoot naming that query.
    """
    if not traj.monotone:
        raise NonMonotoneTime("T(lambda) is not invertible on a flagged trajectory")
    Ts, lams = traj.T, traj.lam
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
        lam[open_] = _newton(traj, Tq[open_], lams[i[open_] - 1], lams[i[open_]])
    return float(lam[0]) if not shape else lam.reshape(shape)


def _newton(traj: Trajectory, Tq: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of T(lambda) = Tq on the dense output, one in each [lo, hi]."""
    shell = traj.shell
    M, M2, nu = shell.M, shell.M2, shell.nu

    def residual(lam: np.ndarray, T: np.ndarray):
        x = traj.dense(lam)
        return equal_time_clock(lam, x[:, 4], x[:, 5], shell)[3] - T, x

    r_lo, r_hi = residual(lo, Tq)[0], residual(hi, Tq)[0]
    bad = ~((r_lo <= 0.0) & (r_hi >= 0.0))
    if bad.any():
        j = int(bad.argmax())
        raise NoRoot(f"T = {float(Tq[j])!r} is not bracketed: the dense clock runs from "
                     f"{float(Tq[j] + r_lo[j])!r} to {float(Tq[j] + r_hi[j])!r} over "
                     f"lambda in [{float(lo[j])!r}, {float(hi[j])!r}]")
    out = np.empty_like(Tq)
    todo = np.arange(Tq.size)
    lam = lo - r_lo * ((hi - lo) / (r_hi - r_lo))
    for _ in range(_NEWTON_MAXITER):
        r, x = residual(lam, Tq[todo])
        if (nan := np.isnan(r)).any():
            j = int(nan.argmax())
            raise NoRoot(f"T(lambda) is nan at lambda = {float(lam[j])!r} "
                         f"(T = {float(Tq[todo[j]])!r})")
        dx = traj.dense.rate(lam)
        rate = dT_dlambda(dx[:, 4], dx[:, 5], shell)
        lo, hi = np.where(r < 0.0, lam, lo), np.where(r > 0.0, lam, hi)
        step = lam - r / rate
        inside = (lo <= step) & (step <= hi)
        # |r| cannot fall below the rounding of the terms of T and the
        # spacing of lambda: a query that reaches that floor is solved
        a = np.abs(lam)
        terms = 0.25 * M2 * a + np.abs(x[:, 4]) + (nu * nu * a + np.abs(nu * x[:, 5])) / M2
        done = np.abs(r) <= 8.0 * _EPS * (terms / M + np.abs(rate) * a)
        out[todo[done]] = np.where(inside, step, lam)[done]
        keep = ~done
        if not keep.any():
            return out
        todo, lo, hi = todo[keep], lo[keep], hi[keep]
        lam = np.where(inside[keep], step[keep], 0.5 * (lo + hi))
    raise NoRoot(f"T = {float(Tq[todo[0]])!r} still open after {_NEWTON_MAXITER} "
                 f"Newton steps, in lambda [{float(lo[0])!r}, {float(hi[0])!r}]")


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
