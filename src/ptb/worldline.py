"""Equal-time world lines and the center-of-energy line.

On the slice z.P = 0 both particles share the rest-frame time T, and their
positions follow from the relative separation alone:

    x1 = Xi - (nu/M^2 - 1/2) (0, zeta),
    x2 = Xi - (nu/M^2 + 1/2) (0, zeta),

with Xi = (T, Xi0) a straight line through the chosen spatial anchor Xi0.
The energy-weighted mean (E1 x1 + E2 x2)/M reproduces Xi identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import FrameMismatch, NonMonotoneTime, OutOfRange
from .minkowski import FourVector, boost_from_rest, lorentz_dot
from .reduced import Trajectory, equal_time_clock, require_synchronized
from .roots import brent

__all__ = [
    "WorldlineSample",
    "WorldlineSet",
    "worldlines",
    "lambda_from_T",
    "resample_uniform_T",
    "export_lab_frame",
]


@dataclass(frozen=True)
class WorldlineSample:
    """One equal-time slice: positions of both particles and the center of
    energy, plus the rest-frame relative separation rtil = zeta."""

    lam: float
    T: float
    x1: FourVector
    x2: FourVector
    Xi: FourVector
    rtil: np.ndarray
    flagged: bool = False


@dataclass(frozen=True)
class WorldlineSet:
    """World lines with the frame their coordinates refer to.

    frame is the total-momentum four-vector of the coordinate frame: the
    rest frame itself carries (M, 0, 0, 0).
    """

    shell: "object"
    samples: tuple[WorldlineSample, ...]
    frame: FourVector

    def __iter__(self):
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def worldlines(traj: Trajectory, Xi0: Sequence[float] = (0.0, 0.0, 0.0)) -> WorldlineSet:
    """Emit the two world lines and the center-of-energy line in the rest
    frame, anchored at Xi(T = 0) = (0, Xi0)."""
    require_synchronized(traj)
    shell = traj.shell
    offset1 = shell.nu / shell.M2 - 0.5
    offset2 = shell.nu / shell.M2 + 0.5
    anchor = np.asarray(Xi0, dtype=float)
    if anchor.shape != (3,):
        raise ValueError("Xi0 must be a 3-vector")
    out = []
    for s in traj.samples:
        zeta = s.state.ztil
        Xi = FourVector.from_spatial(s.T, anchor)
        x1 = FourVector.from_spatial(s.T, anchor - offset1 * zeta)
        x2 = FourVector.from_spatial(s.T, anchor - offset2 * zeta)
        out.append(WorldlineSample(lam=s.state.lambda_, T=s.T, x1=x1, x2=x2,
                                   Xi=Xi, rtil=zeta.copy(), flagged=s.flagged))
    rest = FourVector(shell.M, 0.0, 0.0, 0.0)
    return WorldlineSet(shell=shell, samples=tuple(out), frame=rest)


def lambda_from_T(traj: Trajectory, T_query: float) -> float:
    """Invert the clock map T(lambda) on a monotone trajectory.

    Brackets on the sampled T values, then refines with Brent's method on
    the dense output, so |T(result) - T_query| stays at root-finder level.
    """
    require_synchronized(traj)
    if traj.monotone is False:
        raise NonMonotoneTime("T(lambda) is not invertible on a flagged trajectory")
    Ts, lams = traj.clock_columns
    if not (Ts[0] <= T_query <= Ts[-1]):
        raise OutOfRange(f"T = {T_query!r} outside [{Ts[0]!r}, {Ts[-1]!r}]")
    i = int(np.searchsorted(Ts, T_query))
    if i == 0:
        return float(lams[0])
    lo, hi = float(lams[i - 1]), float(lams[i])

    def residual(lam: float) -> float:
        _, _, _, _, _, _, intF, intG = traj.vector_at(lam).tolist()
        return equal_time_clock(lam, intF, intG, traj.shell)[3] - T_query

    f_lo = residual(lo)
    f_hi = residual(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        # only reachable through interpolation noise right at a sample point
        return lo if abs(f_lo) <= abs(f_hi) else hi
    return brent(residual, lo, hi, xtol=1e-15 * max(1.0, hi))


def resample_uniform_T(traj: Trajectory, n: Optional[int] = None) -> Trajectory:
    """Rebuild the sample list on an equispaced grid of T values.

    The dense segments are retained, so the result supports the same
    queries as the original; sample lambdas become non-uniform.
    """
    require_synchronized(traj)
    if traj.monotone is False:
        raise NonMonotoneTime("cannot resample a non-monotone trajectory in T")
    if n is None:
        n = len(traj.samples)
    if n < 2:
        raise ValueError("need at least two samples")
    T0 = traj.samples[0].T
    T1 = traj.samples[-1].T
    new_samples = []
    for T in np.linspace(T0, T1, n):
        lam = lambda_from_T(traj, float(T))
        new_samples.append(traj.sample_at(lam))
    # endpoints are exact samples already; reuse them to avoid drift
    new_samples[0] = traj.samples[0]
    new_samples[-1] = traj.samples[-1]
    return replace(traj, samples=tuple(new_samples))


def export_lab_frame(ws: WorldlineSet, k: FourVector) -> WorldlineSet:
    """Boost all sampled points into the frame where the total momentum has
    components k.  k must satisfy k.k = M^2 of the shell (1e-9 relative)."""
    M2 = ws.shell.M2
    kk = lorentz_dot(k, k)
    if not (abs(kk - M2) <= 1e-9 * M2):
        raise FrameMismatch(f"k.k = {kk!r} but the shell has M^2 = {M2!r}")
    if k.t <= 0.0:
        raise FrameMismatch("k must be future-pointing")
    out = []
    for s in ws.samples:
        out.append(replace(
            s,
            x1=boost_from_rest(s.x1, k),
            x2=boost_from_rest(s.x2, k),
            Xi=boost_from_rest(s.Xi, k),
        ))
    return WorldlineSet(shell=ws.shell, samples=tuple(out), frame=k)
