"""Four-vector algebra under the metric (+,-,-,-).

Provides the invariant dot product, the projector onto the subspace
orthogonal to a timelike momentum, and pure (rotation-free) boosts to and
from the rest frame of a timelike vector.  Everything is double precision;
c = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonTimelikeP

__all__ = [
    "FourVector",
    "lorentz_dot",
    "tilde_project",
    "boost_to_rest",
    "boost_from_rest",
]


@dataclass(frozen=True)
class FourVector:
    """Contravariant components (t, x, y, z)."""

    t: float
    x: float
    y: float
    z: float

    @staticmethod
    def from_spatial(t: float, vec) -> "FourVector":
        vx, vy, vz = (float(c) for c in vec)
        return FourVector(float(t), vx, vy, vz)

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "FourVector") -> float:
        return lorentz_dot(self, other)

    def norm2(self) -> float:
        """Invariant length squared; positive for timelike vectors."""
        return lorentz_dot(self, self)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t + other.t, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t - other.t, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "FourVector":
        return FourVector(-self.t, -self.x, -self.y, -self.z)

    def __mul__(self, c: float) -> "FourVector":
        c = float(c)
        return FourVector(c * self.t, c * self.x, c * self.y, c * self.z)

    __rmul__ = __mul__

    def __iter__(self):
        yield self.t
        yield self.x
        yield self.y
        yield self.z

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])


def lorentz_dot(a: FourVector, b: FourVector) -> float:
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


def tilde_project(xi: FourVector, P: FourVector) -> FourVector:
    """Component of xi orthogonal to the timelike momentum P.

    Applies xi - (P.xi / P.P) P, the projector that strips the part of xi
    along P.  The result always satisfies lorentz_dot(result, P) = 0 up to
    rounding.
    """
    P2 = lorentz_dot(P, P)
    if P2 <= 0.0:
        raise NonTimelikeP(f"projector requires P.P > 0, got {P2!r}")
    c = lorentz_dot(P, xi) / P2
    return xi - c * P


def _boost_data(k: FourVector):
    """Validate k and return (gamma, beta 3-vector) of its rest frame."""
    m2 = lorentz_dot(k, k)
    if m2 <= 0.0:
        raise NonTimelikeP(f"boost axis must be timelike, k.k = {m2!r}")
    if k.t <= 0.0:
        raise NonTimelikeP(f"boost axis must be future-pointing, k.t = {k.t!r}")
    return k.t / math.sqrt(m2), k.spatial / k.t


def _boost(v, k: FourVector, sign: float):
    """Pure boost along the velocity of k applied to v, a FourVector or an
    array whose last axis holds (t, x, y, z); sign = -1 carries components
    into the rest frame of k, sign = +1 back out of it."""
    gamma, beta = _boost_data(k)
    if float(beta @ beta) == 0.0:
        return v
    a = v.as_array() if isinstance(v, FourVector) else np.asarray(v, dtype=float)
    t, x = a[..., 0], a[..., 1:]
    bx = x @ beta
    # (gamma - 1)/b2 rewritten as gamma^2/(gamma + 1) to stay stable as b2 -> 0
    coef = gamma * gamma / (gamma + 1.0)
    out = np.empty_like(a)
    out[..., 0] = gamma * (t + sign * bx)
    out[..., 1:] = x + (coef * bx + sign * gamma * t)[..., None] * beta
    return FourVector(*out.tolist()) if isinstance(v, FourVector) else out


def boost_to_rest(v, k: FourVector):
    """Pure boost mapping k to (sqrt(k.k), 0, 0, 0), applied to v (a
    FourVector or (..., 4) components).

    Rotation-free: spatial directions orthogonal to k's velocity are left
    untouched, so round-trips with boost_from_rest are exact up to rounding.
    """
    return _boost(v, k, -1.0)


def boost_from_rest(v, k: FourVector):
    """Inverse of boost_to_rest: carries rest-frame components (a FourVector
    or (..., 4) components) back to the frame in which the momentum has
    components k."""
    return _boost(v, k, 1.0)
