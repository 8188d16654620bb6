"""Four-vector algebra under the metric (+,-,-,-).

Provides the invariant dot product and the pure (rotation-free) boost out
of the rest frame of a timelike vector.  Everything is double precision;
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
    "boost_from_rest",
]


@dataclass(frozen=True)
class FourVector:
    """Contravariant components (t, x, y, z)."""

    t: float
    x: float
    y: float
    z: float

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

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


def lorentz_dot(a: FourVector, b: FourVector) -> float:
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


def boost_from_rest(v, k: FourVector):
    """Pure (rotation-free) boost that carries rest-frame components v, an
    array whose last axis holds (t, x, y, z), to the frame in which the
    momentum has components k: it maps (sqrt(k.k), 0, 0, 0) to k and leaves
    spatial directions orthogonal to k's velocity untouched."""
    m2 = lorentz_dot(k, k)
    if m2 <= 0.0:
        raise NonTimelikeP(f"boost axis must be timelike, k.k = {m2!r}")
    if k.t <= 0.0:
        raise NonTimelikeP(f"boost axis must be future-pointing, k.t = {k.t!r}")
    gamma, beta = k.t / math.sqrt(m2), k.spatial / k.t
    if float(beta @ beta) == 0.0:
        return v
    a = np.asarray(v, dtype=float)
    t, x = a[..., 0], a[..., 1:]
    bx = x @ beta
    # (gamma - 1)/b2 rewritten as gamma^2/(gamma + 1) to stay stable as b2 -> 0
    coef = gamma * gamma / (gamma + 1.0)
    out = np.empty_like(a)
    out[..., 0] = gamma * (t + bx)
    out[..., 1:] = x + (coef * bx + gamma * t)[..., None] * beta
    return out
