"""External/internal split of the two-body canonical variables.

The sixteen-dimensional state (q1, q2, p1, p2) separates into collective
variables (P, Q) and internal ones (y, z).  The interaction only ever sees
five invariant scalars built from them; this module computes that quintet,
the first integrals N and L^2, and the covariant center of energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonTimelikeP
from .minkowski import FourVector, lorentz_dot, tilde_project

__all__ = [
    "CanonicalState",
    "ExternalInternal",
    "ScalarQuintet",
    "split",
    "merge",
    "scalar_quintet",
    "angular_momentum_L2",
    "noether_N",
    "center_of_mass",
]


@dataclass(frozen=True)
class CanonicalState:
    q1: FourVector
    q2: FourVector
    p1: FourVector
    p2: FourVector


@dataclass(frozen=True)
class ExternalInternal:
    """P = p1 + p2, Q = (q1 + q2)/2, y = (p1 - p2)/2, z = q1 - q2."""

    P: FourVector
    Q: FourVector
    y: FourVector
    z: FourVector


@dataclass(frozen=True)
class ScalarQuintet:
    """The five invariant arguments of a unipotential model.

    ztil2, ytil2 and zy are built from the projections of z and y orthogonal
    to P; w = (y.P)^2 / P^2.  yP carries the signed invariant y.P, needed by
    the z.P quadrature (w alone loses its sign).
    """

    P2: float
    ztil2: float
    ytil2: float
    zy: float
    w: float
    yP: float

    @classmethod
    def at_rest(cls, M2: float, nu: float, z2: float, y2: float, zy: float) -> "ScalarQuintet":
        """Quintet in the rest frame of P from the spatial products of zeta
        and eta; there P^2 = M^2 and y.P is the first integral nu."""
        return cls(P2=M2, ztil2=-z2, ytil2=-y2, zy=-zy, w=nu * nu / M2, yP=nu)

    @property
    def L2(self) -> float:
        """Angular momentum squared, ztil2 ytil2 - zy^2."""
        return self.ztil2 * self.ytil2 - self.zy * self.zy


def split(state: CanonicalState) -> ExternalInternal:
    return ExternalInternal(
        P=state.p1 + state.p2,
        Q=0.5 * (state.q1 + state.q2),
        y=0.5 * (state.p1 - state.p2),
        z=state.q1 - state.q2,
    )


def merge(ei: ExternalInternal) -> CanonicalState:
    """Inverse of split; merge(split(s)) == s up to rounding."""
    return CanonicalState(
        q1=ei.Q + 0.5 * ei.z,
        q2=ei.Q - 0.5 * ei.z,
        p1=0.5 * ei.P + ei.y,
        p2=0.5 * ei.P - ei.y,
    )


def scalar_quintet(ei: ExternalInternal) -> ScalarQuintet:
    P2 = lorentz_dot(ei.P, ei.P)
    if P2 <= 0.0:
        raise NonTimelikeP(f"scalar quintet requires P.P > 0, got {P2!r}")
    ztil = tilde_project(ei.z, ei.P)
    ytil = tilde_project(ei.y, ei.P)
    yP = lorentz_dot(ei.y, ei.P)
    return ScalarQuintet(
        P2=P2,
        ztil2=lorentz_dot(ztil, ztil),
        ytil2=lorentz_dot(ytil, ytil),
        zy=lorentz_dot(ztil, ytil),
        w=yP * yP / P2,
        yP=yP,
    )


def angular_momentum_L2(ztil: FourVector, ytil: FourVector) -> float:
    """Invariant angular momentum squared, ztil^2 ytil^2 - (ztil.ytil)^2.

    Both arguments must already be orthogonal to the same timelike P; then
    the value is non-negative and conserved by the reduced flow.
    """
    return (lorentz_dot(ztil, ztil) * lorentz_dot(ytil, ytil)
            - lorentz_dot(ztil, ytil) ** 2)


def noether_N(q: ScalarQuintet, V: float) -> float:
    """First integral N = ytil^2 + 2 V; its conserved value is -lambda."""
    return q.ytil2 + 2.0 * V


def center_of_mass(state: CanonicalState) -> FourVector:
    """Covariant center of energy Xi = Q + (y.P/P^2) z - (z.P/P^2) y.

    On the equal-time slice z.P = 0 the spatial part reduces to the
    energy-weighted mean of the two positions.  The projection Xi.P equals
    Q.P identically.  Note the components of Xi do not Poisson-commute among
    themselves; Xi is a derived observable, not a canonical coordinate.
    """
    ei = split(state)
    P2 = lorentz_dot(ei.P, ei.P)
    if P2 <= 0.0:
        raise NonTimelikeP(f"center of energy requires P.P > 0, got {P2!r}")
    yP = lorentz_dot(ei.y, ei.P)
    zP = lorentz_dot(ei.z, ei.P)
    return ei.Q + (yP / P2) * ei.z - (zP / P2) * ei.y
