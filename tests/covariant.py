"""Covariant two-body layer: the test oracle for the rest-frame reduction.

The sixteen-dimensional state (q1, q2, p1, p2) separates into collective
variables (P, Q) and internal ones (y, z).  The interaction only ever sees
five invariant scalars built from them; the pipeline computes them in the
rest frame of P (ptb.reduced.rest_quintet), and these covariant formulas
check that reduction from the emitted world lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ptb.errors import NonTimelikeP
from ptb.kinematics import ScalarQuintet
from ptb.minkowski import FourVector, boost_from_rest, lorentz_dot


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


def boost_to_rest(v, k: FourVector):
    """Pure boost mapping k to (sqrt(k.k), 0, 0, 0), applied to v (a
    FourVector or (..., 4) components): boost_from_rest along the reversed
    velocity, which is its exact inverse up to rounding."""
    reverse = FourVector(k.t, -k.x, -k.y, -k.z)
    if isinstance(v, FourVector):
        return FourVector(*boost_from_rest(np.array(tuple(v)), reverse).tolist())
    return boost_from_rest(v, reverse)


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
    )


def angular_momentum_L2(ztil: FourVector, ytil: FourVector) -> float:
    """Invariant angular momentum squared, ztil^2 ytil^2 - (ztil.ytil)^2.

    Both arguments must already be orthogonal to the same timelike P; then
    the value is non-negative and conserved by the reduced flow.
    """
    return (lorentz_dot(ztil, ztil) * lorentz_dot(ytil, ytil)
            - lorentz_dot(ztil, ytil) ** 2)


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
