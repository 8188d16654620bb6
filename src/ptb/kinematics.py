"""The five invariant scalars of the two-body state and the first integral N.

The sixteen-dimensional state (q1, q2, p1, p2) separates into collective
variables (P, Q) and internal ones (y, z).  The interaction only ever sees
five invariant scalars built from them; this module holds that quintet, in
the rest frame of P, with L^2 and N built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ScalarQuintet", "noether_N"]


@dataclass(frozen=True)
class ScalarQuintet:
    """The five invariant arguments of a unipotential model.

    ztil2, ytil2 and zy are built from the projections of z and y orthogonal
    to P; w = (y.P)^2 / P^2.
    """

    P2: float
    ztil2: float
    ytil2: float
    zy: float
    w: float

    @classmethod
    def at_rest(cls, M2: float, nu: float, z2: float, y2: float, zy: float) -> "ScalarQuintet":
        """Quintet in the rest frame of P from the spatial products of zeta
        and eta; there P^2 = M^2 and y.P is the first integral nu."""
        return cls(P2=M2, ztil2=-z2, ytil2=-y2, zy=-zy, w=nu * nu / M2)

    @property
    def L2(self) -> float:
        """Angular momentum squared, ztil2 ytil2 - zy^2."""
        return self.ztil2 * self.ytil2 - self.zy * self.zy


def noether_N(q: ScalarQuintet, V: float) -> float:
    """First integral N = ytil^2 + 2 V; its conserved value is -lambda."""
    return q.ytil2 + 2.0 * V
