"""Unipotential interaction models.

A model is a scalar function V(P^2, ztil^2, ytil^2, ztil.ytil, w) together
with its five analytic partial derivatives.  The sign convention follows the
reduced equations of motion: the nonrelativistic potential corresponding to
V is -V, so an attractive inverse-power model needs g < 0 in
CentralPowerPotential (dV/dztil2 > 0 is what makes orbits turn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadParameter, DomainError
from .kinematics import ScalarQuintet

__all__ = [
    "PotentialEval",
    "PotentialSpec",
    "FreePotential",
    "HarmonicPotential",
    "CentralPowerPotential",
    "builtin",
]


@dataclass(frozen=True)
class PotentialEval:
    """Value of V and its partials with respect to the five scalars."""

    value: float
    dP2: float
    dztil2: float
    dytil2: float
    dzy: float
    dw: float


class PotentialSpec:
    """Interface for interaction models.

    Flags describe structure the solvers rely on:
      central        - dV/dytil2 == 0 and dV/dzy == 0 identically
      p2_independent - dV/dP2 == 0 identically (F quadrature vanishes)
      w_independent  - dV/dw == 0 identically (G quadrature vanishes)
    """

    name: str = "potential"
    params: tuple[str, ...] = ()  # the constructor's, in order, each kept as an attribute
    central: bool = False
    p2_independent: bool = False
    w_independent: bool = False

    def evaluate(self, q: ScalarQuintet) -> PotentialEval:
        raise NotImplementedError

    def rest_partials(self, M2: float, nu: float, z2: float, y2: float,
                      zy: float) -> tuple[float, float, float, float, float]:
        """(dP2, dztil2, dytil2, dzy, dw) at a rest-frame state given by the
        spatial products z2 = |zeta|^2, y2 = |eta|^2, zy = zeta.eta.

        This default goes through evaluate; a model may override it with a
        fast path that must agree with it bit for bit.
        """
        ev = self.evaluate(ScalarQuintet.at_rest(M2, nu, z2, y2, zy))
        return ev.dP2, ev.dztil2, ev.dytil2, ev.dzy, ev.dw

    def describe(self) -> dict:
        return {"kind": self.name, **{k: getattr(self, k) for k in self.params}}

    def __repr__(self) -> str:
        params = {k: v for k, v in self.describe().items() if k != "kind"}
        inner = ", ".join(f"{k}={v}" for k, v in params.items())
        return f"{type(self).__name__}({inner})"


class _KernelModel(PotentialSpec):
    """A central model V(P2, ztil2) given by one scalar kernel
    _kernel(P2, ztil2) -> (V, dV/dP2, dV/dztil2), the single copy of its
    formulas and domain checks; evaluate and the rest-frame fast path both
    call it, and every other partial vanishes."""

    central = True
    w_independent = True

    def evaluate(self, q: ScalarQuintet) -> PotentialEval:
        return PotentialEval(*self._kernel(q.P2, q.ztil2), 0.0, 0.0, 0.0)

    def rest_partials(self, M2, nu, z2, y2, zy):
        _, dP2, dztil2 = self._kernel(M2, -z2)
        return dP2, dztil2, 0.0, 0.0, 0.0


class FreePotential(_KernelModel):
    """V = 0; both particles move freely."""

    name = "free"
    p2_independent = True

    def _kernel(self, P2: float, ztil2: float) -> tuple[float, float, float]:
        return 0.0, 0.0, 0.0


class HarmonicPotential(_KernelModel):
    """V = chi * sqrt(P^2) * ztil2 with chi > 0.

    chi is a plain number in natural units (an inverse length times the
    collective mass scale); since ztil2 < 0 for spacelike separations the
    value is negative, i.e. the nonrelativistic counterpart -V is the usual
    attractive spring.
    """

    name = "harmonic"
    params = ("chi",)

    def __init__(self, chi: float):
        chi = float(chi)
        if not math.isfinite(chi) or chi <= 0.0:
            raise BadParameter(f"harmonic model needs chi > 0, got {chi!r}")
        self.chi = chi

    def _kernel(self, P2: float, ztil2: float) -> tuple[float, float, float]:
        if P2 <= 0.0:
            raise DomainError(f"harmonic model requires P2 > 0, got {P2!r}")
        root = math.sqrt(P2)
        return self.chi * root * ztil2, self.chi * ztil2 / (2.0 * root), self.chi * root


class CentralPowerPotential(_KernelModel):
    """V = -g * sqrt(P^2) / rho**n with rho = sqrt(-ztil2) and integer n >= 1.

    With this sign convention g < 0 is the attractive case (circular orbits
    exist); g > 0 is repulsive.
    """

    name = "central_power"
    params = ("g", "n")

    def __init__(self, g: float, n: int):
        g = float(g)
        if not math.isfinite(g) or g == 0.0:
            raise BadParameter(f"central_power needs finite nonzero g, got {g!r}")
        if int(n) != n or n < 1:
            raise BadParameter(f"central_power needs integer n >= 1, got {n!r}")
        self.g = g
        self.n = int(n)

    def _kernel(self, P2: float, ztil2: float) -> tuple[float, float, float]:
        if P2 <= 0.0:
            raise DomainError(f"central_power requires P2 > 0, got {P2!r}")
        rho2 = -ztil2
        if rho2 <= 0.0:
            raise DomainError(
                f"central_power requires spacelike separation ztil2 < 0, got {ztil2!r}")
        try:
            value = -self.g * math.sqrt(P2) * rho2 ** (-0.5 * self.n)
        except OverflowError:
            value = math.inf
        dztil2 = 0.5 * self.n * value / rho2
        if not math.isfinite(dztil2):
            raise DomainError(f"central_power overflows at ztil2 = {ztil2!r} with n = {self.n}")
        return value, value / (2.0 * P2), dztil2


_BUILTINS = {cls.name: cls for cls in (FreePotential, HarmonicPotential, CentralPowerPotential)}


def builtin(name: str, **params) -> PotentialSpec:
    """Construct a builtin model by name; unknown names, missing parameters
    or stray ones raise BadParameter."""
    if name not in _BUILTINS:
        raise BadParameter(f"unknown potential {name!r}, expected one of {sorted(_BUILTINS)}")
    cls = _BUILTINS[name]
    missing = sorted(set(cls.params) - set(params))
    if missing:
        raise BadParameter(f"{name} needs parameters {missing}")
    extra = sorted(set(params) - set(cls.params))
    if extra:
        raise BadParameter(f"unexpected parameters for {name!r}: {extra}")
    return cls(*(params[k] for k in cls.params))
