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
from textwrap import dedent, indent

from .errors import BadParameter, DomainError

__all__ = [
    "ScalarQuintet",
    "PotentialEval",
    "PotentialSpec",
    "FreePotential",
    "HarmonicPotential",
    "CentralPowerPotential",
    "builtin",
]


@dataclass(frozen=True)
class ScalarQuintet:
    """The five invariant scalars, the arguments of V: ztil2, ytil2 and zy from the
    projections of z and y orthogonal to P, and w = (y.P)^2 / P^2 (rest_quintet)."""

    P2: float
    ztil2: float
    ytil2: float
    zy: float
    w: float


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
    """Interface for interaction models: a model implements evaluate, read via partials_at.

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

    def partials_at(self, M2: float, nu: float):
        """partials(ztil2, ytil2, zy) -> (V, dP2, dztil2, dytil2, dzy, dw) on the
        rest-frame shell, P2 = M2 and w = nu^2 / M2.  This default calls evaluate
        at every call: a custom model implements evaluate alone."""
        def partials(ztil2, ytil2, zy):
            ev = self.evaluate(ScalarQuintet(M2, ztil2, ytil2, zy, nu * nu / M2))
            return ev.value, ev.dP2, ev.dztil2, ev.dytil2, ev.dzy, ev.dw
        return partials

    def describe(self) -> dict:
        return {"kind": self.name, **{k: getattr(self, k) for k in self.params}}

    def __repr__(self) -> str:
        params = {k: v for k, v in self.describe().items() if k != "kind"}
        inner = ", ".join(f"{k}={v}" for k, v in params.items())
        return f"{type(self).__name__}({inner})"


class _KernelModel(PotentialSpec):
    """A central model V(P2, ztil2) given by _source alone, the single copy of
    its formulas and domain checks: a head on P2 and the parameters, then lines
    per ztil2 that must not rebind a name of the head.  Its partials_at(P2, nu)
    runs the head and returns partials, which runs the rest, as the fused stage
    does, and gives 0.0 for the other partials.  A subclass with its own
    partials_at or evaluate (a mixin's too) is refused: all read one V."""

    central = True
    w_independent = True

    def __init_subclass__(cls):
        if own := [m for m in ("partials_at", "evaluate") if m in vars(cls) or
                   m == "evaluate" and cls.evaluate is not _KernelModel.evaluate]:
            raise TypeError(f"{cls.__name__} has its own {own[0]}: a kernel model is its _source")
        head, body = dedent(cls._source).split("# per ztil2\n")
        head = "".join(f"{p} = self.{p}\n" for p in cls.params) + head
        names = (("math", math), ("DomainError", DomainError))  # the globals it reads
        exec(compile(f"def partials_at(self, P2, nu):\n{indent(head, '    ')}"
                     f"    def partials(ztil2, ytil2, zy):\n{indent(body, '        ')}"
                     "        return V, dP2, dztil2, 0.0, 0.0, 0.0\n    return partials",
                     f"<kernel of {cls.__name__}>", "exec"), namespace := dict(names))
        cls.partials_at = namespace["partials_at"]
        code = cls.partials_at.__code__  # the kernel's code is one of its constants
        kernel = next(c for c in code.co_consts if getattr(c, "co_name", "") == "partials")
        if rebound := sorted({*code.co_varnames, *code.co_cellvars} & {*kernel.co_varnames}):
            raise TypeError(f"{cls.__name__}'s lines per ztil2 rebind the head's {rebound[0]}")
        cls._stage_text = body, names, {*code.co_varnames, *code.co_cellvars, *kernel.co_varnames}

    def evaluate(self, q: ScalarQuintet) -> PotentialEval:
        return PotentialEval(*self.partials_at(q.P2, 0.0)(q.ztil2, q.ytil2, q.zy))  # reads no w


class FreePotential(_KernelModel):
    """V = 0; both particles move freely."""

    name = "free"
    p2_independent = True
    _source = "V = dP2 = dztil2 = 0.0\n# per ztil2\n"


class HarmonicPotential(_KernelModel):
    """V = chi * sqrt(P^2) * ztil2 with chi > 0.

    chi is a plain number in natural units (an inverse length times the
    collective mass scale); since ztil2 < 0 for spacelike separations the
    value is negative, i.e. the nonrelativistic counterpart -V is the usual
    attractive spring.
    """

    name = "harmonic"
    params = ("chi",)
    _source = """
        if P2 <= 0.0:
            raise DomainError(f"harmonic model requires P2 > 0, got {P2!r}")
        root = math.sqrt(P2)
        dztil2, root2 = chi * root, 2.0 * root
        # per ztil2
        V = dztil2 * ztil2
        dP2 = chi * ztil2 / root2
    """

    def __init__(self, chi: float):
        chi = _float(chi, "harmonic chi")
        if not math.isfinite(chi) or chi <= 0.0:
            raise BadParameter(f"harmonic model needs chi > 0, got {chi!r}")
        self.chi = chi


class CentralPowerPotential(_KernelModel):
    """V = -g * sqrt(P^2) / rho**n with rho = sqrt(-ztil2) and integer n >= 1.

    With this sign convention g < 0 is the attractive case (circular orbits
    exist); g > 0 is repulsive.
    """

    name = "central_power"
    params = ("g", "n")
    _source = """
        if P2 <= 0.0:
            raise DomainError(f"central_power requires P2 > 0, got {P2!r}")
        scale, power, half_n, P2x2 = -g * math.sqrt(P2), -0.5 * n, 0.5 * n, 2.0 * P2
        # per ztil2
        rho2 = -ztil2
        if rho2 <= 0.0:
            raise DomainError(
                f"central_power requires spacelike separation ztil2 < 0, got {ztil2!r}")
        try:
            V = scale * rho2 ** power
        except OverflowError:
            V = math.inf
        dztil2 = half_n * V / rho2
        if not math.isfinite(dztil2):
            raise DomainError(f"central_power overflows at ztil2 = {ztil2!r} with n = {n}")
        dP2 = V / P2x2
    """

    def __init__(self, g: float, n: int):
        g = _float(g, "central_power g")
        if not math.isfinite(g) or g == 0.0:
            raise BadParameter(f"central_power needs finite nonzero g, got {g!r}")
        if not 1.0 <= _float(n, "central_power n") < math.inf or int(n) != n:
            raise BadParameter(f"central_power needs integer n >= 1, got {n!r}")
        self.g = g
        self.n = int(n)


def _float(x, name: str, error=BadParameter) -> float:
    try:
        return float(x)
    except OverflowError:  # an int past the float range
        raise error(f"{name} must fit a float, got {len(str(abs(x)))} digits") from None


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
