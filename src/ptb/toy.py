"""Closed-form oscillator family for the harmonic model.

With V = chi sqrt(P2) ztil2 the relative equations decouple into three
identical oscillators, zeta'' = -Omega^2 zeta with Omega^2 = 2 chi M, so

    zeta(lam) = A sin(Omega lam + C) + B cos(Omega lam + C)
    eta(lam)  = zeta'(lam)

and every synchronization quadrature integrates in closed form.  This gives
an independent analytic oracle for the whole reduced pipeline: state, F,
its running integral, T(lam) and the monotonicity margin.

The family is parametrized by the collective mass actually used in the
dynamics; nothing here requires the shell to be consistent with it, which
is exactly what makes the off-shell time-reversal scenario expressible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import BadParameter
from .mass_shell import MassShell, monotonicity_margin, shell_from_M

__all__ = [
    "ToyParams",
    "analytic_state",
    "initial_state",
    "F_analytic",
    "intF_analytic",
    "analytic_T",
    "dT_dlambda_analytic",
    "min_dT_dlambda",
    "sufficient_condition_margin",
    "shell_for_toy",
]

Vec3 = Tuple[float, float, float]


def _vec3(v: Sequence[float], name: str) -> Vec3:
    t = tuple(float(c) for c in v)
    if len(t) != 3:
        raise BadParameter(f"{name} must have 3 components, got {len(t)}")
    if not all(map(math.isfinite, t)):
        raise BadParameter(f"{name} must be finite, got {t!r}")
    return t  # type: ignore[return-value]


@dataclass(frozen=True)
class ToyParams:
    chi: float
    M: float
    A: Vec3
    B: Vec3
    C: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "A", _vec3(self.A, "A"))
        object.__setattr__(self, "B", _vec3(self.B, "B"))
        if not (self.chi > 0.0 and math.isfinite(self.chi)):
            raise BadParameter(f"need chi > 0, got {self.chi!r}")
        if not (self.M > 0.0 and math.isfinite(self.M)):
            raise BadParameter(f"need M > 0, got {self.M!r}")
        for name in ("C", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise BadParameter(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.nu > 0.0:
            raise BadParameter(f"need nu <= 0, got {self.nu!r}")
        if self.M * self.M <= 2.0 * abs(self.nu):
            raise BadParameter("requires M^2 > 2 |nu|")

    @property
    def Omega(self) -> float:
        return math.sqrt(2.0 * self.chi * self.M)

    @property
    def a2(self) -> float:
        return sum(c * c for c in self.A)

    @property
    def b2(self) -> float:
        return sum(c * c for c in self.B)

    @property
    def ab(self) -> float:
        return sum(x * y for x, y in zip(self.A, self.B))

    @property
    def Lambda(self) -> float:
        # |eta|^2 - 2 V on the orbit; constant, the cross term cancels
        return 2.0 * self.chi * self.M * (self.a2 + self.b2)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.Omega


def analytic_state(p: ToyParams, lam) -> Tuple[Vec3, Vec3]:
    """(zeta, eta) at lam; for an array lam each component is an array."""
    th = p.Omega * lam + p.C
    s, c = np.sin(th), np.cos(th)
    zeta = tuple(a * s + b * c for a, b in zip(p.A, p.B))
    eta = tuple(p.Omega * (a * c - b * s) for a, b in zip(p.A, p.B))
    return zeta, eta  # type: ignore[return-value]


def initial_state(p: ToyParams) -> Tuple[Vec3, Vec3]:
    return analytic_state(p, 0.0)


def F_analytic(p: ToyParams, lam: float) -> float:
    zeta, _ = analytic_state(p, lam)
    return -p.chi * p.M * sum(c * c for c in zeta)


def intF_analytic(p: ToyParams, lam):
    """Exact running integral of F from 0 to lam (elementwise for arrays)."""
    om = p.Omega
    th2 = 2.0 * (om * lam + p.C)
    c2 = 2.0 * p.C
    bracket = (0.5 * (p.a2 + p.b2) * lam
               + (p.b2 - p.a2) * (np.sin(th2) - math.sin(c2)) / (4.0 * om)
               - p.ab * (np.cos(th2) - math.cos(c2)) / (2.0 * om))
    return -p.chi * p.M * bracket


def analytic_T(p: ToyParams, lam):
    drift = p.M / 4.0 - p.nu * p.nu / p.M ** 3
    return drift * lam + intF_analytic(p, lam) / p.M


def dT_dlambda_analytic(p: ToyParams, lam: float) -> float:
    return p.M / 4.0 - p.nu * p.nu / p.M ** 3 + F_analytic(p, lam) / p.M


def min_dT_dlambda(p: ToyParams) -> float:
    """Exact minimum of dT/dlambda over a period.

    |zeta|^2 peaks at (a2+b2)/2 + sqrt(((a2-b2)/2)^2 + ab^2).
    """
    half_sum = 0.5 * (p.a2 + p.b2)
    half_diff = 0.5 * (p.a2 - p.b2)
    zmax2 = half_sum + math.hypot(half_diff, p.ab)
    return p.M / 4.0 - p.nu * p.nu / p.M ** 3 - p.chi * zmax2


def sufficient_condition_margin(p: ToyParams) -> float:
    """monotonicity_margin at this M, nu and Lambda; positive guarantees
    dT/dlambda > 0.

    Every shell-consistent configuration has a positive margin, so a
    violation requires running the oscillator against a foreign shell.
    """
    return monotonicity_margin(p.M * p.M, p.nu, p.Lambda)


def shell_for_toy(p: ToyParams) -> MassShell:
    """Masses that make the shell consistent with this oscillator, whose
    constant |eta|^2 - 2 V is the shell's lambda."""
    return shell_from_M(p.M, p.nu, p.Lambda)

