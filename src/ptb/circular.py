"""Circular orbits of central models.

For a model with no ytil2 or zy dependence the radial equilibrium follows
from d(ztil.ytil)/dlambda = 0 at ztil.ytil = 0:

    |eta|^2 = 2 (dV/dztil2) rho^2,      l2 = rho^2 |eta|^2,

so the radius solves 2 dV/dztil2(rho) rho^4 = l2 and the angular rate is
Omega = sqrt(2 dV/dztil2).  On such an orbit all five scalars and both
quadrature rates are constant, and T is linear in lambda with slope
dT/dlambda, giving the T-period (2 pi / Omega) dT/dlambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegenerateOrbit, DomainError, NoRoot, NotCentral
from .kinematics import ScalarQuintet
from .mass_shell import MassShell
from .potentials import PotentialSpec
from .reduced import (
    IntegratorOptions,
    ReducedState,
    dT_dlambda,
    integrate,
    rest_quintet,
    synchronize,
)
from .roots import first_root

__all__ = [
    "CircularOrbit",
    "ConstancyReport",
    "PeriodicityReport",
    "find_circular",
    "verify_constancy",
    "verify_periodicity",
]

# radii scanned for the first sign change of the equilibrium residual
_RADII = tuple(np.logspace(-6.0, 6.0, 241).tolist())

# bounds of the reports' ok(): relative variation of a scalar or rate; closure
# of zeta and eta and error of the T advance; residual of T from a line
CONSTANCY_BOUND, CLOSURE_BOUND, LINEAR_BOUND = 1e-9, 1e-8, 1e-10


@dataclass(frozen=True)
class CircularOrbit:
    rho: float
    speed2: float          # |eta|^2 on the orbit
    Omega: float           # angular rate in lambda
    l2: float
    F: float
    G: float
    dTdlambda: float
    period_lambda: float
    period_T: float

    def initial_state(self) -> ReducedState:
        return ReducedState(
            lambda_=0.0,
            ztil=np.array([self.rho, 0.0, 0.0]),
            ytil=np.array([0.0, math.sqrt(self.speed2), 0.0]),
        )


def find_circular(model: PotentialSpec, shell: MassShell, l2: float) -> CircularOrbit:
    """Radius, rate and clock data of the circular orbit with angular
    momentum squared l2.

    Scans a log-spaced radius bracket for a sign change of the equilibrium
    residual 2 dV/dztil2 rho^4 - l2, evaluated through the model's
    rest-frame partials, and refines with Brent's method; raises
    NoRoot when the model admits no circular orbit at this l2 (for example
    any repulsive model).
    """
    if not model.central:
        raise NotCentral(f"{model.name!r} does not declare the central structure")
    if not (l2 > 0.0):
        raise BadParameter(f"need l2 > 0, got {l2!r}")

    M2, nu = shell.M2, shell.nu

    def residual(rho: float) -> float:
        rho2 = rho * rho  # speed fixed by l2 = rho^2 |eta|^2
        return 2.0 * model.rest_partials(M2, nu, rho2, l2 / rho2, 0.0)[1] * rho ** 4 - l2

    rho = first_root(residual, _RADII, skip=DomainError)
    if rho is None:
        raise NoRoot(f"no circular-orbit radius for l2 = {l2!r} in [1e-6, 1e6]")

    ev = model.evaluate(ScalarQuintet.at_rest(M2, nu, rho * rho, l2 / (rho * rho), 0.0))
    if abs(1.0 + 2.0 * ev.dytil2) <= 1e-12:
        raise DegenerateOrbit(
            "orbit sits at 1 + 2 dV/dytil2 = 0; lambda does not advance zeta")
    Omega = math.sqrt(2.0 * ev.dztil2)
    speed2 = l2 / (rho * rho)
    F = 2.0 * shell.M2 * ev.dP2
    G = 2.0 * shell.nu * ev.dw
    rate = dT_dlambda(F, G, shell)
    period_lambda = 2.0 * math.pi / Omega
    return CircularOrbit(
        rho=rho, speed2=speed2, Omega=Omega, l2=float(l2), F=F, G=G,
        dTdlambda=rate, period_lambda=period_lambda,
        period_T=period_lambda * rate,
    )


@dataclass(frozen=True)
class ConstancyReport:
    """Relative variation of each conserved quantity over one period."""

    variations: dict
    max_variation: float

    def ok(self) -> bool:
        return self.max_variation <= CONSTANCY_BOUND


_QUANTITIES = ("P2", "ztil2", "ytil2", "zy", "w", "F", "G")


def _scales(q0: ScalarQuintet, F0: float, G0: float) -> dict:
    """Per-quantity normalization; exact zeros fall back to a quantity of
    the same dimension so the ratio stays meaningful."""
    zy_scale = math.sqrt(abs(q0.ztil2 * q0.ytil2)) or 1.0
    return {
        "P2": abs(q0.P2),
        "ztil2": abs(q0.ztil2) or 1.0,
        "ytil2": abs(q0.ytil2) or 1.0,
        "zy": max(abs(q0.zy), zy_scale),
        "w": max(abs(q0.w), abs(q0.ytil2), 1e-300),
        "F": max(abs(F0), abs(q0.P2)),
        "G": max(abs(G0), abs(F0), abs(q0.P2)),
    }


def verify_constancy(orbit: CircularOrbit, model: PotentialSpec, shell: MassShell,
                     tol: float = 1e-10, n_samples: int = 400) -> ConstancyReport:
    """Integrate one period and measure how constant the five scalars and
    the quadrature rates stay."""
    opts = IntegratorOptions(tol=tol, sample_interval=orbit.period_lambda / n_samples)
    traj = integrate(orbit.initial_state(), shell, model, orbit.period_lambda, opts)
    q = rest_quintet(traj.ztil, traj.ytil, shell)
    scales = _scales(rest_quintet(traj.ztil[0], traj.ytil[0], shell), traj.F[0], traj.G[0])
    variations = {}
    for name in _QUANTITIES:
        col = getattr(traj if name in ("F", "G") else q, name)
        variations[name] = float((np.max(col) - np.min(col)) / scales[name])
    return ConstancyReport(variations=variations,
                           max_variation=max(variations.values()))


@dataclass(frozen=True)
class PeriodicityReport:
    closure_ztil: float
    closure_ytil: float
    T_advance_error: float
    linear_residual: float

    def ok(self) -> bool:
        return (self.closure_ztil <= CLOSURE_BOUND and self.closure_ytil <= CLOSURE_BOUND
                and self.T_advance_error <= CLOSURE_BOUND
                and self.linear_residual <= LINEAR_BOUND)


def verify_periodicity(orbit: CircularOrbit, model: PotentialSpec, shell: MassShell,
                       tol: float = 1e-10, n_samples: int = 200) -> PeriodicityReport:
    """Close the orbit over one lambda-period and check the clock.

    Closure compares zeta and eta with their starting values; the clock must
    advance by period_T and stay linear in lambda (largest least-squares
    fit residual).
    """
    opts = IntegratorOptions(tol=tol, sample_interval=orbit.period_lambda / n_samples)
    traj = synchronize(integrate(orbit.initial_state(), shell, model,
                                 orbit.period_lambda, opts))
    z, y, T, lam = traj.ztil, traj.ytil, traj.T, traj.lam
    coeffs = np.polyfit(lam, T, 1)
    return PeriodicityReport(
        closure_ztil=float(np.max(np.abs(z[-1] - z[0]))),
        closure_ytil=float(np.max(np.abs(y[-1] - y[0]))),
        T_advance_error=float(abs((T[-1] - T[0]) - orbit.period_T)),
        linear_residual=float(np.max(np.abs(T - np.polyval(coeffs, lam)))))
