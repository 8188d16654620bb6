"""Self-consistent collective mass.

The shell fixes M from (m1, m2, lambda); an orbit fixes lambda from its
state, lambda = |eta|^2 - 2 V, with V evaluated at P2 = M^2.  Closing the
loop is a one-dimensional fixed point in M, solved by secant steps on
M_shell(lambda(M)) - M after one plain iterate.  A secant point that fails
is replaced by the plain iterate; when the plain iterate fails as well, or
the step budget runs out, a logged bracket scan takes over.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Sequence, Tuple

from .circular import CircularOrbit, find_circular
from .errors import NoRoot, PtbError
from .kinematics import ScalarQuintet
from .mass_shell import (
    MassShell,
    _check_masses,
    lambda_from_M2,
    mass_excess,
    mass_shell_from_lambda,
)
from .potentials import PotentialSpec
from .roots import first_root

__all__ = [
    "lambda_shell",
    "binding_energy",
    "self_consistent_M",
    "self_consistent_shell",
    "self_consistent_circular",
]

log = logging.getLogger(__name__)


def lambda_shell(m1: float, m2: float, M: float) -> float:
    """Interaction strength the shell needs to produce collective mass M."""
    return lambda_from_M2(m1, m2, M * M)


def binding_energy(shell: MassShell) -> float:
    """m1 + m2 - M; positive for bound configurations."""
    return -mass_excess(shell.m1, shell.m2, shell.lambda_)


def self_consistent_M(m1: float, m2: float,
                      lambda_of_M: Callable[[float], float], *,
                      rtol: float = 1e-13, max_iter: int = 100) -> float:
    """Solve M = M_shell(m1, m2, lambda_of_M(M)).

    Secant steps on g(M) = M_shell(lambda_of_M(M)) - M; the first step from
    M = m1 + m2 is the plain iterate M_shell(lambda_of_M(M)).  Converged when
    |M_new - M| <= rtol M_new, where M_new is the shell mass at M.  Fallbacks,
    in order: a secant point that is not finite and positive, or whose shell
    raises a package error, is replaced by the plain iterate for that step;
    when the plain iterate itself raises, or max_iter steps run out, the
    residual is bracketed on a log grid around m1 + m2, and a record on the
    ptb.binding logger names the M reached, the step count and the cause.
    Invalid masses raise BadParameter before any shell is solved.
    """
    _check_masses(m1, m2)

    def shell_M(M: float) -> float:
        return mass_shell_from_lambda(m1, m2, lambda_of_M(M)).M

    M, prev, k = m1 + m2, None, 0  # prev: (M, g(M)) of the point before M
    try:
        M_new = shell_M(M)
        while abs(M_new - M) > rtol * M_new:
            if k == max_iter:
                break
            k += 1
            g, step = M_new - M, None
            if prev is not None and g != prev[1]:
                trial = M - g * (M - prev[0]) / (g - prev[1])
                if 0.0 < trial < math.inf:
                    try:
                        step = trial, shell_M(trial)
                    except PtbError:
                        pass
            prev = M, g
            M, M_new = step or (M_new, shell_M(M_new))
        else:
            return M_new
        cause = "budget exhausted"
    except PtbError as exc:
        cause = f"{type(exc).__name__}: {exc}"
    log.info("self-consistent M: fixed point stopped at M = %r after %d steps (%s); "
             "scanning for a bracket", M, k, cause)
    return _bracketed_M(m1, m2, lambda_of_M)


def _bracketed_M(m1, m2, lambda_of_M):
    failure = None  # the last error of a trial shell, kept as the cause

    def g(M):
        nonlocal failure
        try:
            return mass_shell_from_lambda(m1, m2, lambda_of_M(M)).M - M
        except PtbError as exc:
            failure = exc
            raise

    scale = m1 + m2
    grid = [scale * math.exp(x * 0.1) for x in range(-40, 41)]
    M = first_root(g, grid, skip=PtbError)
    if M is None:
        msg = "no self-consistent collective mass found near m1 + m2"
        if failure is not None:
            msg += f"; last trial shell failed with {type(failure).__name__}: {failure}"
        raise NoRoot(msg) from failure
    return M


def _state_lambda(model: PotentialSpec, nu: float,
                  zeta0: Sequence[float], eta0: Sequence[float]) -> Callable[[float], float]:
    z2 = sum(c * c for c in zeta0)
    e2 = sum(c * c for c in eta0)
    ze = sum(a * b for a, b in zip(zeta0, eta0))

    def lam(M: float) -> float:
        q = ScalarQuintet.at_rest(M * M, nu, z2, e2, ze)
        return e2 - 2.0 * model.evaluate(q).value

    return lam


def self_consistent_shell(m1: float, m2: float, model: PotentialSpec,
                          zeta0: Sequence[float], eta0: Sequence[float],
                          **kw) -> MassShell:
    """Shell whose lambda matches the orbit constraint at the given state."""
    _, nu = _check_masses(m1, m2)
    lam = _state_lambda(model, nu, zeta0, eta0)
    if model.p2_independent and model.w_independent:
        # lambda does not feed back into itself; one pass is exact
        return mass_shell_from_lambda(m1, m2, lam(m1 + m2))
    M = self_consistent_M(m1, m2, lam, **kw)
    return mass_shell_from_lambda(m1, m2, lam(M))


def self_consistent_circular(m1: float, m2: float, model: PotentialSpec,
                             l2: float, **kw) -> Tuple[MassShell, CircularOrbit]:
    """Circular orbit whose radius, shell and lambda agree simultaneously."""
    _, nu = _check_masses(m1, m2)

    def lam(M: float) -> float:
        M2 = M * M
        shell_M = mass_shell_from_lambda(m1, m2, lambda_from_M2(m1, m2, M2))
        orbit = find_circular(model, shell_M, l2)
        q = ScalarQuintet.at_rest(M2, nu, orbit.rho * orbit.rho, orbit.speed2, 0.0)
        return orbit.speed2 - 2.0 * model.evaluate(q).value

    M = self_consistent_M(m1, m2, lam, **kw)
    shell = mass_shell_from_lambda(m1, m2, lam(M))
    return shell, find_circular(model, shell, l2)
