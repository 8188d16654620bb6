"""Mass-shell algebra for the two-body system.

Given constituent masses m1 <= m2 and the binding first integral lambda,
each individual energy has the closed form

    E_a = sqrt(m_a^2 + lambda),    M = E1 + E2,

and M^2 is the plus root of the quartic

    M^4 - 4 (mu + lambda) M^2 + 4 nu^2 = 0,

with mu = (m1^2 + m2^2)/2 and nu = (m1^2 - m2^2)/2 <= 0, because
E1^2 E2^2 = (mu + lambda)^2 - nu^2.  The minus root 4 nu^2/M^2 always
violates the strict positivity of the individual energies E_a = M/2 +- nu/M.
The closed form adds only positive terms, so unlike the discriminant
sqrt((mu + lambda)^2 - nu^2) it cancels nowhere, not even at m1/m2 -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadParameter, LambdaBoundViolation

__all__ = [
    "MassShell",
    "mass_shell_from_lambda",
    "shell_from_M",
    "nonrel_check",
    "monotonicity_margin",
]

_REL_SLACK = 1e-12


@dataclass(frozen=True)
class MassShell:
    """Frozen result of the shell solve.

    lambda_ is the binding first integral (-N on trajectories); E1 and E2
    are the individual rest-frame energies, E1 <= E2 for m1 <= m2.
    """

    m1: float
    m2: float
    nu: float
    lambda_: float
    M2: float
    M: float
    E1: float
    E2: float


def _check_masses(m1: float, m2: float) -> float:
    """nu of finite masses with 0 < m1 <= m2; anything else is a BadParameter."""
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise BadParameter("masses must be finite")
    if not (0.0 < m1 <= m2):
        raise BadParameter(f"masses must satisfy 0 < m1 <= m2, got ({m1!r}, {m2!r})")
    return 0.5 * (m1 * m1 - m2 * m2)


def _energies(m1: float, m2: float, lambda_: float) -> tuple[float, float, float, float]:
    """(nu, lambda, E1, E2) with E_a = sqrt(m_a^2 + lambda), refusing what
    mass_shell_from_lambda refuses short of an overflowing M^2."""
    nu = _check_masses(m1, m2)
    lam = float(lambda_)
    if not math.isfinite(m2 * m2 + lam):
        raise BadParameter(f"need a finite m2^2 + lambda, got m2 = {m2!r}, lambda = {lam!r}")
    E1_sq = m1 * m1 + lam
    if not (E1_sq > _REL_SLACK * max(m1 * m1, abs(lam))):
        raise LambdaBoundViolation(f"requires m1^2 + lambda > 0, got {E1_sq!r}")
    return nu, lam, math.sqrt(E1_sq), math.sqrt(m2 * m2 + lam)


def mass_shell_from_lambda(m1: float, m2: float, lambda_: float) -> MassShell:
    """Solve the shell for M given (m1, m2, lambda): E_a = sqrt(m_a^2 + lambda)
    and M = E1 + E2.

    Raises LambdaBoundViolation when m1^2 + lambda <= 0, which for sorted
    masses is the same inequality as mu + lambda > |nu| and as E1 > 0; the
    energy condition M^2 > 2|nu| then holds automatically.  A non-finite
    m2^2 + lambda or M^2 (lambda inf or nan, or a square overflowing) is a
    BadParameter.
    """
    nu, lam, E1, E2 = _energies(m1, m2, lambda_)
    M = E1 + E2
    if not math.isfinite(M * M):
        raise BadParameter(
            f"need a finite M^2, got inf for m1 = {m1!r}, m2 = {m2!r}, lambda = {lam!r}")
    return MassShell(m1=float(m1), m2=float(m2), nu=nu, lambda_=lam, M2=M * M, M=M, E1=E1, E2=E2)


def shell_from_M(M: float, nu: float, lambda_: float = 0.0) -> MassShell:
    """Shell with prescribed collective mass, asymmetry and lambda.

    Takes the energies straight from the inputs, E1 = M/2 + nu/M and E2 =
    M/2 - nu/M, and the masses from m_a^2 = E_a^2 - lambda = mu +- nu; the
    forward shell then reproduces M.  m1 is as accurate as E1 allows, a few
    ulps times M/E1, even as m1/m2 -> 0.
    """
    if not (M > 0.0 and math.isfinite(M)):
        raise BadParameter(f"need M > 0, got {M!r}")
    if not (nu <= 0.0 and 2.0 * abs(nu) < M * M):
        raise BadParameter(f"requires nu <= 0 and M^2 > 2 |nu|, got nu = {nu!r}")
    E1 = 0.5 * M + nu / M
    E2 = 0.5 * M - nu / M
    m1_sq = E1 * E1 - lambda_
    if not m1_sq > 0.0:
        raise BadParameter(f"no real masses reproduce this shell: need mu + nu > 0, got {m1_sq!r}")
    return mass_shell_from_lambda(math.sqrt(m1_sq), math.sqrt(E2 * E2 - lambda_), lambda_)


def nonrel_check(m1: float, m2: float, lambda_: float) -> float:
    """Ratio (M - m1 - m2) * 2 m0 / lambda with m0 the reduced mass.

    Tends to 1 as lambda -> 0.  The cancellation-free form factors out
    lambda, so the value at lambda = 0 is exactly the limit and no division
    guard is needed.
    """
    shell = mass_shell_from_lambda(m1, m2, lambda_)
    m0 = m1 * m2 / (m1 + m2)
    return 2.0 * m0 * (1.0 / (shell.E1 + m1) + 1.0 / (shell.E2 + m2))


def monotonicity_margin(M2: float, nu: float, lambda_: float) -> float:
    """M^2/4 - nu^2/M^2 - lambda/2; positive guarantees dT/dlambda > 0 for
    any state on a shell with these M^2, nu and lambda."""
    return M2 / 4.0 - nu ** 2 / M2 - 0.5 * lambda_
