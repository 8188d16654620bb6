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

from .errors import BadParameter, LambdaBoundViolation, MassBoundViolation

__all__ = [
    "MassShell",
    "mass_shell_from_lambda",
    "lambda_from_M2",
    "shell_from_M",
    "mass_excess",
    "nonrel_check",
    "individual_energy_limits",
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
    mu: float
    nu: float
    lambda_: float
    M2: float
    M: float
    E1: float
    E2: float

    def quartic_residual(self) -> float:
        return self.M2 * self.M2 - 4.0 * (self.mu + self.lambda_) * self.M2 + 4.0 * self.nu ** 2


def _check_masses(m1: float, m2: float) -> tuple[float, float]:
    """(mu, nu) of finite masses with 0 < m1 <= m2; anything else is a BadParameter."""
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise BadParameter("masses must be finite")
    if not (0.0 < m1 <= m2):
        raise BadParameter(f"masses must satisfy 0 < m1 <= m2, got ({m1!r}, {m2!r})")
    mu = 0.5 * (m1 * m1 + m2 * m2)
    nu = 0.5 * (m1 * m1 - m2 * m2)
    return mu, nu


def mass_shell_from_lambda(m1: float, m2: float, lambda_: float) -> MassShell:
    """Solve the shell for M given (m1, m2, lambda): E_a = sqrt(m_a^2 + lambda)
    and M = E1 + E2.

    Raises LambdaBoundViolation when m1^2 + lambda <= 0, which for sorted
    masses is the same inequality as mu + lambda > |nu| and as E1 > 0; the
    energy condition M^2 > 2|nu| then holds automatically.
    """
    mu, nu = _check_masses(m1, m2)
    lam = float(lambda_)
    E1_sq = m1 * m1 + lam
    if not (E1_sq > _REL_SLACK * max(m1 * m1, abs(lam))):
        raise LambdaBoundViolation(f"requires m1^2 + lambda > 0, got {E1_sq!r}")
    E1 = math.sqrt(E1_sq)
    E2 = math.sqrt(m2 * m2 + lam)
    M = E1 + E2
    return MassShell(m1=float(m1), m2=float(m2), mu=mu, nu=nu, lambda_=lam,
                     M2=M * M, M=M, E1=E1, E2=E2)


def lambda_from_M2(m1: float, m2: float, M2: float) -> float:
    """Invert the shell: lambda = (E1 - m1)(E1 + m1), E1 = (M^2 + m1^2 - m2^2)/(2M).

    2M (E1 +- m1) = (M +- m1 - m2)(M +- m1 + m2), and each factor is formed
    with exact subtractions where it is small, so lambda is as accurate as
    M^2 allows even as m1/m2 -> 0.  The preconditions M^2 > 2|nu| and M^2 >
    m2^2 - m1^2 coincide for sorted masses; their violation raises
    MassBoundViolation.
    """
    _, nu = _check_masses(m1, m2)
    M2 = float(M2)
    if not (M2 > 2.0 * abs(nu) + _REL_SLACK * max(M2, m2 * m2)):
        raise MassBoundViolation(
            f"requires M^2 > m2^2 - m1^2 = 2|nu|, got M^2 = {M2!r}, 2|nu| = {2.0 * abs(nu)!r}")
    M = math.sqrt(M2)
    C = (M - m2) + m1 if m2 > 2.0 * m1 else M - (m2 - m1)
    return ((M - m2) - m1) * (M + (m2 - m1)) * C * (M + m1 + m2) / (4.0 * M2)


def shell_from_M(M: float, nu: float, lambda_: float = 0.0) -> MassShell:
    """Shell with prescribed collective mass, asymmetry and lambda.

    Takes the energies straight from the inputs, E1 = M/2 + nu/M and E2 =
    M/2 - nu/M, and the masses from m_a^2 = E_a^2 - lambda = mu +- nu; the
    forward shell then reproduces M.  m1 is as accurate as E1 allows, a few
    ulps times M/E1, even as m1/m2 -> 0.
    """
    if not (M > 0.0 and math.isfinite(M)):
        raise BadParameter(f"need M > 0, got {M!r}")
    if nu > 0.0 or 2.0 * abs(nu) >= M * M:
        raise BadParameter("requires nu <= 0 and M^2 > 2 |nu|")
    E1 = 0.5 * M + nu / M
    E2 = 0.5 * M - nu / M
    m1_sq = E1 * E1 - lambda_
    if m1_sq <= 0.0:
        raise BadParameter("no real masses reproduce this shell: mu + nu <= 0")
    return mass_shell_from_lambda(math.sqrt(m1_sq), math.sqrt(E2 * E2 - lambda_), lambda_)


def mass_excess(m1: float, m2: float, lambda_: float) -> float:
    """M - m1 - m2, the sum of the individual_energy_limits."""
    d1, d2 = individual_energy_limits(m1, m2, lambda_)
    return d1 + d2


def nonrel_check(m1: float, m2: float, lambda_: float) -> float:
    """Ratio (M - m1 - m2) * 2 m0 / lambda with m0 the reduced mass.

    Tends to 1 as lambda -> 0.  The cancellation-free form factors out
    lambda, so the value at lambda = 0 is exactly the limit and no division
    guard is needed.
    """
    shell = mass_shell_from_lambda(m1, m2, lambda_)
    m0 = m1 * m2 / (m1 + m2)
    return 2.0 * m0 * (1.0 / (shell.E1 + m1) + 1.0 / (shell.E2 + m2))


def individual_energy_limits(m1: float, m2: float, lambda_: float) -> tuple[float, float]:
    """(E1 - m1, E2 - m2): how far each energy sits from its rest mass.

    Computed as lambda/(E_a + m_a), which equals E_a - m_a exactly and
    keeps full precision down to lambda = 0, where both vanish.
    """
    shell = mass_shell_from_lambda(m1, m2, lambda_)
    return shell.lambda_ / (shell.E1 + m1), shell.lambda_ / (shell.E2 + m2)
