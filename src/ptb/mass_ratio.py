"""Extreme mass-ratio diagnostics.

With m1 = gamma m2 (gamma = sqrt(eps) <= 1) and lambda = alpha m2^2, the
shell's individual energies are E1 = m2 sqrt(eps + alpha) and
E2 = m2 sqrt(1 + alpha), admissible on the whole range alpha > -eps.  The
center-of-energy offset coefficient

    offset = E1/M = sqrt(eps + alpha) / (sqrt(eps + alpha) + sqrt(1 + alpha))

is the light particle's energy share, i.e. how far Xi sits from the heavy
particle in units of the separation: at alpha = 0 it is exactly
gamma/(1 + gamma), and for fixed alpha > 0 it tends to beta/(2 (1 + beta))
with beta = 2 alpha + 2 sqrt(alpha^2 + alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .errors import BadParameter, InadmissibleAlpha
from .mass_shell import mass_shell_from_lambda

__all__ = [
    "RatioAnalysis",
    "RatioRow",
    "analyze",
    "offset_limit",
    "limit_report",
]


@dataclass(frozen=True)
class RatioAnalysis:
    m2: float
    eps: float
    gamma: float
    alpha: float
    lambda_: float
    nu: float
    M2: float
    offset: float
    beta: Optional[float]


def analyze(m2: float, alpha: float, eps: float) -> RatioAnalysis:
    """Shell and offset E1/M for the mass ratio gamma = sqrt(eps)."""
    if not (m2 > 0.0 and math.isfinite(m2)):
        raise BadParameter(f"need m2 > 0, got {m2!r}")
    if not (0.0 < eps <= 1.0):
        raise BadParameter(f"need eps in (0, 1], got {eps!r}")
    if not (alpha > -eps + 1e-12 * eps):
        raise InadmissibleAlpha(
            f"requires alpha > -eps (i.e. m1^2 + lambda > 0), got alpha = {alpha!r}")
    shell = mass_shell_from_lambda(math.sqrt(eps) * m2, m2, alpha * (m2 * m2))
    beta = 2.0 * alpha + 2.0 * math.sqrt(alpha * alpha + alpha) if alpha >= 0.0 else None
    return RatioAnalysis(
        m2=float(m2), eps=float(eps), gamma=math.sqrt(eps), alpha=float(alpha),
        lambda_=shell.lambda_, nu=shell.nu, M2=shell.M2, offset=shell.E1 / shell.M, beta=beta,
    )


def offset_limit(analysis: RatioAnalysis) -> float:
    """Limit of the offset as eps -> 0 at this alpha.

    gamma/(1 + gamma) at alpha = 0 (a per-row moving target), the beta form
    for alpha > 0, and 0 for negative alpha (the heavy particle absorbs the
    center of energy entirely).
    """
    if analysis.alpha > 0.0:
        beta = analysis.beta
        return beta / (2.0 * (1.0 + beta))
    if analysis.alpha == 0.0:
        return analysis.gamma / (1.0 + analysis.gamma)
    return 0.0


@dataclass(frozen=True)
class RatioRow:
    eps: float
    gamma: float
    alpha: float
    offset: float
    limit: float
    residual: float


def limit_report(m2: float, alpha: Union[float, Callable[[float], float]],
                 eps_sequence: Sequence[float]) -> list[RatioRow]:
    """One row per eps: offset, the applicable limit and the residual.

    alpha may be a number or a function of eps (useful for probing the
    negative-lambda regime with alpha = -eps/2 and the like, where a fixed
    negative alpha would eventually become inadmissible).
    """
    rows = []
    for eps in eps_sequence:
        a = alpha(eps) if callable(alpha) else float(alpha)
        analysis = analyze(m2, a, eps)
        limit = offset_limit(analysis)
        rows.append(RatioRow(
            eps=float(eps), gamma=analysis.gamma, alpha=a,
            offset=analysis.offset, limit=limit,
            residual=abs(analysis.offset - limit),
        ))
    return rows
