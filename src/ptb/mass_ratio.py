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
from typing import Sequence

from .errors import BadParameter, InadmissibleAlpha
from .mass_shell import _energies

__all__ = ["RatioRow", "limit_report"]


@dataclass(frozen=True)
class RatioRow:
    eps: float
    gamma: float
    alpha: float
    offset: float
    limit: float
    residual: float


def limit_report(m2: float, alpha: float, eps_sequence: Sequence[float]) -> list[RatioRow]:
    """One row per eps: the offset E1/M of the shell with m1 = sqrt(eps) m2
    and lambda = alpha m2^2, its limit as eps -> 0 at this alpha, and the
    residual between them.  The offset is taken as E1/(E1 + E2), which
    stays finite where that shell's M^2 overflows.

    The limit is gamma/(1 + gamma) at alpha = 0 (a per-row moving target),
    the beta form for alpha > 0 (1/2 once beta overflows), and 0 for
    negative alpha (the heavy particle absorbs the center of energy
    entirely).
    """
    if not (m2 > 0.0 and math.isfinite(m2)):
        raise BadParameter(f"need m2 > 0, got {m2!r}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise BadParameter(f"need a finite alpha, got {alpha!r}")
    if alpha > 0.0:
        beta = 2.0 * alpha + 2.0 * math.sqrt(alpha * alpha + alpha)
        beta_limit = beta / (2.0 * (1.0 + beta)) if math.isfinite(beta) else 0.5
    rows = []
    for eps in eps_sequence:
        if not (0.0 < eps <= 1.0):
            raise BadParameter(f"need eps in (0, 1], got {eps!r}")
        if not (alpha > -eps + 1e-12 * eps):
            raise InadmissibleAlpha(
                f"requires alpha > -eps (i.e. m1^2 + lambda > 0), got alpha = {alpha!r}")
        gamma = math.sqrt(eps)
        *_, E1, E2 = _energies(gamma * m2, m2, alpha * (m2 * m2))
        offset = E1 / (E1 + E2)
        limit = beta_limit if alpha > 0.0 else gamma / (1.0 + gamma) if alpha == 0.0 else 0.0
        rows.append(RatioRow(float(eps), gamma, alpha, offset, limit, abs(offset - limit)))
    return rows
