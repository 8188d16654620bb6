"""Self-consistent collective mass.

The shell fixes M from (m1, m2, lambda); an orbit fixes lambda from its
state, lambda = |eta|^2 - 2 V, with V evaluated at P2 = M^2.  Closing the
loop is one root in lambda of h(lambda) = lambda_orbit(shell(lambda)) -
lambda on the admissible half-line lambda > -m1^2, where E1 > 0.  The scan
starts at the free shell lambda = 0 and walks outward on the side that the
sign of h(0) points to: toward the bound it halves the gap to -m1^2 down to
the shell's own threshold, upward it doubles from the plain iterate h(0).
When h(0) itself fails, both sides are scanned.  A trial lambda whose shell
or orbit raises a package error is a hole in the scan; Brent's method
refines the first bracket.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

from .circular import CircularOrbit, find_circular
from .errors import BadParameter, NoRoot, PtbError
from .mass_shell import _REL_SLACK, MassShell, _check_masses, mass_shell_from_lambda
from .potentials import PotentialSpec
from .roots import first_root

__all__ = [
    "binding_energy",
    "self_consistent_shell",
    "self_consistent_circular",
]

# from the free shell toward the bound, s = lambda/m1^2 halves its gap to -1 while
# the shell admits the step (E1^2 > _REL_SLACK m1^2), then ends at 1.001 times that
# threshold: rounding s and s m1^2 moves a gap of 1e-12 by at most 2.2e-4 of it
_DOWN = (0.0, *(-1.0 + 0.5 ** k for k in range(1, int(-math.log2(_REL_SLACK)) + 1)),
         -1.0 + 1.001 * _REL_SLACK)
_DOUBLINGS = 64


def binding_energy(shell: MassShell) -> float:
    """m1 + m2 - M, positive when bound, from the shell's own energies: each
    E_a - m_a as lambda/(E_a + m_a), which keeps full precision at lambda -> 0."""
    lam = shell.lambda_
    return -(lam / (shell.E1 + shell.m1) + lam / (shell.E2 + shell.m2))


def _closed_shell(m1: float, m2: float,
                  orbit_of: Callable[[MassShell], tuple]) -> tuple:
    """The shell whose lambda equals lambda_orbit, where orbit_of(shell) =
    (lambda_orbit, orbit), returned with its orbit.

    The scan runs in s = lambda/m1^2, so the bound is s > -1 and Brent's
    absolute tolerance scales with the masses.  Each s is solved once, and
    NoRoot names the masses and, per grid, its lambda span and the value of h
    (or the error) at both ends.
    """
    b = m1 * m1
    memo = {}  # s -> (shell, orbit_of(shell)) or the error of the trial shell
    failure = None  # the last error of a trial shell, kept as the cause

    def h(s: float) -> float:
        nonlocal failure
        if s not in memo:
            try:
                shell = mass_shell_from_lambda(m1, m2, s * b)
                memo[s] = shell, orbit_of(shell)
            except PtbError as exc:
                memo[s] = failure = exc
        if isinstance(memo[s], PtbError):
            raise memo[s]
        shell, (lam, _) = memo[s]
        return (lam - shell.lambda_) / b

    try:
        h0 = h(0.0)
    except PtbError:
        h0 = math.nan
    up = (0.0, *((h0 if h0 > 0.0 else 1.0) * 2.0 ** k for k in range(_DOUBLINGS)))
    grids = [_DOWN] if h0 < 0.0 else [up] if h0 >= 0.0 else [_DOWN, up]
    for grid in grids:
        s = first_root(h, grid, skip=PtbError)
        if s is not None:
            shell, (_, orbit) = memo[s]
            return shell, orbit

    def end(s: float) -> str:
        at = memo[s]
        if isinstance(at, PtbError):
            return f"{s * b!r} ({type(at).__name__})"
        return f"{s * b!r} (h = {at[1][0] - at[0].lambda_!r})"
    msg = (f"no self-consistent shell found on lambda > -m1^2 for m1 = {m1!r}, m2 = {m2!r}; "
           + "; ".join(f"lambda from {end(g[0])} to {end(g[-1])}" for g in grids))
    if failure is not None:
        msg += f"; last trial shell failed with {type(failure).__name__}: {failure}"
    raise NoRoot(msg) from failure


def self_consistent_shell(m1: float, m2: float, model: PotentialSpec,
                          zeta0: Sequence[float], eta0: Sequence[float]) -> MassShell:
    """Shell whose lambda matches the orbit constraint at the given state."""
    nu = _check_masses(m1, m2)
    z2 = sum(c * c for c in zeta0)
    e2 = sum(c * c for c in eta0)
    ze = sum(a * b for a, b in zip(zeta0, eta0))

    def lam(M2: float) -> float:
        return e2 - 2.0 * model.partials_at(M2, nu)(-z2, -e2, -ze)[0]

    if model.p2_independent and model.w_independent:
        # lambda does not feed back into itself; one pass is exact
        try:
            M2 = (m1 + m2) ** 2
        except OverflowError:
            raise BadParameter(f"need a finite M^2 = (m1 + m2)^2, got m1 = {m1!r}, "
                               f"m2 = {m2!r}") from None
        return mass_shell_from_lambda(m1, m2, lam(M2))
    shell, _ = _closed_shell(m1, m2, lambda shell: (lam(shell.M2), None))
    return shell


def self_consistent_circular(m1: float, m2: float, model: PotentialSpec,
                             l2: float) -> Tuple[MassShell, CircularOrbit]:
    """Circular orbit whose radius, shell and lambda agree simultaneously."""
    _check_masses(m1, m2)  # bad masses are refused before any trial shell

    def orbit_of(shell: MassShell):
        orbit = find_circular(model, shell, l2)
        return orbit.lambda_orbit, orbit

    return _closed_shell(m1, m2, orbit_of)
