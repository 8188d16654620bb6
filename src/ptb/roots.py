"""Scalar root finding: Brent's method and a first-sign-change scan.

brent is Brent's algorithm (*Algorithms for Minimization without
Derivatives*, 1973, ch. 4) ported step for step from scipy's C brentq, so
the two return the same bits.
"""

from __future__ import annotations

import math

from .errors import NoRoot

__all__ = ["brent", "first_root"]

_MAXITER = 100


def brent(f, a: float, b: float, xtol: float = 1e-15, rtol: float = 8.9e-16) -> float:
    """Root of f between a and b, whose f values must differ in sign, to
    within xtol + rtol |x|.  A nan value of f raises NoRoot naming x."""

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NoRoot(f"f(x) is nan at x = {x!r}; cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoRoot(f"f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} share a sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C gets inf or nan here, and either one bisects
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise NoRoot(f"no convergence after {_MAXITER} iterations, last x = {xcur!r}")


def first_root(f, grid, skip=()):
    """Root in the first bracket of grid across which f changes sign, or
    None.  A point where f raises one of skip, or gives nan, is a hole that
    no bracket spans; a point where f is exactly zero is the root."""
    prev = None
    for x in map(float, grid):
        try:
            fx = f(x)
        except skip:
            prev = None
            continue
        if fx == 0.0:
            return x
        if prev is not None and prev[1] * fx < 0.0:
            return brent(f, prev[0], x)
        prev = None if math.isnan(fx) else (x, fx)
    return None
