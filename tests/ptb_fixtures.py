"""Helpers shared by the test modules and conftest.py.

They live outside conftest.py so that test modules import them by a name
no other conftest.py on the path can shadow.
"""

import math

import numpy as np

from ptb.potentials import PotentialEval, PotentialSpec

SEED = 20260819


def random_shell_args(rng, n):
    """n random admissible (m1, m2, lambda) triples, lambda of either sign."""
    out = []
    for _ in range(n):
        m1, m2 = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=2)))
        low = -0.95 * m1 * m1
        high = 5.0 * (m1 + m2) ** 2
        lam = rng.uniform(low, high)
        out.append((float(m1), float(m2), float(lam)))
    return out


def reference_sample_grid(span, interval):
    """The sample grid that ptb.reduced built and handed to the solver before
    the solver built it: the reference for the landing points."""
    points = span / interval + 1e-9
    grid = np.arange(math.floor(points) + 1) * interval
    return np.append(grid[:-1] if span - grid[-1] <= 1e-12 * span else grid, span)


def quartic(m1, m2, lam, M2):
    """The shell quartic M^4 - 4 (mu + lambda) M^2 + 4 nu^2 at M2 = M^2."""
    mu = 0.5 * (m1 * m1 + m2 * m2)
    nu = 0.5 * (m1 * m1 - m2 * m2)
    return M2 * M2 - 4.0 * (mu + lam) * M2 + 4.0 * nu * nu


class LambdaOfM(PotentialSpec):
    """V = -lambda_of_M(sqrt(P^2))/2, whose orbit at eta = 0 has lambda =
    lambda_of_M(M): self_consistent_shell(m1, m2, LambdaOfM(f), zeta0,
    (0, 0, 0)) closes M = M_shell(f(M)).  Only the value is meaningful."""

    def __init__(self, lambda_of_M):
        self.lambda_of_M = lambda_of_M

    def evaluate(self, q):
        return PotentialEval(-0.5 * self.lambda_of_M(math.sqrt(q.P2)), 0.0, 0.0, 0.0, 0.0, 0.0)


class Forwarding(PotentialSpec):
    """The generic model of a wrapped one, as perfbench's CountingPotential
    is: it forwards evaluate, the structure flags and describe, and counts
    the evaluations in calls.  Not a kernel model, it runs on the call path
    through ptb.reduced.rhs and the default PotentialSpec.partials_at."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0
        for flag in ("name", "central", "p2_independent", "w_independent"):
            setattr(self, flag, getattr(inner, flag))

    def evaluate(self, q):
        self.calls += 1
        return self.inner.evaluate(q)

    def describe(self) -> dict:
        return self.inner.describe()


# one line per acceptance criterion, echoed after the test summary so the
# verdicts survive output capture
ACCEPTANCE_LINES = []
