"""Helpers shared by the test modules and conftest.py.

They live outside conftest.py so that test modules import them by a name
no other conftest.py on the path can shadow.
"""

import numpy as np

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


# one line per acceptance criterion, echoed after the test summary so the
# verdicts survive output capture
ACCEPTANCE_LINES = []
