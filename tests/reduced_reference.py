"""The reduced equations in all three dimensions: the test oracle for the
in-plane integration of ptb.reduced.

ptb integrates (zeta, eta) on a basis of their plane, six state components
in all.  This module keeps the right-hand side on the full rest-frame
state u = (zeta, eta, intF, intG), eight components, in plain float
arithmetic, and runs it through the same DOPRI5 solver.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ptb.dopri import solve_dopri5
from ptb.mass_shell import MassShell
from ptb.potentials import PotentialSpec
from ptb.reduced import ReducedState


def rhs(u: Sequence[float], shell: MassShell, partials) -> tuple[float, ...]:
    """Right-hand side (dzeta, deta, F, G) of u = (zeta, eta, intF, intG),
    eight Python floats in and out, with the model's partials bound on shell."""
    z0, z1, z2, y0, y1, y2, _, _ = u
    M2, nu = shell.M2, shell.nu
    _, dP2, dztil2, dytil2, dzy, dw = partials(
        -(z0 * z0 + z1 * z1 + z2 * z2), -(y0 * y0 + y1 * y1 + y2 * y2),
        -(z0 * y0 + z1 * y1 + z2 * y2))
    a = 1.0 + 2.0 * dytil2
    b = -2.0 * dztil2
    return (a * y0 + dzy * z0, a * y1 + dzy * z1, a * y2 + dzy * z2,
            b * z0 - dzy * y0, b * z1 - dzy * y1, b * z2 - dzy * y2,
            2.0 * M2 * dP2, 2.0 * nu * dw)


def solve(initial: ReducedState, shell: MassShell, model: PotentialSpec, span: float,
          tol: float = 1e-10, sample_interval=None):
    """solve_dopri5 on the eight-component state from initial over [0, span],
    on the sample grid ptb.reduced.integrate would use."""
    u0 = np.concatenate((initial.ztil, initial.ytil, (0.0, 0.0)))
    partials = model.partials_at(shell.M2, shell.nu)
    return solve_dopri5(lambda lam, u: rhs(u, shell, partials), (0.0, span), u0, tol=tol,
                        sample_interval=sample_interval)
