"""Release acceptance gate.

One test per numbered criterion; each appends a single PASS/FAIL verdict
line that conftest echoes after the summary, then asserts it.  Tolerances
are stated inline next to every check.
"""

import math
import time

import numpy as np
import pytest

from ptb.circular import find_circular, verify_circular
from ptb.errors import NonMonotoneTime
from ptb.mass_ratio import limit_report
from ptb.mass_shell import mass_shell_from_lambda, nonrel_check
from ptb.minkowski import FourVector
from ptb.output import diagnostics
from ptb.potentials import (
    CentralPowerPotential,
    HarmonicPotential,
    PotentialEval,
    PotentialSpec,
)
from ptb.binding import self_consistent_shell
from ptb.reduced import (
    IntegratorOptions,
    ReducedState,
    integrate,
    synchronize,
)
from ptb.toy import (
    ToyParams,
    analytic_T,
    analytic_state,
    initial_state,
    shell_for_toy,
    sufficient_condition_margin,
)
from ptb.worldline import export_lab_frame, worldlines

from ptb_fixtures import ACCEPTANCE_LINES, SEED, quartic, random_shell_args


def record(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def state_of(p: ToyParams) -> ReducedState:
    z, y = initial_state(p)
    return ReducedState(0.0, np.array(z), np.array(y))


def test_criterion_01_shell_quartic_and_rejected_root():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_E1 = -math.inf
    for m1, m2, lam in random_shell_args(rng, 1000):
        sh = mass_shell_from_lambda(m1, m2, lam)
        worst_resid = max(worst_resid, abs(quartic(m1, m2, lam, sh.M2)) / sh.M2 ** 2)
        M2_minus = 4.0 * sh.nu ** 2 / sh.M2
        if M2_minus == 0.0:
            E1_minus = 0.0  # degenerate root: zero energy, not strictly positive
        else:
            M_minus = math.sqrt(M2_minus)
            E1_minus = 0.5 * M_minus + sh.nu / M_minus
        worst_E1 = max(worst_E1, E1_minus / m2)
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-12 and worst_E1 <= 1e-12 and elapsed < 1.0
    record(1, ok,
           f"1000 shells: quartic residual <= 1e-12 M^4 (worst {worst_resid:.2e}), "
           f"rejected root never has E1 > 0 (max E1/m2 {worst_E1:.2e}), "
           f"{elapsed:.2f}s < 1s")


def test_criterion_02_free_shell_identity():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        m1, m2 = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=2)))
        sh = mass_shell_from_lambda(float(m1), float(m2), 0.0)
        worst = max(worst, abs(sh.M - (m1 + m2)) / (m1 + m2))
    ok = worst <= 1e-12
    record(2, ok,
           f"lambda = 0 gives M = m1 + m2 on 100 pairs (worst rel {worst:.2e} <= 1e-12)")


def test_criterion_03_nonrelativistic_slope():
    rng = np.random.default_rng(SEED + 2)
    slopes = []
    for _ in range(5):
        m1, m2 = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2)))
        m1, m2 = float(m1), float(m2)
        lams = np.array([1e-2, 1e-3, 1e-4, 1e-5]) * m1 * m1
        devs = np.array([abs(nonrel_check(m1, m2, lam) - 1.0) for lam in lams])
        slopes.append(float(np.polyfit(np.log(lams), np.log(devs), 1)[0]))
    ok = all(abs(s - 1.0) <= 0.05 for s in slopes)
    record(3, ok,
           f"binding ratio deviation is linear in lambda: log-log slopes "
           f"{min(slopes):.3f}..{max(slopes):.3f} within 1.00 +- 0.05")


def test_criterion_04_toy_oracle_equivalence():
    p = ToyParams(chi=0.125, M=4.0, A=(1.0, 0.0, 0.0), B=(0.0, 0.5, 0.0))
    shell = shell_for_toy(p)
    t0 = time.perf_counter()
    traj = synchronize(integrate(
        state_of(p), shell, HarmonicPotential(p.chi), 10.0 * p.period,
        IntegratorOptions(tol=1e-10, sample_interval=p.period / 16.0)))
    dev_state = 0.0
    dev_T = 0.0
    for lam, z, y, T in zip(traj.lam.tolist(), traj.ztil, traj.ytil, traj.T.tolist()):
        za, ya = analytic_state(p, lam)
        dev_state = max(dev_state,
                        float(np.max(np.abs(z - np.array(za)))),
                        float(np.max(np.abs(y - np.array(ya)))))
        dev_T = max(dev_T, abs(T - analytic_T(p, lam)))
    elapsed = time.perf_counter() - t0
    ok = dev_state <= 1e-8 and dev_T <= 1e-8 and elapsed < 5.0
    record(4, ok,
           f"oscillator vs closed form over 10 periods at tol 1e-10: "
           f"state dev {dev_state:.2e}, T dev {dev_T:.2e} (both <= 1e-8), "
           f"{elapsed:.2f}s < 5s")


def test_criterion_05_conservation_suite():
    # harmonic on a tilted plane
    p = ToyParams(chi=0.125, M=4.0, A=(1.0, 0.0, 0.3), B=(0.1, 0.5, -0.2),
                  nu=-1.5)
    shell_h = shell_for_toy(p)
    span_h = 10.0 * p.period
    traj_h = integrate(state_of(p), shell_h, HarmonicPotential(p.chi), span_h,
                       IntegratorOptions(tol=1e-11, max_step=span_h / 10_000))
    diag_h = diagnostics(traj_h)

    # inverse-distance scattering, also tilted
    model_c = CentralPowerPotential(1.0, 1)
    z0 = (-8.0, 1.0, 0.5)
    y0 = (0.5, 0.0, 0.1)
    shell_c = self_consistent_shell(1.0, 2.0, model_c, z0, y0)
    traj_c = integrate(ReducedState(0.0, np.array(z0), np.array(y0)),
                       shell_c, model_c, 30.0,
                       IntegratorOptions(tol=1e-11, max_step=30.0 / 10_000))
    diag_c = diagnostics(traj_c)

    ok = True
    parts = []
    for name, traj, diag in (("harmonic", traj_h, diag_h),
                             ("central_power(1,1)", traj_c, diag_c)):
        good = (traj.stats.n_accepted >= 10_000
                and diag["N_drift"] <= 1e-9
                and diag["L2_drift"] <= 1e-9
                and diag["planarity_residual"] <= 1e-10)
        ok = ok and good
        parts.append(f"{name}: {traj.stats.n_accepted} steps, "
                     f"N drift {diag['N_drift']:.2e}, L2 drift {diag['L2_drift']:.2e}, "
                     f"planarity {diag['planarity_residual']:.2e}")
    record(5, ok, "first integrals over 1e4 accepted steps "
                  "(drift <= 1e-9, planar <= 1e-10): " + "; ".join(parts))


def test_criterion_06_circular_orbit_theorem():
    m = math.sqrt(2.75)
    shell = mass_shell_from_lambda(m, m, 1.25)  # M = 4 exactly
    ok = True
    parts = []
    for model in (HarmonicPotential(0.125), CentralPowerPotential(-1.0, 1)):
        orbit = find_circular(model, shell, 1.0)
        constancy, period = verify_circular(orbit, model, shell)
        good = (period.closure_ztil <= 1e-8 and period.closure_ytil <= 1e-8
                and constancy.max_variation <= 1e-9
                and period.linear_residual <= 1e-10
                and period.T_advance_error <= 1e-8)
        ok = ok and good
        parts.append(f"{model.name}: closure {max(period.closure_ztil, period.closure_ytil):.2e}, "
                     f"scalars {constancy.max_variation:.2e}, "
                     f"T residual {period.linear_residual:.2e}, "
                     f"period_T err {period.T_advance_error:.2e}")
    record(6, ok, "one-period closure <= 1e-8, scalars <= 1e-9, "
                  "T linear <= 1e-10, period_T <= 1e-8: " + "; ".join(parts))


def test_criterion_07_academic_case():
    class PlainSpring(PotentialSpec):
        """V depends on ztil2 alone: both quadratures vanish identically."""
        name = "plain_spring"
        central = True
        p2_independent = True
        w_independent = True

        def evaluate(self, q):
            return PotentialEval(0.7 * q.ztil2, 0.0, 0.7, 0.0, 0.0, 0.0)

    shell = mass_shell_from_lambda(1.0, 2.0, 0.5)
    traj = synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.8, 0.3])),
        shell, PlainSpring(), 12.0,
        IntegratorOptions(tol=1e-12, sample_interval=0.25)))
    slope = 0.25 * shell.M - shell.nu ** 2 / shell.M ** 3
    worst = float(np.max(np.abs(traj.T - slope * traj.lam)))
    moved = float(np.max(np.abs(traj.ytil[-1] - traj.ytil[0])))
    ok = worst <= 1e-12 and moved > 1e-3
    record(7, ok,
           f"force without P2/w coupling keeps T exactly linear: "
           f"max |T - lambda (M/4 - nu^2/M^3)| = {worst:.2e} <= 1e-12 "
           f"(while eta moved by {moved:.2f})")


def test_criterion_08_extreme_mass_ratio():
    eps_grid = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    rows0 = limit_report(1.0, 0.0, eps_grid)
    worst0 = max(r.residual for r in rows0)

    rows1 = limit_report(1.0, 1.0, eps_grid)
    ratios = [lead.residual / trail.residual
              for lead, trail in zip(rows1, rows1[1:])]
    beta = 2.0 + 2.0 * math.sqrt(2.0)
    limit1 = beta / (2.0 * (1.0 + beta))
    ok = (worst0 <= 1e-12
          and all(90.0 <= r <= 110.0 for r in ratios)
          and abs(rows1[-1].limit - limit1) <= 1e-15)
    record(8, ok,
           f"offset at alpha=0 equals gamma/(1+gamma) (worst {worst0:.2e} <= 1e-12); "
           f"alpha=1 limit {limit1:.6f} with residual decade ratios "
           + ", ".join(f"{r:.1f}" for r in ratios) + " (within 100 +- 10)")


def test_criterion_09_equal_time_invariants():
    p = ToyParams(chi=0.125, M=4.0, A=(1.0, 0.0, 0.0), B=(0.0, 0.5, 0.0),
                  nu=-1.5)
    shell = shell_for_toy(p)
    traj = synchronize(integrate(
        state_of(p), shell, HarmonicPotential(p.chi), 2.0 * p.period,
        IntegratorOptions(tol=1e-12, sample_interval=p.period / 16.0)))
    ws_rest = worldlines(traj)
    k = FourVector(math.sqrt(shell.M2 * 1.13), 0.3 * shell.M, 0.2 * shell.M, 0.0)
    worst_sync = 0.0
    worst_mean = 0.0
    worst_affine = 0.0
    for ws in (ws_rest, export_lab_frame(ws_rest, k)):
        kf = ws.frame
        vel = kf.spatial / kf.t
        d = ws.x1 - ws.x2
        sync = kf.t * d[:, 0] - kf.x * d[:, 1] - kf.y * d[:, 2] - kf.z * d[:, 3]
        worst_sync = max(worst_sync, float(np.max(np.abs(sync))))
        mean = (shell.E1 * ws.x1 + shell.E2 * ws.x2) / shell.M
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - ws.Xi))))
        pred = ws.Xi[0, 1:] + (ws.Xi[:, 0:1] - ws.Xi[0, 0]) * vel
        worst_affine = max(worst_affine, float(np.max(np.abs(ws.Xi[:, 1:] - pred))))
    ok = worst_sync <= 1e-12 and worst_mean <= 1e-12 and worst_affine <= 1e-12
    record(9, ok,
           f"each exported sample: |k.(x1-x2)| = {worst_sync:.2e}, "
           f"energy-weighted mean vs center line {worst_mean:.2e}, "
           f"center-line straightness {worst_affine:.2e} (all <= 1e-12)")


def test_criterion_10_clock_rate_positivity():
    # consistent runs: margin positive implies every sampled rate positive
    ok = True
    details = []
    configs = [
        ToyParams(chi=0.125, M=4.0, A=(1.0, 0.0, 0.0), B=(0.0, 0.5, 0.0), nu=-1.5),
        ToyParams(chi=0.6, M=2.5, A=(0.3, 0.1, 0.0), B=(0.0, 0.2, 0.15), nu=-0.8),
        ToyParams(chi=2.0, M=3.0, A=(0.3, 0.0, 0.1), B=(0.0, 0.2, 0.0)),
    ]
    for p in configs:
        shell = shell_for_toy(p)
        margin = sufficient_condition_margin(p)
        traj = synchronize(integrate(
            state_of(p), shell, HarmonicPotential(p.chi), 2.0 * p.period,
            IntegratorOptions(tol=1e-11, sample_interval=p.period / 64.0)))
        min_rate = float(traj.dTdlambda.min())
        good = margin > 0.0 and min_rate > 0.0 and traj.monotone is True
        ok = ok and good
        details.append(f"margin {margin:.3f} -> min rate {min_rate:.3f}")

    # constructed violation: oscillator data paired with a foreign shell
    # whose margin condition fails; strict mode must raise
    shell_bad = mass_shell_from_lambda(1.0, 1.0, 0.01)
    big = ReducedState(0.0, np.array([0.0, 8.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    p_bad = ToyParams(chi=1.0, M=shell_bad.M,
                      A=(0.5 / math.sqrt(2.0 * shell_bad.M), 0.0, 0.0),
                      B=(0.0, 8.0, 0.0))
    margin_bad = sufficient_condition_margin(p_bad)
    raised = False
    try:
        integrate(big, shell_bad, HarmonicPotential(1.0), 5.0,
                  IntegratorOptions(strict_time=True))
    except NonMonotoneTime:
        raised = True
    ok = ok and margin_bad < 0.0 and raised
    record(10, ok,
           "positive margin keeps dT/dlambda > 0 on every sample ("
           + "; ".join(details)
           + f"); violated margin {margin_bad:.1f} < 0 raises NonMonotoneTime: {raised}")
