import math
from array import array
from dataclasses import astuple, fields, replace
from textwrap import dedent

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import ptb.reduced
from ptb import dopri
from ptb.circular import find_circular
from ptb.dopri import MAX_STEPS, dense_steps, solve_dopri5
from ptb.errors import BadParameter, DomainError, NonMonotoneTime, OutOfRange, StepFailure
from ptb.mass_shell import mass_shell_from_lambda, shell_from_M
from ptb.output import diagnostics
from ptb.potentials import (
    CentralPowerPotential,
    FreePotential,
    HarmonicPotential,
    PotentialEval,
    PotentialSpec,
)
from ptb.reduced import (
    IntegratorOptions,
    ReducedState,
    TrajectorySample,
    dT_dlambda,
    equal_time_clock,
    integrate,
    lift,
    rest_quintet,
    rhs,
    synchronize,
)
from ptb.toy import (
    ToyParams,
    analytic_T,
    analytic_state,
    dT_dlambda_analytic,
    initial_state,
    intF_analytic,
    min_dT_dlambda,
    shell_for_toy,
    sufficient_condition_margin,
)
from ptb.worldline import resample_uniform_T
import reduced_reference
from ptb_fixtures import Forwarding, reference_sample_grid


def toy_setup():
    p = ToyParams(chi=0.125, M=4.0, A=(1.0, 0.0, 0.0), B=(0.0, 0.5, 0.0),
                  nu=-1.5)
    return p, shell_for_toy(p)


def state0(p):
    z, y = initial_state(p)
    return ReducedState(0.0, np.array(z), np.array(y))


def dense_u(traj, lam):
    """The rest-frame state (zeta, eta, intF, intG) of the dense output at one lambda."""
    return lift(np.array([traj.dense(lam)]), traj.basis)[0]


def sample_states(traj):
    """The solver's in-plane state at each sample: the dense group that
    starts (or, for the last, ends) the step at the sample's lambda."""
    dense = traj.dense
    return dense.groups[np.searchsorted(dense.t, traj.lam), 0]


def bound(shell, model):
    """The model's partials bound on shell, as integrate binds them."""
    return model.partials_at(shell.M2, shell.nu)


def fused_stage(shell, model):
    """The fused stage (source, c) of integrate's run of model on shell, or None."""
    return ptb.reduced._stage(shell, model, bound(shell, model))


class WMixing(PotentialSpec):
    """V = eps * w * ztil2: p2-free, w-coupled test model.

    On-shell w = nu^2/M^2 is a constant, so the reduced flow is again a
    spring with stiffness 2 eps w, while G = 2 nu eps ztil2 is a nontrivial
    quadrature with F identically zero.
    """

    name = "w_mixing"
    central = True
    p2_independent = True

    def __init__(self, eps: float):
        self.eps = eps

    def evaluate(self, q):
        return PotentialEval(
            value=self.eps * q.w * q.ztil2,
            dP2=0.0,
            dztil2=self.eps * q.w,
            dytil2=0.0,
            dzy=0.0,
            dw=self.eps * q.ztil2,
        )

    def describe(self):
        return {"kind": self.name, "eps": self.eps}


class BareSpring(PotentialSpec):
    """V = c * ztil2 with no sqrt(P2) factor: force without clock quadratures."""

    name = "bare_spring"
    central = True
    p2_independent = True
    w_independent = True

    def __init__(self, c: float):
        self.c = c

    def evaluate(self, q):
        return PotentialEval(self.c * q.ztil2, 0.0, self.c, 0.0, 0.0, 0.0)

    def describe(self):
        return {"kind": self.name, "c": self.c}


def test_free_motion_is_exact_drift():
    shell = mass_shell_from_lambda(1.0, 2.0, 0.0)
    z0 = np.array([1.0, 2.0, -0.5])
    y0 = np.array([0.25, -0.5, 0.75])
    traj = synchronize(integrate(ReducedState(0.0, z0, y0), shell,
                                 FreePotential(), 10.0,
                                 IntegratorOptions(sample_interval=1.0)))
    drift = 0.25 * shell.M - shell.nu ** 2 / shell.M ** 3
    lam = traj.lam
    assert np.allclose(traj.ztil, z0 + lam[:, None] * y0, rtol=1e-13, atol=1e-13)
    assert np.allclose(traj.ytil, y0, rtol=0, atol=1e-14)
    assert not traj.u[:, 6:8].any()
    assert traj.T == pytest.approx(drift * lam, rel=1e-13, abs=1e-15)
    assert traj.tau1 == pytest.approx(0.5 * lam - shell.nu * lam / shell.M2, rel=1e-13, abs=1e-15)
    assert traj.monotone is True


def test_rhs_harmonic_matches_hand_formula():
    p, shell = toy_setup()
    z, y = np.array([0.3, -0.7]), np.array([0.1, 0.4])
    dx = rhs([*z, *y, 0.0, 0.0], shell, bound(shell, HarmonicPotential(p.chi)))
    dz, dy, F, G = dx[0:2], dx[2:4], dx[4], dx[5]
    assert np.allclose(dz, y, atol=0)
    assert np.allclose(dy, -2.0 * p.chi * shell.M * z, rtol=1e-15)
    assert F == pytest.approx(-p.chi * shell.M * float(z @ z), rel=1e-15)
    assert G == 0.0


def test_harmonic_matches_toy_oracle():
    p, shell = toy_setup()
    opts = IntegratorOptions(tol=1e-12, sample_interval=p.period / 8.0)
    traj = synchronize(integrate(state0(p), shell, HarmonicPotential(p.chi),
                                 2.0 * p.period, opts))
    for lam, u, T in zip(traj.lam.tolist(), traj.u, traj.T):
        z, y = analytic_state(p, lam)
        assert np.allclose(u[0:3], z, atol=5e-11)
        assert np.allclose(u[3:6], y, atol=5e-11)
        assert u[6] == pytest.approx(intF_analytic(p, lam), abs=5e-11)
        assert u[7] == 0.0
        assert T == pytest.approx(analytic_T(p, lam), abs=5e-11)
    assert traj.monotone is True


def test_dense_output_between_samples():
    p, shell = toy_setup()
    traj = integrate(state0(p), shell, HarmonicPotential(p.chi), p.period,
                     IntegratorOptions(tol=1e-12, sample_interval=p.period / 4.0))
    for lam in np.linspace(0.0, p.period, 37):
        u = dense_u(traj, float(lam))
        z, y = analytic_state(p, float(lam))
        assert np.allclose(u[0:3], z, atol=1e-10)
        assert np.allclose(u[3:6], y, atol=1e-10)
    with pytest.raises(OutOfRange):
        traj.dense(p.period * 1.01)
    with pytest.raises(OutOfRange):
        traj.dense(-1e-9)


def test_dense_clock_matches_grid_samples():
    # the clock of a dense-output state, with its rates from rhs, agrees
    # with the synchronized sample at the same lambda
    p, shell = toy_setup()
    model = HarmonicPotential(p.chi)
    traj = synchronize(integrate(state0(p), shell, model, 5.0,
                                 IntegratorOptions(sample_interval=0.5)))
    for lam, T0, tau10, rate in zip(traj.lam.tolist()[1:], traj.T[1:], traj.tau1[1:],
                                    traj.dTdlambda[1:]):
        x = traj.dense(lam)
        tau1, _, _, T = equal_time_clock(lam, x[4], x[5], shell)
        F, G = rhs(x, shell, bound(shell, model))[4:6]
        assert T == pytest.approx(T0, rel=1e-12)
        assert tau1 == pytest.approx(tau10, rel=1e-12)
        assert dT_dlambda(F, G, shell) == pytest.approx(rate, rel=1e-12)


def test_w_coupled_quadrature_oracle():
    # independent oracle: numeric quadrature of the closed-form orbit
    eps = 0.8
    shell = mass_shell_from_lambda(1.0, 2.0, 0.25)
    model = WMixing(eps)
    w = shell.nu ** 2 / shell.M2
    om = math.sqrt(2.0 * eps * w)
    z0 = np.array([1.2, 0.0, 0.4])
    y0 = np.array([0.0, 0.9, 0.0])

    def zeta(lam):
        return z0 * math.cos(om * lam) + (y0 / om) * math.sin(om * lam)

    def G_rate(lam):
        z = zeta(lam)
        return -2.0 * shell.nu * eps * float(z @ z)

    span = 6.0
    traj = synchronize(integrate(ReducedState(0.0, z0, y0), shell, model, span,
                                 IntegratorOptions(tol=1e-12, sample_interval=1.5)))
    for lam, u, tau1, tau2, T in zip(traj.lam.tolist()[1:], traj.u[1:], traj.tau1[1:],
                                     traj.tau2[1:], traj.T[1:]):
        assert np.allclose(u[0:3], zeta(lam), atol=1e-10)
        want_G, err = quad(G_rate, 0.0, lam, epsabs=1e-13, epsrel=1e-13)
        assert u[7] == pytest.approx(want_G, abs=1e-9)
        assert u[6] == 0.0
        delta = -(2.0 / shell.M2) * (shell.nu * lam + want_G)
        assert (tau1 - tau2) == pytest.approx(delta, abs=1e-9)
        want_T = (0.5 * shell.nu * delta + 0.25 * shell.M2 * lam) / shell.M
        assert T == pytest.approx(want_T, abs=1e-9)


def test_quadrature_free_force_keeps_T_linear():
    # a model with dV/dP2 = dV/dw = 0 bends the orbit but not the clock
    shell = mass_shell_from_lambda(1.0, 2.0, 0.5)
    model = BareSpring(0.7)
    traj = synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.8, 0.3])),
        shell, model, 12.0, IntegratorOptions(tol=1e-12, sample_interval=1.0)))
    drift = 0.25 * shell.M - shell.nu ** 2 / shell.M ** 3
    # the force is active: eta is not constant
    assert not np.allclose(traj.ytil[-1], traj.ytil[0], atol=1e-3)
    assert not traj.F.any() and not traj.G.any()
    assert traj.T == pytest.approx(drift * traj.lam, rel=1e-12, abs=1e-12)


def test_central_motion_stays_planar():
    # initial data span a tilted plane; a central force must preserve it
    p, shell = toy_setup()
    z0 = np.array([1.0, 0.5, -0.3])
    y0 = np.array([-0.2, 0.8, 0.4])
    normal = np.cross(z0, y0)
    normal /= np.linalg.norm(normal)
    traj = integrate(ReducedState(0.0, z0, y0), shell,
                     HarmonicPotential(0.25), 25.0, IntegratorOptions(tol=1e-11))
    assert np.abs(traj.ztil @ normal).max() < 1e-9
    assert np.abs(traj.ytil @ normal).max() < 1e-9


def test_conserved_quantities_drift_slowly():
    p, shell = toy_setup()
    model = HarmonicPotential(p.chi)
    traj = integrate(state0(p), shell, model, 3.0 * p.period,
                     IntegratorOptions(tol=1e-11))
    Ns, L2s = [], []
    for z, y in zip(traj.ztil, traj.ytil):
        q = rest_quintet(z, y, shell)
        Ns.append(q.ytil2 + 2.0 * model.evaluate(q).value)
        L2s.append(float((z @ z) * (y @ y) - (z @ y) ** 2))
    assert max(Ns) - min(Ns) < 1e-9
    assert max(L2s) - min(L2s) < 1e-9
    # N = -Lambda on shell-consistent data
    assert Ns[0] == pytest.approx(-shell.lambda_, rel=1e-12)


def test_strict_time_aborts_on_nonmonotone():
    # shell deliberately inconsistent with the initial data: the harmonic
    # F term overwhelms the clock rate once |zeta| has grown
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    start = ReducedState(0.0, np.array([0.0, 0.5, 0.0]), np.array([8.0, 0.0, 0.0]))
    with pytest.raises(NonMonotoneTime) as info:
        integrate(start, shell, HarmonicPotential(1.0), 5.0,
                  IntegratorOptions(strict_time=True))
    msg = str(info.value)
    assert msg.startswith("dT/dlambda = -") and msg.endswith(" (strict mode)")
    lam, h = (float(msg.split(key)[1].split(" ")[0]) for key in ("at lambda = ", "step of h = "))
    assert 0.0 < h < lam < 5.0


def test_strict_clock_is_checked_at_lambda_0():
    # the rate at the start is the first FSAL stage; it fails here before
    # any step is taken, so no step is named
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    big = ReducedState(0.0, np.array([0.0, 8.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    rate = dT_dlambda(*rhs([8.0, 0.0, 0.0, 0.5, 0.0, 0.0], shell,
                           bound(shell, HarmonicPotential(1.0)))[4:6], shell)
    assert rate < 0.0
    with pytest.raises(NonMonotoneTime) as info:
        integrate(big, shell, HarmonicPotential(1.0), 5.0,
                  IntegratorOptions(strict_time=True, sample_interval=0.5))
    assert str(info.value) == f"dT/dlambda = {rate!r} at lambda = 0.0 (strict mode)"


def strict_verdict(traj):
    """The strict check as scalar loops: the clock rate of each FSAL stage
    of the dense output, at lambda = 0 and then at each accepted step end,
    in the order the steps were taken; then T from each step end to the
    next, from the state blocks; then the samples."""
    dense, shell = traj.dense, traj.shell
    last = None
    for lam, k in zip(dense.t.tolist(), dense.groups[:, 5].tolist()):
        rate = dT_dlambda(k[4], k[5], shell)
        if not rate > 0.0:
            step = "" if last is None else f" after a step of h = {lam - last!r}"
            return f"dT/dlambda = {rate!r} at lambda = {lam!r}{step} (strict mode)"
        last = lam
    ends = [(lam, equal_time_clock(lam, y[4], y[5], shell)[3])
            for lam, y in zip(dense.t.tolist(), dense.groups[:, 0].tolist())]
    for (lam0, T0), (lam1, T1) in zip(ends, ends[1:]):
        if not T1 > T0:
            return (f"T falls from {T0!r} to {T1!r} between lambda = {lam0!r} and {lam1!r}"
                    " (strict mode)")
    rates, T = traj.dTdlambda.tolist(), traj.T.tolist()
    if not (all(r > 0.0 for r in rates) and all(b > a for a, b in zip(T, T[1:]))):
        return f"min dT/dlambda = {min(rates)!r} (strict mode)"
    return None


@settings(max_examples=30, deadline=None)
@given(shell_lambda=st.floats(-0.5, 2.0), chi=st.floats(0.05, 1.0),
       z=st.floats(0.1, 3.0), y=st.floats(0.1, 8.0),
       sample_interval=st.sampled_from([None, 0.5]))
def test_strict_check_is_the_scalar_loop(shell_lambda, chi, z, y, sample_interval):
    # harmonic data on a foreign shell: the clock may turn at the start, at
    # a later step end, or not at all
    shell = mass_shell_from_lambda(1.0, 2.0, shell_lambda)
    start = ReducedState(0.0, np.array([0.0, z, 0.1]), np.array([y, 0.0, 0.2]))

    def run(strict_time):
        return integrate(start, shell, HarmonicPotential(chi), 3.0,
                         IntegratorOptions(sample_interval=sample_interval, strict_time=strict_time))

    relaxed = run(False)
    want = strict_verdict(relaxed)
    if want is None:
        assert np.array_equal(run(True).dense.groups, relaxed.dense.groups)
    else:
        with pytest.raises(NonMonotoneTime) as info:
            run(True)
        assert str(info.value) == want


@given(chi=st.floats(0.05, 1.0), M=st.floats(0.5, 6.0), nu_frac=st.floats(-0.49, 0.0),
       A=st.tuples(*[st.floats(-3.0, 3.0)] * 3), B=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       own=st.floats(0.01, 0.99) | st.none(), lam_frac=st.floats(-1.0, 0.99),
       periods=st.floats(0.5, 3.0), k=st.integers(1, 6) | st.none(),
       tol=st.sampled_from([1e-10, 1e-7]))
def test_monotone_is_the_scalar_loop_over_step_ends_and_samples(
        chi, M, nu_frac, A, B, own, lam_frac, periods, k, tol):
    # a toy on its own shell, scaled so that its lambda is the fraction own
    # of E1^2, keeps a positive margin; on a foreign shell its clock may turn
    # at a step end, between step ends or between samples only
    nu = nu_frac * M * M
    E1_sq = (0.5 * M + nu / M) ** 2
    p = ToyParams(chi=chi, M=M, A=A, B=B, nu=nu)
    if own is not None:
        assume(p.a2 + p.b2 > 0.0)
        scale = math.sqrt(own * E1_sq / p.Lambda)
        p = ToyParams(chi=chi, M=M, A=tuple(scale * np.array(A)), B=tuple(scale * np.array(B)),
                      nu=nu)
    shell = shell_for_toy(p) if own is not None else shell_from_M(M, nu, lam_frac * E1_sq)
    traj = integrate(state0(p), shell, HarmonicPotential(chi), periods * p.period,
                     IntegratorOptions(tol=tol, sample_interval=None if k is None else p.period / k))
    assert traj.monotone is (strict_verdict(traj) is None)
    if own is not None:
        assert traj.monotone is True
    rates = [dT_dlambda(g[4], g[5], shell) for g in traj.dense.groups[:, 5].tolist()]
    assert diagnostics(traj)["min_dT_dlambda"] == min(rates + traj.dTdlambda.tolist())


def test_a_clock_that_dips_between_samples_is_not_monotone():
    # sampled once a period, the toy's clock looks clean at every sample,
    # while its rate falls to the analytic minimum -0.125 at step ends
    p = ToyParams(chi=0.125, M=4.0, A=(3.0, 0.0, 0.0), B=(0.0, 0.5, 0.0))
    start, shell = state0(p), shell_from_M(4.0, 0.0, 0.0)
    traj = integrate(start, shell, HarmonicPotential(p.chi), 4.0 * p.period,
                     IntegratorOptions(sample_interval=p.period))
    d = diagnostics(traj)
    assert len(traj.lam) == 5 and traj.dTdlambda.min() > 0.9
    assert traj.monotone is False and d["monotone"] is False
    assert abs(d["min_dT_dlambda"] - min_dT_dlambda(p)) <= 1e-5 and min_dT_dlambda(p) == -0.125
    assert d["n_flagged"] == 0 and not traj.flagged.any()
    with pytest.raises(NonMonotoneTime, match=r"^dT/dlambda = -\S+ at lambda = \S+ after a step "
                                              r"of h = \S+ \(strict mode\)$"):
        integrate(start, shell, HarmonicPotential(p.chi), 4.0 * p.period,
                  IntegratorOptions(sample_interval=p.period, strict_time=True))


def test_strict_integrate_checks_its_own_samples(monkeypatch):
    # a sample rate that the dense stages do not hold (one sample's F
    # overwritten after the solve) fails the strict check on the samples
    # that integrate returns: no caller can skip it
    p, shell = toy_setup()
    solve = ptb.reduced.solve_dopri5

    def bent(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.dy[3, 4] = -1e3
        return sol

    monkeypatch.setattr(ptb.reduced, "solve_dopri5", bent)
    with pytest.raises(NonMonotoneTime, match=r"^min dT/dlambda = -.* \(strict mode\)$"):
        integrate(state0(p), shell, HarmonicPotential(p.chi), 5.0,
                  IntegratorOptions(strict_time=True, sample_interval=0.5))
    relaxed = integrate(state0(p), shell, HarmonicPotential(p.chi), 5.0,
                        IntegratorOptions(sample_interval=0.5))
    assert relaxed.monotone is False and list(np.flatnonzero(relaxed.flagged)) == [3]


def test_replaced_columns_get_a_fresh_clock():
    p, shell = toy_setup()
    traj = integrate(state0(p), shell, HarmonicPotential(p.chi), 5.0,
                     IntegratorOptions(sample_interval=0.5))
    clock = (traj.tau1, traj.tau2, traj.T, traj.dTdlambda)
    u = traj.u.copy()
    u[:, 6] += 1.0  # intF shifted by 1: T by 1/M, tau1 and tau2 unchanged
    F = traj.F.copy()
    F[3] = -1e3  # one sample with a negative clock rate
    moved = replace(traj, u=u, F=F)
    # the original keeps the columns it built on first read
    assert all(a is b for a, b in zip((traj.tau1, traj.tau2, traj.T, traj.dTdlambda), clock))
    assert np.array_equal(moved.tau1, traj.tau1) and np.array_equal(moved.tau2, traj.tau2)
    assert np.array_equal(moved.T, equal_time_clock(traj.lam, u[:, 6], u[:, 7], shell)[3])
    assert np.allclose(moved.T - traj.T, 1.0 / shell.M, rtol=0.0, atol=1e-12)
    assert np.array_equal(moved.dTdlambda, dT_dlambda(F, traj.G, shell))
    assert traj.monotone is True and moved.monotone is False
    assert list(np.flatnonzero(moved.flagged)) == [3]
    assert moved.samples[3].T == moved.T[3]


def test_relaxed_mode_flags_instead():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    big = ReducedState(0.0, np.array([0.0, 8.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    traj = synchronize(integrate(big, shell, HarmonicPotential(1.0), 5.0,
                                 IntegratorOptions(sample_interval=0.5)))
    assert traj.monotone is False
    assert traj.flagged.any()
    assert not (traj.dTdlambda[traj.flagged] > 0.0).any()


def test_dT_dlambda_formula():
    shell = mass_shell_from_lambda(1.0, 2.0, 0.5)
    got = dT_dlambda(0.3, -0.2, shell)
    M = shell.M
    want = 0.25 * M - shell.nu ** 2 / M ** 3 - shell.nu * -0.2 / M ** 3 + 0.3 / M
    assert got == pytest.approx(want, rel=1e-15)


def test_integration_preconditions():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.0)
    st = ReducedState(0.0, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    with pytest.raises(ValueError):
        integrate(st, shell, FreePotential(), 0.0)
    for lam in (1.0, math.nan):
        with pytest.raises(ValueError, match=f"starts at lambda = 0, got {lam!r}$"):
            integrate(ReducedState(lam, st.ztil, st.ytil), shell, FreePotential(), 1.0)
    with pytest.raises(ValueError):
        integrate(st, shell, FreePotential(), 1.0,
                  IntegratorOptions(sample_interval=-1.0))


@pytest.mark.parametrize("z, y, text", [
    ([1.0, math.nan, 0.0], [0.0, 1.0, 0.0], "non-finite ztil[1] = nan at lambda = 0"),
    ([1.0, 0.0, 0.0], [math.inf, 1.0, 0.0], "non-finite ytil[0] = inf at lambda = 0"),
])
def test_a_non_finite_start_is_named_in_the_rest_frame(z, y, text):
    # refused before the plane is built, which would hide the component
    shell = mass_shell_from_lambda(1.0, 1.0, 0.0)
    with pytest.raises(StepFailure) as info:
        integrate(ReducedState(0.0, np.array(z), np.array(y)), shell, FreePotential(), 1.0)
    assert str(info.value) == text


def grid_of(span, interval):
    """The samples of a free run on the grid of interval, or the StepFailure it raises."""
    shell = mass_shell_from_lambda(1.0, 1.0, 0.0)
    st = ReducedState(0.0, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    try:
        return integrate(st, shell, FreePotential(), span,
                         IntegratorOptions(sample_interval=interval)).lam
    except StepFailure as e:
        return str(e)


@pytest.mark.parametrize("span, interval", [(1.0, 1e-12), (1e3, 1e-9), (1.0, 5e-324)])
def test_a_sample_grid_beyond_the_step_budget_is_refused(span, interval):
    # every grid point past lambda = 0 ends an accepted step, so a grid of
    # 1e12 points could never finish; it is refused before it is built.  The
    # dense output budget allows fewer accepted steps than MAX_STEPS
    msg = grid_of(span, interval)
    assert msg.startswith("a sample grid of ")
    assert dense_steps(6) == 3_532_045 < MAX_STEPS
    assert msg.endswith("points needs more accepted steps than the step budget of 3532045")


def test_the_grid_budget_is_that_of_the_state_the_solver_runs():
    # the refusal names min(MAX_STEPS, dense_steps(n)) for the n components
    # that the solver is handed, whatever n is, before f is called
    calls = []
    assert grid_of(1.0, 1e-12).endswith(f"the step budget of {dense_steps(6)}")
    for n in (1, 2, 6, 8):
        budget = min(MAX_STEPS, dense_steps(n))
        with pytest.raises(StepFailure, match=f"the step budget of {budget}$"):
            solve_dopri5(lambda t, y: calls.append(t) or y, (0.0, 1.0), [1.0] * n,
                         sample_interval=1e-12)
    assert calls == []
    assert min(MAX_STEPS, dense_steps(1)) == MAX_STEPS


def test_the_grid_bound_is_the_step_budget(monkeypatch):
    # each point past lambda = 0 ends a step: a grid of 0.1 on (0, 1) lands
    # on 10 points, 1 in place of 10 * 0.1, and passes the bound of 10 steps
    # (the run then stops on the step budget itself); one of 0.099 lands on
    # 11, 0.99 and 1, and is refused before f is called
    monkeypatch.setattr(ptb.dopri, "MAX_STEPS", 10)
    assert grid_of(1.0, 0.1).startswith("step budget 10 exhausted at t = ")
    calls = []
    for interval, points in ((0.099, "11.1"), (0.09, "12.11")):
        with pytest.raises(StepFailure) as info:
            solve_dopri5(lambda t, y: calls.append(t) or y, (0.0, 1.0), [1.0],
                         sample_interval=interval)
        assert str(info.value) == (f"a sample grid of {points} points needs more accepted "
                                   "steps than the step budget of 10")
    assert calls == []
    assert grid_of(1.0, 0.09) == ("a sample grid of 12.11 points needs more accepted steps "
                                  "than the step budget of 10")
    monkeypatch.undo()
    assert grid_of(1.0, 0.1).tolist() == [i * 0.1 for i in range(10)] + [1.0]
    assert grid_of(1.0, 0.099).tolist() == [i * 0.099 for i in range(11)] + [1.0]


def test_the_grid_bound_is_the_dense_budget(monkeypatch):
    # a grid is refused when its steps would pass the dense output budget,
    # 8 (6 * 6 + 2) = 304 bytes a step for the six-component in-plane state
    monkeypatch.setattr(ptb.dopri, "MAX_DENSE_BYTES", 3343)
    assert grid_of(1.0, 0.1).startswith("dense output budget 3343 bytes full at t = ")
    assert grid_of(1.0, 0.09) == ("a sample grid of 12.11 points needs more accepted steps "
                                  "than the step budget of 10")
    monkeypatch.undo()
    assert grid_of(1.0, 1.0 / 3_532_046) == ("a sample grid of 3.532e+06 points needs more "
                                             "accepted steps than the step budget of 3532045")


@settings(max_examples=20)
@given(span=st.floats(0.1, 30.0), k=st.integers(1, 60), stretch=st.floats(0.5, 2.0))
def test_integrate_samples_the_grid_it_built(span, k, stretch):
    # the samples of a grid run: the reference grid's points, each the state
    # of the step that ends there, and its FSAL rates
    shell = mass_shell_from_lambda(1.0, 2.0, 0.25)
    model, interval = HarmonicPotential(0.125), stretch * span / k
    traj = integrate(ReducedState(0.0, np.array([1.2, 0.1, 0.4]), np.array([-0.1, 0.6, 0.05])),
                     shell, model, span, IntegratorOptions(sample_interval=interval))
    assert traj.lam.tobytes() == reference_sample_grid(span, interval).tobytes()
    x = sample_states(traj)
    assert np.array_equal(lift(x, traj.basis), traj.u)
    partials = bound(shell, model)
    assert [rhs(xs, shell, partials)[4:6] for xs in x.tolist()] == list(zip(
        traj.F.tolist(), traj.G.tolist()))


def test_sample_grid_includes_both_ends():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.0)
    st = ReducedState(0.0, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    traj = integrate(st, shell, FreePotential(), 1.0,
                     IntegratorOptions(sample_interval=0.3))
    lams = traj.lam.tolist()
    assert lams[0] == 0.0
    assert lams[-1] == 1.0
    assert lams == sorted(lams)
    # interval wider than the span still emits both ends
    traj2 = integrate(st, shell, FreePotential(), 1.0,
                      IntegratorOptions(sample_interval=5.0))
    assert traj2.lam.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("model, opts", [
    (HarmonicPotential(0.125), IntegratorOptions(sample_interval=0.7)),
    (CentralPowerPotential(-0.5, 1), IntegratorOptions(tol=1e-9)),
    (WMixing(0.8), IntegratorOptions(sample_interval=0.5, strict_time=True)),
], ids=["harmonic-grid", "central_power-free", "w_mixing-strict"])
def test_sample_rates_are_the_fsal_derivative(model, opts):
    # every sample's (F, G) is rhs at exactly that sample's state
    shell = mass_shell_from_lambda(1.0, 2.0, 0.25)
    st = ReducedState(0.0, np.array([1.2, 0.1, 0.4]), np.array([-0.1, 0.6, 0.05]))
    traj = integrate(st, shell, model, 6.0, opts)
    assert len(traj.lam) > 8
    x = sample_states(traj)
    assert np.array_equal(lift(x, traj.basis), traj.u)
    partials = bound(shell, model)
    for F, G, xs in zip(traj.F.tolist(), traj.G.tolist(), x.tolist()):
        assert (F, G) == rhs(xs, shell, partials)[4:6]
    # between samples the dense quadratures advance at the rates rhs gives
    lam, h = 2.345, 1e-4
    F, G = rhs(traj.dense(lam), shell, partials)[4:6]
    slope = (np.array(traj.dense(lam + h)[4:6]) - traj.dense(lam - h)[4:6]) / (2.0 * h)
    assert slope == pytest.approx([F, G], rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("fast, generic", [
    (HarmonicPotential(0.125), Forwarding(HarmonicPotential(0.125))),
    (CentralPowerPotential(-0.1, 1), Forwarding(CentralPowerPotential(-0.1, 1))),
    (CentralPowerPotential(0.7, 2), Forwarding(CentralPowerPotential(0.7, 2))),
], ids=repr)
def test_generic_rest_partials_give_the_same_run(fast, generic):
    # a model that only defines evaluate takes the call path through rhs and
    # the default PotentialSpec.partials_at, the generic rest-frame partials;
    # against the fused kernel stage, the run must not move by one bit
    shell = mass_shell_from_lambda(1.0, 2.0, -0.05)
    st = ReducedState(0.0, np.array([1.0, 0.2, -0.1]), np.array([0.05, 0.3, 0.1]))
    opts = IntegratorOptions(sample_interval=0.5)
    a, b = (synchronize(integrate(st, shell, m, 20.0, opts)) for m in (fast, generic))
    assert a.stats == b.stats
    for name in ("lam", "u", "F", "G", "T", "dTdlambda"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.dense.t, b.dense.t)
    assert np.array_equal(a.dense.groups, b.dense.groups)


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=20)
@given(chi=st.floats(0.05, 0.5), M=st.floats(1.0, 4.0), nu_frac=st.floats(0.0, 0.9),
       A=st.tuples(_UNIT, _UNIT, _UNIT), B=st.tuples(_UNIT, _UNIT, _UNIT),
       probes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_dense_output_follows_the_oscillator(chi, M, nu_frac, A, B, probes):
    # the float-list dense output against the closed form anywhere in the
    # span, and against the emitted samples at every step end
    try:
        p = ToyParams(chi=chi, M=M, A=A, B=B, nu=-nu_frac * 0.5 * M * M)
        shell = shell_for_toy(p)
    except BadParameter:
        assume(False)
    tol, span = 1e-10, 2.0 * p.period
    traj = integrate(state0(p), shell, HarmonicPotential(chi), span, IntegratorOptions(tol=tol))
    for x in probes:
        lam = x * span
        u = dense_u(traj, lam)
        z, y = analytic_state(p, lam)
        assert np.abs(u[0:3] - z).max() <= tol * span
        assert np.abs(u[3:6] - y).max() <= tol * span
        assert abs(u[6] - intF_analytic(p, lam)) <= tol * span
    dense = traj.dense
    assert len(dense.t) - 1 == traj.stats.n_accepted == len(traj.lam) - 1
    for i, (t0, t1) in enumerate(zip(dense.t, dense.t[1:])):
        assert np.array_equal(dense_u(traj, t0), traj.u[i])
        assert np.abs(dense_u(traj, t0 + (t1 - t0)) - traj.u[i + 1]).max() <= 1e-15


@pytest.mark.parametrize("base, args", [(HarmonicPotential, (0.125,)),
                                        (CentralPowerPotential, (-0.5, 1))])
def test_kernel_sees_python_floats_only(base, args):
    # a numpy scalar anywhere in the step loop would reach the model and
    # turn every later stage into slow numpy arithmetic: the generic model
    # records what its evaluate is given at every stage of the loop
    seen = set()

    class Recording(Forwarding):
        def evaluate(self, q):
            seen.update(map(type, astuple(q)))
            return super().evaluate(q)

    shell = mass_shell_from_lambda(1.0, 2.0, 0.25)
    st0 = ReducedState(0.0, np.array([1.2, 0.1, 0.4]), np.array([-0.1, 0.6, 0.05]))
    traj = integrate(st0, shell, Recording(base(*args)), 6.0,
                     IntegratorOptions(sample_interval=0.5, strict_time=True))
    assert traj.stats.n_accepted > 10 and len(traj.lam) == 13
    assert seen == {float}


def test_samples_view_follows_the_columns():
    p, shell = toy_setup()
    traj = integrate(state0(p), shell, HarmonicPotential(p.chi), 5.0,
                     IntegratorOptions(sample_interval=0.5))
    # synchronize hands a trajectory back as it is, its clock included
    sync = synchronize(traj)
    assert sync is traj and synchronize(sync) is sync
    # the view, a shim the benchmark reads, holds lambda, ztil, ytil and T
    assert [f.name for f in fields(TrajectorySample)] == ["state", "T"]
    assert [f.name for f in fields(ReducedState)] == ["lambda_", "ztil", "ytil"]
    assert len(sync.samples) == len(sync.lam) == 11
    for i, s in enumerate(sync.samples):
        assert s.state.lambda_ == sync.lam[i] and s.T == sync.T[i]
        assert np.array_equal(s.state.ztil, sync.ztil[i])
        assert np.array_equal(s.state.ytil, sync.ytil[i])
    # the column clock is the scalar formulas applied sample by sample
    for lam, u, F, G, *clock in zip(*(c.tolist() for c in (
            sync.lam, sync.u, sync.F, sync.G, sync.tau1, sync.tau2, sync.T, sync.dTdlambda))):
        assert clock == [*(equal_time_clock(lam, u[6], u[7], shell)[i] for i in (0, 1, 3)),
                         dT_dlambda(F, G, shell)]
    # a replaced trajectory gets a view of its own columns, unless given one
    shifted = replace(sync, lam=sync.lam + 1.0)
    assert shifted.samples[0].state.lambda_ == 1.0
    assert shifted.samples[0].T == shifted.T[0] != sync.T[0]
    explicit = tuple(sync.samples)[:2]
    assert replace(sync, samples=explicit).samples is explicit


_BUILTIN_MODELS = st.one_of(
    st.just(FreePotential()),
    st.builds(HarmonicPotential, st.floats(1e-3, 10.0)),
    st.builds(CentralPowerPotential,
              st.floats(-10.0, 10.0).filter(lambda g: abs(g) > 1e-3), st.integers(1, 4)))


def _attempt_or_error(attempt, *args):
    """The attempt's end, its group unpacked and its error sum, or its refusal."""
    try:
        end, group, s = attempt(*args)
    except DomainError as e:
        return type(e), str(e)
    return end, array("d", group).tolist(), s


@settings(max_examples=200)
@given(_BUILTIN_MODELS, st.floats(-0.9, 5.0), st.floats(1.0, 4.0),
       st.lists(st.floats(-3.0, 3.0), min_size=11, max_size=11), st.floats(1e-6, 2.0))
def test_the_fused_attempt_is_the_call_path_attempt(model, lam, m2, v, h):
    # every stage inline from the kernel's source, with no call, against the
    # attempt that calls rhs: the end (y_new, k7), the dense group and the
    # error sum are Python floats equal to its own (only the sign of a zero may
    # differ), and a refusal is the same error; the start's rate of intG is the
    # G = 0 of a kernel model, which the fused stage never sets
    u, k1 = v[:6], [*v[6:], 0.0]
    assume(u[0] * u[0] + u[1] * u[1] > 1e-6)
    shell = mass_shell_from_lambda(1.0, m2, lam)
    source, c = fused_stage(shell, model)
    start, partials = (*u, *k1), bound(shell, model)
    fused = _attempt_or_error(dopri._attempt(6, source), c, 0.5, h, 0.5 + h, start)
    generic = _attempt_or_error(dopri._attempt(6), lambda t, y: rhs(y, shell, partials),
                                0.5, h, 0.5 + h, start)
    assert fused == generic
    if not isinstance(fused[0], type):
        assert all(type(x) is float for x in (*fused[0], fused[2]))
        # intG keeps its value, and its rates are zero, in every block
        assert fused[0][5] == u[5] and fused[0][11] == 0.0 and fused[1][5::6] == [u[5]] + [0.0] * 5


@pytest.mark.parametrize("model, z0, text", [
    (CentralPowerPotential(-1.0, 1), 0.0,
     "central_power requires spacelike separation ztil2 < 0, got -0.0"),
    (CentralPowerPotential(-1.0, 3), 1e-125, "central_power overflows at ztil2 = "),
])
def test_the_fused_attempt_refuses_what_rhs_refuses(model, z0, text):
    # k1 = 0 keeps the second stage at the start state
    shell = mass_shell_from_lambda(1.0, 2.0, 0.0)
    u = [z0, 0.0, 0.3, 0.0, 0.0, 0.0]
    source, c = fused_stage(shell, model)
    errors = []
    with pytest.raises(DomainError) as info:
        dopri._attempt(6, source)(c, 0.0, 0.1, 0.1, (*u, *[0.0] * 6))
    errors.append(str(info.value))
    with pytest.raises(DomainError) as info:
        rhs(u, shell, bound(shell, model))
    errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(text)


@pytest.mark.parametrize("method", ["partials_at", "evaluate"])
def test_a_kernel_model_refuses_a_method_of_its_own(method):
    # the motion, N and the shell closure must read one V: a kernel model
    # that wrote one of them would run on two
    own = {method: lambda self, *args: None}
    with pytest.raises(TypeError, match=f"^Own has its own {method}: "):
        type("Own", (HarmonicPotential,), own)
    # from a mixin ahead of the kernel model too; a mixin's partials_at is
    # shadowed by the one compiled from _source, and is harmless
    if method != "partials_at":
        with pytest.raises(TypeError, match=f"^Own has its own {method}: "):
            type("Own", (type("Mixin", (), own), HarmonicPotential), {})


def test_lines_per_ztil2_that_rebind_a_name_of_the_head_are_refused():
    # the head runs once per kernel binding and the lines per ztil2 at every
    # call: root2 rebound there would be unbound in the kernel, and the fused
    # stage would move it again at every stage
    source = """
        root = math.sqrt(P2)
        dztil2, root2 = chi * root, 2.0 * root
        # per ztil2
        root2 = root2 + 1.0
        V = dztil2 * ztil2
        dP2 = chi * ztil2 / root2
    """
    with pytest.raises(TypeError, match="^Bumped's lines per ztil2 rebind the head's root2$"):
        type("Bumped", (HarmonicPotential,), {"_source": source})


@pytest.mark.parametrize("name", ["b", "h"])
def test_a_source_that_binds_a_name_of_the_fused_stage_is_refused(monkeypatch, name):
    # the fused stage and the attempt share one scope with the kernel's
    # source: b would be the stage's -2 dV/dztil2 after the first stage, h the
    # attempt's step size; the run is refused before its first step, and the
    # call path, where the names do not meet, still integrates the model
    source = f"""
        root = math.sqrt(P2)
        dztil2, {name} = chi * root, 2.0 * root
        # per ztil2
        V = dztil2 * ztil2
        dP2 = chi * ztil2 / {name}
    """
    model = type("Clashing", (HarmonicPotential,), {"_source": source})(0.125)
    calls = []
    monkeypatch.setattr(ptb.reduced, "rhs", lambda *args: calls.append(args) or rhs(*args))
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    with pytest.raises(TypeError, match=f"^Clashing's _source binds {name}, a name of the "
                                        "fused stage$"):
        integrate(st0, shell, model, 5.0)
    assert calls == []
    a, b = (integrate(st0, shell, m, 5.0)
            for m in (Forwarding(model), HarmonicPotential(0.125)))
    assert a.stats.n_accepted == b.stats.n_accepted > 10 and np.array_equal(a.u, b.u)


def test_a_fused_run_keeps_intG_at_zero():
    # the fused stage sets no rate for intG: after the first stage, which rhs
    # gives as 2 nu * 0.0, every block of that component is +0.0
    shell = mass_shell_from_lambda(1.0, 2.0, -0.3)
    assert shell.nu < 0.0
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    for model in (FreePotential(), HarmonicPotential(0.3), CentralPowerPotential(-0.5, 1)):
        traj = integrate(st0, shell, model, 5.0, IntegratorOptions(sample_interval=0.5))
        blocks = traj.dense.groups[:, :, 5]
        assert blocks[0].tolist() == [0.0] * 5 + [2.0 * shell.nu * 0.0]
        assert blocks[1:].tobytes() == bytes(8 * blocks[1:].size) and len(blocks) > 10
        assert traj.u[:, 7].tobytes() == bytes(8 * len(traj.lam))


@pytest.mark.parametrize("model", [HarmonicPotential(0.3), CentralPowerPotential(-0.5, 1)],
                         ids=repr)
def test_the_head_runs_once_per_binding(monkeypatch, model):
    # a run binds the model once on its shell, and the fused stage takes its
    # constants from that binding: the attempt holds no head
    cls, calls = type(model), []
    bind = cls.partials_at
    monkeypatch.setattr(cls, "partials_at",
                        lambda self, *args: calls.append(args) or bind(self, *args))
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    traj = integrate(st0, shell, model, 5.0)
    assert calls == [(shell.M2, shell.nu)] and len(traj.lam) > 10
    (head, body, names), c = fused_stage(shell, model)
    assert "sqrt" not in head + body
    assert "sqrt" not in dopri._attempt(6, (head, body, names)).__code__.co_names
    # the constants are 2 M2 and the bound partials' cells, in co_freevars order
    partials = bind(model, shell.M2, shell.nu)
    assert c == (2.0 * shell.M2, *(v.cell_contents for v in partials.__closure__))
    assert head == f"M2x2, {', '.join(partials.__code__.co_freevars)}, = c\n"


class CountedHead(HarmonicPotential):
    """The harmonic model whose head records P2 in heads at every run."""

    _source = "\n        self.heads.append(P2)" + HarmonicPotential._source

    def __init__(self, chi):
        super().__init__(chi)
        self.heads = []


_ST0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))


@pytest.mark.parametrize("consume", [
    lambda model, shell, traj: integrate(_ST0, shell, model, 5.0),
    lambda model, shell, traj: find_circular(model, shell, 1.0),
    lambda model, shell, traj: resample_uniform_T(traj, 37),
    lambda model, shell, traj: traj.first_integrals,
], ids=["integrate", "find_circular", "resample_uniform_T", "first_integrals"])
def test_the_head_runs_once_per_call_of(consume):
    # each consumer binds the model once on its shell: the head (the P2 > 0
    # check and sqrt(P2)) runs once, not per stage, radius or sample
    model, shell = CountedHead(0.3), mass_shell_from_lambda(1.0, 2.0, 0.1)
    traj = integrate(_ST0, shell, model, 5.0)
    model.heads.clear()
    consume(model, shell, traj)
    assert model.heads == [shell.M2]


def test_the_fused_stage_runs_each_kernel_line_as_written():
    # the stage inlines the lines per ztil2 that partials_at compiles, V included
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    for model in (FreePotential(), HarmonicPotential(0.3), CentralPowerPotential(-0.5, 1)):
        lines = dedent(type(model)._source).split("# per ztil2\n")[1]
        assert lines in fused_stage(shell, model)[0][1]
    assert "V = dztil2 * ztil2\n" in fused_stage(shell, HarmonicPotential(0.3))[0][1]


class PlainHarmonic(HarmonicPotential):
    pass


class Quartic(HarmonicPotential):
    """V = -chi sqrt(P2) ztil2^2, an anharmonic spring: a kernel model of _source alone."""

    _source = """
        root = math.sqrt(P2)
        # per ztil2
        V = -chi * root * ztil2 * ztil2
        dztil2 = -2.0 * chi * root * ztil2
        dP2 = V / (2.0 * P2)
    """


def test_only_a_kernel_compiled_from_its_source_is_fused():
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    for model in (PlainHarmonic(0.3), Quartic(0.3)):
        assert fused_stage(shell, model) is not None
    for model in (Forwarding(HarmonicPotential(0.3)), BareSpring(0.2)):
        assert fused_stage(shell, model) is None


def test_rhs_is_the_call_for_k1_the_probe_and_each_resample(monkeypatch):
    # a kernel model's run calls rhs, through the module attribute, for the
    # first stage and the first-step probe alone; any other model's run calls
    # it for every stage; resampling calls it once per sample
    calls = []

    def counted(x, shell, partials):
        calls.append(x)
        return rhs(x, shell, partials)

    monkeypatch.setattr(ptb.reduced, "rhs", counted)
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    for model in (FreePotential(), HarmonicPotential(0.3), CentralPowerPotential(-0.5, 1),
                  Forwarding(HarmonicPotential(0.3))):
        calls.clear()
        traj = integrate(st0, shell, model, 5.0)
        assert len(calls) == (traj.stats.n_rhs if isinstance(model, Forwarding) else 2)
        assert traj.stats.n_rhs > 2
        calls.clear()
        resample_uniform_T(traj, 37)
        assert len(calls) == 37


def test_a_new_source_is_fused_and_read_by_every_layer():
    # the fused run of a kernel model of its own _source is the generic run
    # of the same model, bit for bit, and N is the same column
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    a, b = (integrate(st0, shell, m, 5.0) for m in (Quartic(0.3), Forwarding(Quartic(0.3))))
    assert (a.stats.n_accepted, a.stats.n_rhs) == (b.stats.n_accepted, b.stats.n_rhs) and a.stats.n_accepted > 10
    assert np.array_equal(a.u, b.u) and np.array_equal(a.F, b.F)
    assert a.first_integrals[0].tobytes() == b.first_integrals[0].tobytes()
    # and that V is the new one, not the harmonic model's it derives from
    V = Quartic(0.3).evaluate(rest_quintet(st0.ztil, st0.ytil, shell)).value
    assert V == pytest.approx(-0.3 * shell.M * 1.04 ** 2, rel=1e-14)


def test_the_fused_attempt_compiles_once_per_model_class():
    # the constants of the shell and the model are bound at run time
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    integrate(st0, mass_shell_from_lambda(1.0, 2.0, 0.1), CentralPowerPotential(-0.5, 1), 2.0)
    size = dopri._attempt.cache_info().currsize
    traj = integrate(st0, mass_shell_from_lambda(1.5, 2.5, -0.2), CentralPowerPotential(0.3, 3),
                     2.0)
    assert traj.stats.n_accepted > 0
    assert dopri._attempt.cache_info().currsize == size


def test_first_integrals_read_the_kernel_as_evaluate_does():
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    a, b = (integrate(st0, shell, m, 5.0)
            for m in (HarmonicPotential(0.3), Forwarding(HarmonicPotential(0.3))))
    assert np.array_equal(a.u, b.u)
    for x, y in zip(a.first_integrals, b.first_integrals):
        assert x.tobytes() == y.tobytes()


def test_an_evaluate_only_model_goes_through_the_module_rhs(monkeypatch):
    # tracing swaps ptb.reduced.rhs; a model without the kernel fast path
    # must keep reaching it
    calls = []
    generic = ptb.reduced.rhs

    def counting(*args):
        calls.append(1)
        return generic(*args)

    monkeypatch.setattr(ptb.reduced, "rhs", counting)
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.4, 0.0]))
    traj = integrate(st0, shell, BareSpring(0.2), 2.0)
    assert len(calls) == traj.stats.n_rhs > 0
    # a builtin runs its stages fused and calls the module rhs for k1 and
    # the first-step probe alone
    integrate(st0, shell, HarmonicPotential(0.2), 2.0)
    assert len(calls) == traj.stats.n_rhs + 2


# the in-plane integration against the eight-component reference of
# reduced_reference: builtin models, and WMixing for a generic model with G
_PLANE_MODELS = st.one_of(
    st.just(FreePotential()),
    st.builds(HarmonicPotential, st.floats(0.05, 2.0)),
    st.builds(CentralPowerPotential, st.floats(-0.5, -0.05), st.just(1)),
    st.builds(CentralPowerPotential, st.floats(0.05, 2.0), st.integers(1, 3)),
    st.builds(WMixing, st.floats(0.1, 2.0)))
_VEC = st.tuples(*[st.floats(-2.0, 2.0)] * 3).map(np.array)


def _orbit_start(z, y):
    """z and y as a start whose eta has a part of at least 0.3 across zeta,
    so that no attractive orbit falls onto the center."""
    n = np.linalg.norm(z)
    assume(0.5 <= n)
    across = y - (y @ z) / (n * n) * z
    assume(np.linalg.norm(across) >= 0.3)
    return ReducedState(0.0, z, y)


def assert_orthonormal(basis):
    assert basis.shape == (2, 3)
    assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-15


def assert_matches_reference(traj, model, span, tol=1e-10, sample_interval=None):
    """traj within tol * span of the eight-component reference run from
    the same start, at every sample on a grid and at both ends otherwise,
    on the solver's scale: 1 + the largest magnitude of each column."""
    st0 = ReducedState(0.0, traj.u[0, 0:3], traj.u[0, 3:6])
    ref = reduced_reference.solve(st0, traj.shell, model, span, tol, sample_interval)
    rows = slice(None) if sample_interval else [0, -1]
    assert np.array_equal(ref.t[rows], traj.lam[rows])
    got = np.column_stack((traj.u, traj.F, traj.G))[rows]
    want = np.column_stack((ref.y, ref.dy[:, 6:8]))[rows]
    assert (np.abs(got - want) <= tol * span * (1.0 + np.abs(want).max(axis=0))).all()


@settings(max_examples=40, deadline=None)
@given(_PLANE_MODELS, st.floats(-0.5, 2.0), st.floats(1.0, 4.0), _VEC, _VEC,
       st.floats(1.0, 10.0), st.booleans())
def test_the_planar_run_is_the_reference_run(model, lam, m2, z, y, span, grid):
    shell = mass_shell_from_lambda(1.0, m2, lam)
    opts = IntegratorOptions(sample_interval=span / 16 if grid else None)
    traj = integrate(_orbit_start(z, y), shell, model, span, opts)
    assert_orthonormal(traj.basis)
    assert_matches_reference(traj, model, span, sample_interval=opts.sample_interval)


def _rotation(q):
    """The rotation matrix of the quaternion q, normalized."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@settings(max_examples=40, deadline=None)
@given(_PLANE_MODELS, st.floats(-0.5, 2.0), st.floats(1.0, 4.0), _VEC, _VEC,
       st.tuples(*[st.floats(-1.0, 1.0)] * 4).map(np.array), st.booleans())
@example(WMixing(1.368468207999874), 1.0, 1.955078125, np.array([1.75, -1.0, 0.90625]),
         np.array([0.9375, 0.859375, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]), False)
def test_a_rotated_start_gives_the_rotated_run(model, lam, m2, z, y, q, grid):
    # the step count does not depend on the orientation of the orbit.  The
    # in-plane starts differ in their last bits, and the error estimate of a
    # step resolves them, so free steps end at lambdas that differ at about
    # 1e-7: only the ends of a free run are the same lambdas.  A near fall
    # onto the center (thousands of steps) amplifies those bits past 1e-12.
    # The example's first error estimates, 7.4e-6 and 6.3e-6 of tol, are
    # rounding; the controller reads both as 1e-4, else the runs take 239
    # and 238 steps
    assume(np.linalg.norm(q) >= 0.1)
    R = _rotation(q)
    shell = mass_shell_from_lambda(1.0, m2, lam)
    opts = IntegratorOptions(sample_interval=0.5 if grid else None)
    a = integrate(_orbit_start(z, y), shell, model, 6.0, opts)
    assume(a.stats.n_accepted <= 2000)
    b = integrate(ReducedState(0.0, R @ z, R @ y), shell, model, 6.0, opts)
    assert (a.stats.n_accepted, a.stats.n_rejected) == (b.stats.n_accepted, b.stats.n_rejected)
    rows = slice(None) if grid else [0, -1]
    assert np.array_equal(a.lam[rows], b.lam[rows])
    u = a.u[rows]
    turned = np.hstack((u[:, 0:3] @ R.T, u[:, 3:6] @ R.T, u[:, 6:8]))
    assert np.abs(b.u[rows] - turned).max() <= 1e-12 * np.abs(u).max()
    for col in ("F", "G", "T"):
        want = getattr(a, col)[rows]
        assert np.abs(getattr(b, col)[rows] - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def _tilted(z, angle):
    """A vector of the length of z at angle (radians) from it."""
    across = np.cross(z, [0.3, -0.5, 0.8])
    across *= np.linalg.norm(z) / np.linalg.norm(across)
    return math.cos(angle) * z + math.sin(angle) * across


_Z0 = np.array([0.6, -0.8, 1.1])


_DEGENERATE = {"eta-parallel": (_Z0, -0.4 * _Z0), "eta-at-1e-12-rad": (_Z0, 0.7 * _tilted(_Z0, 1e-12)),
               "eta-zero": (_Z0, np.zeros(3))}


@pytest.mark.parametrize("z, y, model", [
    *((z, y, m) for z, y in _DEGENERATE.values()
      for m in (HarmonicPotential(0.5), CentralPowerPotential(0.8, 2))),
    (np.zeros(3), np.array([0.2, 0.5, -0.3]), HarmonicPotential(0.5)),  # central_power needs zeta
], ids=[f"{k}-{m}" for k in _DEGENERATE for m in ("harmonic", "central_power")] + ["zeta-zero"])
def test_degenerate_starts_get_an_orthonormal_plane(z, y, model):
    # a radial or resting start spans no plane: any plane that holds it will do
    shell = mass_shell_from_lambda(1.0, 2.0, 0.3)
    traj = integrate(ReducedState(0.0, z, y), shell, model, 5.0,
                     IntegratorOptions(sample_interval=0.25))
    assert_orthonormal(traj.basis)
    for v in (z, y):
        assert np.abs(v - traj.basis.T @ (traj.basis @ v)).max() <= 1e-15 * max(1.0, np.abs(v).max())
    assert_matches_reference(traj, model, 5.0, sample_interval=0.25)
    assert np.abs(traj.u[0, 0:6] - np.concatenate((z, y))).max() <= 1e-15


def test_strict_clock_stops_within_a_step_of_the_first_crossing():
    # the toy oscillator on a foreign shell: its clock rate starts positive
    # and first turns negative at lam_star, in closed form; the strict check
    # reads the quadratures' rates from the in-plane dense groups, and must
    # stop at the end of the step that holds lam_star
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    p = ToyParams(chi=1.0, M=shell.M, A=(1.5, 1.0, -1.0), B=(0.1, -0.2, 0.3), nu=shell.nu)
    assert min_dT_dlambda(p) < 0.0 < dT_dlambda_analytic(p, 0.0)
    assert sufficient_condition_margin(p) < 0.0
    lam_star = brentq(lambda lam: dT_dlambda_analytic(p, lam), 0.0, 0.25 * p.period, xtol=1e-15)
    for sample_interval in (None, 0.05):
        with pytest.raises(NonMonotoneTime) as info:
            integrate(state0(p), shell, HarmonicPotential(p.chi), p.period,
                      IntegratorOptions(sample_interval=sample_interval, strict_time=True))
        msg = str(info.value)
        lam, h = (float(msg.split(key)[1].split(" ")[0]) for key in ("at lambda = ",
                                                                      "step of h = "))
        assert lam_star <= lam <= lam_star + h, (lam_star, lam, h)
