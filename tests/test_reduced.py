import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ptb.errors import BadParameter, NonMonotoneTime, NotSynchronized, OutOfRange
from ptb.kinematics import noether_N
from ptb.mass_shell import mass_shell_from_lambda
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
    dT_dlambda,
    equal_time_clock,
    integrate,
    require_synchronized,
    rest_quintet,
    rhs,
    synchronize,
)
from ptb.toy import (
    ToyParams,
    analytic_T,
    analytic_state,
    initial_state,
    intF_analytic,
    shell_for_toy,
)


def toy_setup():
    p = ToyParams(chi=0.125, M=4.0, A=(1.0, 0.0, 0.0), B=(0.0, 0.5, 0.0),
                  nu=-1.5)
    return p, shell_for_toy(p)


def state0(p):
    z, y = initial_state(p)
    return ReducedState(0.0, np.array(z), np.array(y))


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
    for s in traj.samples:
        lam = s.state.lambda_
        assert np.allclose(s.state.ztil, z0 + lam * y0, rtol=1e-13, atol=1e-13)
        assert np.allclose(s.state.ytil, y0, rtol=0, atol=1e-14)
        assert s.state.intF == 0.0 and s.state.intG == 0.0
        assert s.T == pytest.approx(drift * lam, rel=1e-13, abs=1e-15)
        assert s.tau1 == pytest.approx(0.5 * lam - shell.nu * lam / shell.M2,
                                       rel=1e-13, abs=1e-15)
    assert traj.monotone is True


def test_rhs_harmonic_matches_hand_formula():
    p, shell = toy_setup()
    st = ReducedState(0.0, np.array([0.3, -0.7, 0.2]), np.array([0.1, 0.4, -0.2]))
    du = rhs(np.concatenate((st.ztil, st.ytil, (0.0, 0.0))), shell, HarmonicPotential(p.chi))
    dz, dy, F, G = du[0:3], du[3:6], du[6], du[7]
    assert np.allclose(dz, st.ytil, atol=0)
    assert np.allclose(dy, -2.0 * p.chi * shell.M * st.ztil, rtol=1e-15)
    assert F == pytest.approx(-p.chi * shell.M * float(st.ztil @ st.ztil), rel=1e-15)
    assert G == 0.0


def test_harmonic_matches_toy_oracle():
    p, shell = toy_setup()
    opts = IntegratorOptions(tol=1e-12, sample_interval=p.period / 8.0)
    traj = synchronize(integrate(state0(p), shell, HarmonicPotential(p.chi),
                                 2.0 * p.period, opts))
    for s in traj.samples:
        lam = s.state.lambda_
        z, y = analytic_state(p, lam)
        assert np.allclose(s.state.ztil, z, atol=5e-11)
        assert np.allclose(s.state.ytil, y, atol=5e-11)
        assert s.state.intF == pytest.approx(intF_analytic(p, lam), abs=5e-11)
        assert s.state.intG == 0.0
        assert s.T == pytest.approx(analytic_T(p, lam), abs=5e-11)
    assert traj.monotone is True


def test_dense_output_between_samples():
    p, shell = toy_setup()
    traj = integrate(state0(p), shell, HarmonicPotential(p.chi), p.period,
                     IntegratorOptions(tol=1e-12, sample_interval=p.period / 4.0))
    for lam in np.linspace(0.0, p.period, 37):
        u = traj.vector_at(float(lam))
        z, y = analytic_state(p, float(lam))
        assert np.allclose(u[0:3], z, atol=1e-10)
        assert np.allclose(u[3:6], y, atol=1e-10)
    with pytest.raises(OutOfRange):
        traj.vector_at(p.period * 1.01)
    with pytest.raises(OutOfRange):
        traj.vector_at(-1e-9)


def test_dense_clock_matches_grid_samples():
    # the clock of a dense-output state, with its rates from rhs, agrees
    # with the synchronized sample at the same lambda
    p, shell = toy_setup()
    model = HarmonicPotential(p.chi)
    traj = synchronize(integrate(state0(p), shell, model, 5.0,
                                 IntegratorOptions(sample_interval=0.5)))
    for s in traj.samples[1:]:
        lam = s.state.lambda_
        u = traj.vector_at(lam)
        tau1, _, _, T = equal_time_clock(lam, u[6], u[7], shell)
        F, G = rhs(u.tolist(), shell, model)[6:8]
        assert T == pytest.approx(s.T, rel=1e-12)
        assert tau1 == pytest.approx(s.tau1, rel=1e-12)
        assert dT_dlambda(F, G, shell) == pytest.approx(s.dTdlambda, rel=1e-12)


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
    for s in traj.samples[1:]:
        lam = s.state.lambda_
        assert np.allclose(s.state.ztil, zeta(lam), atol=1e-10)
        want_G, err = quad(G_rate, 0.0, lam, epsabs=1e-13, epsrel=1e-13)
        assert s.state.intG == pytest.approx(want_G, abs=1e-9)
        assert s.state.intF == 0.0
        delta = -(2.0 / shell.M2) * (shell.nu * lam + want_G)
        assert (s.tau1 - s.tau2) == pytest.approx(delta, abs=1e-9)
        want_T = (0.5 * shell.nu * delta + 0.25 * shell.M2 * lam) / shell.M
        assert s.T == pytest.approx(want_T, abs=1e-9)


def test_quadrature_free_force_keeps_T_linear():
    # a model with dV/dP2 = dV/dw = 0 bends the orbit but not the clock
    shell = mass_shell_from_lambda(1.0, 2.0, 0.5)
    model = BareSpring(0.7)
    traj = synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.8, 0.3])),
        shell, model, 12.0, IntegratorOptions(tol=1e-12, sample_interval=1.0)))
    drift = 0.25 * shell.M - shell.nu ** 2 / shell.M ** 3
    # the force is active: eta is not constant
    assert not np.allclose(traj.samples[-1].state.ytil,
                           traj.samples[0].state.ytil, atol=1e-3)
    for s in traj.samples:
        assert s.F == 0.0 and s.G == 0.0
        assert s.T == pytest.approx(drift * s.state.lambda_, rel=1e-12, abs=1e-12)


def test_central_motion_stays_planar():
    # initial data span a tilted plane; a central force must preserve it
    p, shell = toy_setup()
    z0 = np.array([1.0, 0.5, -0.3])
    y0 = np.array([-0.2, 0.8, 0.4])
    normal = np.cross(z0, y0)
    normal /= np.linalg.norm(normal)
    traj = integrate(ReducedState(0.0, z0, y0), shell,
                     HarmonicPotential(0.25), 25.0, IntegratorOptions(tol=1e-11))
    for s in traj.samples:
        assert abs(float(s.state.ztil @ normal)) < 1e-9
        assert abs(float(s.state.ytil @ normal)) < 1e-9


def test_conserved_quantities_drift_slowly():
    p, shell = toy_setup()
    model = HarmonicPotential(p.chi)
    traj = integrate(state0(p), shell, model, 3.0 * p.period,
                     IntegratorOptions(tol=1e-11))
    Ns, L2s = [], []
    for s in traj.samples:
        q = rest_quintet(s.state.ztil, s.state.ytil, shell)
        Ns.append(noether_N(q, model.evaluate(q).value))
        z, y = s.state.ztil, s.state.ytil
        L2s.append(float((z @ z) * (y @ y) - (z @ y) ** 2))
    assert max(Ns) - min(Ns) < 1e-9
    assert max(L2s) - min(L2s) < 1e-9
    # N = -Lambda on shell-consistent data
    assert Ns[0] == pytest.approx(-shell.lambda_, rel=1e-12)


def test_strict_time_aborts_on_nonmonotone():
    # shell deliberately inconsistent with the initial data: the harmonic
    # F term overwhelms the clock rate when |zeta| is large
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    big = ReducedState(0.0, np.array([0.0, 8.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    with pytest.raises(NonMonotoneTime) as info:
        integrate(big, shell, HarmonicPotential(1.0), 5.0,
                  IntegratorOptions(strict_time=True))
    msg = str(info.value)
    assert "at lambda = " in msg and "after a step of h = " in msg


def test_relaxed_mode_flags_instead():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    big = ReducedState(0.0, np.array([0.0, 8.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    traj = synchronize(integrate(big, shell, HarmonicPotential(1.0), 5.0,
                                 IntegratorOptions(sample_interval=0.5)))
    assert traj.monotone is False
    assert any(s.flagged for s in traj.samples)
    assert all(not (s.dTdlambda > 0.0) for s in traj.samples if s.flagged)


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
    with pytest.raises(ValueError):
        integrate(ReducedState(1.0, st.ztil, st.ytil), shell, FreePotential(), 1.0)
    with pytest.raises(ValueError):
        integrate(st, shell, FreePotential(), 1.0,
                  IntegratorOptions(sample_interval=-1.0))


def test_sample_grid_includes_both_ends():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.0)
    st = ReducedState(0.0, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    traj = integrate(st, shell, FreePotential(), 1.0,
                     IntegratorOptions(sample_interval=0.3))
    lams = [s.state.lambda_ for s in traj.samples]
    assert lams[0] == 0.0
    assert lams[-1] == 1.0
    assert lams == sorted(lams)
    # interval wider than the span still emits both ends
    traj2 = integrate(st, shell, FreePotential(), 1.0,
                      IntegratorOptions(sample_interval=5.0))
    assert [s.state.lambda_ for s in traj2.samples] == [0.0, 1.0]


def test_require_synchronized():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.0)
    st = ReducedState(0.0, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    traj = integrate(st, shell, FreePotential(), 1.0)
    with pytest.raises(NotSynchronized):
        require_synchronized(traj)
    require_synchronized(synchronize(traj))
    # synchronize is idempotent
    sync = synchronize(traj)
    assert synchronize(sync) is sync


def _vector(s):
    st = s.state
    return np.concatenate((st.ztil, st.ytil, (st.intF, st.intG)))


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
    assert len(traj.samples) > 8
    for s in traj.samples:
        F, G = rhs(_vector(s).tolist(), shell, model)[6:8]
        assert (s.F, s.G) == (F, G)
    # between samples the dense quadratures advance at the rates rhs gives
    lam, h = 2.345, 1e-4
    F, G = rhs(traj.vector_at(lam).tolist(), shell, model)[6:8]
    slope = (traj.vector_at(lam + h)[6:8] - traj.vector_at(lam - h)[6:8]) / (2.0 * h)
    assert slope == pytest.approx([F, G], rel=1e-6, abs=1e-9)


class HarmonicViaEvaluate(HarmonicPotential):
    rest_partials = PotentialSpec.rest_partials


class CentralPowerViaEvaluate(CentralPowerPotential):
    rest_partials = PotentialSpec.rest_partials


@pytest.mark.parametrize("fast, generic", [
    (HarmonicPotential(0.125), HarmonicViaEvaluate(0.125)),
    (CentralPowerPotential(-0.1, 1), CentralPowerViaEvaluate(-0.1, 1)),
    (CentralPowerPotential(0.7, 2), CentralPowerViaEvaluate(0.7, 2)),
], ids=repr)
def test_generic_rest_partials_give_the_same_run(fast, generic):
    # a model that only defines evaluate takes the default path of
    # PotentialSpec.rest_partials; the run must not move by one bit
    shell = mass_shell_from_lambda(1.0, 2.0, -0.05)
    st = ReducedState(0.0, np.array([1.0, 0.2, -0.1]), np.array([0.05, 0.3, 0.1]))
    opts = IntegratorOptions(sample_interval=0.5)
    a, b = (synchronize(integrate(st, shell, m, 20.0, opts)) for m in (fast, generic))
    assert (a.n_accepted, a.n_rejected, a.n_rhs) == (b.n_accepted, b.n_rejected, b.n_rhs)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(_vector(sa), _vector(sb))
        assert (sa.F, sa.G, sa.T, sa.dTdlambda) == (sb.F, sb.G, sb.T, sb.dTdlambda)
    assert (a.dense.t0, a.dense.h, a.dense.data) == (b.dense.t0, b.dense.h, b.dense.data)


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
        u = traj.vector_at(lam)
        z, y = analytic_state(p, lam)
        assert np.abs(u[0:3] - z).max() <= tol * span
        assert np.abs(u[3:6] - y).max() <= tol * span
        assert abs(u[6] - intF_analytic(p, lam)) <= tol * span
    dense = traj.dense
    assert len(dense.t0) == traj.n_accepted == len(traj.lam) - 1
    for i, (t0, h) in enumerate(zip(dense.t0, dense.h)):
        assert dense(t0) == traj.u[i].tolist()
        assert np.abs(np.array(dense(t0 + h)) - traj.u[i + 1]).max() <= 1e-15


@pytest.mark.parametrize("base, args", [(HarmonicPotential, (0.125,)),
                                        (CentralPowerPotential, (-0.5, 1))])
def test_kernel_sees_python_floats_only(base, args):
    # a numpy scalar anywhere in the step loop would reach the kernel and
    # turn every later stage into slow numpy arithmetic
    seen = set()

    class Recording(base):
        def rest_partials(self, *partials_args):
            seen.update(map(type, partials_args))
            return super().rest_partials(*partials_args)

    shell = mass_shell_from_lambda(1.0, 2.0, 0.25)
    st0 = ReducedState(0.0, np.array([1.2, 0.1, 0.4]), np.array([-0.1, 0.6, 0.05]))
    traj = integrate(st0, shell, Recording(*args), 6.0,
                     IntegratorOptions(sample_interval=0.5, strict_time=True))
    assert traj.n_accepted > 10
    assert seen == {float}


def test_samples_view_follows_the_columns():
    p, shell = toy_setup()
    traj = integrate(state0(p), shell, HarmonicPotential(p.chi), 5.0,
                     IntegratorOptions(sample_interval=0.5))
    assert all(math.isnan(s.T) and not s.flagged for s in traj.samples)
    sync = synchronize(traj)
    assert len(sync.samples) == len(sync.lam) == 11
    for i, s in enumerate(sync.samples):
        assert s.state.lambda_ == sync.lam[i]
        assert np.array_equal(_vector(s), sync.u[i])
        assert (s.F, s.G) == (sync.F[i], sync.G[i])
        assert (s.tau1, s.tau2, s.T, s.dTdlambda) == \
            (sync.tau1[i], sync.tau2[i], sync.T[i], sync.dTdlambda[i])
        assert s.flagged == sync.flagged[i]
    # the column clock is the scalar formulas applied sample by sample
    for s in sync.samples:
        st = s.state
        assert (s.tau1, s.tau2, s.T) == tuple(
            equal_time_clock(st.lambda_, st.intF, st.intG, shell)[i] for i in (0, 1, 3))
        assert s.dTdlambda == dT_dlambda(s.F, s.G, shell)
    # a replaced trajectory gets a view of its own columns, unless given one
    shifted = replace(sync, lam=sync.lam + 1.0)
    assert shifted.samples[0].state.lambda_ == 1.0
    explicit = tuple(sync.samples)[:2]
    assert replace(sync, samples=explicit).samples is explicit
