"""The n = 1 central_power orbit against Kepler's closed form (tests/kepler.py):
the state and the clock off the circle, and the paper's claim that lambda is
a linear function of the centre-of-mass time only on a circle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kepler import KeplerOrbit
from ptb.binding import self_consistent_circular, self_consistent_shell
from ptb.mass_shell import mass_shell_from_lambda
from ptb.potentials import CentralPowerPotential
from ptb.reduced import IntegratorOptions, ReducedState, integrate

TOL = 1e-10
MODEL = CentralPowerPotential(-0.1, 1)


def kepler_run(zeta0, eta0, shell, span=None, sample_interval=0.5):
    """The strict run from (zeta0, eta0) on this shell, sampled every
    sample_interval in lambda (None: at every step), with its Kepler
    elements; span defaults to two radial periods."""
    kepler = KeplerOrbit.from_state(MODEL.g, shell, zeta0, eta0)
    span = 2.0 * kepler.radial_period if span is None else span
    opts = IntegratorOptions(tol=TOL, sample_interval=sample_interval, strict_time=True)
    traj = integrate(ReducedState(0.0, np.array(zeta0), np.array(eta0)), shell, MODEL, span, opts)
    return kepler, traj, 5.0 * TOL * span


def eccentric_run(speed, span=None):
    """From zeta = (1, 0, 0) with eta = (0, speed, 0), on the shell that
    closes lambda at that state."""
    zeta0, eta0 = (1.0, 0.0, 0.0), (0.0, speed, 0.0)
    return kepler_run(zeta0, eta0, self_consistent_shell(1.0, 2.0, MODEL, zeta0, eta0), span)


def test_eccentric_orbit_follows_kepler():
    # masses (1, 2), g = -0.1, zeta = (1, 0, 0), eta = (0, 0.3, 0) over
    # lambda in [0, 100] at tol 1e-10, strict: 17 radial periods at e = 0.66
    kepler, traj, bound = eccentric_run(0.3, span=100.0)
    assert kepler.e == pytest.approx(0.6588, abs=1e-4)
    assert kepler.a == pytest.approx(0.6029, abs=1e-4)
    assert traj.lam[-1] > 17.0 * kepler.radial_period
    rho = np.sqrt(np.sum(traj.ztil ** 2, axis=1))
    assert np.max(np.abs(rho - kepler.rho(traj.lam))) <= bound
    assert np.max(np.abs(traj.T - kepler.T(traj.lam))) <= bound


def test_T_departs_from_its_line_by_an_oscillation_that_vanishes_with_e():
    # e from 0.66 down to 0.025, then the self-consistent circle.  Over two
    # radial periods sin E runs through [-1, 1], so the departure peaks
    # between one and two amplitudes mu e/(M a n_k); the samples, 0.5 apart
    # in lambda, may miss a crest by a few percent.  On the circle the Kepler
    # mean rate is the orbit's dT/dlambda and T is a line within tol.
    runs = [eccentric_run(speed) for speed in (0.3, 0.45, 0.5, 0.52)]
    shell, orbit = self_consistent_circular(1.0, 2.0, MODEL, 0.3)
    state = orbit.initial_state()
    runs.append(kepler_run(state.ztil, state.ytil, shell))
    peaks = []
    for kepler, traj, bound in runs:
        departure = traj.T - kepler.linear_rate * traj.lam
        assert np.max(np.abs(departure - kepler.oscillation(traj.lam))) <= bound
        peaks.append(np.max(np.abs(departure)))
        assert 0.9 * kepler.amplitude <= peaks[-1] <= 2.0 * kepler.amplitude + bound
    es = [kepler.e for kepler, _, _ in runs]
    assert es == sorted(es, reverse=True) and es[-1] < 1e-9
    assert peaks == sorted(peaks, reverse=True) and peaks[-1] <= runs[-1][2]
    assert runs[-1][0].linear_rate == pytest.approx(orbit.dTdlambda, rel=1e-9)


def orbit_basis(tilt, node, omega):
    """P and Q of the orbit with this inclination, ascending node and
    argument of pericentre."""
    ci, si, cn, sn, cw, sw = (f(x) for x in (tilt, node, omega) for f in (math.cos, math.sin))
    return (np.array([cn * cw - sn * sw * ci, sn * cw + cn * sw * ci, sw * si]),
            np.array([-cn * sw - sn * cw * ci, -sn * sw + cn * cw * ci, cw * si]))


_ANGLE = st.floats(0.0, 2.0 * math.pi)
_ELEMENTS = dict(e=st.floats(0.05, 0.9), a=st.floats(0.5, 2.0), E0=_ANGLE,
                 tilt=st.floats(0.0, math.pi), node=_ANGLE, omega=_ANGLE)


def bound_orbit(e, a, E0, tilt, node, omega):
    """(zeta0, eta0, shell) of the orbit with these elements, masses (1, 2),
    g = -0.1, on its own self-consistent shell, lambda = -N = g M/a, whose M
    solves M = M_shell(g M/a) by iteration (a contraction, |g/a| <= 0.2)."""
    M = 3.0
    for _ in range(60):
        M = mass_shell_from_lambda(1.0, 2.0, MODEL.g * M / a).M
    mu, (P, Q) = -MODEL.g * M, orbit_basis(tilt, node, omega)
    target = KeplerOrbit(mu=mu, a=a, e=e, E0=E0, n_k=math.sqrt(mu / a ** 3), M=M, nu=0.0,
                         P=P, Q=Q)
    zeta0, eta0 = (v[0] for v in target.state(0.0))
    shell = self_consistent_shell(1.0, 2.0, MODEL, zeta0, eta0)
    assert shell.M == pytest.approx(M, rel=1e-14)
    return zeta0, eta0, shell


def assert_follows_kepler(kepler, traj, bound):
    """zeta and eta within 2 bound times 1 + their peak norm, T within
    bound: the error control is mixed absolute and relative."""
    for got, want in zip((traj.ztil, traj.ytil), kepler.state(traj.lam)):
        peak = np.max(np.linalg.norm(want, axis=1))
        assert np.max(np.abs(got - want)) <= 2.0 * bound * (1.0 + peak)
    assert np.max(np.abs(traj.T - kepler.T(traj.lam))) <= bound


@settings(max_examples=40)
@given(**_ELEMENTS)
def test_bound_orbits_follow_kepler(e, a, E0, tilt, node, omega):
    # over two radial periods at tol 1e-10, strict.  zeta and eta stay
    # within 10 tol span times 1 + their peak norm, and T within 5 tol span.
    # Measured over 800 orbits at e in [0.8, 0.9]: at most 3.1 for eta
    # (near the pericentre of a = 0.5), 0.3 for zeta and 0.4 for T.
    zeta0, eta0, shell = bound_orbit(e, a, E0, tilt, node, omega)
    kepler, traj, bound = kepler_run(zeta0, eta0, shell)
    assert (kepler.a, kepler.e) == pytest.approx((a, e), rel=1e-9)
    assert_follows_kepler(kepler, traj, bound)


@settings(max_examples=40)
@given(**_ELEMENTS, points=st.floats(20.0, 2000.0))
def test_a_sample_grid_costs_at_most_one_attempt_per_point(e, a, E0, tilt, node, omega,
                                                           points):
    # a step cut short to land on a sample keeps the step size proposed
    # before the cut, so the grid adds at most the one attempt that ends on
    # each point to what free stepping spends, and landing loses no accuracy
    zeta0, eta0, shell = bound_orbit(e, a, E0, tilt, node, omega)
    kepler, free, _ = kepler_run(zeta0, eta0, shell, sample_interval=None)
    span = float(free.lam[-1])
    _, landed, bound = kepler_run(zeta0, eta0, shell, span, span / points)
    assert landed.stats.n_accepted + landed.stats.n_rejected <= \
        free.stats.n_accepted + free.stats.n_rejected + len(landed.lam) - 1
    assert_follows_kepler(kepler, landed, bound)
