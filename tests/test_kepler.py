"""The n = 1 central_power orbit against Kepler's closed form (tests/kepler.py):
the state and the clock off the circle, and the paper's claim that lambda is
a linear function of the centre-of-mass time only on a circle."""

import numpy as np
import pytest

from kepler import KeplerOrbit
from ptb.binding import self_consistent_circular, self_consistent_shell
from ptb.potentials import CentralPowerPotential
from ptb.reduced import IntegratorOptions, ReducedState, integrate

TOL = 1e-10
MODEL = CentralPowerPotential(-0.1, 1)


def kepler_run(zeta0, eta0, shell, span=None):
    """The strict run from (zeta0, eta0) on this shell, sampled every 0.5 in
    lambda, with its Kepler elements; span defaults to two radial periods."""
    kepler = KeplerOrbit.from_state(MODEL.g, shell, zeta0, eta0)
    span = 2.0 * kepler.radial_period if span is None else span
    opts = IntegratorOptions(tol=TOL, sample_interval=0.5, strict_time=True)
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
