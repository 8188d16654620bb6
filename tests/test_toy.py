import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from ptb.binding import self_consistent_shell
from ptb.errors import BadParameter
from ptb.potentials import HarmonicPotential
from ptb.reduced import lift, plane_basis, rest_quintet, rhs
from ptb.toy import (
    ToyParams,
    F_analytic,
    analytic_state,
    analytic_T,
    dT_dlambda_analytic,
    initial_state,
    intF_analytic,
    min_dT_dlambda,
    shell_for_toy,
    sufficient_condition_margin,
)

from ptb_fixtures import LambdaOfM

P_GENERIC = ToyParams(chi=0.125, M=4.0, A=(1.0, 0.2, 0.0), B=(0.3, 0.5, -0.1),
                      C=0.4, nu=-1.5)


def test_analytic_state_satisfies_equations_of_motion():
    # the closed form must solve dzeta = eta, deta = -Omega^2 zeta
    p = P_GENERIC
    h = 1e-6
    for lam in np.linspace(0.0, p.period, 17):
        z, y = analytic_state(p, lam)
        z_p, _ = analytic_state(p, lam + h)
        z_m, _ = analytic_state(p, lam - h)
        dz = (np.array(z_p) - np.array(z_m)) / (2.0 * h)
        assert np.allclose(dz, y, atol=1e-6)
        _, y_p = analytic_state(p, lam + h)
        _, y_m = analytic_state(p, lam - h)
        dy = (np.array(y_p) - np.array(y_m)) / (2.0 * h)
        assert np.allclose(dy, -p.Omega ** 2 * np.array(z), atol=1e-5)


def test_closed_form_matches_model_rhs():
    # the oscillator is the harmonic model on its own shell
    p = P_GENERIC
    shell = shell_for_toy(p)
    assert shell.M == pytest.approx(p.M, rel=1e-15)
    basis = plane_basis(*initial_state(p))  # the oscillator's plane
    for lam in (0.0, 0.7, 3.0):
        z, y = analytic_state(p, lam)
        x = [*(basis @ z).tolist(), *(basis @ y).tolist(), 0.0, 0.0]
        partials = HarmonicPotential(p.chi).partials_at(shell.M2, shell.nu)
        du = lift(np.array([rhs(x, shell, partials)]), basis)[0]
        dz, dy, F, G = du[0:3], du[3:6], du[6], du[7]
        assert np.allclose(dz, y, rtol=1e-13, atol=1e-15)
        assert np.allclose(dy, -p.Omega ** 2 * np.array(z), rtol=1e-12, atol=1e-13)
        assert F == pytest.approx(F_analytic(p, lam), rel=1e-13)
        assert G == 0.0


def test_intF_matches_quadrature_oracle():
    p = P_GENERIC
    for lam in (0.5, 2.0, p.period, 3.0 * p.period):
        want, err = quad(lambda s: F_analytic(p, s), 0.0, lam,
                         epsabs=1e-13, epsrel=1e-13, limit=200)
        assert intF_analytic(p, lam) == pytest.approx(want, abs=1e-10)
    assert intF_analytic(p, 0.0) == 0.0


def test_T_consistency():
    p = P_GENERIC
    h = 1e-6
    for lam in (0.3, 1.7, 5.0):
        slope = (analytic_T(p, lam + h) - analytic_T(p, lam - h)) / (2.0 * h)
        assert slope == pytest.approx(dT_dlambda_analytic(p, lam), abs=1e-7)
    assert analytic_T(p, 0.0) == 0.0


def test_F_bound_and_sign():
    p = P_GENERIC
    zmax2_bound = p.a2 + p.b2 + 2.0 * abs(p.ab)
    for lam in np.linspace(0.0, p.period, 64):
        F = F_analytic(p, lam)
        assert F <= 0.0
        assert abs(F) <= p.chi * p.M * zmax2_bound + 1e-12


def test_lambda_first_integral_constant():
    # |eta|^2 - 2 V must equal the advertised Lambda at every phase
    p = P_GENERIC
    for lam in np.linspace(0.0, p.period, 32):
        z, y = analytic_state(p, lam)
        V = -p.chi * p.M * sum(c * c for c in z)
        lam_val = sum(c * c for c in y) - 2.0 * V
        assert lam_val == pytest.approx(p.Lambda, rel=1e-12)
    assert p.Lambda > 0.0


def test_shell_round_trip():
    p = P_GENERIC
    shell = shell_for_toy(p)
    assert shell.M == pytest.approx(p.M, rel=1e-15)
    assert shell.nu == pytest.approx(p.nu, rel=1e-13)
    assert shell.lambda_ == pytest.approx(p.Lambda, rel=1e-15)
    # N = -Lambda on the orbit
    z, y = initial_state(p)
    q = rest_quintet(np.array(z), np.array(y), shell)
    V = HarmonicPotential(p.chi).evaluate(q).value
    assert q.ytil2 + 2.0 * V == pytest.approx(-p.Lambda, rel=1e-12)


def test_shell_for_toy_can_fail():
    # huge Lambda pushes mu + nu below zero: no real masses
    p = ToyParams(chi=10.0, M=1.0, A=(3.0, 0.0, 0.0), B=(0.0, 3.0, 0.0))
    with pytest.raises(BadParameter):
        shell_for_toy(p)


def test_toy_from_masses_self_consistent():
    # the oscillator on the shell of masses (1, 2) that closes
    # lambda = 2 chi M (a2 + b2), with chi = 0.05 and a2 + b2 = 0.25
    closed = self_consistent_shell(1.0, 2.0, LambdaOfM(lambda M: 0.025 * M),
                                   (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    p = ToyParams(chi=0.05, M=closed.M, A=(0.4, 0.0, 0.0), B=(0.0, 0.3, 0.0), nu=closed.nu)
    shell = shell_for_toy(p)
    assert shell.m1 == pytest.approx(1.0, rel=1e-10)
    assert shell.m2 == pytest.approx(2.0, rel=1e-10)
    assert p.Lambda == pytest.approx(2.0 * p.chi * p.M * (0.16 + 0.09), rel=1e-13)
    assert p.Lambda == pytest.approx(closed.lambda_, rel=1e-13)


def test_min_dT_dlambda_matches_dense_scan():
    p = P_GENERIC
    lams = np.linspace(0.0, p.period, 20001)
    scan = min(dT_dlambda_analytic(p, float(lam)) for lam in lams)
    assert min_dT_dlambda(p) == pytest.approx(scan, abs=1e-7)
    assert min_dT_dlambda(p) <= scan + 1e-12


def test_margin_guarantee():
    p = P_GENERIC
    margin = sufficient_condition_margin(p)
    # margin/M lower-bounds the clock rate
    assert min_dT_dlambda(p) >= margin / p.M - 1e-12
    assert margin == pytest.approx(
        p.M ** 2 / 4.0 - p.nu ** 2 / p.M ** 2 - 0.5 * p.Lambda, rel=1e-15)


@given(
    chi=st.floats(0.01, 5.0),
    M=st.floats(0.5, 20.0),
    amp=st.floats(0.0, 2.0),
    b_amp=st.floats(0.0, 2.0),
    u=st.floats(0.0, 0.49),
)
def test_consistent_configs_always_monotone(chi, M, amp, b_amp, u):
    # on-shell parameters (nu determined by u = |nu|/M^2 < 1/2) always keep
    # the clock rate positive; the sufficient margin is itself positive
    # whenever real masses exist
    nu = -u * M * M
    p = ToyParams(chi=chi, M=M, A=(amp, 0.0, 0.0), B=(0.0, b_amp, 0.0), nu=nu)
    try:
        shell_for_toy(p)
    except BadParameter:
        return  # no real masses: not a consistent configuration
    assert sufficient_condition_margin(p) > 0.0
    assert min_dT_dlambda(p) > 0.0


def test_param_validation():
    with pytest.raises(BadParameter):
        ToyParams(chi=-1.0, M=1.0, A=(1, 0, 0), B=(0, 1, 0))
    with pytest.raises(BadParameter):
        ToyParams(chi=1.0, M=0.0, A=(1, 0, 0), B=(0, 1, 0))
    with pytest.raises(BadParameter):
        ToyParams(chi=1.0, M=1.0, A=(1, 0, 0), B=(0, 1, 0), nu=0.5)
    with pytest.raises(BadParameter):
        ToyParams(chi=1.0, M=1.0, A=(1, 0, 0), B=(0, 1, 0), nu=-0.51)
    with pytest.raises(BadParameter):
        ToyParams(chi=1.0, M=1.0, A=(1, 0), B=(0, 1, 0))


@pytest.mark.parametrize("field, value, line", [
    ("A", (1, 0, math.nan), "A must be finite, got (1.0, 0.0, nan)"),
    ("B", (0, math.inf, 0), "B must be finite, got (0.0, inf, 0.0)"),
    ("C", math.nan, "C must be finite, got nan"),
    ("C", -math.inf, "C must be finite, got -inf"),
    ("nu", math.nan, "nu must be finite, got nan"),
])
def test_non_finite_params_are_refused(field, value, line):
    args = dict(chi=0.125, M=4.0, A=(1, 0, 0), B=(0, 0.5, 0), C=0.0, nu=-1.5)
    args[field] = value
    with pytest.raises(BadParameter) as info:
        ToyParams(**args)
    assert str(info.value) == line
