import logging
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ptb.binding
import ptb.mass_shell
from ptb.binding import binding_energy, self_consistent_circular, self_consistent_shell
from ptb.errors import BadParameter, DomainError, NoRoot
from ptb.mass_shell import _REL_SLACK, mass_shell_from_lambda
from ptb.potentials import CentralPowerPotential, FreePotential, HarmonicPotential, builtin
from ptb.reduced import rest_quintet
from ptb.roots import brent

from ptb_fixtures import LambdaOfM, quartic


def closed_M(m1, m2, lambda_of_M):
    """M of the shell whose lambda is lambda_of_M(M), closed by
    self_consistent_shell on the LambdaOfM model at rest (eta = 0)."""
    shell = self_consistent_shell(m1, m2, LambdaOfM(lambda_of_M), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    return shell.M


def test_binding_energy_sign():
    bound = mass_shell_from_lambda(1.0, 2.0, -0.3)
    unbound = mass_shell_from_lambda(1.0, 2.0, 0.3)
    assert binding_energy(bound) > 0.0
    assert binding_energy(unbound) < 0.0
    assert binding_energy(mass_shell_from_lambda(1.0, 2.0, 0.0)) == 0.0


def test_binding_energy_solves_no_shell(monkeypatch):
    # the energies are the shell's own fields; nothing solves the shell again
    shell = mass_shell_from_lambda(1.0, 2.0, -0.3)
    solves = []

    def counted(*args):
        solves.append(args)
        return mass_shell_from_lambda(*args)

    monkeypatch.setattr(ptb.mass_shell, "mass_shell_from_lambda", counted)
    monkeypatch.setattr(ptb.binding, "mass_shell_from_lambda", counted)
    assert binding_energy(shell) == -(-0.3 / (shell.E1 + 1.0) - 0.3 / (shell.E2 + 2.0))
    assert solves == []


def test_fixed_point_free_case_is_mass_sum():
    M = closed_M(1.0, 2.0, lambda M: 0.0)
    assert M == pytest.approx(3.0, rel=1e-14)


def test_fixed_point_closure():
    # lambda(M) = 2 chi M (a2 + b2): the toy oscillator's constraint
    chi, a2b2 = 0.125, 1.25 / (2.0 * 0.125 * 4.0)
    m = math.sqrt(2.75)
    M = closed_M(m, m, lambda M: 2.0 * chi * M * a2b2)
    # M = 4 solves it exactly: lambda = 1.25, mu = 2.75, M^2 = 2(4) + 2(4)
    assert M == pytest.approx(4.0, rel=1e-12)
    back = mass_shell_from_lambda(m, m, 2.0 * chi * M * a2b2)
    assert back.M == pytest.approx(M, rel=1e-13)


def test_fixed_point_linear_lambda():
    # lambda(M) = c M has the closed form from the quartic; compare
    m1, m2, c = 0.8, 1.3, 0.07
    M = closed_M(m1, m2, lambda M: c * M)
    sh = mass_shell_from_lambda(m1, m2, c * M)
    assert sh.M == pytest.approx(M, rel=1e-12)


def test_programming_errors_in_lambda_of_M_propagate():
    # only package errors mean "no shell here"; a bug in the model is not a
    # missing root
    def broken(M):
        return 1.0 / 0.0

    with pytest.raises(ZeroDivisionError):
        closed_M(1.0, 2.0, broken)

    # the free shell (M = 3) sends the scan toward the bound, where the first
    # trial shell hits the bug
    def broken_below(M):
        return -2.0 * M * M - 10.0 if M >= 3.0 else 1.0 / 0.0

    with pytest.raises(ZeroDivisionError):
        closed_M(1.0, 2.0, broken_below)


def test_no_root_when_constraint_is_absurd():
    # lambda(M) so negative everywhere that the shell never closes
    with pytest.raises(NoRoot):
        closed_M(1.0, 1.0, lambda M: -2.0 * M * M - 10.0)


def test_no_root_keeps_the_domain_error_of_the_trial_shells():
    # every trial shell overflows the central_power kernel; the NoRoot
    # must say why instead of hiding the DomainError
    with pytest.raises(NoRoot) as info:
        self_consistent_shell(1.0, 2.0, CentralPowerPotential(-1.0, 3),
                              (1e-120, 0.0, 0.0), (0.0, 0.5, 0.0))
    cause = info.value.__cause__
    assert isinstance(cause, DomainError)
    for text in (str(info.value), str(cause)):
        assert "ztil2 = " in text and "n = 3" in text
    assert "m1 = 1.0, m2 = 2.0; lambda from 0.0 (DomainError) to " in str(info.value)


def test_no_root_names_the_masses_and_the_scanned_spans():
    # h < 0 from the free shell down to the bound: the message gives the masses,
    # the lambda span of the grid and h at both of its ends
    with pytest.raises(NoRoot) as info:
        self_consistent_shell(1.0, 2.0, builtin("central_power", g=-5.0, n=1),
                              [0.1, 0, 0], [0, 0.1, 0])
    assert re.fullmatch(r"no self-consistent shell found on lambda > -m1\^2 for m1 = 1\.0, "
                        r"m2 = 2\.0; lambda from 0\.0 \(h = -299\.98\d*\) to "
                        r"-0\.99999999999\d* \(h = -172\.19\d*\)", str(info.value))
    # a repulsive model has no circular orbit on any trial shell: both grids
    # from the free shell, each end the error, and the last one as the tail
    with pytest.raises(NoRoot) as info:
        self_consistent_circular(1.0, 2.0, CentralPowerPotential(1.0, 1), 1.0)
    assert re.search(r"m2 = 2\.0; lambda from 0\.0 \(NoRoot\) to -0\.99999999999\d* "
                     r"\(NoRoot\); lambda from 0\.0 \(NoRoot\) to 9\.2\d*e\+18 \(NoRoot\); "
                     r"last trial shell failed with NoRoot: no circular-orbit radius",
                     str(info.value))


def test_self_consistent_shell_free_one_pass():
    sh = self_consistent_shell(1.0, 2.0, FreePotential(),
                               (1.0, 0.0, 0.0), (0.0, 0.5, 0.0))
    # lambda = |eta|^2 exactly, computed in one pass
    assert sh.lambda_ == pytest.approx(0.25, rel=1e-15)
    assert sh.M == pytest.approx(mass_shell_from_lambda(1.0, 2.0, 0.25).M,
                                 rel=1e-15)


def test_self_consistent_shell_harmonic():
    z0, y0 = (1.0, 0.0, 0.0), (0.0, 0.5, 0.0)
    chi = 0.125
    sh = self_consistent_shell(math.sqrt(2.75), math.sqrt(2.75),
                               HarmonicPotential(chi), z0, y0)
    # closure: lambda = |eta|^2 + 2 chi M |zeta|^2 evaluated at M = sh.M
    want = 0.25 + 2.0 * chi * sh.M * 1.0
    assert sh.lambda_ == pytest.approx(want, rel=1e-12)
    # the toy calibration (A, B) = (e_x, 0.5 e_y) reproduces M = 4
    assert sh.M == pytest.approx(4.0, rel=1e-12)


def test_self_consistent_shell_verifies_noether():
    z0 = np.array([0.7, -0.3, 0.4])
    y0 = np.array([0.2, 0.6, -0.1])
    model = HarmonicPotential(0.3)
    sh = self_consistent_shell(1.0, 1.5, model, z0, y0)
    q = rest_quintet(z0, y0, sh)
    N = q.ytil2 + 2.0 * model.evaluate(q).value
    assert N == pytest.approx(-sh.lambda_, rel=1e-11)


def test_self_consistent_circular():
    model = CentralPowerPotential(-1.0, 1)
    shell, orbit = self_consistent_circular(1.0, 2.0, model, 50.0)
    # simultaneous closure: radius matches the shell and lambda matches
    # the orbit state
    assert orbit.rho == pytest.approx(50.0 / shell.M, rel=1e-11)
    q_l = orbit.speed2 - 2.0 * model.evaluate(
        rest_quintet(np.array([orbit.rho, 0, 0]),
                     np.array([0, math.sqrt(orbit.speed2), 0]), shell)).value
    assert shell.lambda_ == pytest.approx(q_l, rel=1e-11)


@pytest.mark.parametrize("kind, params, l2", [
    ("central_power", {"g": -1.0, "n": 1}, 50.0),
    ("harmonic", {"chi": 0.125}, 1.0),
])
def test_closure_trial_evaluates_the_model_once(monkeypatch, kind, params, l2):
    # a trial's lambda_orbit comes from the partials find_circular binds once
    # on the trial shell and reads at its root, not from a second binding
    model = builtin(kind, **params)
    finds, binds = [], []
    find, partials_at = ptb.binding.find_circular, model.partials_at
    monkeypatch.setattr(ptb.binding, "find_circular",
                        lambda *args: finds.append(args) or find(*args))
    monkeypatch.setattr(model, "partials_at", lambda *args: binds.append(args) or
                        partials_at(*args))
    shell, orbit = self_consistent_circular(1.0, 2.0, model, l2)
    assert len(finds) > 1
    assert binds == [(s.M2, s.nu) for _, s, _ in finds]
    assert orbit.lambda_orbit == pytest.approx(shell.lambda_, rel=1e-11)


def test_self_consistent_circular_strong_binding_has_no_root():
    # at small l2 the orbit constraint lambda = -M^2/l2 violates the
    # admissibility bound before the fixed point closes: an honest refusal
    with pytest.raises(NoRoot):
        self_consistent_circular(1.0, 2.0, CentralPowerPotential(-1.0, 1), 0.8)


def test_self_consistent_circular_harmonic():
    model = HarmonicPotential(0.125)
    shell, orbit = self_consistent_circular(math.sqrt(2.75), math.sqrt(2.75),
                                            model, 1.0)
    assert orbit.rho == pytest.approx((1.0 / (0.25 * shell.M)) ** 0.25, rel=1e-11)
    residual = quartic(shell.m1, shell.m2, shell.lambda_, shell.M2)
    assert residual == pytest.approx(0.0, abs=1e-9 * shell.M2 ** 2)


@pytest.mark.parametrize("model, l2", [
    (CentralPowerPotential(-1.0, 1), 20.0),
    (CentralPowerPotential(-1.0, 1), 50.0),
    (HarmonicPotential(0.125), 0.5),
    (HarmonicPotential(0.125), 4.0),
    (CentralPowerPotential(-1.0, 1), 5.0),  # root near the bound lambda > -m1^2, at E1 = 0.34
])
def test_self_consistent_circular_budget(monkeypatch, caplog, model, l2):
    caplog.set_level(logging.DEBUG, logger="ptb.binding")
    calls = []
    find = ptb.binding.find_circular
    monkeypatch.setattr(ptb.binding, "find_circular",
                        lambda *args: calls.append(args) or find(*args))
    shell, orbit = self_consistent_circular(1.0, 2.0, model, l2)
    assert len(calls) <= 10
    assert orbit == find(model, shell, l2)
    assert [r for r in caplog.records if r.name == "ptb.binding"] == []


def test_a_band_of_failing_trial_shells_is_a_hole():
    # lambda(M) = -M^2/5 for masses (1, 2): the scan toward the bound tries
    # lambda = -1/2 and -3/4 (M = 2.58, 2.30) before it brackets the root
    # at -0.885 between -7/8 and -15/16 (M = 2.12, 2.00)
    want = closed_M(1.0, 2.0, lambda M: -M * M / 5.0)
    holes = []

    def lam(M):
        if 2.2 < M < 2.7:
            holes.append(M)
            raise DomainError(f"no orbit at M = {M!r}")
        return -M * M / 5.0

    assert closed_M(1.0, 2.0, lam) == want
    assert len(holes) == 2
    assert mass_shell_from_lambda(1.0, 2.0, -want * want / 5.0).M == pytest.approx(want, rel=1e-14)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@given(m1=_log_uniform(0.1, 10.0), ratio=st.floats(1.05, 10.0), g=_log_uniform(0.1, 10.0),
       distance=_log_uniform(1e-6, 3.0), solvable=st.booleans())
def test_central_power_closure_matches_its_closed_form(m1, ratio, g, distance, solvable):
    # n = 1 orbits have rho = l2/(|g| M) and lambda = -g^2 M(lambda)^2/l2;
    # the right side falls as lambda grows, so one root exists exactly when
    # it beats -lambda at the bound lambda -> -m1^2:
    # g^2 (m2^2 - m1^2) < m1^2 l2.  l2 sits a relative distance from that
    # boundary, on the side that `solvable` picks; g here is |g|.
    m2 = m1 * ratio
    l2_edge = g * g * (m2 * m2 - m1 * m1) / (m1 * m1)
    l2 = l2_edge * (1.0 + distance if solvable else 1.0 / (1.0 + distance))
    # every trial radius of the scan inside find_circular's [1e-6, 1e6]
    assume(1e-5 < l2 / (g * (m1 + m2)) and l2 / (g * math.sqrt(m2 * m2 - m1 * m1)) < 1e5)

    def closed_form(lam):
        M = math.sqrt(max(m1 * m1 + lam, 0.0)) + math.sqrt(m2 * m2 + lam)
        return -g * g * M * M / l2 - lam

    model = CentralPowerPotential(-g, 1)
    if not solvable:
        with pytest.raises(NoRoot):
            self_consistent_circular(m1, m2, model, l2)
        return
    want = brent(closed_form, -m1 * m1, 0.0)
    # the shell refuses E1^2 <= 1e-12 m1^2, and the scan's last step toward
    # the bound sits just inside that threshold: closer roots are out of reach
    assume(want + m1 * m1 > 1.001 * _REL_SLACK * m1 * m1)
    shell, orbit = self_consistent_circular(m1, m2, model, l2)
    assert shell.lambda_ == pytest.approx(want, rel=1e-12)
    assert orbit.rho == pytest.approx(l2 / (g * shell.M), rel=1e-12)


def test_closure_reaches_a_root_next_to_the_shell_threshold():
    # masses (1, 2), g = -1, n = 1: the root of lambda = -M(lambda)^2/l2 sits
    # at E1^2 = 1.5e-12 m1^2, inside the shell's domain E1^2 > 1e-12 m1^2 but
    # closer to the bound than any halving step 2^-k with E1^2 > 1e-12 m1^2
    l2 = 3.0 * (1.0 + 1.41e-6)

    def closed_form(lam):
        M = math.sqrt(max(1.0 + lam, 0.0)) + math.sqrt(4.0 + lam)
        return -M * M / l2 - lam

    want = brent(closed_form, -1.0, 0.0)
    assert 1e-12 < want + 1.0 < 2.0 ** -39
    shell, orbit = self_consistent_circular(1.0, 2.0, CentralPowerPotential(-1.0, 1), l2)
    assert shell.lambda_ == pytest.approx(want, rel=1e-12)
    assert orbit.rho == pytest.approx(l2 / shell.M, rel=1e-12)


@given(m1=_log_uniform(0.1, 10.0), ratio=st.floats(1.0, 10.0), chi=_log_uniform(1e-3, 10.0),
       rho=_log_uniform(1e-3, 1e3))
def test_harmonic_closure_matches_its_closed_form(m1, ratio, chi, rho):
    # rho^4 = l2/(2 chi M) and lambda = 2 sqrt(2 chi M l2); rho is drawn at
    # the free shell M = m1 + m2, and the closed shell only shrinks it
    m2 = m1 * ratio
    l2 = 2.0 * chi * (m1 + m2) * rho ** 4
    shell, orbit = self_consistent_circular(m1, m2, HarmonicPotential(chi), l2)
    assert shell.lambda_ == pytest.approx(2.0 * math.sqrt(2.0 * chi * shell.M * l2), rel=1e-12)
    assert orbit.rho == pytest.approx((l2 / (2.0 * chi * shell.M)) ** 0.25, rel=1e-12)


@pytest.mark.parametrize("m1, m2", [(-1.0, 2.0), (0.0, 2.0), (math.nan, 2.0), (3.0, 2.0)])
def test_invalid_masses_are_refused_before_any_shell_solve(monkeypatch, m1, m2):
    solves = []

    def counted(*args):
        solves.append(args)
        return mass_shell_from_lambda(*args)

    monkeypatch.setattr(ptb.binding, "mass_shell_from_lambda", counted)
    model = HarmonicPotential(0.125)
    closures = [
        lambda: closed_M(m1, m2, lambda M: 0.1 * M),
        lambda: self_consistent_shell(m1, m2, model, (1.0, 0.0, 0.0), (0.0, 0.5, 0.0)),
        lambda: self_consistent_circular(m1, m2, model, 1.0),
    ]
    for closure in closures:
        with pytest.raises(BadParameter, match="masses"):
            closure()
    assert solves == []
