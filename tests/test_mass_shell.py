import math
import sys
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptb.binding import binding_energy
from ptb.errors import AdmissibilityViolation, BadParameter, LambdaBoundViolation, PtbError
from ptb.mass_ratio import limit_report
from ptb.mass_shell import mass_shell_from_lambda, nonrel_check, shell_from_M
from ptb.potentials import FreePotential
from ptb.reduced import IntegratorOptions, ReducedState, integrate, synchronize
from ptb.worldline import worldlines

from ptb_fixtures import quartic, random_shell_args


def test_shell_solves_quartic(rng):
    for m1, m2, lam in random_shell_args(rng, 200):
        sh = mass_shell_from_lambda(m1, m2, lam)
        assert abs(quartic(m1, m2, lam, sh.M2)) <= 1e-12 * sh.M2 * sh.M2


def test_rejected_root_breaks_energy_positivity(rng):
    # the quartic's other root is M2_minus = 4 nu^2 / M2_plus; it always
    # sits at or below 2|nu|, where one individual energy is <= 0
    for m1, m2, lam in random_shell_args(rng, 200):
        sh = mass_shell_from_lambda(m1, m2, lam)
        if sh.nu == 0.0:
            continue
        M2_minus = 4.0 * sh.nu ** 2 / sh.M2
        assert abs(quartic(m1, m2, lam, M2_minus)) <= 1e-10 * max(1.0, sh.M2 ** 2)
        assert M2_minus <= 2.0 * abs(sh.nu) * (1 + 1e-12)
        E1_minus = 0.5 * math.sqrt(M2_minus) + sh.nu / math.sqrt(M2_minus)
        assert E1_minus <= 1e-12 * m2


def test_energies_sum_and_difference(rng):
    for m1, m2, lam in random_shell_args(rng, 100):
        sh = mass_shell_from_lambda(m1, m2, lam)
        assert sh.E1 + sh.E2 == pytest.approx(sh.M, rel=1e-14)
        assert sh.E1 - sh.E2 == pytest.approx(2.0 * sh.nu / sh.M, rel=1e-12)
        assert 0.0 < sh.E1 <= sh.E2


def test_free_shell_is_mass_sum():
    sh = mass_shell_from_lambda(1.0, 2.0, 0.0)
    assert sh.M == pytest.approx(3.0, rel=1e-15)
    assert sh.E1 == pytest.approx(1.0, rel=1e-15)
    assert sh.E2 == pytest.approx(2.0, rel=1e-15)
    assert -binding_energy(sh) == 0.0
    assert nonrel_check(1.0, 2.0, 0.0) == 1.0


def test_known_value():
    # lambda = 1/2 with masses (1, 2): M^2 = 2(3 + sqrt(9 - 2.25))
    sh = mass_shell_from_lambda(1.0, 2.0, 0.5)
    want = math.sqrt(2.0 * (3.0 + math.sqrt(6.75)))
    assert sh.M == pytest.approx(want, rel=1e-15)
    assert sh.M == pytest.approx(3.3460652149512318, rel=1e-15)


def test_lambda_bound_violation():
    with pytest.raises(LambdaBoundViolation):
        mass_shell_from_lambda(1.5, 2.0, -2.25)
    with pytest.raises(LambdaBoundViolation):
        mass_shell_from_lambda(1.5, 2.0, -1.5 ** 2)
    # just inside the bound is fine
    sh = mass_shell_from_lambda(1.5, 2.0, -1.5 ** 2 + 1e-6)
    assert sh.M2 > 2.0 * abs(sh.nu)


def test_error_taxonomy():
    assert issubclass(LambdaBoundViolation, AdmissibilityViolation)
    assert issubclass(AdmissibilityViolation, PtbError)
    with pytest.raises(AdmissibilityViolation):
        mass_shell_from_lambda(1.0, 1.0, -1.0)


def test_bad_masses():
    for m1, m2 in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0),
                   (1.0, float("inf"))]:
        with pytest.raises(BadParameter):
            mass_shell_from_lambda(m1, m2, 0.0)


def test_mass_excess_beats_naive_subtraction():
    m1 = m2 = 1.0
    for lam in (1e-8, 1e-12, 1e-15):
        sh = mass_shell_from_lambda(m1, m2, lam)
        exact = -binding_energy(sh)
        # series: M = 2 sqrt(1 + lambda) -> excess = lambda - lambda^2/4 + ...
        series = lam - lam * lam / 4.0
        assert exact == pytest.approx(series, rel=1e-12)
        naive = sh.M - 2.0
        # the naive form loses digits; the reformulation must not
        assert abs(exact - series) <= abs(naive - series) + 1e-30


def test_nonrel_check_slope(rng):
    # |nonrel_check - 1| should shrink linearly with lambda
    m1, m2 = 0.8, 1.7
    lams = np.logspace(-2, -7, 6)
    devs = np.array([abs(nonrel_check(m1, m2, lam) - 1.0) for lam in lams])
    slope = np.polyfit(np.log(lams), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


@given(
    m1=st.floats(0.05, 20.0),
    ratio=st.floats(1.0, 50.0),
    lam_scale=st.floats(-0.95, 5.0),
)
def test_shell_invariants(m1, ratio, lam_scale):
    m2 = m1 * ratio
    lam = lam_scale * m1 * m1 if lam_scale < 0 else lam_scale * (m1 + m2) ** 2
    try:
        sh = mass_shell_from_lambda(m1, m2, lam)
    except LambdaBoundViolation:
        assert m1 * m1 + lam <= 1e-9 * m1 * m1 * max(1.0, abs(lam_scale))
        return
    # monotonicity: energy grows with lambda
    assert sh.M2 > 2.0 * abs(sh.nu)
    assert sh.E1 > 0.0
    assert sh.M >= (m1 + m2) * (1.0 - 1e-12) if lam >= 0 else sh.M <= (m1 + m2) * (1.0 + 1e-12)
    sh_up = mass_shell_from_lambda(m1, m2, lam + 0.1 * m1 * m1)
    assert sh_up.M > sh.M


@pytest.mark.parametrize("M, nu, lam", [(3.0, 0.0, 0.0), (4.0, -1.5, 1.25), (2.0, -0.5, -0.4)])
def test_shell_from_M_reproduces_M(M, nu, lam):
    shell = shell_from_M(M, nu, lam)
    assert shell.M == pytest.approx(M, rel=1e-14)
    assert shell.nu == pytest.approx(nu, abs=1e-14 * M * M)
    assert shell.lambda_ == lam


@pytest.mark.parametrize("m2", [1.0, 3.7, 1e3])
@pytest.mark.parametrize("ratio", [1e-7, 1e-5, 1e-3, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("lam_over_m1sq", [-0.9, -0.5, 0.0, 0.5, 1.0])
def test_shell_from_M_round_trip_keeps_a_light_mass(m2, ratio, lam_over_m1sq):
    # E1 = M/2 + nu/M loses what M and nu carry in absolute terms, eps M;
    # m1 = sqrt(E1^2 - lambda) scales that by E1^2/m1^2
    m1 = ratio * m2
    sh = mass_shell_from_lambda(m1, m2, lam_over_m1sq * m1 * m1)
    back = shell_from_M(sh.M, sh.nu, sh.lambda_)
    cond = sh.M / sh.E1 * max(1.0, sh.E1 ** 2 / (m1 * m1))
    assert back.m1 == pytest.approx(m1, rel=4.0 * cond * 2.0 ** -53)
    assert back.m2 == pytest.approx(m2, rel=4.0 * cond * 2.0 ** -53)
    assert back.M == pytest.approx(sh.M, rel=4.0 * 2.0 ** -53)


@pytest.mark.parametrize("M, nu, lam", [
    (0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (2.0, 0.5, 0.0), (2.0, -2.0, 0.0),
    (1.0, 0.0, 10.0),  # mu + nu <= 0: no real masses
])
def test_shell_from_M_refuses(M, nu, lam):
    with pytest.raises(BadParameter):
        shell_from_M(M, nu, lam)


@pytest.mark.parametrize("solve, args, message", [
    (mass_shell_from_lambda, (1.0, 2.0, math.inf),
     "need a finite m2^2 + lambda, got m2 = 2.0, lambda = inf"),
    (mass_shell_from_lambda, (1.0, 2.0, math.nan),
     "need a finite m2^2 + lambda, got m2 = 2.0, lambda = nan"),
    (mass_shell_from_lambda, (1.0, 1e154, 1e308),
     "need a finite m2^2 + lambda, got m2 = 1e+154, lambda = 1e+308"),
    (shell_from_M, (4.0, math.nan, 0.0), "requires nu <= 0 and M^2 > 2 |nu|, got nu = nan"),
    (shell_from_M, (4.0, 0.0, math.nan),
     "no real masses reproduce this shell: need mu + nu > 0, got nan"),
    (mass_shell_from_lambda, (1.0, 2.0, 1.7e308),
     "need a finite M^2, got inf for m1 = 1.0, m2 = 2.0, lambda = 1.7e+308"),
    (shell_from_M, (2e154, 0.0),
     "need a finite M^2, got inf for m1 = 1e+154, m2 = 1e+154, lambda = 0.0"),
], ids=["lambda inf", "lambda nan", "m2^2 + lambda overflows", "nu nan", "lambda nan from M",
        "M^2 overflows", "M^2 overflows from M"])
def test_non_finite_shell_inputs_are_named(solve, args, message):
    with pytest.raises(BadParameter) as err:
        solve(*args)
    assert str(err.value) == message


def reference_shell(m1, m2, lam):
    """E1, E2, M and the excess M - m1 - m2 from E_a = sqrt(m_a^2 + lambda) at
    50 digits, as Decimals.  Each E_a - m_a is taken as lambda/(E_a + m_a),
    the same number, because a subtraction at 50 digits still rounds away a
    lambda below 1e-50 m_a^2."""
    with localcontext() as ctx:
        ctx.prec = 50
        m1, m2, lam = Decimal(m1), Decimal(m2), Decimal(lam)
        E1 = (m1 * m1 + lam).sqrt()
        E2 = (m2 * m2 + lam).sqrt()
        return E1, E2, E1 + E2, lam / (E1 + m1) + lam / (E2 + m2)


def rel_err(got, want):
    """|got - want| / |want|, with |want| floored at the smallest normal float:
    a subnormal result (lambda near 1e-310, say) keeps only absolute precision."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(abs(Decimal(got) - want) / max(abs(want), Decimal(sys.float_info.min)))


_TOL = 4e-15


@pytest.fixture(scope="module")
def unit_traj():
    # first sample at ztil = (1, 0, 0): the world-line offsets there are the
    # bare weights of whatever shell the trajectory carries
    return synchronize(integrate(
        ReducedState(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])),
        mass_shell_from_lambda(1.0, 2.0, 0.25), FreePotential(), 1.0, IntegratorOptions()))


@given(
    m2=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
    ratio=st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e),
    lam_scale=st.floats(-0.9, 100.0),
)
def test_shell_matches_decimal_reference(unit_traj, m2, ratio, lam_scale):
    # lambda in [-0.9 m1^2, 100 m2^2]; the floor keeps the rounding of the
    # input m1^2 + lambda from dominating the error of E1
    m1 = min(ratio * m2, m2)
    lam = lam_scale * (m1 * m1 if lam_scale < 0.0 else m2 * m2)
    E1, E2, M, excess = reference_shell(m1, m2, lam)
    sh = mass_shell_from_lambda(m1, m2, lam)
    errors = {"M": rel_err(sh.M, M), "E1": rel_err(sh.E1, E1), "E2": rel_err(sh.E2, E2)}

    with localcontext() as ctx:
        ctx.prec = 50
        m0 = Decimal(m1) * Decimal(m2) / (Decimal(m1) + Decimal(m2))
        nonrel = 2 * m0 * (1 / (E1 + Decimal(m1)) + 1 / (E2 + Decimal(m2)))
    errors["-binding_energy"] = rel_err(-binding_energy(sh), excess)
    errors["nonrel_check"] = rel_err(nonrel_check(m1, m2, lam), nonrel)

    ws = worldlines(replace(unit_traj, shell=sh))
    errors["x1 weight E2/M"] = rel_err(float(ws.x1[0, 1]), E2 / M)
    errors["x2 weight -E1/M"] = rel_err(float(ws.x2[0, 1]), -E1 / M)

    (row,) = limit_report(m2, lam / (m2 * m2), [(m1 / m2) ** 2])
    E1a, _, Ma, _ = reference_shell(row.gamma * m2, m2, row.alpha * (m2 * m2))
    errors["limit_report offset E1/M"] = rel_err(row.offset, E1a / Ma)

    worst = max(errors, key=errors.get)
    assert errors[worst] <= _TOL, (worst, errors[worst])


@pytest.mark.parametrize("m1, m2, lam", [
    (1e-7, 1.0, 0.0), (1e-7, 1.0, -0.5e-14), (1e-8, 100.0, 1e-3), (3e-6, 0.01, 2e-4),
])
def test_extreme_mass_ratio_shell_keeps_full_precision(m1, m2, lam):
    # as m1/m2 -> 0 the heavy body and the center of energy coincide: E1/M is
    # the light body's small share, still to full relative precision
    E1, E2, M, _ = reference_shell(m1, m2, lam)
    sh = mass_shell_from_lambda(m1, m2, lam)
    for got, want in ((sh.M, M), (sh.E1, E1), (sh.E2, E2), (sh.E1 / sh.M, E1 / M)):
        assert rel_err(got, want) <= _TOL
