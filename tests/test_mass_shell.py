import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptb.errors import (
    AdmissibilityViolation,
    BadParameter,
    EnergyConditionViolation,
    LambdaBoundViolation,
    MassBoundViolation,
    PtbError,
    RealityViolation,
)
from ptb.mass_shell import (
    individual_energy_limits,
    lambda_from_M2,
    mass_excess,
    mass_shell_from_lambda,
    nonrel_check,
    shell_from_M,
)

from ptb_fixtures import random_shell_args


def quartic(m1, m2, lam, M2):
    mu = 0.5 * (m1 * m1 + m2 * m2)
    nu = 0.5 * (m1 * m1 - m2 * m2)
    return M2 * M2 - 4.0 * (mu + lam) * M2 + 4.0 * nu * nu


def test_shell_solves_quartic(rng):
    for m1, m2, lam in random_shell_args(rng, 200):
        sh = mass_shell_from_lambda(m1, m2, lam)
        assert abs(quartic(m1, m2, lam, sh.M2)) <= 1e-12 * sh.M2 * sh.M2
        assert abs(sh.quartic_residual()) <= 1e-12 * sh.M2 * sh.M2


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
    assert mass_excess(1.0, 2.0, 0.0) == 0.0
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
    assert issubclass(LambdaBoundViolation, RealityViolation)
    assert issubclass(MassBoundViolation, EnergyConditionViolation)
    assert issubclass(RealityViolation, AdmissibilityViolation)
    assert issubclass(EnergyConditionViolation, AdmissibilityViolation)
    assert issubclass(AdmissibilityViolation, PtbError)
    with pytest.raises(AdmissibilityViolation):
        mass_shell_from_lambda(1.0, 1.0, -1.0)
    with pytest.raises(AdmissibilityViolation):
        lambda_from_M2(1.0, 2.0, 3.0 - 0.5)


def test_bad_masses():
    for m1, m2 in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0),
                   (1.0, float("inf"))]:
        with pytest.raises(BadParameter):
            mass_shell_from_lambda(m1, m2, 0.0)


def test_lambda_round_trip(rng):
    for m1, m2, lam in random_shell_args(rng, 200):
        sh = mass_shell_from_lambda(m1, m2, lam)
        back = lambda_from_M2(m1, m2, sh.M2)
        assert back == pytest.approx(lam, rel=1e-10, abs=1e-12 * sh.M2)


def test_mass_bound_violation():
    # M^2 must exceed m2^2 - m1^2
    with pytest.raises(MassBoundViolation):
        lambda_from_M2(1.0, 2.0, 3.0)
    with pytest.raises(MassBoundViolation):
        lambda_from_M2(1.0, 2.0, 1.0)
    assert math.isfinite(lambda_from_M2(1.0, 2.0, 3.1))


def test_mass_excess_beats_naive_subtraction():
    m1 = m2 = 1.0
    for lam in (1e-8, 1e-12, 1e-15):
        exact = mass_excess(m1, m2, lam)
        # series: M = 2 sqrt(1 + lambda) -> excess = lambda - lambda^2/4 + ...
        series = lam - lam * lam / 4.0
        assert exact == pytest.approx(series, rel=1e-12)
        naive = mass_shell_from_lambda(m1, m2, lam).M - 2.0
        # the naive form loses digits; the reformulation must not
        assert abs(exact - series) <= abs(naive - series) + 1e-30


def test_nonrel_check_slope(rng):
    # |nonrel_check - 1| should shrink linearly with lambda
    m1, m2 = 0.8, 1.7
    lams = np.logspace(-2, -7, 6)
    devs = np.array([abs(nonrel_check(m1, m2, lam) - 1.0) for lam in lams])
    slope = np.polyfit(np.log(lams), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_energy_limits_sum_to_excess(rng):
    for m1, m2, lam in random_shell_args(rng, 100):
        d1, d2 = individual_energy_limits(m1, m2, lam)
        assert d1 + d2 == pytest.approx(mass_excess(m1, m2, lam),
                                        rel=1e-9, abs=1e-12 * (m1 + m2))


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


@pytest.mark.parametrize("M, nu, lam", [
    (0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (2.0, 0.5, 0.0), (2.0, -2.0, 0.0),
    (1.0, 0.0, 10.0),  # mu + nu <= 0: no real masses
])
def test_shell_from_M_refuses(M, nu, lam):
    with pytest.raises(BadParameter):
        shell_from_M(M, nu, lam)
