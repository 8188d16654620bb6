import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptb.errors import BadParameter, InadmissibleAlpha
from ptb.mass_ratio import RatioRow, limit_report
from ptb.mass_shell import mass_shell_from_lambda


def row_of(m2, alpha, eps):
    (row,) = limit_report(m2, alpha, [eps])
    return row


@st.composite
def admissible(draw):
    """(m2, alpha, eps) with 0 < eps <= 1 and alpha > -eps."""
    m2 = draw(st.floats(1e-3, 1e3))
    eps = draw(st.floats(1e-12, 1.0))
    alpha = draw(st.one_of(st.floats(0.0, 1e6), st.floats(-0.999, 0.0).map(lambda t: t * eps)))
    return m2, alpha, eps


@given(admissible())
def test_offset_is_the_shell_energy_share(args):
    m2, alpha, eps = args
    row = row_of(m2, alpha, eps)
    shell = mass_shell_from_lambda(math.sqrt(eps) * m2, m2, alpha * (m2 * m2))
    assert row.offset == shell.E1 / shell.M
    assert row.residual == abs(row.offset - row.limit)


def test_offset_definition():
    r = row_of(2.0, 0.7, 0.04)
    sh = mass_shell_from_lambda(0.4, 2.0, 0.7 * 4.0)
    assert r.offset == pytest.approx(0.5 + sh.nu / sh.M2, rel=1e-15)
    assert r.gamma == pytest.approx(0.2, rel=1e-15)


def test_free_case_offset_is_gamma_fraction():
    # alpha = 0: M = m1 + m2 and the offset is exactly gamma/(1 + gamma)
    for eps in (1.0, 0.25, 1e-4, 1e-10):
        r = row_of(1.0, 0.0, eps)
        g = math.sqrt(eps)
        assert r.offset == pytest.approx(g / (1.0 + g), rel=1e-13)
        assert r.limit == pytest.approx(g / (1.0 + g), rel=1e-15)


def test_alpha_one_limit_value():
    # beta = 2 + 2 sqrt(2): limit = beta/(2(1+beta)) = (sqrt(2)+1)/(sqrt(2)+... )
    r = row_of(1.0, 1.0, 1e-12)
    beta = 2.0 + 2.0 * math.sqrt(2.0)
    want = beta / (2.0 * (1.0 + beta))
    assert r.limit == pytest.approx(want, rel=1e-15)
    assert r.offset == pytest.approx(want, abs=1e-6)


def test_residual_shrinks_linearly_in_eps():
    # offset -> limit with residual O(eps): consecutive decades of eps
    # shrink the residual by about 100x
    rows = limit_report(1.0, 1.0, [1e-2, 1e-4, 1e-6, 1e-8])
    for lead, trail in zip(rows, rows[1:]):
        ratio = lead.residual / trail.residual
        assert ratio == pytest.approx(100.0, rel=0.1)


def test_exact_offsets_at_alpha_zero():
    rows = limit_report(1.0, 0.0, [1e-2, 1e-4, 1e-6])
    offsets = [r.offset for r in rows]
    assert offsets[0] == pytest.approx(0.1 / 1.1, rel=1e-12)
    assert offsets[1] == pytest.approx(0.01 / 1.01, rel=1e-12)
    assert offsets[2] == pytest.approx(0.001 / 1.001, rel=1e-12)
    for r in rows:
        assert r.residual < 1e-12


def test_alpha_scaled_with_eps_probes_negative_lambda():
    # a fixed negative alpha eventually becomes inadmissible; alpha = -eps/2
    # stays inside the bound as eps -> 0
    rows = [row_of(1.0, -eps / 2.0, eps) for eps in (1e-2, 1e-4, 1e-6)]
    for r in rows:
        assert r.alpha == pytest.approx(-r.eps / 2.0)
        assert r.limit == 0.0
        assert r.offset > 0.0
    # the offset itself tends to zero as the light particle vanishes
    assert rows[-1].offset < rows[0].offset


def test_negative_alpha_requires_general_solver_branch():
    r = row_of(1.0, -0.3, 0.5)
    sh = mass_shell_from_lambda(math.sqrt(0.5), 1.0, -0.3)
    assert r.offset == sh.E1 / sh.M
    assert r.limit == 0.0


def test_inadmissible_alpha():
    with pytest.raises(InadmissibleAlpha):
        limit_report(1.0, -0.5, [0.5])
    with pytest.raises(InadmissibleAlpha):
        limit_report(1.0, -1e-2, [1e-2])
    # just inside is fine
    assert row_of(1.0, -1e-2 + 1e-6, 1e-2).offset > 0.0


def test_parameter_validation():
    with pytest.raises(BadParameter):
        limit_report(0.0, 0.0, [0.5])
    with pytest.raises(BadParameter):
        limit_report(-1.0, 0.0, [0.5])
    with pytest.raises(BadParameter):
        limit_report(1.0, 0.0, [0.0])
    with pytest.raises(BadParameter):
        limit_report(1.0, 0.0, [1.5])
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(BadParameter, match=f"need a finite alpha, got {alpha!r}"):
            limit_report(1.0, alpha, [1e-2])


@pytest.mark.parametrize("alpha", [1.4e154, 1e200, 1e308])
def test_limit_is_one_half_once_beta_overflows(alpha):
    # alpha^2 overflows in beta; both energies are then about sqrt(lambda)
    for r in limit_report(1.0, alpha, [1e-2, 1e-6]):
        assert (r.offset, r.limit, r.residual) == (0.5, 0.5, 0.0)


def test_row_fields_consistent():
    rows = limit_report(2.5, 0.8, [1e-3])
    (r,) = rows
    assert isinstance(r, RatioRow)
    assert r.residual == pytest.approx(abs(r.offset - r.limit), abs=1e-18)
    assert r.gamma == pytest.approx(math.sqrt(r.eps), rel=1e-15)


def test_offset_bounded_by_half():
    # nu <= 0 keeps the offset in [0, 1/2]
    for eps in (1.0, 0.1, 1e-5):
        for alpha in (0.0, 0.3, 10.0, -eps / 3.0):
            assert 0.0 <= row_of(1.0, alpha, eps).offset <= 0.5 + 1e-15
    # equal masses: nu = 0 puts the center of energy midway
    assert row_of(1.0, 0.5, 1.0).offset == pytest.approx(0.5, abs=1e-15)
