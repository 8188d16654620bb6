import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ptb import roots
from ptb.circular import find_circular
from ptb.errors import DomainError, NoRoot
from ptb.mass_shell import mass_shell_from_lambda
from ptb.potentials import CentralPowerPotential, HarmonicPotential
from ptb.roots import brent, first_root

# smooth functions with a root at c; each is monotone near c
FAMILIES = (
    lambda c, s: lambda x: (x - c) * (1.0 + s * (x - c) ** 2),
    lambda c, s: lambda x: math.tanh((1.0 + 10.0 * s) * (x - c)),
    lambda c, s: lambda x: math.exp(s * x) - math.exp(s * c) + (x - c),
    lambda c, s: lambda x: math.sin(0.5 * (x - c)) + s * (x - c) ** 3,
)
TOLS = ((1e-15, 8.9e-16), (2e-12, 4.0 * 2.220446049250313e-16), (1e-6, 1e-9))


def reference(f, a, b, xtol, rtol):
    """scipy's brentq, with its bracket and convergence errors as None."""
    try:
        return brentq(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError):
        return None


def ours(f, a, b, xtol, rtol):
    try:
        return brent(f, a, b, xtol=xtol, rtol=rtol)
    except NoRoot:
        return None


def same_bits(x, y):
    return (x is None and y is None) or (
        x is not None and y is not None and float(x).hex() == float(y).hex())


@settings(max_examples=300)
@given(family=st.sampled_from(FAMILIES),
       c=st.floats(-5.0, 5.0),
       s=st.floats(0.0, 3.0),
       left=st.floats(1e-9, 4.0),
       right=st.floats(-1.0, 4.0),
       tols=st.sampled_from(TOLS))
def test_brent_matches_scipy_bits(family, c, s, left, right, tols):
    # right < 0 draws brackets without a sign change as well
    f = family(c, s)
    a, b = c - left, c + right
    assert same_bits(ours(f, a, b, *tols), reference(f, a, b, *tols))
    assert same_bits(ours(f, b, a, *tols), reference(f, b, a, *tols))


@given(g=st.floats(-2.0, -0.05), n=st.integers(1, 3),
       lam=st.floats(-0.5, 2.0), l2=st.floats(0.05, 200.0))
def test_find_circular_residual_matches_scipy_bits(g, n, lam, l2):
    shell = mass_shell_from_lambda(1.0, 2.0, lam)
    pairs = []

    def checked(f, a, b, **kw):
        root = brent(f, a, b, **kw)
        pairs.append((root, brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)))
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "brent", checked)
        for model in (CentralPowerPotential(g=g, n=n), HarmonicPotential(chi=-g)):
            try:
                find_circular(model, shell, l2)
            except NoRoot:
                pass
    assert pairs
    for mine, theirs in pairs:
        assert same_bits(mine, theirs)


def test_brent_same_sign_bracket_raises_no_root():
    # scipy raises ValueError here
    with pytest.raises(NoRoot, match="share a sign"):
        brent(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brent_iteration_budget_raises_no_root():
    # bisection alone needs about 1,000 halvings of this bracket; scipy
    # raises RuntimeError here
    with pytest.raises(NoRoot, match="after 100 iterations"):
        brent(lambda x: math.tanh(x - 0.3), -1e300, 1e300)


def test_brent_nan_names_x():
    def f(x):
        return math.nan if 0.45 < x < 0.55 else x - 0.5

    with pytest.raises(NoRoot, match=r"x = 0\.5\b"):
        brent(f, 0.0, 1.0)


def test_brent_returns_exact_endpoint_zero():
    assert brent(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert brent(lambda x: x - 5.0, 2.0, 5.0) == 5.0


def test_first_root_refines_first_sign_change():
    root = first_root(math.sin, [0.5 + i for i in range(10)])
    assert root == pytest.approx(math.pi, rel=1e-15)


def test_first_root_exact_zero_on_grid():
    assert first_root(lambda x: x - 3.0, [1.0, 2.0, 3.0, 4.0]) == 3.0


def test_first_root_none_without_sign_change():
    assert first_root(lambda x: x * x + 1.0, [-1.0, 0.0, 1.0]) is None


def test_first_root_holes_break_brackets():
    def f(x):
        if x == 1.5:
            raise DomainError("hole")
        return x - 2.0

    # the only sign change spans the hole, so there is no bracket
    assert first_root(f, [1.0, 1.5, 3.0], skip=DomainError) is None
    assert first_root(lambda x: math.nan if x == 1.5 else x - 2.0,
                      [1.0, 1.5, 3.0]) is None
    assert first_root(f, [1.0, 1.5, 1.8, 3.0], skip=DomainError) == \
        pytest.approx(2.0, abs=1e-15)


def test_first_root_brackets_values_whose_product_underflows():
    # f(-1) * f(1) underflows to -0.0, yet the two values differ in sign
    assert first_root(lambda x: 1e-200 * x, [-1.0, 1.0]) == 0.0
    assert first_root(lambda x: 1e-200 * (x - 0.25), [-1.0, 1.0]) == \
        pytest.approx(0.25, abs=1e-15)


def test_first_root_propagates_unskipped_errors():
    def f(x):
        raise ZeroDivisionError("bug")

    with pytest.raises(ZeroDivisionError):
        first_root(f, [1.0, 2.0], skip=DomainError)
