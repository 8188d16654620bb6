import math
import struct
from dataclasses import replace
from textwrap import dedent, indent

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptb.errors import BadParameter, DomainError
from ptb.potentials import (
    CentralPowerPotential,
    FreePotential,
    HarmonicPotential,
    PotentialSpec,
    ScalarQuintet,
    builtin,
)

MODELS = [
    FreePotential(),
    HarmonicPotential(0.3),
    HarmonicPotential(2.5),
    CentralPowerPotential(-1.0, 1),
    CentralPowerPotential(0.7, 2),
    CentralPowerPotential(-0.05, 3),
]


def random_quintet(rng):
    P2 = float(rng.uniform(0.5, 30.0))
    ztil2 = -float(rng.uniform(0.1, 9.0))
    ytil2 = -float(rng.uniform(0.0, 4.0))
    # Cauchy-Schwarz bound for spacelike tilde vectors
    zy = float(rng.uniform(-1, 1)) * math.sqrt(ztil2 * ytil2)
    w = float(rng.uniform(0.0, 2.0))
    return ScalarQuintet(P2=P2, ztil2=ztil2, ytil2=ytil2, zy=zy, w=w)


def fd_partial(model, q, field):
    scale = abs(getattr(q, field)) + 1.0
    h = 1e-5 * scale
    lo = replace(q, **{field: getattr(q, field) - h})
    hi = replace(q, **{field: getattr(q, field) + h})
    return (model.evaluate(hi).value - model.evaluate(lo).value) / (2.0 * h)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_partials_match_finite_differences(model, rng):
    for _ in range(100):
        q = random_quintet(rng)
        ev = model.evaluate(q)
        for field, got in (("P2", ev.dP2), ("ztil2", ev.dztil2),
                           ("ytil2", ev.dytil2), ("zy", ev.dzy), ("w", ev.dw)):
            want = fd_partial(model, q, field)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8), (field, q)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_flags_are_truthful(model, rng):
    for _ in range(40):
        ev = model.evaluate(random_quintet(rng))
        if model.central:
            assert ev.dytil2 == 0.0 and ev.dzy == 0.0
        if model.p2_independent:
            assert ev.dP2 == 0.0
        if model.w_independent:
            assert ev.dw == 0.0


def test_free_is_identically_zero(rng):
    ev = FreePotential().evaluate(random_quintet(rng))
    assert (ev.value, ev.dP2, ev.dztil2, ev.dytil2, ev.dzy, ev.dw) == (0,) * 6


def test_harmonic_value_and_sign():
    q = ScalarQuintet(P2=4.0, ztil2=-2.0, ytil2=-1.0, zy=0.0, w=0.0)
    ev = HarmonicPotential(0.5).evaluate(q)
    assert ev.value == pytest.approx(0.5 * 2.0 * -2.0)
    assert ev.value < 0.0
    assert ev.dztil2 > 0.0  # restoring force


def test_central_power_newtonian_case():
    # g = -1, n = 1 at rho = 2, sqrt(P2) = 3: V = 3/2
    q = ScalarQuintet(P2=9.0, ztil2=-4.0, ytil2=-1.0, zy=0.0, w=0.0)
    ev = CentralPowerPotential(-1.0, 1).evaluate(q)
    assert ev.value == pytest.approx(1.5)
    assert ev.dztil2 == pytest.approx(0.5 * 1 * 1.5 / 4.0)


def test_scale_homogeneity_in_P2(rng):
    # every builtin is homogeneous of degree 1 in sqrt(P2)
    for model in MODELS:
        q = random_quintet(rng)
        v1 = model.evaluate(q).value
        v4 = model.evaluate(replace(q, P2=4.0 * q.P2)).value
        assert v4 == pytest.approx(2.0 * v1, rel=1e-12, abs=1e-15)


def test_domain_errors():
    bad_p2 = ScalarQuintet(P2=-1.0, ztil2=-1.0, ytil2=0.0, zy=0.0, w=0.0)
    timelike_sep = ScalarQuintet(P2=4.0, ztil2=0.5, ytil2=0.0, zy=0.0, w=0.0)
    with pytest.raises(DomainError):
        HarmonicPotential(1.0).evaluate(bad_p2)
    with pytest.raises(DomainError):
        CentralPowerPotential(-1.0, 1).evaluate(bad_p2)
    with pytest.raises(DomainError):
        CentralPowerPotential(-1.0, 1).evaluate(timelike_sep)


@pytest.mark.parametrize("n, z2", [(3, 1e-250), (1, 1e-250), (2, 1e-160)])
def test_central_power_overflow_is_a_domain_error(n, z2):
    # rho2 ** (-n/2) overflows (n = 3) or the partial divided by rho2 does
    # (n = 1, 2); both entry points name the separation and the exponent
    model = CentralPowerPotential(-1.0, n)
    message = f"ztil2 = {-z2!r} with n = {n}"
    with pytest.raises(DomainError, match=message):
        model.partials_at(1.0, 0.0)(-z2, -0.1, -0.0)
    with pytest.raises(DomainError, match=message):
        model.evaluate(ScalarQuintet(P2=1.0, ztil2=-z2, ytil2=-0.1, zy=-0.0, w=0.0))


def test_parameter_validation():
    with pytest.raises(BadParameter):
        HarmonicPotential(0.0)
    with pytest.raises(BadParameter):
        HarmonicPotential(-1.0)
    with pytest.raises(BadParameter):
        HarmonicPotential(float("nan"))
    with pytest.raises(BadParameter):
        CentralPowerPotential(0.0, 1)
    with pytest.raises(BadParameter):
        CentralPowerPotential(1.0, 0)
    with pytest.raises(BadParameter):
        CentralPowerPotential(1.0, 1.5)


def test_builtin_factory():
    assert isinstance(builtin("free"), FreePotential)
    assert builtin("harmonic", chi=2.0).chi == 2.0
    cp = builtin("central_power", g=-1.0, n=2)
    assert (cp.g, cp.n) == (-1.0, 2)
    with pytest.raises(BadParameter):
        builtin("coulomb")
    with pytest.raises(BadParameter):
        builtin("harmonic")
    with pytest.raises(BadParameter):
        builtin("harmonic", chi=1.0, g=2.0)
    with pytest.raises(BadParameter):
        builtin("central_power", g=-1.0)
    with pytest.raises(BadParameter):
        builtin("free", chi=1.0)


def test_describe_round_trips_through_builtin():
    for model in MODELS:
        d = model.describe()
        clone = builtin(d.pop("kind"), **d)
        assert repr(clone) == repr(model)


def _bits(values):
    return struct.pack("6d", *values)


def _partials_or_error(partials_at, model, M2, nu, z2, y2, zy):
    """The bits of partials_at(M2, nu) at the rest-frame state, or its error."""
    try:
        return _bits(partials_at(model, M2, nu)(-z2, -y2, -zy))
    except (DomainError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def rest_frame_states(draw):
    """(M2, nu, z2, y2, zy) on the admissible space, with |zy| bounded by
    Cauchy-Schwarz."""
    M2 = draw(st.floats(1e-6, 1e6, **_finite))
    nu = draw(st.floats(-1e6, 0.0, **_finite))
    z2 = draw(st.floats(1e-12, 1e8, **_finite))
    y2 = draw(st.floats(0.0, 1e8, **_finite))
    c = draw(st.floats(-1.0, 1.0, **_finite))
    return M2, nu, z2, y2, c * math.sqrt(z2 * y2)


@pytest.mark.parametrize("model", MODELS, ids=repr)
@given(args=rest_frame_states())
def test_rest_partials_fast_path_is_bit_identical(model, args):
    # a builtin's partials_at, compiled from its _source, against the
    # evaluate-based default of PotentialSpec on the same rest-frame quintet
    M2, nu, z2, y2, zy = args
    fast = model.partials_at(M2, nu)(-z2, -y2, -zy)
    assert _bits(fast) == _bits(PotentialSpec.partials_at(model, M2, nu)(-z2, -y2, -zy))
    assert all(math.isfinite(x) for x in fast) and fast[3:] == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("model", MODELS, ids=repr)
@given(M2=st.floats(-10.0, 10.0, **_finite).filter(lambda x: x != 0.0),
       z2=st.floats(-10.0, 10.0, **_finite), y2=st.floats(0.0, 10.0, **_finite))
def test_rest_partials_fast_path_fails_like_evaluate(model, M2, z2, y2):
    # inside or outside the domain: the same numbers or the same error.  M2 = 0
    # is left out: there is no rest frame, and the default binding fails
    # earlier, at w = nu^2 / M2
    args = (model, M2, -0.5, z2, y2, 0.0)
    fast = _partials_or_error(type(model).partials_at, *args)
    assert fast == _partials_or_error(PotentialSpec.partials_at, *args)
    outside = M2 < 0.0 or (isinstance(model, CentralPowerPotential) and z2 <= 0.0)
    if outside and not isinstance(model, FreePotential):
        assert fast.startswith("DomainError")


def _flat_kernel(cls):
    """The scalar reference of a kernel model class: the head and the lines
    per ztil2 of its _source as one function of (self, P2, ztil2)."""
    head, body = dedent(cls._source).split("# per ztil2\n")
    src = "".join(f"{p} = self.{p}\n" for p in cls.params) + head + body
    exec(compile(f"def flat(self, P2, ztil2):\n{indent(src, '    ')}"
                 "    return V, dP2, dztil2, 0.0, 0.0, 0.0",
                 f"<flat kernel of {cls.__name__}>", "exec"),
         namespace := {"math": math, "DomainError": DomainError})
    return namespace["flat"]


def _bits_or_error(fn, *args):
    try:
        return _bits(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


_KERNEL_MODELS = st.one_of(
    st.just(FreePotential()),
    st.builds(HarmonicPotential, st.floats(1e-3, 10.0)),
    # n up to 64 overflows at the smallest radii: those draws check the error text
    st.builds(CentralPowerPotential, st.floats(-10.0, 10.0).filter(lambda g: abs(g) > 1e-3),
              st.integers(1, 64)))


@settings(max_examples=400)
@given(model=_KERNEL_MODELS, P2=st.floats(-1.0, 1e4, **_finite),
       ztil2=st.one_of(st.floats(-1e6, 0.0, **_finite),
                       st.floats(-30.0, 3.0).map(lambda e: -(10.0 ** e))))
def test_the_bound_kernel_is_the_flat_source(model, P2, ztil2):
    # head once, then the lines per ztil2: the same floats as running both
    # in one function, or the same DomainError, from the head or the body;
    # a kernel model reads neither nu nor ytil2 nor zy
    want = _bits_or_error(_flat_kernel(type(model)), model, P2, ztil2)
    assert _bits_or_error(lambda: model.partials_at(P2, -0.5)(ztil2, -1.0, 0.25)) == want
