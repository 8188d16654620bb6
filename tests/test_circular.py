import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptb.circular
from ptb.binding import self_consistent_circular
from ptb.dopri import DenseOutput
from ptb.errors import BadParameter, DegenerateOrbit, DomainError, NoRoot, NotCentral, PtbError
from ptb.mass_shell import mass_shell_from_lambda
from ptb.potentials import (
    CentralPowerPotential,
    HarmonicPotential,
    PotentialEval,
    PotentialSpec,
    ScalarQuintet,
)
from ptb.circular import (
    CLOSURE_BOUND,
    CONSTANCY_BOUND,
    LINEAR_BOUND,
    CircularOrbit,
    ConstancyReport,
    PeriodicityReport,
    find_circular,
    verify_circular,
    verify_constancy,
    verify_periodicity,
)
from ptb.reduced import IntegratorOptions, Trajectory, dT_dlambda, integrate
from ptb.roots import first_root
from ptb_fixtures import Forwarding


class WSpring(PotentialSpec):
    """A w-coupled spring with only evaluate: its rest-frame partials come
    from the default PotentialSpec.partials_at."""

    name = "w_spring"
    central = True
    p2_independent = True

    def __init__(self, eps):
        self.eps = eps

    def evaluate(self, q):
        return PotentialEval(self.eps * q.w * q.ztil2, 0.0, self.eps * q.w,
                             0.0, 0.0, self.eps * q.ztil2)


def reference_find_circular(model, shell, l2):
    """find_circular with its residual evaluated through evaluate on a
    rest-frame quintet, the scalar reference of the fast path."""

    def quintet(rho):
        return ScalarQuintet(P2=shell.M2, ztil2=-(rho * rho), ytil2=-(l2 / (rho * rho)),
                             zy=-0.0, w=shell.nu * shell.nu / shell.M2)

    def residual(rho):
        return 2.0 * model.evaluate(quintet(rho)).dztil2 * rho ** 4 - l2

    rho = first_root(residual, np.logspace(-6.0, 6.0, 241), skip=DomainError)
    if rho is None:
        raise NoRoot(f"no circular-orbit radius for l2 = {l2!r} in [1e-6, 1e6]")
    ev = model.evaluate(quintet(rho))
    Omega = math.sqrt(2.0 * ev.dztil2)
    F, G = 2.0 * shell.M2 * ev.dP2, 2.0 * shell.nu * ev.dw
    rate = dT_dlambda(F, G, shell)
    period_lambda = 2.0 * math.pi / Omega
    speed2 = l2 / (rho * rho)
    return CircularOrbit(rho=rho, speed2=speed2, lambda_orbit=speed2 - 2.0 * ev.value,
                         Omega=Omega, l2=float(l2), F=F, G=G, dTdlambda=rate,
                         period_lambda=period_lambda, period_T=period_lambda * rate)


def _orbit_or_error(find, model, shell, l2):
    try:
        return tuple(x.hex() for x in dataclasses.astuple(find(model, shell, l2)))
    except PtbError as exc:
        return type(exc)


_MODELS = st.one_of(
    st.builds(CentralPowerPotential, g=st.floats(-10.0, -1e-3), n=st.sampled_from([1, 2, 3])),
    st.builds(CentralPowerPotential, g=st.floats(1e-3, 10.0), n=st.sampled_from([1, 2, 3])),
    st.builds(HarmonicPotential, chi=st.floats(1e-3, 10.0)),
    st.builds(WSpring, eps=st.floats(1e-3, 10.0)),
)


@settings(max_examples=200, deadline=None)
@given(model=_MODELS, m1=st.floats(0.1, 3.0), m2=st.floats(0.1, 3.0),
       lam_frac=st.floats(-0.99, 5.0), l2=st.floats(1e-3, 1e3))
def test_rest_frame_residual_finds_the_reference_orbit(model, m1, m2, lam_frac, l2):
    # admissible shells (m1^2 + lambda > 0); the same orbit bits or the same
    # error as the evaluate-based scan, repulsive g > 0 included
    m1, m2 = sorted((m1, m2))
    shell = mass_shell_from_lambda(m1, m2, lam_frac * m1 * m1)
    want = _orbit_or_error(reference_find_circular, model, shell, l2)
    assert _orbit_or_error(find_circular, model, shell, l2) == want
    if isinstance(model, CentralPowerPotential) and model.g > 0.0:
        assert want is NoRoot


@settings(max_examples=150, deadline=None)
@given(model=st.one_of(
           st.builds(HarmonicPotential, chi=st.floats(1e-3, 10.0)),
           # n = 60 overflows at the smallest radii of the scan: holes before the root
           st.builds(CentralPowerPotential, g=st.floats(-10.0, -1e-3),
                     n=st.sampled_from([1, 2, 3, 60]))),
       lam_frac=st.floats(-0.99, 5.0), l2=st.floats(1e-3, 1e3))
def test_the_kernel_scan_is_the_generic_scan(model, lam_frac, l2):
    # the residual of the compiled partials against the default partials_at
    # of a delegating model: the same orbit bits or the same error
    shell = mass_shell_from_lambda(1.0, 2.0, lam_frac)
    want = _orbit_or_error(find_circular, Forwarding(model), shell, l2)
    assert _orbit_or_error(find_circular, model, shell, l2) == want
    if getattr(model, "n", 0) == 60:
        with pytest.raises(DomainError, match="overflows"):
            model.partials_at(shell.M2, shell.nu)(-1e-12, 0.0, 0.0)


@pytest.fixture(scope="module")
def shell():
    # chosen so M = 4 exactly: masses sqrt(2.75), lambda = 1.25
    m = math.sqrt(2.75)
    return mass_shell_from_lambda(m, m, 1.25)


def test_harmonic_radius_closed_form(shell):
    # residual 2 chi M rho^4 = l2 -> rho = (l2 / (2 chi M))^(1/4)
    chi = 0.125
    for l2 in (0.25, 1.0, 7.5):
        orbit = find_circular(HarmonicPotential(chi), shell, l2)
        want = (l2 / (2.0 * chi * shell.M)) ** 0.25
        assert orbit.rho == pytest.approx(want, rel=1e-12)
        assert orbit.Omega == pytest.approx(math.sqrt(2.0 * chi * shell.M), rel=1e-12)
        assert orbit.speed2 == pytest.approx(l2 / want ** 2, rel=1e-11)
        assert orbit.period_lambda == pytest.approx(2.0 * math.pi / orbit.Omega,
                                                    rel=1e-15)


def test_harmonic_unit_radius(shell):
    # l2 = 2 chi M makes rho = 1 exactly; with chi M = 1/2, Omega = 1
    chi = 0.125
    l2 = 2.0 * chi * shell.M
    orbit = find_circular(HarmonicPotential(chi), shell, l2)
    assert orbit.rho == pytest.approx(1.0, rel=1e-13)
    assert orbit.Omega == pytest.approx(1.0, rel=1e-13)
    # F = -chi M rho^2, equal masses so G = 0
    assert orbit.F == pytest.approx(-chi * shell.M, rel=1e-12)
    assert orbit.G == 0.0
    assert orbit.dTdlambda == pytest.approx(0.25 * shell.M - chi, rel=1e-12)


def test_kepler_radius(shell):
    # g = -1, n = 1: residual 2 * (1/2) M rho^4 / rho^3 = l2 -> rho = l2 / M
    orbit = find_circular(CentralPowerPotential(-1.0, 1), shell, 1.0)
    assert orbit.rho == pytest.approx(1.0 / shell.M, rel=1e-12)
    orbit2 = find_circular(CentralPowerPotential(-1.0, 1), shell, 3.2)
    assert orbit2.rho == pytest.approx(3.2 / shell.M, rel=1e-12)


def test_repulsive_model_has_no_root(shell):
    with pytest.raises(NoRoot):
        find_circular(CentralPowerPotential(+1.0, 1), shell, 1.0)


def test_non_central_model_rejected(shell):
    class Skewed(PotentialSpec):
        name = "skewed"
        central = False

        def evaluate(self, q):
            return PotentialEval(q.zy, 0.0, 0.0, 0.0, 1.0, 0.0)

    with pytest.raises(NotCentral):
        find_circular(Skewed(), shell, 1.0)


def test_bad_l2_rejected(shell):
    with pytest.raises(BadParameter):
        find_circular(HarmonicPotential(1.0), shell, 0.0)
    with pytest.raises(BadParameter):
        find_circular(HarmonicPotential(1.0), shell, -1.0)


def test_degenerate_orbit_detected(shell):
    # dV/dytil2 = -1/2 freezes zeta; the solver must refuse the orbit
    class Frozen(PotentialSpec):
        name = "frozen"
        central = True  # lie about zy to reach the degeneracy check
        p2_independent = True
        w_independent = True

        def evaluate(self, q):
            return PotentialEval(q.ztil2 - 0.5 * q.ytil2, 0.0, 1.0, -0.5, 0.0, 0.0)

    with pytest.raises(DegenerateOrbit):
        find_circular(Frozen(), shell, 1.0)


def test_initial_state_lies_on_orbit(shell):
    orbit = find_circular(HarmonicPotential(0.125), shell, 1.0)
    st = orbit.initial_state()
    assert st.lambda_ == 0.0
    assert float(st.ztil @ st.ztil) == pytest.approx(orbit.rho ** 2, rel=1e-12)
    assert float(st.ytil @ st.ytil) == pytest.approx(orbit.speed2, rel=1e-12)
    assert float(st.ztil @ st.ytil) == 0.0


def test_scalars_stay_constant_over_period(shell):
    orbit = find_circular(HarmonicPotential(0.125), shell, 2.0)
    report = verify_circular(orbit, HarmonicPotential(0.125), shell)[0]
    assert report.ok()
    assert set(report.variations) == {"ztil2", "ytil2", "zy", "F", "G"}
    assert report.max_variation == max(report.variations.values())


def test_report_bounds_are_inclusive():
    assert (CONSTANCY_BOUND, CLOSURE_BOUND, LINEAR_BOUND) == (1e-9, 1e-8, 1e-10)
    assert ConstancyReport({}, CONSTANCY_BOUND).ok()
    assert not ConstancyReport({}, math.nextafter(CONSTANCY_BOUND, 1.0)).ok()
    edge = PeriodicityReport(CLOSURE_BOUND, CLOSURE_BOUND, CLOSURE_BOUND, LINEAR_BOUND)
    assert edge.ok()
    for field in ("closure_ztil", "closure_ytil", "T_advance_error", "linear_residual"):
        over = math.nextafter(getattr(edge, field), 1.0)
        assert not dataclasses.replace(edge, **{field: over}).ok()


def test_orbit_closes_and_clock_is_linear(shell):
    model = CentralPowerPotential(-1.0, 1)
    orbit = find_circular(model, shell, 1.0)
    report = verify_circular(orbit, model, shell)[1]
    assert report.ok()
    assert report.closure_ztil < 1e-9
    assert report.T_advance_error < 1e-9


def test_unequal_masses_nonzero_G_quadrature():
    # w-coupled model on an unequal-mass shell: G enters period_T
    sh = mass_shell_from_lambda(1.0, 2.0, 0.5)
    model = WSpring(0.9)
    orbit = find_circular(model, sh, 1.7)
    # reached through the default partials_at, bit for bit the reference
    assert _orbit_or_error(find_circular, model, sh, 1.7) == \
        _orbit_or_error(reference_find_circular, model, sh, 1.7)
    assert orbit.G != 0.0
    assert orbit.F == 0.0
    report = verify_circular(orbit, model, sh)[1]
    assert report.ok()


@pytest.fixture
def integrations(monkeypatch):
    """Counts the runs of ptb.circular.integrate."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    integrate = ptb.circular.integrate
    monkeypatch.setattr(ptb.circular, "integrate", counted)
    return calls


def test_both_checks_read_one_integration(shell, integrations):
    # the benchmark's shims, called one after the other, share one run
    model = HarmonicPotential(0.125)
    orbit = find_circular(model, shell, 2.0)
    constancy = verify_constancy(orbit, model, shell)
    period = verify_periodicity(orbit, model, shell)
    assert len(integrations) == 1
    # verify_circular itself keeps nothing: each call integrates
    assert verify_circular(orbit, model, shell) == (constancy, period)
    assert verify_circular(orbit, model, shell) == (constancy, period)
    assert len(integrations) == 3


def test_other_arguments_integrate_afresh(shell, integrations):
    model = HarmonicPotential(0.125)
    orbit = find_circular(model, shell, 2.0)
    verify_constancy(orbit, model, shell)
    # an equal but distinct model, another grid, another model and the
    # previous arguments again: the shims share only the last pair
    for args, kwargs in (((HarmonicPotential(0.125), shell), {}),
                         ((model, shell), {"n_samples": 300}),
                         ((HarmonicPotential(0.25), shell), {}),
                         ((model, shell), {})):
        before = len(integrations)
        got = verify_periodicity(orbit, *args, **kwargs)
        assert len(integrations) == before + 1
        assert got == verify_circular(orbit, *args, **kwargs)[1]
    assert verify_circular(orbit, HarmonicPotential(0.25), shell)[0] != \
        verify_circular(orbit, model, shell)[0]


def test_a_model_that_cannot_hash_is_verified_afresh(integrations):
    # a plain @dataclass sets __hash__ to None, and a frozen one hashes its
    # fields, a list among them; the shims once raised "TypeError: unhashable
    # type: 'Spring'" and "... 'list'" where verify_circular passed
    @dataclasses.dataclass
    class Spring(WSpring):
        eps: float

    @dataclasses.dataclass(frozen=True)
    class TaggedSpring(WSpring):
        eps: float
        tags: list

    shell = mass_shell_from_lambda(1.0, 2.0, 0.5)
    for model in (Spring(0.9), TaggedSpring(0.9, ["soft"])):
        integrations.clear()
        orbit = find_circular(model, shell, 1.7)
        want = verify_circular(orbit, model, shell)
        assert verify_constancy(orbit, model, shell) == want[0]
        assert verify_periodicity(orbit, model, shell) == want[1]
        assert len(integrations) == 3


@pytest.mark.parametrize("n_samples", [0, -3, 2.5, 400.0, math.nan, "400", None])
def test_verify_circular_refuses_a_sample_count_that_is_no_positive_integer(
        shell, integrations, n_samples):
    # 0 once divided by zero, -3 failed on a negative sample interval and
    # 2.5 ran on an uneven grid
    model = HarmonicPotential(0.125)
    orbit = find_circular(model, shell, 2.0)
    with pytest.raises(BadParameter, match=re.escape(f"got {n_samples!r}")):
        verify_circular(orbit, model, shell, n_samples=n_samples)
    assert integrations == []
    assert verify_circular(orbit, model, shell, n_samples=np.int64(5))[1].closure_ztil >= 0.0


def test_the_orbit_keeps_no_run(shell):
    model = CentralPowerPotential(-1.0, 1)
    orbit = find_circular(model, shell, 1.0)
    verify_circular(orbit, model, shell)
    verify_constancy(orbit, model, shell, n_samples=200)
    assert vars(orbit).keys() == {f.name for f in dataclasses.fields(orbit)}
    # the containers and instances reachable from the orbit's attributes
    seen, todo = set(), list(orbit.__dict__.values())
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        assert not isinstance(x, (Trajectory, DenseOutput, np.ndarray))
        if isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple, set, frozenset)):
            todo += x
        elif hasattr(x, "__dict__"):
            todo += x.__dict__.values()


@pytest.mark.parametrize("model, l2", [(CentralPowerPotential(-1.0, 1), 50.0),
                                       (HarmonicPotential(0.125), 2.0)])
def test_one_grid_of_400_is_no_worse_than_200(model, l2):
    # circular-scan orbits (m1, m2 = 1, 2): the one 400-sample run of both
    # checks is no worse than a 200-sample grid on any gated quantity
    shell, orbit = self_consistent_circular(1.0, 2.0, model, l2)
    fine = verify_circular(orbit, model, shell)
    coarse = verify_circular(orbit, model, shell, n_samples=200)
    assert fine[0].max_variation <= coarse[0].max_variation
    for field in dataclasses.fields(PeriodicityReport):
        assert getattr(fine[1], field.name) <= getattr(coarse[1], field.name)
    assert fine[1].ok() and fine[0].ok()


def test_a_landed_period_takes_one_step_per_sample():
    # the self-consistent harmonic circle of circular_scan (chi = 0.125,
    # masses (1, 2), l2 = 2.5) over one lambda-period on 400 samples.  Free
    # stepping takes 350 steps, each about 1.14 sample intervals; a step cut
    # short to land keeps the step size proposed before the cut, so each
    # interval takes about one step (417).  Had the cut step's size set the
    # next, each interval would take a long and a short step: 801 in all.
    model = HarmonicPotential(0.125)
    shell, orbit = self_consistent_circular(1.0, 2.0, model, 2.5)
    opts = IntegratorOptions(tol=1e-10, sample_interval=orbit.period_lambda / 400)
    traj = integrate(orbit.initial_state(), shell, model, orbit.period_lambda, opts)
    assert len(traj.lam) == 401
    assert traj.stats.n_accepted <= 440 and traj.stats.n_rejected == 0
    constancy, period = verify_circular(orbit, model, shell)
    assert constancy.ok() and period.ok()
