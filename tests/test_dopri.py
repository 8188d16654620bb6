import bisect
import math
import re
from array import array
from struct import Struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ptb.reduced
from ptb import dopri
from ptb.dopri import solve_dopri5
from ptb.errors import OutOfRange, StepFailure
from ptb.mass_shell import mass_shell_from_lambda
from ptb.potentials import HarmonicPotential
from ptb.reduced import IntegratorOptions, ReducedState, integrate

from dopri_reference import attempt as reference_attempt
from ptb_fixtures import reference_sample_grid


def shm(t, y):
    return [y[1], -y[0]]


def shm_exact(t):
    return np.array([math.cos(t), -math.sin(t)])


def test_shm_against_closed_form():
    res = solve_dopri5(shm, (0.0, 20.0 * math.pi), np.array([1.0, 0.0]), tol=1e-10)
    err = abs(res.y[-1] - shm_exact(20.0 * math.pi)).max()
    assert err < 1e-8
    assert res.stats.n_accepted == len(res.dense.t) - 1
    assert res.dense.t[0] == 0.0
    assert res.dense.t[-1] == 20.0 * math.pi


def test_tolerance_scaling_is_per_unit_time():
    # error per unit t: halving tol should roughly halve the global error,
    # i.e. global error ~ tol * span (within controller slop)
    span = 10.0 * math.pi
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        res = solve_dopri5(shm, (0.0, span), np.array([1.0, 0.0]), tol=tol)
        errs.append(abs(res.y[-1] - shm_exact(span)).max())
    assert errs[0] > errs[1] > errs[2]
    # two decades of tol give roughly two decades of error
    assert errs[0] / errs[2] > 1e2
    assert errs[2] < 1e-9 * span


def test_dense_output_accuracy():
    res = solve_dopri5(shm, (0.0, 10.0), np.array([1.0, 0.0]), tol=1e-10)
    dense = res.dense
    ts = np.linspace(0.0, 10.0, 401)
    worst = 0.0
    for t in ts:
        i = max(bisect.bisect_right(dense.t, t, hi=len(dense.t) - 1) - 1, 0)
        assert dense.t[i] <= t <= dense.t[i + 1]
        worst = max(worst, abs(np.array(dense(t)) - shm_exact(t)).max())
    assert worst < 1e-8


def test_dense_segments_interpolate_step_ends():
    res = solve_dopri5(shm, (0.0, 3.0), np.array([1.0, 0.0]), tol=1e-10)
    for t0, t1, y0, y1 in zip(res.dense.t, res.dense.t[1:], res.y, res.y[1:]):
        assert np.array_equal(res.dense(t0), y0)
        assert np.allclose(res.dense(t0 + (t1 - t0)), y1, rtol=0, atol=1e-15)


def scalar_quartic(dense, t):
    """The dense output at one t as a loop over components in float
    arithmetic: the reference for the array evaluation."""
    grid = dense.t.tolist()
    i = min(max(bisect.bisect_right(grid, t) - 1, 0), len(grid) - 2)
    h = grid[i + 1] - grid[i]
    theta = (t - grid[i]) / h
    th1 = 1.0 - theta
    (y, _, _, _, _, k1), (y1, k3, k4, k5, k6, k7) = dense.groups[i:i + 2].tolist()
    out = []
    for y0c, y1c, c1, c3, c4, c5, c6, c7 in zip(y, y1, k1, k3, k4, k5, k6, k7):
        r2 = y1c - y0c
        r3 = h * c1 - r2
        r4 = r2 - h * c7 - r3
        r5 = h * (dopri._D1 * c1 + dopri._D3 * c3 + dopri._D4 * c4 + dopri._D5 * c5
                  + dopri._D6 * c6 + dopri._D7 * c7)
        out.append(y0c + theta * (r2 + th1 * (r3 + theta * (r4 + th1 * r5))))
    return out


def kepler(t, y):
    r3 = (y[0] * y[0] + y[1] * y[1]) ** 1.5
    return [y[2], y[3], -y[0] / r3, -y[1] / r3]


@given(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=40))
def test_dense_output_of_an_array_is_the_scalar_quartic(ts):
    # bit for bit, signs of zero included, anywhere in the span
    res = solve_dopri5(kepler, (0.0, 8.0), [0.5, 0.0, 0.0, 1.6], tol=1e-9)
    want = np.array([scalar_quartic(res.dense, t) for t in ts])
    got = res.dense(np.array(ts))
    assert got.shape == want.shape == (len(ts), 4)
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64), want.view(np.int64))
    assert [res.dense(t) for t in ts] == want.tolist()


@pytest.mark.parametrize("t", [-1e-300, -1.0, math.nextafter(8.0, 9.0), 9.0, math.nan])
def test_dense_output_refuses_t_outside_the_span(t):
    res = solve_dopri5(kepler, (0.0, 8.0), [0.5, 0.0, 0.0, 1.6], tol=1e-9)
    assert res.dense.t[-1] == 8.0
    line = f"t = {t!r} outside [0.0, 8.0]"
    with pytest.raises(OutOfRange, match=re.escape(line)):
        res.dense(t)
    # an array query names its first t outside the span
    with pytest.raises(OutOfRange, match=re.escape(line)):
        res.dense(np.array([0.0, 4.0, t, -2.0, 8.0]))
    assert res.dense(np.array([0.0, 8.0])).shape == (2, 4)


def test_a_sample_grid_lands_exactly():
    res = solve_dopri5(shm, (0.0, 5.0), np.array([1.0, 0.0]), sample_interval=0.31)
    assert res.t.tolist() == [k * 0.31 for k in range(17)] + [5.0]  # bitwise: landed on
    for t, y in zip(res.t, res.y):
        assert abs(y - shm_exact(t)).max() < 1e-9


@pytest.mark.parametrize("interval", [0.0, -0.5, math.nan, -math.inf])
def test_a_sample_interval_that_is_not_positive_is_refused_before_f(interval):
    calls = []
    with pytest.raises(ValueError, match=re.escape(
            f"sample_interval must be positive, got {interval!r}")):
        solve_dopri5(lambda t, y: calls.append(t) or shm(t, y), (0.0, 1.0), [1.0, 0.0],
                     sample_interval=interval)
    assert calls == []


def test_a_sample_interval_below_the_spacing_of_t_is_refused_before_f():
    # 1e10 + k 1e-6 rounds to repeated points, which would be steps of size 0
    calls = []
    with pytest.raises(ValueError, match=re.escape(
            "sample_interval = 1e-06 is below the float spacing of t in (10000000000.0, "
            "10000000001.0)")):
        solve_dopri5(lambda t, y: calls.append(t) or shm(t, y), (1e10, 1e10 + 1.0),
                     [1.0, 0.0], sample_interval=1e-6)
    assert calls == []


def test_a_sample_grid_ends_on_the_span():
    # a negative span lands on t0 + k d; the last point is t1, in place of a
    # point within 1e-12 of the span of it, and t1 also follows a wider gap
    res = solve_dopri5(shm, (-2.0, -1.0), [1.0, 0.0], sample_interval=0.5)
    assert res.t.tolist() == [-2.0, -1.5, -1.0]
    for d in (0.5 - 1e-13, 0.5 + 1e-13):
        res = solve_dopri5(shm, (0.0, 1.0), [1.0, 0.0], sample_interval=d)
        assert res.t.tolist() == [0.0, d, 1.0]
    assert solve_dopri5(shm, (0.0, 1.0), [1.0, 0.0], sample_interval=5.0).t.tolist() == [0.0, 1.0]


def draw_interval(data, span):
    """An interval wider than the span, within 1e-9 of span / k, or any."""
    k = data.draw(st.integers(1, 300))
    return data.draw(st.one_of(
        st.floats(1.0, 1e3).map(lambda x: x * span),
        st.floats(-1e-9, 1e-9).map(lambda e: span / k * (1.0 + e)),
        st.floats(0.5, 2.0).map(lambda x: x * span / k)))


@given(st.floats(1e-6, 1e4), st.floats(-1e3, 1e3), st.data())
def test_the_solver_lands_on_the_grid_integrate_built(span, t0, data):
    interval = draw_interval(data, span)
    res = solve_dopri5(lambda t, y: [1.0], (0.0, span), [0.0], sample_interval=interval)
    assert res.t.tobytes() == reference_sample_grid(span, interval).tobytes()
    # from t0, the points t0 + k d, and t1 in place of the last within rounding
    t1 = t0 + span
    res = solve_dopri5(lambda t, y: [1.0], (t0, t1), [0.0], sample_interval=interval)
    want = [t0 + k * interval for k in range(math.floor((t1 - t0) / interval + 1e-9) + 1)]
    if t1 - want[-1] <= 1e-12 * (t1 - t0):
        want.pop()
    assert res.t.tolist() == want + [t1]


def test_max_step_is_respected():
    res = solve_dopri5(shm, (0.0, 10.0), np.array([1.0, 0.0]),
                       tol=1e-6, max_step=0.01)
    hs = np.diff(res.dense.t)
    assert hs.max() <= 0.01 + 1e-12
    assert res.stats.n_accepted >= 1000


def test_blowup_raises_step_failure():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(StepFailure) as info:
        solve_dopri5(lambda t, y: [y[0] * y[0]], (0.0, 2.0), np.array([1.0]), tol=1e-8)
    msg = str(info.value)
    assert "underflow at t = 0.99" in msg
    assert "h = " in msg and "last error estimate = " in msg
    assert "nan" not in msg


@pytest.mark.parametrize("t_span", [(0.0, 1e-15), (1e3, 1e3 + 1e-12), (-5e3, -5e3 + 1e-12)])
def test_a_span_below_the_underflow_scale_is_one_landed_step(t_span):
    # the underflow guard h < 1e-14 max(1, |t|) refused the first step of
    # such a span, though that step lands on t1; a step that lands is no underflow
    free = solve_dopri5(shm, t_span, [1.0, 0.0])
    for res in (free, solve_dopri5(shm, t_span, [1.0, 0.0], sample_interval=1.0)):
        assert res.t.tolist() == list(t_span)
        assert res.stats.n_accepted == res.stats.n_landed == 1


def test_max_steps_budget(monkeypatch):
    monkeypatch.setattr(dopri, "MAX_STEPS", 10)
    with pytest.raises(StepFailure) as info:
        solve_dopri5(shm, (0.0, 1000.0), np.array([1.0, 0.0]), tol=1e-10)
    msg = str(info.value)
    assert "budget 10 exhausted at t = " in msg
    assert "last h = " in msg and "last error estimate = " in msg
    assert "nan" not in msg


@pytest.mark.parametrize("rate", [5.0, 50.0])
def test_rhs_count_is_exact(rate):
    calls = []

    def relax(t, y):
        calls.append(t)
        return [-rate * (y[0] - math.cos(t))]

    res = solve_dopri5(relax, (0.0, 3.0), np.array([0.0]), tol=1e-6)
    stats = res.stats
    assert stats.n_rejected > 0  # the identity must hold across rejections
    # the first derivative, the probe of the initial step, six new stages
    # per attempted step
    assert stats.n_rhs == len(calls) == 2 + 6 * (stats.n_accepted + stats.n_rejected)


def test_sample_derivatives_are_the_fsal_stage():
    for interval in (None, 0.31):
        res = solve_dopri5(shm, (0.0, 3.0), np.array([1.0, 0.0]), sample_interval=interval)
        assert res.dy.shape == res.y.shape
        for t, y, dy in zip(res.t, res.y, res.dy):
            assert np.array_equal(dy, shm(t, y))  # bit for bit


def test_dense_output_budget(monkeypatch):
    # the store of k accepted steps takes 8 (6 n + 2) k bytes; the step that
    # would pass the budget is refused before it is attempted
    assert dopri.MAX_DENSE_BYTES == 2 ** 30 and dopri.dense_steps(8) == 2_684_354
    full = solve_dopri5(shm, (0.0, 3.0), [1.0, 0.0], tol=1e-6)
    k = full.stats.n_accepted
    monkeypatch.setattr(dopri, "MAX_DENSE_BYTES", 8 * 14 * k + 111)
    assert dopri.dense_steps(2) == k
    again = solve_dopri5(shm, (0.0, 3.0), [1.0, 0.0], tol=1e-6)
    assert np.array_equal(again.dense.groups, full.dense.groups)
    monkeypatch.setattr(dopri, "MAX_DENSE_BYTES", 8 * 14 * k - 1)
    with pytest.raises(StepFailure) as info:
        solve_dopri5(shm, (0.0, 3.0), [1.0, 0.0], tol=1e-6)
    assert str(info.value) == (f"dense output budget {8 * 14 * k - 1} bytes full "
                               f"at t = {float(full.dense.t[-2])!r}")


def test_a_max_step_too_fine_for_the_budget_is_refused_before_f(monkeypatch):
    # each accepted step is at most max_step; such a run used to step until a
    # budget ran out, at the real dense budget some 3.5 million steps
    monkeypatch.setattr(dopri, "MAX_DENSE_BYTES", 2 ** 20)
    calls = []

    def counted(t, y):
        calls.append(t)
        return shm(t, y)

    assert dopri.dense_steps(2) == 9362
    with pytest.raises(StepFailure) as info:
        solve_dopri5(counted, (0.0, 100.0), [1.0, 0.0], max_step=0.01)
    assert str(info.value) == ("max_step = 0.01 over a span of 100.0 needs more accepted "
                               "steps than the step budget of 9362")
    monkeypatch.setattr(dopri, "MAX_STEPS", 100)
    with pytest.raises(StepFailure, match="than the step budget of 100$"):
        solve_dopri5(counted, (0.0, 10.0), [1.0, 0.0], max_step=0.09)
    assert calls == []


def test_linear_problem_is_cheap():
    res = solve_dopri5(lambda t, y: [2.0], (0.0, 5.0),
                       np.array([1.0]), tol=1e-10)
    assert res.y[-1][0] == pytest.approx(11.0, rel=1e-13)
    assert res.stats.n_accepted < 30


def test_an_error_estimate_at_rounding_level_sets_one_next_step():
    # y' = 1 + a t^4 from y = 0: every run starts with h = 1e-4, whose error
    # estimate is 0 at a = 0, 6.9e-8 of tol at a = 100 (rounding) and about
    # 2.6e-10 a of tol from a = 1e4 on.  Below 1e-4 each run proposes the
    # second step that 1e-4 gives, and not one that follows the estimate
    def second_step(a):
        return np.diff(solve_dopri5(lambda t, y: [1.0 + a * t ** 4], (0.0, 1.0), [0.0]).dense.t)[1]

    assert {second_step(a) for a in (0.0, 1e2, 1e4, 3e4, 1e5)} == {second_step(2e5)}
    assert second_step(1e6) < second_step(0.0)  # 2.6e-4 is above the floor


def test_decay_accuracy():
    res = solve_dopri5(lambda t, y: [-5.0 * y[0]], (0.0, 1.0),
                       np.array([1.0]), tol=1e-10)
    assert res.y[-1][0] == pytest.approx(math.exp(-5.0), rel=1e-7)
    # harsh decay: the absolute part of the tolerance caps resolution at
    # roughly tol * span, nothing finer
    harsh = solve_dopri5(lambda t, y: [-50.0 * y[0]], (0.0, 1.0),
                         np.array([1.0]), tol=1e-9)
    assert abs(harsh.y[-1][0] - math.exp(-50.0)) < 1e-9


def test_input_validation():
    with pytest.raises(ValueError):
        solve_dopri5(shm, (1.0, 0.0), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        solve_dopri5(shm, (0.0, 1.0), np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("span", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_a_non_finite_span_is_refused_before_f(monkeypatch, span):
    # (0, inf) stepped until the step budget ran out, some 3.5 million steps
    # for integrate's six components, and (-inf, 0) reported a step size
    # underflow at t = -inf; the budget is cut here so a regression is quick
    monkeypatch.setattr(dopri, "MAX_STEPS", 1000)
    calls = []
    with pytest.raises(ValueError, match=re.escape(f"need finite t0 < t1, got {span!r}")):
        solve_dopri5(lambda t, y: calls.append(t) or shm(t, y), span, [1.0, 0.0])
    assert calls == []
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    with pytest.raises(ValueError, match=re.escape(
            f"span must be positive and finite, got {span[1] - span[0]!r}")):
        integrate(st0, shell, HarmonicPotential(0.3), span[1] - span[0])


@pytest.mark.parametrize("option, value", [
    ("tol", math.nan), ("tol", -1e-10), ("tol", 0.0), ("tol", math.inf),
    ("max_step", 0.0), ("max_step", -1.0), ("max_step", math.nan), ("max_step", math.inf),
])
def test_a_bad_tol_or_max_step_is_refused_before_f(monkeypatch, option, value):
    # nan, a negative or a zero tol or max_step once failed inside the run,
    # with a TypeError, a ZeroDivisionError or a StepFailure, or (a nan
    # max_step) ran as if it were infinite
    calls = []

    def counted(f):
        return lambda *args: calls.append(args) or f(*args)

    monkeypatch.setattr(ptb.reduced, "rhs", counted(ptb.reduced.rhs))
    shell = mass_shell_from_lambda(1.0, 2.0, 0.1)
    st0 = ReducedState(0.0, np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.4, 0.1]))
    runs = (lambda: solve_dopri5(counted(shm), (0.0, 10.0), [1.0, 0.0], **{option: value}),
            lambda: integrate(st0, shell, HarmonicPotential(0.3), 10.0,
                              IntegratorOptions(**{option: value})))
    for run in runs:
        if (option, value) == ("max_step", math.inf):
            assert run().stats.h_max < math.inf and calls
        else:
            with pytest.raises(ValueError, match=re.escape(f"{option}={value!r}")):
                run()
            assert calls == []


@pytest.mark.parametrize("f, y0, line", [
    (shm, [math.nan, 1.0], "non-finite y0[0] = nan at t = 0.0"),
    (lambda t, y: [y[1], math.inf], [1.0, 0.0], "non-finite f(t0, y0)[1] = inf at t = 0.0"),
])
def test_non_finite_state_stops_at_once(monkeypatch, f, y0, line):
    # a nan stage used to reject every step, with h turning nan, until the
    # step budget ran out
    monkeypatch.setattr(dopri, "MAX_STEPS", 1000)
    with pytest.raises(StepFailure) as info:
        solve_dopri5(f, (0.0, 1.0), y0)
    msg = str(info.value)
    assert msg.startswith(line)
    assert "budget" not in msg


@pytest.mark.parametrize("f, y0, tol, probe", [
    (lambda t, y: [1e150, 0.0], [1.0, 0.0], 1e-10, "f(t0, y0)"),
    (lambda t, y: [1.0, 0.0], [1e100, 0.0], 1e-300, "y0"),
    (lambda t, y: [1e160 if t > 0.5 else 1.0, 0.0], [1e10, 0.0], 1e-10, "f(t0 + h0) - f(t0, y0)"),
], ids=["f0", "y0", "probe"])
def test_an_overflowing_scaled_norm_stops_at_once(f, y0, tol, probe):
    # (a / s) ** 2 raised OverflowError; a square taken as inf would make the
    # first trial step 0 and the second probe divide by it
    with pytest.raises(StepFailure) as info:
        solve_dopri5(f, (0.5, 1.0), y0, tol=tol)
    assert str(info.value) == f"scaled norm of {probe} overflows in the first-step probe at t0 = 0.5"


def test_nan_inside_the_run_names_the_stage_and_the_step():
    with pytest.raises(StepFailure) as info:
        solve_dopri5(lambda t, y: [y[1], -y[0] if t < 0.5 else math.nan], (0.0, 1.0),
                     [1.0, 0.0])
    msg = str(info.value)
    t = float(msg.split("in the step from t = ")[1].split(" ")[0])
    assert msg.startswith("non-finite k") and "[1] = nan" in msg
    assert t < 0.5 and "(h = " in msg


@given(st.sampled_from([1, 2, 8]), st.data())
def test_unrolled_attempt_is_the_reference_step(n, data):
    # every stage, the new state and the error sum, bit for bit, on a
    # polynomial right-hand side that couples neighbouring components
    vector = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
    y, k1, a, b = (data.draw(vector) for _ in range(4))
    c = data.draw(st.floats(-2.0, 2.0))
    t = data.draw(st.floats(-5.0, 5.0))
    t_new = t + data.draw(st.floats(1e-8, 1.0))
    h = t_new - t

    def f(s, u):
        return [a[i] * u[i] * u[i - 1] + b[i] * u[i] + c * s * s for i in range(n)]

    end, group, s = dopri._attempt(n)(f, t, h, t_new, (*y, *k1))
    _, k3, k4, k5, k6, k7, y_new, s_ref = reference_attempt(f, t, h, t_new, y, k1)
    assert repr((end, s)) == repr(((*y_new, *k7), s_ref))
    # the dense group as the raw doubles of the reference stages
    assert group == Struct(f"{6 * n}d").pack(*y_new, *k3, *k4, *k5, *k6, *k7)


@pytest.mark.parametrize("kw", [{"tol": 1e-9}, {"tol": 1e-9, "sample_interval": 8.0 / 22},
                                {"tol": 1e-6}], ids=["free", "landed", "rejecting"])
def test_step_sizes_are_the_steps_the_loop_took(monkeypatch, kw):
    # the step grid dense.t is each accepted attempt's t, then the end, and its
    # differences are bit for bit the h = t_new - t each accepted attempt was
    # given; an attempt is accepted
    # when the next one starts where it ended, or when it is the last
    seen, make = [], dopri._attempt.__wrapped__

    def recording(*key):
        attempt = make(*key)
        return lambda c, t, h, t_new, start: seen.append((t, h, t_new)) or attempt(
            c, t, h, t_new, start)

    monkeypatch.setattr(dopri, "_attempt", recording)
    res = solve_dopri5(kepler, (0.0, 8.0), [0.5, 0.0, 0.0, 1.6], **kw)
    stats = res.stats
    assert len(seen) == stats.n_accepted + stats.n_rejected
    assert (stats.n_rejected > 0) == (kw["tol"] == 1e-6)
    assert stats.n_landed == (22 if "sample_interval" in kw else 1)  # 22 points past 0, or t1
    accepted = [(t, h) for (t, h, t_new), (t_next, *_) in zip(seen, seen[1:] + [(8.0,)])
                if t_next == t_new]
    assert all(h == t_new - t for t, h, t_new in seen)
    assert res.dense.t.tolist() == [t for t, _ in accepted] + [8.0]
    assert np.diff(res.dense.t).tobytes() == array("d", [h for _, h in accepted]).tobytes()
