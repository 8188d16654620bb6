import bisect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptb import dopri
from ptb.dopri import solve_dopri5
from ptb.errors import StepFailure


def shm(t, y):
    return [y[1], -y[0]]


def shm_exact(t):
    return np.array([math.cos(t), -math.sin(t)])


def test_shm_against_closed_form():
    res = solve_dopri5(shm, (0.0, 20.0 * math.pi), np.array([1.0, 0.0]), tol=1e-10)
    err = abs(res.y[-1] - shm_exact(20.0 * math.pi)).max()
    assert err < 1e-8
    assert res.n_accepted == len(res.dense.t0) == len(res.dense.h)
    assert res.dense.t0[0] == 0.0
    assert res.dense.t0[-1] + res.dense.h[-1] == pytest.approx(20.0 * math.pi)


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
        i = max(bisect.bisect_right(dense.t0, t) - 1, 0)
        assert dense.t0[i] <= t <= dense.t0[i] + dense.h[i] * (1 + 1e-15)
        worst = max(worst, abs(np.array(dense(t)) - shm_exact(t)).max())
    assert worst < 1e-8


def test_dense_segments_interpolate_step_ends():
    res = solve_dopri5(shm, (0.0, 3.0), np.array([1.0, 0.0]), tol=1e-10)
    for t0, h, y0, y1 in zip(res.dense.t0, res.dense.h, res.y, res.y[1:]):
        assert np.array_equal(res.dense(t0), y0)
        assert np.allclose(res.dense(t0 + h), y1, rtol=0, atol=1e-15)


def scalar_quartic(dense, t):
    """The dense output at one t as a loop over components in float
    arithmetic: the reference for the array evaluation."""
    i = min(max(bisect.bisect_right(dense.t0, t) - 1, 0), len(dense.t0) - 1)
    n, data, h = dense.n, dense.data, dense.h[i]
    theta = (t - dense.t0[i]) / h
    th1 = 1.0 - theta
    b = 6 * n * i
    y, k1 = data[b:b + n], data[b + 5 * n:b + 6 * n]
    b += 6 * n
    y1, k3, k4, k5, k6, k7 = (data[b + j * n:b + (j + 1) * n] for j in range(6))
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


@given(st.lists(st.floats(-1.0, 9.0, allow_nan=False), min_size=1, max_size=40))
def test_dense_output_of_an_array_is_the_scalar_quartic(ts):
    # bit for bit, signs of zero included, inside the span and extrapolated
    res = solve_dopri5(kepler, (0.0, 8.0), [0.5, 0.0, 0.0, 1.6], tol=1e-9)
    want = np.array([scalar_quartic(res.dense, t) for t in ts])
    got = res.dense(np.array(ts))
    assert got.shape == want.shape == (len(ts), 4)
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64), want.view(np.int64))
    assert [res.dense(t) for t in ts] == want.tolist()


def test_dense_rate_is_the_derivative_of_the_quartic():
    res = solve_dopri5(kepler, (0.0, 8.0), [0.5, 0.0, 0.0, 1.6], tol=1e-9)
    dense = res.dense
    t0, h = np.frombuffer(dense.t0), np.frombuffer(dense.h)
    # the step ends reproduce the FSAL stages k1 and k7 of each step
    k = dense.groups[:, 5]
    scale = 1.0 + np.abs(k).max()
    assert np.abs(dense.rate(t0) - k[:-1]).max() <= 1e-12 * scale
    assert np.abs(dense.rate(t0 + h) - k[1:]).max() <= 1e-12 * scale
    # and a central difference inside each step
    mid, eps = t0 + 0.37 * h, 1e-6 * h
    fd = (dense(mid + eps) - dense(mid - eps)) / (2.0 * eps[:, None])
    assert np.abs(dense.rate(mid) - fd).max() <= 1e-6 * scale


def test_t_eval_lands_exactly():
    grid = [0.0, 0.31, 1.0, 2.5, math.pi, 5.0]
    res = solve_dopri5(shm, (0.0, 5.0), np.array([1.0, 0.0]), t_eval=grid)
    assert list(res.t) == grid  # bitwise: the stepper lands on each point
    for t, y in zip(res.t, res.y):
        assert abs(y - shm_exact(t)).max() < 1e-9


def test_t_eval_validation():
    with pytest.raises(ValueError):
        solve_dopri5(shm, (0.0, 1.0), np.array([1.0, 0.0]), t_eval=[0.5, 0.5])
    with pytest.raises(ValueError):
        solve_dopri5(shm, (0.0, 1.0), np.array([1.0, 0.0]), t_eval=[0.0, 2.0])


def test_max_step_is_respected():
    res = solve_dopri5(shm, (0.0, 10.0), np.array([1.0, 0.0]),
                       tol=1e-6, max_step=0.01)
    hs = np.array(res.dense.h)
    assert hs.max() <= 0.01 + 1e-12
    assert res.n_accepted >= 1000


def test_blowup_raises_step_failure():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(StepFailure) as info:
        solve_dopri5(lambda t, y: [y[0] * y[0]], (0.0, 2.0), np.array([1.0]), tol=1e-8)
    msg = str(info.value)
    assert "underflow at t = 0.99" in msg
    assert "h = " in msg and "last error estimate = " in msg
    assert "nan" not in msg


def test_max_steps_budget():
    with pytest.raises(StepFailure) as info:
        solve_dopri5(shm, (0.0, 1000.0), np.array([1.0, 0.0]),
                     tol=1e-10, max_steps=10)
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
    assert res.n_rejected > 0  # the identity must hold across rejections
    # the first derivative, the probe of the initial step, six new stages
    # per attempted step
    assert res.n_rhs == len(calls) == 2 + 6 * (res.n_accepted + res.n_rejected)


def test_sample_derivatives_are_the_fsal_stage():
    grid = [0.0, 0.31, 1.0, 2.5, 3.0]
    for t_eval in (None, grid):
        res = solve_dopri5(shm, (0.0, 3.0), np.array([1.0, 0.0]), t_eval=t_eval)
        assert res.dy.shape == res.y.shape
        for t, y, dy in zip(res.t, res.y, res.dy):
            assert np.array_equal(dy, shm(t, y))  # bit for bit


def test_on_step_sees_fsal_derivative():
    seen = []

    def watch(t, y, dy):
        seen.append((t, list(y), list(dy)))

    solve_dopri5(shm, (0.0, 3.0), np.array([1.0, 0.0]), on_step=watch)
    assert seen
    for t, y, dy in seen:
        assert np.allclose(dy, shm(t, y), rtol=0, atol=0)  # exact reuse


def test_linear_problem_is_cheap():
    res = solve_dopri5(lambda t, y: [2.0], (0.0, 5.0),
                       np.array([1.0]), tol=1e-10)
    assert res.y[-1][0] == pytest.approx(11.0, rel=1e-13)
    assert res.n_accepted < 30


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


@pytest.mark.parametrize("f, y0, line", [
    (shm, [math.nan, 1.0], "non-finite y0[0] = nan at t = 0.0"),
    (lambda t, y: [y[1], math.inf], [1.0, 0.0], "non-finite f(t0, y0)[1] = inf at t = 0.0"),
])
def test_non_finite_state_stops_at_once(f, y0, line):
    # a nan stage used to reject every step, with h turning nan, until the
    # step budget ran out
    with pytest.raises(StepFailure) as info:
        solve_dopri5(f, (0.0, 1.0), y0, max_steps=1000)
    msg = str(info.value)
    assert msg.startswith(line)
    assert "budget" not in msg


def test_nan_inside_the_run_names_the_stage_and_the_step():
    with pytest.raises(StepFailure) as info:
        solve_dopri5(lambda t, y: [y[1], -y[0] if t < 0.5 else math.nan], (0.0, 1.0),
                     [1.0, 0.0])
    msg = str(info.value)
    t = float(msg.split("in the step from t = ")[1].split(" ")[0])
    assert msg.startswith("non-finite k") and "[1] = nan" in msg
    assert t < 0.5 and "(h = " in msg
