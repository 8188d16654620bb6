import math
import re
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ptb.worldline
from ptb.errors import FrameMismatch, NoRoot, NonMonotoneTime, OutOfRange
from ptb.mass_shell import mass_shell_from_lambda, shell_from_M
from ptb.minkowski import FourVector, boost_from_rest, lorentz_dot
from ptb.potentials import HarmonicPotential
from ptb.reduced import (
    IntegratorOptions,
    ReducedState,
    equal_time_clock,
    integrate,
    rest_quintet,
    synchronize,
)
from ptb.roots import brent
from ptb.toy import ToyParams, initial_state, shell_for_toy
from ptb.worldline import (
    export_lab_frame,
    lambda_from_T,
    resample_uniform_T,
    worldlines,
)

from covariant import CanonicalState, add, center_of_mass, scalar_quintet, split, sub


@pytest.fixture(scope="module")
def toy_traj():
    p = ToyParams(chi=0.125, M=4.0, A=(1.0, 0.0, 0.0), B=(0.0, 0.5, 0.0), nu=-1.5)
    shell = shell_for_toy(p)
    z, y = initial_state(p)
    traj = integrate(ReducedState(0.0, np.array(z), np.array(y)), shell,
                     HarmonicPotential(p.chi), 2.0 * p.period,
                     IntegratorOptions(tol=1e-11, sample_interval=p.period / 16.0))
    return synchronize(traj)


def test_time_components_equal_T(toy_traj):
    ws = worldlines(toy_traj)
    # the set keeps its trajectory, whose lam, T and flagged columns it shares
    assert ws.traj is toy_traj
    for x in (ws.x1, ws.x2, ws.Xi):
        assert np.array_equal(x[:, 0], toy_traj.T)


def test_separation_is_zeta(toy_traj):
    ws = worldlines(toy_traj)
    sep = ws.x1[:, 1:] - ws.x2[:, 1:]
    assert np.allclose(sep, toy_traj.ztil, rtol=0, atol=1e-14)


def test_energy_weighted_mean_is_center_line(toy_traj):
    shell = toy_traj.shell
    ws = worldlines(toy_traj)
    mean = (shell.E1 * ws.x1[:, 1:] + shell.E2 * ws.x2[:, 1:]) / shell.M
    assert np.allclose(mean, ws.Xi[:, 1:], rtol=0, atol=1e-13)


def test_center_line_is_straight_and_at_rest(toy_traj):
    ws = worldlines(toy_traj)
    assert np.max(np.abs(ws.Xi[:, 1:])) == 0.0
    assert ws.frame.t == toy_traj.shell.M
    assert tuple(ws.frame.spatial) == (0.0, 0.0, 0.0)


def test_lambda_from_T_round_trip(toy_traj):
    T_lo, T_hi = toy_traj.T[[0, -1]].tolist()
    for T in np.linspace(T_lo, T_hi, 23):
        lam = lambda_from_T(toy_traj, float(T))
        x = toy_traj.dense(lam)
        assert equal_time_clock(lam, x[4], x[5], toy_traj.shell)[3] == pytest.approx(T, abs=1e-10)
    with pytest.raises(OutOfRange):
        lambda_from_T(toy_traj, T_hi + 1.0)


def test_lambda_from_T_maps_each_sample_to_its_lambda(toy_traj):
    # exact at every node, including the last, where the dense output is
    # evaluated at the end of its step and may miss the sample by an ulp
    for T, lam in zip(toy_traj.T.tolist(), toy_traj.lam.tolist()):
        assert lambda_from_T(toy_traj, T) == lam
    # the same when the end of the last dense segment overshoots that sample
    # by a few ulps of T
    groups = toy_traj.dense.groups.copy()
    groups[-1, 0, 4] += 8.0 * np.spacing(toy_traj.shell.M * toy_traj.T[-1])
    nudged = replace(toy_traj, dense=replace(toy_traj.dense, data=array("d", groups.tobytes())))
    assert lambda_from_T(nudged, float(nudged.T[-1])) == nudged.lam[-1]


def test_lambda_from_T_refuses_a_bracket_without_a_root(toy_traj):
    # shift intF of the dense output so its T runs far above the samples:
    # no lambda between two samples reaches a T between them
    groups = toy_traj.dense.groups.copy()
    groups[:, 0, 4] += 10.0 * toy_traj.shell.M * (toy_traj.T[-1] - toy_traj.T[0])
    bad = replace(toy_traj, dense=replace(toy_traj.dense, data=array("d", groups.tobytes())))
    with pytest.raises(NoRoot):
        lambda_from_T(bad, 0.5 * float(toy_traj.T[3] + toy_traj.T[4]))


def dense_T(traj, lam):
    """T of the dense-output state at one lambda, in float arithmetic."""
    x = traj.dense(lam)
    return equal_time_clock(lam, x[4], x[5], traj.shell)[3]


def brent_lambda(traj, T):
    """lambda_from_T one query at a time: Brent's method on the dense
    residual between the samples around T, the reference for the batch."""
    i = int(np.searchsorted(traj.T, T))
    if traj.T[i] == T:
        return float(traj.lam[i])
    lo, hi = float(traj.lam[i - 1]), float(traj.lam[i])
    return brent(lambda lam: dense_T(traj, lam) - T, lo, hi, xtol=1e-15 * max(1.0, hi))


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_batched_lambda_from_T_agrees_with_brent(toy_traj, fractions):
    T_lo, T_hi = float(toy_traj.T[0]), float(toy_traj.T[-1])
    Tq = np.array([T_lo + f * (T_hi - T_lo) for f in fractions]).clip(T_lo, T_hi)
    lam = lambda_from_T(toy_traj, Tq)
    assert lam.shape == Tq.shape
    want = [brent_lambda(toy_traj, T) for T in Tq.tolist()]
    assert np.abs(lam - want).max() <= 1e-13 * max(1.0, float(toy_traj.lam[-1]))
    # the residual is no larger than Brent's, up to the rounding of T itself
    got_res = max(abs(dense_T(toy_traj, x) - T) for x, T in zip(lam.tolist(), Tq.tolist()))
    want_res = max(abs(dense_T(toy_traj, x) - T) for x, T in zip(want, Tq.tolist()))
    assert got_res <= max(want_res, 2.0 * np.spacing(T_hi))


def test_lambda_from_T_shapes(toy_traj):
    T = 0.5 * float(toy_traj.T[3] + toy_traj.T[4])
    lam = lambda_from_T(toy_traj, T)
    assert type(lam) is float
    assert lambda_from_T(toy_traj, np.float64(T)) == lam
    batch = lambda_from_T(toy_traj, np.array([[T, float(toy_traj.T[2])], [T, T]]))
    assert batch.shape == (2, 2)
    assert batch.tolist() == [[lam, float(toy_traj.lam[2])], [lam, lam]]
    assert lambda_from_T(toy_traj, []).shape == (0,)
    # every sample of the batch maps to its own lambda
    assert np.array_equal(lambda_from_T(toy_traj, toy_traj.T), toy_traj.lam)


def test_array_queries_name_the_offending_one(toy_traj):
    T_hi = float(toy_traj.T[-1])
    inside = [float(toy_traj.T[0]), 0.5 * T_hi]
    for bad in (T_hi + 1.0, -1e-3, math.nan):
        with pytest.raises(OutOfRange, match=re.escape(f"T = {bad!r} outside")):
            lambda_from_T(toy_traj, np.array(inside + [bad] + inside))
    groups = toy_traj.dense.groups.copy()
    groups[:, 0, 4] += 10.0 * toy_traj.shell.M * (toy_traj.T[-1] - toy_traj.T[0])
    shifted = replace(toy_traj, dense=replace(toy_traj.dense, data=array("d", groups.tobytes())))
    query = 0.5 * float(toy_traj.T[3] + toy_traj.T[4])
    with pytest.raises(NoRoot, match=re.escape(f"T = {query!r} is not bracketed")):
        lambda_from_T(shifted, np.array([float(toy_traj.T[1]), query, float(toy_traj.T[5])]))


@pytest.mark.parametrize("factor", [20.0, 100.0])
def test_the_inverse_keeps_to_the_bracket_on_a_wild_clock(toy_traj, factor):
    # scaled stages of intF bend the dense clock between step ends, which
    # stay put: the root stays on the step whose ends bracket its T
    groups = toy_traj.dense.groups.copy()
    groups[:, 1:, 4] *= factor
    groups[0, 5, 4] *= factor
    wild = replace(toy_traj, dense=replace(toy_traj.dense, data=array("d", groups.tobytes())))
    Tq = np.linspace(float(toy_traj.T[0]), float(toy_traj.T[-1]), 301)[1:-1]
    lam = lambda_from_T(wild, Tq)
    i = np.searchsorted(toy_traj.T, Tq)
    assert np.all((toy_traj.lam[i - 1] <= lam) & (lam <= toy_traj.lam[i]))
    assert max(abs(dense_T(wild, x) - T) for x, T in zip(lam.tolist(), Tq.tolist())) <= 1e-13


def test_resample_inverts_the_clock_once(toy_traj, monkeypatch):
    calls = []

    def counting(traj, T):
        calls.append(np.shape(T))
        return lambda_from_T(traj, T)

    monkeypatch.setattr(ptb.worldline, "lambda_from_T", counting)
    resample_uniform_T(toy_traj, 41)
    assert calls == [(39,)]


def test_resample_uniform_T(toy_traj):
    res = resample_uniform_T(toy_traj, 41)
    Ts = res.T
    assert len(Ts) == 41
    steps = np.diff(Ts)
    assert np.allclose(steps, steps[0], rtol=0, atol=1e-9)
    # the end samples are kept bit for bit
    for end in (0, -1):
        for col in ("lam", "u", "F", "G", "tau1", "tau2", "T", "dTdlambda"):
            assert np.array_equal(getattr(res, col)[end], getattr(toy_traj, col)[end])
    with pytest.raises(ValueError):
        resample_uniform_T(toy_traj, 1)


def test_resample_uniform_T_refuses_a_non_integer_n(toy_traj):
    # 2.5 used to reach np.linspace and raise its TypeError
    for n in (2.5, 41.0, "41", 1, np.int64(1)):
        with pytest.raises(ValueError, match=re.escape(
                f"need an integer of at least two samples, got n = {n!r}")):
            resample_uniform_T(toy_traj, n)
    # numpy integers stay accepted
    assert len(resample_uniform_T(toy_traj, np.int64(5)).lam) == 5


def test_nonmonotone_trajectory_refuses_T_queries():
    shell = mass_shell_from_lambda(1.0, 1.0, 0.01)
    big = ReducedState(0.0, np.array([0.0, 8.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    traj = synchronize(integrate(big, shell, HarmonicPotential(1.0), 5.0,
                                 IntegratorOptions(sample_interval=1.0)))
    assert traj.monotone is False
    with pytest.raises(NonMonotoneTime):
        lambda_from_T(traj, 0.0)
    with pytest.raises(NonMonotoneTime):
        lambda_from_T(traj, np.array([0.0, 0.1]))
    with pytest.raises(NonMonotoneTime):
        resample_uniform_T(traj)
    # worldline export still works, flags carried through
    ws = worldlines(traj)
    assert ws.traj.flagged.any()


def test_a_clock_that_dips_between_samples_is_refused():
    # T rises from sample to sample, but falls between two step ends inside
    # the second period: the sampled clock cannot see the dip, the steps can
    p = ToyParams(chi=0.125, M=4.0, A=(3.0, 0.0, 0.0), B=(0.0, 0.5, 0.0))
    z, y = initial_state(p)
    traj = integrate(ReducedState(0.0, np.array(z), np.array(y)), shell_from_M(4.0, 0.0, 0.0),
                     HarmonicPotential(p.chi), 4.0 * p.period,
                     IntegratorOptions(sample_interval=p.period))
    assert len(traj.lam) == 5 and not traj.monotone and traj.dTdlambda.min() > 0.9
    number = r"-?\d+\.\d+(e-?\d+)?"
    line = f"T falls from {number} to {number} between lambda = {number} and {number}$"
    with pytest.raises(NonMonotoneTime, match=line):
        lambda_from_T(traj, 0.5 * (traj.T[1] + traj.T[2]))
    with pytest.raises(NonMonotoneTime, match=line):
        resample_uniform_T(traj, 9)


def test_export_lab_frame(toy_traj):
    shell = toy_traj.shell
    ws = worldlines(toy_traj)
    k = FourVector(math.sqrt(shell.M2 + 0.36 * shell.M2), 0.6 * shell.M, 0.0, 0.0)
    lab = export_lab_frame(ws, k)
    assert lab.frame is k
    for i in range(len(toy_traj.lam)):
        # invariants survive the boost
        d_rest = FourVector(*(ws.x1[i] - ws.x2[i]))
        d_lab = FourVector(*(lab.x1[i] - lab.x2[i]))
        assert lorentz_dot(d_rest, d_rest) == pytest.approx(
            lorentz_dot(d_lab, d_lab), rel=1e-12, abs=1e-12)
        # equal-time condition transforms covariantly: k.(x1 - x2) = 0
        assert abs(lorentz_dot(k, d_lab)) < 1e-10 * shell.M * (1.0 + abs(toy_traj.T[i]))
    # energy-weighted mean still reproduces the center line
    mean = (shell.E1 * lab.x1 + shell.E2 * lab.x2) / shell.M
    assert np.allclose(mean, lab.Xi, rtol=0, atol=1e-11)


@pytest.mark.parametrize("beta", [0.0, 0.6])
def test_covariant_layer_recovers_the_reduction(toy_traj, beta):
    """Rebuild (q1, q2, p1, p2) from emitted world lines and check the
    rest-frame reduction against the covariant formulas."""
    shell = toy_traj.shell
    M, nu = shell.M, shell.nu
    n = np.array([1.0, -2.0, 2.0]) / 3.0
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    k = FourVector(M * gamma, *(M * gamma * beta * n))
    ws = worldlines(toy_traj)
    if beta:
        ws = export_lab_frame(ws, k)
    worst = 0.0
    for i, (ztil, ytil) in enumerate(zip(toy_traj.ztil, toy_traj.ytil)):
        y = FourVector(*boost_from_rest(np.array([nu / M, *ytil]), k).tolist())
        state = CanonicalState(q1=FourVector(*ws.x1[i]), q2=FourVector(*ws.x2[i]),
                               p1=add(0.5 * k, y), p2=sub(0.5 * k, y))
        ei = split(state)
        got = scalar_quintet(ei)
        want = rest_quintet(ztil, ytil, shell)
        scale = 1.0 + abs(toy_traj.T[i])
        worst = max(
            worst,
            abs(lorentz_dot(ei.z, ei.P)) / (M * scale),
            *(abs(getattr(got, f) - getattr(want, f)) / (1.0 + abs(getattr(want, f)))
              for f in ("P2", "ztil2", "ytil2", "zy", "w")),
            *(abs(a - b) / scale for a, b in zip(center_of_mass(state), ws.Xi[i])),
        )
    assert worst <= 1e-12


def test_export_lab_frame_validates_k(toy_traj):
    ws = worldlines(toy_traj)
    M = toy_traj.shell.M
    with pytest.raises(FrameMismatch):
        export_lab_frame(ws, FourVector(2.0 * M, 0.0, 0.0, 0.0))
    with pytest.raises(FrameMismatch):
        export_lab_frame(ws, FourVector(-M, 0.0, 0.0, 0.0))
    # a boosted set is not boosted again, not even to its own frame
    k = FourVector(1.25 * M, 0.75 * M, 0.0, 0.0)
    lab = export_lab_frame(ws, k)
    with pytest.raises(FrameMismatch, match="not the rest frame"):
        export_lab_frame(lab, k)
    # the rest frame itself is a rest-frame set
    rest = export_lab_frame(ws, FourVector(M, 0.0, 0.0, 0.0))
    assert np.array_equal(export_lab_frame(rest, k).x1, lab.x1)


def test_center_line_moves_on_k_direction(toy_traj):
    shell = toy_traj.shell
    ws = worldlines(toy_traj)
    k = FourVector(math.sqrt(shell.M2 * 1.25), 0.0, 0.5 * shell.M, 0.0)
    lab = export_lab_frame(ws, k)
    # Xi in the lab frame is a straight line with four-velocity k/M
    dirs = np.diff(lab.Xi, axis=0)
    kvec = np.array([k.t, *k.spatial]) / shell.M
    for d in dirs:
        dt = d[0]
        assert np.allclose(d, dt * kvec / kvec[0], rtol=0, atol=1e-11)
