import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptb.errors import NonTimelikeP
from ptb.minkowski import FourVector, boost_from_rest, lorentz_dot

from covariant import boost_to_rest, tilde_project

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def timelike(t=5.0, x=1.0, y=-0.5, z=2.0):
    # t chosen to dominate the spatial part
    return FourVector(t, x, y, z)


def boost_matrix(k: FourVector) -> np.ndarray:
    """Independent oracle: textbook rotation-free boost taking k to rest."""
    m = math.sqrt(k.norm2())
    beta = k.spatial / k.t
    b2 = float(beta @ beta)
    gamma = k.t / m
    L = np.empty((4, 4))
    L[0, 0] = gamma
    L[0, 1:] = -gamma * beta
    L[1:, 0] = -gamma * beta
    L[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2 if b2 > 0 \
        else np.eye(3)
    return L


def test_metric_signature():
    assert FourVector(1, 0, 0, 0).norm2() == 1.0
    assert FourVector(0, 1, 0, 0).norm2() == -1.0
    assert lorentz_dot(FourVector(1, 2, 3, 4), FourVector(5, 6, 7, 8)) == \
        1 * 5 - 2 * 6 - 3 * 7 - 4 * 8


def test_boost_matches_matrix_oracle(rng):
    for _ in range(100):
        sp = rng.normal(size=3)
        k = FourVector(math.sqrt(1.0 + sp @ sp) * rng.uniform(1, 3) + abs(sp @ sp) ** 0.5, *sp)
        if k.norm2() <= 0:
            continue
        v = FourVector(*rng.normal(size=4))
        got = np.array(tuple(boost_to_rest(v, k)))
        want = boost_matrix(k) @ np.array(tuple(v))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_boost_of_columns_matches_the_four_vector_boost(rng):
    k = FourVector(5.0, 1.0, -2.0, 3.0)
    pts = rng.normal(size=(200, 4))
    for boost in (boost_to_rest, boost_from_rest):
        cols = boost(pts, k)
        assert cols.shape == pts.shape
        rows = np.array([boost(p, k) for p in pts])
        # the rows take a BLAS dot for beta.x, the columns a matrix product
        assert np.allclose(cols, rows, rtol=4e-16, atol=4e-16 * np.max(np.abs(rows)))
    assert np.allclose(boost_to_rest(boost_from_rest(pts, k), k), pts, rtol=0, atol=1e-13)
    assert boost_from_rest(pts, FourVector(2.0, 0.0, 0.0, 0.0)) is pts


def test_boost_sends_k_to_rest(rng):
    for _ in range(50):
        sp = rng.normal(size=3) * 2
        t = math.sqrt(4.0 + sp @ sp)
        k = FourVector(t, *sp)
        r = boost_to_rest(k, k)
        assert r.t == pytest.approx(math.sqrt(k.norm2()), rel=1e-13)
        assert np.max(np.abs(r.spatial)) < 1e-12 * r.t


@given(st.lists(finite, min_size=4, max_size=4),
       st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3))
def test_boost_round_trip(comps, beta3):
    k = FourVector(2.0 * math.sqrt(1.0 + float(np.dot(beta3, beta3))),
                   *(2.0 * np.asarray(beta3)))
    v = np.array(comps)
    back = boost_from_rest(boost_to_rest(v, k), k)
    scale = max(1.0, max(abs(c) for c in v))
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(back, v))


@given(st.lists(finite, min_size=4, max_size=4),
       st.lists(finite, min_size=4, max_size=4),
       st.lists(st.floats(-0.85, 0.85), min_size=3, max_size=3))
def test_boost_preserves_lorentz_dot(a_comps, b_comps, beta3):
    k = FourVector(3.0 * math.sqrt(1.0 + float(np.dot(beta3, beta3))),
                   *(3.0 * np.asarray(beta3)))
    a, b = FourVector(*a_comps), FourVector(*b_comps)
    before = lorentz_dot(a, b)
    after = lorentz_dot(boost_to_rest(a, k), boost_to_rest(b, k))
    assert after == pytest.approx(before, rel=1e-11, abs=1e-10)


def test_small_velocity_boost_is_well_conditioned():
    # the gamma^2/(gamma+1) form must not lose precision near beta = 0
    k = FourVector(1.0, 1e-12, 0.0, 0.0)
    v = np.array([1.0, 1.0, 1.0, 1.0])
    back = boost_from_rest(boost_to_rest(v, k), k)
    assert all(abs(a - b) <= 1e-14 for a, b in zip(back, v))


def test_boost_rejects_spacelike_and_past_pointing():
    v = FourVector(1, 0, 0, 0)
    with pytest.raises(NonTimelikeP):
        boost_to_rest(v, FourVector(1.0, 2.0, 0.0, 0.0))
    with pytest.raises(NonTimelikeP):
        boost_to_rest(v, FourVector(-2.0, 0.5, 0.0, 0.0))


@pytest.mark.parametrize("k", [(math.nan, 0.0, 0.0, 0.0), (2.0, math.nan, 0.0, 0.0),
                               (math.inf, 1.0, 0.0, 0.0), (math.inf, math.inf, 0.0, 0.0)])
def test_boost_rejects_a_non_finite_axis(k):
    # a nan component gave all-nan rows, and k.t = inf returned v unchanged
    k = FourVector(*k)
    with pytest.raises(NonTimelikeP, match=re.escape(f"boost axis must be finite, got k = {k}")):
        boost_from_rest(np.ones((3, 4)), k)


def test_tilde_projection_kills_P_component(rng):
    for _ in range(50):
        sp = rng.normal(size=3)
        P = FourVector(math.sqrt(9.0 + sp @ sp), *sp)
        xi = FourVector(*rng.normal(size=4))
        til = tilde_project(xi, P)
        assert lorentz_dot(til, P) == pytest.approx(0.0, abs=1e-12)
        # idempotent
        twice = tilde_project(til, P)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(twice, til))


def test_tilde_projection_fixes_orthogonal_vectors():
    P = FourVector(2, 0, 0, 0)
    xi = FourVector(0, 1, 2, 3)
    assert tuple(tilde_project(xi, P)) == tuple(xi)


def test_tilde_projection_requires_timelike_P():
    with pytest.raises(NonTimelikeP):
        tilde_project(FourVector(1, 1, 1, 1), FourVector(1.0, 2.0, 0.0, 0.0))


def test_rest_frame_projection_is_spatial(rng):
    # in the rest frame of P the projection simply zeroes the time component
    P = FourVector(3.7, 0, 0, 0)
    xi = FourVector(*rng.normal(size=4))
    til = tilde_project(xi, P)
    assert til.t == 0.0
    assert np.array_equal(til.spatial, xi.spatial)


def test_vector_algebra():
    a = FourVector(1, 2, 3, 4)
    assert tuple(2.0 * a) == (2, 4, 6, 8)
    assert tuple(a * 2.0) == (2, 4, 6, 8)
    assert tuple(a) == (1, 2, 3, 4)
