import math

import numpy as np
import pytest

from ptb.errors import NonTimelikeP
from ptb.kinematics import noether_N
from ptb.minkowski import FourVector, lorentz_dot

from covariant import (
    CanonicalState,
    ExternalInternal,
    angular_momentum_L2,
    boost_to_rest,
    center_of_mass,
    merge,
    scalar_quintet,
    split,
    tilde_project,
)


def random_state(rng, p_scale=1.0):
    """Canonical state whose total momentum is timelike future-pointing."""
    def vec(ts):
        sp = rng.normal(size=3)
        return FourVector(ts + math.sqrt(1.0 + sp @ sp), *sp)

    q1 = FourVector(*rng.normal(size=4))
    q2 = FourVector(*rng.normal(size=4))
    p1 = vec(p_scale)
    p2 = vec(p_scale)
    return CanonicalState(q1, q2, p1, p2)


def test_split_definitions():
    s = CanonicalState(
        q1=FourVector(1, 2, 3, 4), q2=FourVector(5, 6, 7, 8),
        p1=FourVector(10, 0, 0, 0), p2=FourVector(6, 2, 0, 0))
    ei = split(s)
    assert tuple(ei.P) == (16, 2, 0, 0)
    assert tuple(ei.Q) == (3, 4, 5, 6)
    assert tuple(ei.y) == (2, -1, 0, 0)
    assert tuple(ei.z) == (-4, -4, -4, -4)


def test_merge_inverts_split(rng):
    for _ in range(50):
        s = random_state(rng)
        back = merge(split(s))
        for name in ("q1", "q2", "p1", "p2"):
            got, want = getattr(back, name), getattr(s, name)
            assert all(a == pytest.approx(b, rel=1e-15, abs=1e-15)
                       for a, b in zip(got, want))


def test_split_inverts_merge(rng):
    ei = ExternalInternal(
        P=FourVector(8, 1, 0, 2), Q=FourVector(0.5, 1, 1, 1),
        y=FourVector(0.1, -0.2, 0.3, 0), z=FourVector(0, 2, -1, 1))
    back = split(merge(ei))
    for name in ("P", "Q", "y", "z"):
        assert all(a == pytest.approx(b, abs=1e-15)
                   for a, b in zip(getattr(back, name), getattr(ei, name)))


def test_quintet_matches_projection_oracle(rng):
    for _ in range(50):
        ei = split(random_state(rng))
        q = scalar_quintet(ei)
        ztil = tilde_project(ei.z, ei.P)
        ytil = tilde_project(ei.y, ei.P)
        P2 = lorentz_dot(ei.P, ei.P)
        yP = lorentz_dot(ei.y, ei.P)
        assert q.P2 == pytest.approx(P2, rel=1e-13)
        assert q.ztil2 == pytest.approx(lorentz_dot(ztil, ztil), rel=1e-12, abs=1e-12)
        assert q.ytil2 == pytest.approx(lorentz_dot(ytil, ytil), rel=1e-12, abs=1e-12)
        assert q.zy == pytest.approx(lorentz_dot(ztil, ytil), rel=1e-12, abs=1e-12)
        assert q.w == pytest.approx(yP * yP / P2, rel=1e-13)


def test_quintet_w_nonnegative_and_tildes_spacelike(rng):
    for _ in range(50):
        q = scalar_quintet(split(random_state(rng)))
        assert q.w >= 0.0
        assert q.ztil2 <= 1e-12
        assert q.ytil2 <= 1e-12


def test_quintet_requires_timelike_total_momentum():
    s = CanonicalState(
        q1=FourVector(0, 0, 0, 0), q2=FourVector(0, 1, 0, 0),
        p1=FourVector(1, 2, 0, 0), p2=FourVector(1, 2, 0, 0))
    with pytest.raises(NonTimelikeP):
        scalar_quintet(split(s))


def test_angular_momentum_is_gram_determinant(rng):
    P = FourVector(4.0, 0.5, -0.3, 0.2)
    for _ in range(50):
        ztil = tilde_project(FourVector(*rng.normal(size=4)), P)
        ytil = tilde_project(FourVector(*rng.normal(size=4)), P)
        L2 = angular_momentum_L2(ztil, ytil)
        assert L2 >= -1e-12
        # oracle in the rest frame: |z x y|^2
        zr = boost_to_rest(ztil, P).spatial
        yr = boost_to_rest(ytil, P).spatial
        assert L2 == pytest.approx(float(np.cross(zr, yr) @ np.cross(zr, yr)),
                                   rel=1e-10, abs=1e-10)


def test_noether_N_definition():
    q = scalar_quintet(split(CanonicalState(
        q1=FourVector(0, 1, 0, 0), q2=FourVector(0, 0, 0, 0),
        p1=FourVector(2, 0.3, 0, 0), p2=FourVector(2, -0.3, 0, 0))))
    assert noether_N(q, 0.25) == pytest.approx(q.ytil2 + 0.5, abs=1e-15)


def test_center_of_mass_energy_weighted_mean_on_slice():
    # on the z.P = 0 slice in the rest frame, Xi is the E-weighted position
    E1, E2 = 1.25, 2.0
    x1 = np.array([0.7, -0.2, 0.4])
    x2 = np.array([-0.1, 0.3, 0.0])
    s = CanonicalState(
        q1=FourVector(3.0, *x1),
        q2=FourVector(3.0, *x2),  # equal times: z.P = 0
        p1=FourVector(E1, 0.2, 0.1, 0.0),
        p2=FourVector(E2, -0.2, -0.1, 0.0))
    Xi = center_of_mass(s)
    M = E1 + E2
    want = (E1 * x1 + E2 * x2) / M
    assert Xi.t == pytest.approx(3.0, abs=1e-15)
    assert np.allclose(Xi.spatial, want, atol=1e-14)


def test_center_of_mass_projection_equals_Q_projection(rng):
    for _ in range(30):
        s = random_state(rng)
        ei = split(s)
        Xi = center_of_mass(s)
        assert lorentz_dot(Xi, ei.P) == pytest.approx(
            lorentz_dot(ei.Q, ei.P), rel=1e-12, abs=1e-12)


def test_center_of_mass_requires_timelike_P():
    s = CanonicalState(
        q1=FourVector(0, 0, 0, 0), q2=FourVector(0, 1, 0, 0),
        p1=FourVector(1, 2, 0, 0), p2=FourVector(1, 2, 0, 0))
    with pytest.raises(NonTimelikeP):
        center_of_mass(s)
