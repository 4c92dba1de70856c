"""Tests of the identity-check battery."""

import math

import numpy as np
import pytest

from kdense.analysis import (SpreadReport, _harmonic_compose,
                             curvature_symmetry_check,
                             halfvolume_condition_check, k_equals_2g_check,
                             kdense_spread, kp1_check, krantz_parks_check,
                             petty_check, symmetry_center, touch_point)
from kdense.bodies import (Ball, Ellipsoid, FourierBody2D, ReuleauxTriangle2D,
                           Superellipse2D, boundary_points, curvature,
                           difference_body, sphere_directions, tangent_frame)
from kdense.errors import NonUniqueContact

FAST = dict(n=2 ** 13, replicates=4, seed=0)
RNG = np.random.default_rng(11)


def _random_ellipsoid(rng, dim):
    A = rng.normal(size=(dim, dim))
    Q = A @ A.T + 0.3 * np.eye(dim)
    return Ellipsoid(Q)


class TestSpreadReport:
    def test_statistics(self):
        rep = SpreadReport("x", [1.0, 1.1, 0.9], 0.05)
        assert rep.min == 0.9 and rep.max == 1.1
        assert rep.mean == pytest.approx(1.0)
        assert rep.relative_spread == pytest.approx(0.2)
        assert not rep.constant
        assert SpreadReport("y", [2.0, 2.0], 1e-9).constant


class TestTouchPoint:
    def test_disk_pair(self):
        xbar, u = touch_point(Ball(1.0), Ball(2.0), np.array([1.0, 0.0]))
        assert np.allclose(xbar, [-1.0, 0.0], atol=1e-6)
        assert np.allclose(u, [-1.0, 0.0], atol=1e-6)

    def test_ellipse_difference_body(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        for u0 in sphere_directions(2, 6):
            x = boundary_points(G, u0[None, :])[0]
            xbar, u = touch_point(G, K, x)
            # the touch point is the antipodal boundary point
            assert np.allclose(xbar, -x, atol=1e-6)
            assert np.allclose(u, -u0, atol=1e-4)

    def test_3d(self):
        G = Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)
        K = difference_body(G)
        x = boundary_points(G, np.array([[0.0, 0.0, 1.0]]))[0]
        xbar, u = touch_point(G, K, x)
        assert np.allclose(xbar, -x, atol=1e-4)

    def test_reuleaux_vertex_contact_arc(self):
        G = ReuleauxTriangle2D(1.0)
        K = difference_body(G)  # ball of radius 1
        vertex = G.vertices[0]
        with pytest.raises(NonUniqueContact) as exc:
            touch_point(G, K, vertex)
        assert len(exc.value.contact_points) > 2


class TestKdenseSpread:
    def test_ellipse_constant(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        rep = kdense_spread(G, difference_body(G), 0.5, m=8, **FAST)
        assert rep.constant
        assert rep.mean > 0

    def test_superellipse_not_constant(self):
        # m must not divide the body's 8-fold symmetry or all sample
        # directions fall in one orbit and the spread degenerates
        G = Superellipse2D(4.0)
        rep = kdense_spread(G, difference_body(G), 0.5, m=16, **FAST)
        assert not rep.constant
        assert rep.relative_spread > 1e-2

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            kdense_spread(Ball(1.0), Ball(2.0), 0.5, m=4)


class TestPetty:
    def test_ball(self):
        rep = petty_check(Ball(0.5), m=64)
        assert rep.constant
        # kappa / h^(N+1) = r^(1-N) / r^(N+1) = r^(-2N)
        assert rep.mean == pytest.approx(0.5 ** -4, rel=1e-10)

    def test_ellipse_constant_value(self):
        a, b = 2.0, 1.0
        rep = petty_check(Ellipsoid.from_semiaxes(a, b), m=256)
        assert rep.constant
        assert rep.relative_spread < 1e-6
        assert rep.mean == pytest.approx(1.0 / (a * b) ** 2, rel=1e-10)

    def test_ellipsoid3(self):
        rep = petty_check(Ellipsoid.from_semiaxes(2.0, 1.0, 1.5), m=256)
        assert rep.constant
        assert rep.mean == pytest.approx((2.0 * 1.0 * 1.5) ** -2, rel=1e-8)

    def test_superellipse_spreads(self):
        rep = petty_check(Superellipse2D(4.0), m=256)
        assert not rep.constant
        assert rep.relative_spread > 0.10

    def test_fourier_spreads(self):
        rep = petty_check(FourierBody2D([1.0, 0.0, 0.0, 0.1]), m=128)
        assert not rep.constant


class TestShapeOperatorIdentities:
    def test_random_ellipsoid_pairs(self):
        for dim in (2, 3):
            for _ in range(5):
                A = _random_ellipsoid(RNG, dim)
                B = _random_ellipsoid(RNG, dim)
                for u in sphere_directions(dim, 8):
                    assert krantz_parks_check(A, B, u) < 1e-9

    def test_kp1_on_smooth_bodies(self):
        for G in (Ellipsoid.from_semiaxes(2.0, 1.0),
                  FourierBody2D([1.0, 0.0, 0.0, 0.1]),
                  Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)):
            K = difference_body(G)
            for u in sphere_directions(G.dim, 8):
                assert kp1_check(G, u, K=K) < 1e-8

    def test_kp1_builds_difference_body(self):
        assert kp1_check(Ball(1.0), np.array([0.0, 1.0])) < 1e-12

    def test_harmonic_compose_multiplies_on_the_right(self):
        # against (S_A^-1 + S_B^-1)^-1 by explicit inverses, on 3D pairs
        # whose shape operators do not commute
        rng = np.random.default_rng(3)
        inv = np.linalg.inv
        for _ in range(10):
            A, B = _random_ellipsoid(rng, 3), _random_ellipsoid(rng, 3)
            for u in sphere_directions(3, 8):
                F = tangent_frame(u)
                S_A = curvature(A, u, frame=F).S
                S_B = curvature(B, u, frame=F).S
                assert np.linalg.norm(S_A @ S_B - S_B @ S_A) > 1e-3
                harmonic = inv(inv(S_A) + inv(S_B))
                left = inv(np.eye(2) + inv(S_A) @ S_B) @ S_B
                assert np.abs(_harmonic_compose(S_A, S_B) - harmonic).max() < 1e-12
                assert np.abs(left - harmonic).max() > 1e-6


class TestSymmetry:
    def test_ellipse_symmetric_curvature(self):
        worst, skipped = curvature_symmetry_check(
            Ellipsoid.from_semiaxes(2.0, 1.0), m=64)
        assert worst < 1e-10
        assert skipped == 0

    def test_fourier_asymmetry_magnitude(self):
        # kappa = 1/(1 - 0.8 cos 3t): antipodal mismatch peaks near 40/9
        worst, skipped = curvature_symmetry_check(
            FourierBody2D([1.0, 0.0, 0.0, 0.1]), m=64)
        assert 4.2 < worst < 40.0 / 9.0 + 0.01
        assert skipped == 0

    def test_all_pairs_singular_is_nan(self):
        # u or -u lies in a vertex sector of the Reuleaux triangle for
        # every u, so no antipodal pair has finite curvature at both ends
        worst, skipped = curvature_symmetry_check(ReuleauxTriangle2D(1.0), m=16)
        assert math.isnan(worst)
        assert skipped == 16

    def test_symmetry_center(self):
        c = symmetry_center(Ball(1.0, center=[0.3, -0.2]), m=64)
        assert np.allclose(c, [0.3, -0.2], atol=1e-9)

    def test_k_equals_2g_ellipse(self):
        rep = k_equals_2g_check(Ellipsoid.from_semiaxes(2.0, 1.0))
        assert rep.constant
        assert rep.mean == pytest.approx(1.0, abs=1e-10)

    def test_k_equals_2g_off_center(self):
        rep = k_equals_2g_check(Ellipsoid.from_semiaxes(2.0, 1.0,
                                                        center=[0.3, 0.0]))
        assert rep.constant  # centering is part of the check

    def test_k_equals_2g_fails_for_asymmetric(self):
        assert not k_equals_2g_check(FourierBody2D([1.0, 0.0, 0.0, 0.1])).constant
        assert not k_equals_2g_check(ReuleauxTriangle2D(1.0)).constant


class TestHalfVolume:
    def test_symmetric_k(self):
        for K in (Ball(2.0), Ellipsoid.from_semiaxes(2.0, 1.0)):
            rep = halfvolume_condition_check(Ball(1.0), K, m=8, **FAST)
            assert rep.constant
            assert abs(rep.mean - 0.5) <= rep.error_budget

    def test_off_center_ball_fails(self):
        K = Ball(1.0, center=[0.3, 0.0])
        rep = halfvolume_condition_check(Ball(1.0), K, m=8, **FAST)
        dev = max(abs(rep.max - 0.5), abs(rep.min - 0.5))
        assert dev > 0.01
