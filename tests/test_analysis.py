"""Tests of the identity-check battery."""

import copy
import math

import numpy as np
import pytest

from kdense import measure
from kdense.analysis import (SpreadReport, _harmonic_compose,
                             _is_positive_definite, curvature_symmetry_check,
                             halfvolume_condition_check, k_equals_2g_check,
                             kdense_spread, kp1_check, krantz_parks_check,
                             petty_check, symmetry_center, touch_point,
                             touch_points)
from kdense.bodies import (GAUGE_GRID_2D, GAUGE_GRID_3D, Ball, Ellipsoid,
                           FourierBody2D, MinkowskiSum, ReuleauxTriangle2D,
                           Superellipse2D, boundary_points, curvature,
                           difference_body, reverse_weingarten,
                           sphere_directions, tangent_frame)
from kdense.errors import NonUniqueContact, SingularCurvature

from finite_difference import FiniteDifference

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

    def test_reuleaux_arc_touches_the_opposite_vertex(self):
        # the arc through x is centred at vertex 0, at distance w from x: the
        # unit-radius copy x + K touches G only there, although the vertex
        # carries an arc of normals
        w = 1.0
        G = ReuleauxTriangle2D(w)
        K = difference_body(G)
        v0 = np.array([0.0, w / math.sqrt(3.0)])
        assert np.allclose(G.vertices[0], v0, rtol=0.0, atol=1e-15)
        for nu in ([0.0, -1.0], [math.sin(0.3), -math.cos(0.3)]):
            x = boundary_points(G, np.array([nu]))[0]
            xbar, u = touch_point(G, K, x)
            assert np.allclose(xbar, v0, rtol=0.0, atol=1e-9)
            assert np.allclose(u, -(x - v0) / w, rtol=0.0, atol=1e-9)

    def test_thin_ellipse_tip(self):
        G = Ellipsoid.from_semiaxes(2.0, 0.1)
        xbar, u = touch_point(G, difference_body(G), np.array([2.0, 0.0]))
        assert np.allclose(xbar, [-2.0, 0.0], rtol=0.0, atol=1e-9)
        assert np.allclose(u, [-1.0, 0.0], rtol=0.0, atol=1e-9)

    def test_screen_solves_no_gauge(self, monkeypatch):
        # the screen reads support ratios; the only gauge refined is the
        # inscribed-copy check of xbar - x
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        rows = []

        def counting(pts, _orig=K._gauge_exact):
            rows.append(len(pts))
            return _orig(pts)

        monkeypatch.setattr(K, "_gauge_exact", counting)
        x = boundary_points(G, sphere_directions(2, 3))[0]
        touch_point(G, K, x)
        assert rows == [1]

    @pytest.mark.parametrize("dim, samples", [(2, None), (2, 200),
                                              (3, None), (3, 1001)])
    def test_repeat_scan_evaluates_no_support(self, monkeypatch, dim,
                                              samples):
        # each body caches its sphere grid per size, the gauge grid's by
        # default: a second touch point on the same pair evaluates no
        # support function on the scan's directions, and the scan equals
        # the fresh ratios bit for bit (an odd 3D size gives one row less)
        G = Ellipsoid.from_semiaxes(*(2.0, 1.0, 0.8)[:dim])
        K = difference_body(G)
        X = boundary_points(G, sphere_directions(dim, 3))
        touch_point(G, K, X[0], samples=samples)
        U = sphere_directions(dim, samples or (GAUGE_GRID_2D if dim == 2
                                               else GAUGE_GRID_3D))
        rows = []
        for body in (G, K):
            def spy(V, _orig=body.support_hom):
                rows.append(len(V))
                return _orig(V)
            monkeypatch.setattr(body, "support_hom", spy)
        touch_point(G, K, X[1], samples=samples)
        assert len(U) not in rows
        monkeypatch.undo()
        scan_U, f = measure._support_ratio_scan(G, K, X[1], samples)
        assert np.array_equal(scan_U, U)
        assert np.array_equal(
            f, (G.support_hom(U) - U @ X[1]) / K.support_hom(U))



def _same_contact(row, x, G, K, samples=None):
    """Whether a stacked row equals touch_point at x, and K's gauge and
    normal at xbar - x, bit for bit; or raises what touch_point raises."""
    if isinstance(row, NonUniqueContact):
        with pytest.raises(NonUniqueContact) as exc:
            touch_point(G, K, x, samples=samples)
        return (str(row) == str(exc.value) and np.array_equal(
            row.contact_points, exc.value.contact_points))
    xbar, u = touch_point(G, K, x, samples=samples)
    g, nu = K.gauge_argmax(xbar - x)
    return (np.array_equal(row[0], xbar) and np.array_equal(row[1], u)
            and row[2] == g and np.array_equal(row[3], nu))


class TestTouchPoints:
    """touch_points stacks touch_point's normal and gauge searches over
    the rows of X; every row is the one-row call's, bit for bit."""

    @pytest.mark.parametrize("G, samples", [
        (Ball(1.0), None),
        (Ball(1.0, center=[0.3, 0.0]), None),
        (Ellipsoid.from_semiaxes(2.0, 1.0), None),
        (Superellipse2D(4.0), None),
        (FourierBody2D([1.0, 0.0, 0.0, 0.1]), None),
        (Ellipsoid.from_semiaxes(1.5, 1.0, 0.8), 1024),
    ], ids=["disk", "off-centre disk", "ellipse", "superellipse", "fourier",
            "ellipsoid"])
    def test_rows_equal_touch_point(self, G, samples):
        K = difference_body(G)
        X = boundary_points(G, sphere_directions(G.dim, 16))
        rows = touch_points(G, K, X, samples=samples)
        assert len(rows) == len(X)
        for row, x in zip(rows, X):
            assert not isinstance(row, NonUniqueContact)
            assert _same_contact(row, x, G, K, samples)
            assert row[2] == pytest.approx(1.0, abs=1e-6)

    def test_vertex_rows_mixed_with_unique_rows(self):
        # the vertex row carries the NonUniqueContact touch_point raises;
        # the arc rows around it are unique and unchanged by it
        G = ReuleauxTriangle2D(1.0)
        K = difference_body(G)
        arc = boundary_points(G, np.array(
            [[0.0, -1.0], [math.sin(0.3), -math.cos(0.3)]]))
        X = np.vstack([arc[:1], G.vertices[:1], arc[1:]])
        rows = touch_points(G, K, X)
        assert [isinstance(r, NonUniqueContact) for r in rows] == \
            [False, True, False]
        assert "angular diameter" in str(rows[1])
        for row, x in zip(rows, X):
            assert _same_contact(row, x, G, K)

    def test_one_k_search_for_all_rows(self, monkeypatch):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        rows = []

        def counting(pts, _orig=K._gauge_exact):
            rows.append(len(pts))
            return _orig(pts)

        monkeypatch.setattr(K, "_gauge_exact", counting)
        touch_points(G, K, boundary_points(G, sphere_directions(2, 5)))
        assert rows == [5]

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

    def test_minimum_replicates(self):
        # one replicate has no standard error: the budget was NaN, and the
        # ellipse read as not constant
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        for reps in (1, 0):
            with pytest.raises(ValueError, match="replicates"):
                kdense_spread(G, difference_body(G), 0.5, m=8, n=2 ** 10,
                              replicates=reps)


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
                composed = np.reshape(_harmonic_compose(
                    S_A[np.triu_indices(2)], S_B[np.triu_indices(2)]), (2, 2))
                assert np.abs(composed - harmonic).max() < 1e-12
                assert np.abs(left - harmonic).max() > 1e-6

    def test_each_block_evaluated_once(self, monkeypatch):
        # the sum identity evaluates A and B once and adds their blocks;
        # kp1 evaluates G at u and at -u, and adds them for K = G + (-G)
        # or evaluates any other K on its own
        calls = []
        block = Ellipsoid._tangent_block

        def counting(self, u, E):
            calls.append(self)
            return block(self, u, E)

        monkeypatch.setattr(Ellipsoid, "_tangent_block", counting)
        rng = np.random.default_rng(5)
        for dim in (2, 3):
            A, B = _random_ellipsoid(rng, dim), _random_ellipsoid(rng, dim)
            K = difference_body(A)
            for u in sphere_directions(dim, 4):
                calls.clear()
                krantz_parks_check(A, B, u)
                assert calls == [A, B]
                calls.clear()
                kp1_check(A, u, K=K)
                assert calls == [A] * 2
                twin = copy.copy(A)
                calls.clear()
                kp1_check(A, u, K=difference_body(twin))
                assert calls == [A, A, twin, twin]

    def test_kp1_difference_body_blocks_bit_exact(self):
        # K's block as G's at u plus G's at -u equals the one K evaluates
        # itself, which a difference body of a copy of G does; singular
        # directions raise the same error either way
        bodies = [Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, -0.2]),
                  Ellipsoid.from_semiaxes(2.0, 1.0, 1.5, center=[0.1, 0.0, -0.2]),
                  _random_ellipsoid(np.random.default_rng(9), 3),
                  FourierBody2D([1.0, 0.0, 0.0, 0.1]),
                  FiniteDifference(FourierBody2D([1.0, 0.0, 0.0, 0.1])),
                  Superellipse2D(4.0), ReuleauxTriangle2D(1.0)]
        for G in bodies:
            U = np.vstack([sphere_directions(G.dim, 24), np.eye(G.dim)])
            for u in U:
                outcomes = []
                for K in (None, difference_body(G),
                          difference_body(copy.copy(G))):
                    try:
                        outcomes.append(kp1_check(G, u, K=K))
                    except (SingularCurvature, ValueError) as e:
                        outcomes.append(repr(e))
                assert outcomes[0] == outcomes[1] == outcomes[2], (G, u)

    @staticmethod
    def _outcome(check, *args):
        try:
            return check(*args)
        except (SingularCurvature, ValueError) as e:
            return repr(e)

    @staticmethod
    def _entries(S):
        """(s11,) or (s11, s12, s22) of a shape operator matrix."""
        return tuple(S[np.triu_indices(len(S))].tolist())

    @classmethod
    def _composed_sum_residual(cls, A, B, u):
        S_A = curvature(A, u).S
        S_B = curvature(B, u).S
        S_AB = curvature(MinkowskiSum(A, B), u).S
        H = _harmonic_compose(cls._entries(S_A), cls._entries(S_B))
        return math.hypot(*(S_AB.ravel() - H).tolist())

    @classmethod
    def _composed_kp1_residual(cls, G, u):
        # G at -u in the frame of u, as the identity compares them
        S_K = curvature(difference_body(G), u).S
        S_Gu = curvature(G, u).S
        S_Gmu = curvature(G, -u, frame=reverse_weingarten(G, u)[1]).S
        H = _harmonic_compose(cls._entries(S_Gu), cls._entries(S_Gmu))
        if not _is_positive_definite(cls._entries(S_Gu - S_K)):
            raise ValueError("S_G(u) - S_K(u) is not positive definite")
        return math.hypot(*(S_K.ravel() - H).tolist())

    def test_checks_equal_residuals_composed_from_curvature(self):
        # the per-direction checks' scalar kernel gives the bits of the
        # documented curvature(...).S, and raises its errors in order
        rng = np.random.default_rng(29)
        pairs = [(_random_ellipsoid(rng, dim), _random_ellipsoid(rng, dim))
                 for dim in (2, 3) for _ in range(3)]
        for G in (FourierBody2D([1.0, 0.0, 0.0, 0.1]), Superellipse2D(4.0),
                  ReuleauxTriangle2D(1.0)):
            E = _random_ellipsoid(rng, 2)
            pairs += [(G, E), (E, G)]
        raised = 0
        for A, B in pairs:
            axes = np.eye(A.dim)
            U = np.vstack([sphere_directions(A.dim, 24), axes, -axes])
            for u in U:
                sum_check = self._outcome(krantz_parks_check, A, B, u)
                kp1 = self._outcome(kp1_check, A, u)
                assert sum_check == self._outcome(
                    self._composed_sum_residual, A, B, u), (A, B, u)
                assert kp1 == self._outcome(
                    self._composed_kp1_residual, A, u), (A, u)
                raised += isinstance(sum_check, str) + isinstance(kp1, str)
        assert raised > 0

    def test_singular_and_invalid_inputs_raise(self):
        # cli.run_identities reports a SingularCurvature as a skipped row
        with pytest.raises(SingularCurvature):
            krantz_parks_check(Superellipse2D(4.0), Ball(1.0), [1.0, 0.0])
        for G in (Ellipsoid.from_semiaxes(2.0, 1.0),
                  Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)):
            u = sphere_directions(G.dim, 4)[1]
            # S_G - S_K = 0 is not positive definite
            with pytest.raises(ValueError, match="positive definite"):
                kp1_check(G, u, K=G)
            bad = [(2.0 * u, "not unit"),
                   (np.append(u, 0.0) if G.dim == 2 else u[:2], "dimension"),
                   (u[None, :], "2- or 3-vector")]
            for v, message in bad:
                with pytest.raises(ValueError, match=message):
                    krantz_parks_check(G, Ball(1.0, dim=G.dim), v)
                with pytest.raises(ValueError, match=message):
                    kp1_check(G, v)


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

    def test_minimum_replicates(self):
        # one replicate used to give a NaN budget and a failing verdict
        with pytest.raises(ValueError, match="replicates"):
            halfvolume_condition_check(Ball(1.0), Ball(2.0), m=8, n=2 ** 10,
                                       replicates=1)

    def test_off_center_ball_fails(self):
        K = Ball(1.0, center=[0.3, 0.0])
        rep = halfvolume_condition_check(Ball(1.0), K, m=8, **FAST)
        dev = max(abs(rep.max - 0.5), abs(rep.min - 0.5))
        assert dev > 0.01
