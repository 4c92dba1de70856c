"""Tests of the support-function bodies, gauges and curvature data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdense.bodies import (Ball, ConvexBody, Dilate, Ellipsoid, FourierBody2D,
                           MinkowskiSum, Reflect, ReuleauxTriangle2D,
                           Superellipse2D, Translate, as_direction,
                           boundary_point, boundary_points, curvature,
                           difference_body, normal_at, reverse_weingarten,
                           sphere_directions, tangent_frame)
from kdense.errors import NonUniqueSupport, SingularCurvature
from kdense.oracles import ellipse_curvature_param

RNG = np.random.default_rng(7)


def _zoo():
    return [
        Ball(1.0),
        Ball(0.7, center=[0.2, -0.1]),
        Ellipsoid.from_semiaxes(2.0, 1.0),
        Ellipsoid.from_semiaxes(2.0, 1.0, 1.0),
        Ball(1.0, dim=3),
        FourierBody2D([1.0, 0.0, 0.0, 0.1]),
        Superellipse2D(4.0),
    ]


def _units(dim, n=16):
    V = RNG.normal(size=(n, dim))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# directions and frames

class TestDirections:
    def test_as_direction_validation(self):
        with pytest.raises(ValueError):
            as_direction([1.0, 1.0])
        with pytest.raises(ValueError):
            as_direction([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            as_direction([1.0, 0.0], dim=3)
        u = as_direction([0.0, 1.0])
        assert np.allclose(u, [0.0, 1.0])

    def test_sphere_directions_unit(self):
        for dim in (2, 3):
            U = sphere_directions(dim, 64)
            assert np.allclose(np.linalg.norm(U, axis=1), 1.0)

    def test_2d_grid_avoids_axes(self):
        U = sphere_directions(2, 512)
        assert np.min(np.abs(U)) > 1e-6

    def test_3d_antipodal_symmetry(self):
        U = sphere_directions(3, 256)
        n = len(U) // 2
        assert np.allclose(U[:n], -U[n:])

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_tangent_frame_orthonormal(self, k, dim):
        v = np.random.default_rng(k).normal(size=dim)
        u = v / np.linalg.norm(v)
        E = tangent_frame(u)
        assert E.shape == (dim, dim - 1)
        assert np.allclose(E.T @ E, np.eye(dim - 1), atol=1e-12)
        assert np.allclose(E.T @ u, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# support functions

class TestSupport:
    def test_ball_support(self):
        B = Ball(2.0, center=[0.5, 0.0])
        assert B.support([1.0, 0.0]) == pytest.approx(2.5)
        assert B.support([-1.0, 0.0]) == pytest.approx(1.5)

    def test_ellipsoid_support(self):
        E = Ellipsoid.from_semiaxes(2.0, 1.0)
        assert E.support([1.0, 0.0]) == pytest.approx(2.0)
        assert E.support([0.0, 1.0]) == pytest.approx(1.0)
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert E.support(u) == pytest.approx(math.sqrt(5.0 / 2.0))

    def test_superellipse_support_is_dual_norm(self):
        G = Superellipse2D(4.0)
        q = 4.0 / 3.0
        u = np.array([0.6, 0.8])
        assert G.support(u) == pytest.approx((0.6 ** q + 0.8 ** q) ** (1 / q))
        assert G.support([1.0, 0.0]) == pytest.approx(1.0)

    def test_fourier_support(self):
        G = FourierBody2D([1.0, 0.0, 0.0, 0.1])
        assert G.support([0.0, 1.0]) == pytest.approx(1.0 + 0.1 * math.cos(1.5 * math.pi))
        assert G.support([1.0, 0.0]) == pytest.approx(1.1)

    def test_reuleaux_constant_width(self):
        G = ReuleauxTriangle2D(width=1.0)
        for u in _units(2, 32):
            assert G.support(u) + G.support(-u) == pytest.approx(1.0, abs=1e-12)

    def test_reuleaux_sector_values(self):
        w = 1.0
        G = ReuleauxTriangle2D(w)
        rho = w / math.sqrt(3.0)
        # arc sector opposite the top vertex
        assert G.support([0.0, -1.0]) == pytest.approx(w - rho)
        # vertex sector at the top vertex
        assert G.support([0.0, 1.0]) == pytest.approx(rho)

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, k, t):
        rng = np.random.default_rng(k)
        for body in (Ball(1.3, center=[0.1, 0.2]),
                     Ellipsoid.from_semiaxes(2.0, 1.0),
                     Superellipse2D(4.0)):
            v = rng.normal(size=(1, 2))
            assert body.support_hom(t * v)[0] == pytest.approx(
                t * body.support_hom(v)[0], rel=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_subadditivity(self, k):
        rng = np.random.default_rng(k)
        v, w = rng.normal(size=(2, 2))
        for body in _zoo():
            if body.dim != 2:
                continue
            lhs = body.support_hom((v + w)[None, :])[0]
            rhs = body.support_hom(v[None, :])[0] + body.support_hom(w[None, :])[0]
            assert lhs <= rhs + 1e-10

    def test_minkowski_and_dilate_and_translate(self):
        A = Ball(1.0)
        B = Ellipsoid.from_semiaxes(2.0, 1.0)
        u = _units(2, 8)
        S = MinkowskiSum(A, B)
        assert np.allclose(S.support_hom(u), A.support_hom(u) + B.support_hom(u))
        D = Dilate(B, 3.0)
        assert np.allclose(D.support_hom(u), 3.0 * B.support_hom(u))
        T = Translate(B, [0.3, -0.2])
        assert np.allclose(T.support_hom(u), B.support_hom(u) + u @ [0.3, -0.2])
        R = Reflect(Ball(1.0, center=[0.5, 0.0]))
        assert R.support([1.0, 0.0]) == pytest.approx(0.5)

    def test_difference_body_is_symmetric(self):
        for G in (Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.1, 0.0]),
                  FourierBody2D([1.0, 0.0, 0.0, 0.1]),
                  ReuleauxTriangle2D(1.0)):
            K = difference_body(G)
            for u in _units(2, 16):
                assert K.support(u) == pytest.approx(K.support(-u), abs=1e-12)

    def test_difference_of_symmetric_body_is_double(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        for u in _units(2, 16):
            assert K.support(u) == pytest.approx(2.0 * G.support(u))

    def test_reuleaux_difference_is_ball(self):
        K = difference_body(ReuleauxTriangle2D(1.0))
        for u in _units(2, 16):
            assert K.support(u) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# constructor validation

class TestValidation:
    def test_bad_radius(self):
        with pytest.raises(ValueError):
            Ball(0.0)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            Ball(1.0, dim=4)

    def test_origin_must_be_interior(self):
        with pytest.raises(ValueError):
            Ball(1.0, center=[2.0, 0.0])

    def test_ellipsoid_needs_spd(self):
        with pytest.raises(ValueError):
            Ellipsoid(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            Ellipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_superellipse_exponent(self):
        with pytest.raises(ValueError):
            Superellipse2D(2.0)

    def test_fourier_convexity(self):
        with pytest.raises(ValueError):
            FourierBody2D([1.0, 0.0, 0.0, 0.2])
        with pytest.raises(ValueError):
            FourierBody2D([1.0], [1.0, 2.0])

    def test_reuleaux_width(self):
        with pytest.raises(ValueError):
            ReuleauxTriangle2D(-1.0)

    def test_minkowski_dim_mismatch(self):
        with pytest.raises(ValueError):
            MinkowskiSum(Ball(1.0), Ball(1.0, dim=3))

    def test_derivative_mode(self):
        with pytest.raises(ValueError):
            Ball(1.0, derivative_mode="symbolic")


# ---------------------------------------------------------------------------
# boundary points and normals

class TestBoundary:
    def test_envelope_identity(self):
        # u . x(u) = h(u) at every boundary point
        for body in _zoo():
            U = _units(body.dim, 16)
            P = boundary_points(body, U)
            assert np.allclose(np.einsum("ij,ij->i", U, P),
                               body.support_hom(U), atol=1e-9)

    def test_boundary_points_lie_on_boundary(self):
        for body in _zoo():
            U = _units(body.dim, 16)
            P = boundary_points(body, U)
            g = body.gauge_many(P, refine="all")
            assert np.allclose(g, 1.0, atol=1e-6)

    def test_normal_round_trip(self):
        # x = boundary_point(body, u) has outward normal u by construction
        c, s = math.cos(0.4), math.sin(0.4)
        rot2 = np.array([[c, -s], [s, c]])
        rot3 = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]]) @ \
            np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        bodies = _zoo() + [
            Ellipsoid(rot2 @ np.diag([4.0, 1.0]) @ rot2.T, center=[0.3, -0.2]),
            Ellipsoid(rot3 @ np.diag([2.25, 1.0, 0.64]) @ rot3.T,
                      center=[0.2, -0.1, 0.1]),
            difference_body(Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)),
        ]
        for body in bodies:
            U = _units(body.dim, 8)
            if isinstance(body, Superellipse2D):
                U = np.vstack([U, np.eye(2), -np.eye(2)])  # flat axis points
            for u in U:
                x = boundary_point(body, u)
                assert np.linalg.norm(normal_at(body, x) - u) < 1e-9

    def test_finite_difference_gradient_matches(self):
        for exact, fd in [
            (Ellipsoid.from_semiaxes(2.0, 1.0),
             Ellipsoid.from_semiaxes(2.0, 1.0, derivative_mode="finite-difference")),
            (Ball(1.0, dim=3),
             Ball(1.0, dim=3, derivative_mode="finite-difference")),
        ]:
            U = _units(exact.dim, 16)
            assert np.allclose(exact.gradient_hom(U), fd.gradient_hom(U), atol=1e-7)

    def test_non_unique_support_detected(self):
        class Stadium(ConvexBody):
            # ball + horizontal segment: flat edges with normals +-e2
            kind = "stadium"

            def __init__(self):
                super().__init__(2, derivative_mode="finite-difference")

            def _support_impl(self, V):
                return np.linalg.norm(V, axis=1) + np.abs(V[:, 0])

        body = Stadium()
        with pytest.raises(NonUniqueSupport):
            boundary_point(body, [0.0, 1.0])
        # smooth directions still work
        u = as_direction(np.array([1.0, 0.0]))
        x = boundary_point(body, u)
        assert x @ u == pytest.approx(body.support(u), abs=1e-6)


# ---------------------------------------------------------------------------
# curvature

class TestCurvature:
    def test_unit_ball(self):
        for dim in (2, 3):
            data = curvature(Ball(1.0, dim=dim), _units(dim, 1)[0])
            assert np.allclose(data.R, np.eye(dim - 1), atol=1e-12)
            assert np.allclose(data.S, np.eye(dim - 1), atol=1e-12)
            assert data.kappa == pytest.approx(1.0)

    def test_ball_radius_scaling(self):
        for dim in (2, 3):
            data = curvature(Ball(0.5, dim=dim), _units(dim, 1)[0])
            assert data.kappa == pytest.approx(2.0 ** (dim - 1))

    def test_ellipse_axis_curvatures(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        assert curvature(G, [1.0, 0.0]).kappa == pytest.approx(2.0)
        assert curvature(G, [0.0, 1.0]).kappa == pytest.approx(0.25)

    def test_ellipse_against_parametric_oracle(self):
        a, b = 2.0, 1.0
        G = Ellipsoid.from_semiaxes(a, b)
        for t in np.linspace(0.1, 2 * math.pi, 17):
            nu = np.array([b * math.cos(t), a * math.sin(t)])
            nu /= np.linalg.norm(nu)
            assert curvature(G, nu).kappa == pytest.approx(
                ellipse_curvature_param(a, b, t), rel=1e-10)

    def test_fourier_curvature_profile(self):
        # h = 1 + 0.1 cos 3t gives kappa(t) = 1 / (1 - 0.8 cos 3t)
        G = FourierBody2D([1.0, 0.0, 0.0, 0.1])
        for t in np.linspace(0.05, 2 * math.pi, 13):
            u = np.array([math.cos(t), math.sin(t)])
            assert curvature(G, u).kappa == pytest.approx(
                1.0 / (1.0 - 0.8 * math.cos(3 * t)), rel=1e-10)

    def test_translation_invariance(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        T = Translate(G, [0.3, -0.1])
        u = _units(2, 1)[0]
        assert curvature(T, u).kappa == pytest.approx(curvature(G, u).kappa)

    def test_dilate_scaling(self):
        G = Ball(1.0, dim=3)
        u = _units(3, 1)[0]
        assert curvature(Dilate(G, 2.0), u).kappa == pytest.approx(0.25)

    def test_reverse_weingarten_additive(self):
        A = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)
        B = Ball(0.7, dim=3)
        u = _units(3, 1)[0]
        F = tangent_frame(u)
        RA, _ = reverse_weingarten(A, u, F)
        RB, _ = reverse_weingarten(B, u, F)
        RS, _ = reverse_weingarten(MinkowskiSum(A, B), u, F)
        assert np.allclose(RS, RA + RB, atol=1e-10)

    def test_kappa_frame_invariant(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)
        u = _units(3, 1)[0]
        k1 = curvature(G, u).kappa
        k2 = curvature(G, u, frame=tangent_frame(-u)).kappa
        assert k1 == pytest.approx(k2, rel=1e-12)

    def test_finite_difference_hessian_matches(self):
        exact = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)
        fd = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5,
                                     derivative_mode="finite-difference")
        for u in _units(3, 6):
            assert curvature(fd, u).kappa == pytest.approx(
                curvature(exact, u).kappa, rel=1e-5)

    def test_superellipse_singular_on_axis(self):
        G = Superellipse2D(4.0)
        with pytest.raises(SingularCurvature):
            curvature(G, [1.0, 0.0])
        # generic directions are fine and strictly curved
        assert curvature(G, _units(2, 1)[0]).kappa > 0

    def test_reuleaux_vertex_sector_singular(self):
        G = ReuleauxTriangle2D(1.0)
        with pytest.raises(SingularCurvature):
            curvature(G, [0.0, 1.0])  # vertex sector: zero curvature radius
        data = curvature(G, [0.0, -1.0])  # arc sector: radius = width
        assert data.kappa == pytest.approx(1.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            curvature(Ball(1.0), [2.0, 0.0])


def _rotated_ellipsoid(rng, semiaxes, center=None):
    dim = len(semiaxes)
    R, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    Q = R @ np.diag(np.asarray(semiaxes, dtype=float) ** 2) @ R.T
    return Ellipsoid(0.5 * (Q + Q.T), center=center)


def _off_axis(dim):
    """8 unit directions; in 2D at least 0.28 rad from the coordinate axes,
    where the superellipse is flat and finite differences straddle that."""
    if dim == 3:
        return _units(3, 8)
    t = np.pi / 4 + np.pi / 2 * np.arange(4)[:, None] + np.array([-0.5, 0.5])
    return np.column_stack([np.cos(t.ravel()), np.sin(t.ravel())])


def _ellipsoid_kappa(Q, u):
    """Gauss curvature (u'Qu)^((N+1)/2) / det Q of the ellipsoid with matrix Q."""
    return (u @ Q @ u) ** (0.5 * (len(u) + 1)) / np.linalg.det(Q)


class TestTangentBlock:
    """The tangent block E'H(u)E that curvature and reverse_weingarten use."""

    ECCENTRIC = [(2.0, 1.0), (50.0, 1.0), (200.0, 1.0),
                 (2.0, 1.0, 1.5), (50.0, 1.0, 7.0), (200.0, 1.0, 7.0)]

    def test_ellipsoid_kappa_closed_form(self):
        rng = np.random.default_rng(21)
        for axes in self.ECCENTRIC:
            dim = len(axes)
            for center in (None, rng.normal(size=dim) * 0.1 * min(axes)):
                G = _rotated_ellipsoid(rng, axes, center)
                # rounding in Q moves kappa by up to cond(Q) ulps
                rtol = 1e-14 * (max(axes) / min(axes)) ** 2
                for u in _units(dim, 24):
                    assert curvature(G, u).kappa == pytest.approx(
                        _ellipsoid_kappa(G.Q, u), rel=rtol, abs=0.0)

    def test_combinators_kappa_closed_form(self):
        # G - G, tG, G + v and -G of an ellipsoid with matrix Q are
        # ellipsoids with matrices 4Q, t^2 Q, Q and Q
        rng = np.random.default_rng(22)
        for axes in self.ECCENTRIC:
            dim = len(axes)
            G = _rotated_ellipsoid(rng, axes, rng.normal(size=dim) * 0.1)
            rtol = 1e-14 * (max(axes) / min(axes)) ** 2
            cases = [(difference_body(G), 4.0 * G.Q),
                     (Dilate(G, 2.5), 6.25 * G.Q),
                     (Translate(G, rng.normal(size=dim) * 0.1), G.Q)]
            for u in _units(dim, 12):
                for body, Q in cases:
                    assert curvature(body, u).kappa == pytest.approx(
                        _ellipsoid_kappa(Q, u), rel=rtol, abs=0.0)
                # -G in the frame of -u: the antipodal curvature of G
                data = curvature(Reflect(G), u, frame=tangent_frame(-u))
                assert data.kappa == pytest.approx(
                    _ellipsoid_kappa(G.Q, u), rel=rtol, abs=0.0)

    def test_block_equals_hessian_projection(self):
        E2 = Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, -0.2])
        E3 = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5, center=[0.1, 0.0, -0.2])
        fd = dict(derivative_mode="finite-difference")
        bodies = _zoo() + [
            ReuleauxTriangle2D(1.0), E2, E3,
            _rotated_ellipsoid(np.random.default_rng(23), (2.0, 1.0, 1.5)),
            difference_body(E2), difference_body(E3), Dilate(E3, 2.5),
            Translate(E2, [0.1, 0.2]), Reflect(E3),
            MinkowskiSum(FourierBody2D([1.0, 0.0, 0.0, 0.1]), Ball(0.5)),
            MinkowskiSum(E3, Ball(0.7, dim=3)),
            Ellipsoid.from_semiaxes(2.0, 1.0, 1.5, **fd),
            FourierBody2D([1.0, 0.0, 0.0, 0.1], **fd),
            MinkowskiSum(E2, Ball(0.5), **fd),
            MinkowskiSum(E3, Ellipsoid.from_semiaxes(1.0, 2.0, 1.0, **fd)),
        ]
        for body in bodies:
            for u in map(as_direction, _units(body.dim, 8)):
                for E in (tangent_frame(u), tangent_frame(-u)):
                    R, _ = reverse_weingarten(body, u, E)
                    ref = E.T @ body.hessian_hom(u) @ E
                    assert np.linalg.norm(R - ref) <= \
                        1e-13 * np.linalg.norm(ref), body

    def test_asymmetric_q_uses_its_symmetric_part(self):
        # the constructor accepts Q within rounding of symmetric; the block
        # must see the same symmetric part as the support function
        for Q in ([[2.0, 0.3 + 1e-6], [0.3 - 1e-6, 1.0]],
                  [[2.0, 0.3 + 1e-6, 0.1], [0.3 - 1e-6, 1.0, -0.2],
                   [0.1, -0.2 - 1e-6, 1.5]]):
            Q = np.array(Q)
            G = Ellipsoid(Q)
            S = 0.5 * (Q + Q.T)
            for u in _units(len(Q), 8):
                assert G.support(u) == pytest.approx(math.sqrt(u @ S @ u),
                                                     rel=1e-15)
                assert curvature(G, u).kappa == pytest.approx(
                    _ellipsoid_kappa(S, u), rel=1e-14, abs=0.0)

    def test_block_matches_finite_differences(self):
        # an independent reference for every closed form: central second
        # differences of the body's own support function (not Reuleaux,
        # whose profile has kinks)
        E3 = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5, center=[0.1, 0.0, -0.2])
        bodies = _zoo() + [
            Superellipse2D(2.5), Superellipse2D(8.0),
            _rotated_ellipsoid(np.random.default_rng(24), (2.0, 1.0, 1.5)),
            difference_body(E3), Dilate(E3, 2.5), Translate(E3, [0.1, 0.2, 0.0]),
            Reflect(E3), MinkowskiSum(FourierBody2D([1.0, 0.0, 0.0, 0.1]),
                                      Superellipse2D(4.0)),
        ]
        for body in bodies:
            for u in map(as_direction, _off_axis(body.dim)):
                for E in (tangent_frame(u), tangent_frame(-u)):
                    R, _ = reverse_weingarten(body, u, E)
                    ref = E.T @ body._fd_hessian(u) @ E
                    assert np.linalg.norm(R - ref) <= \
                        1e-6 * np.linalg.norm(ref), body

    def test_hessian_from_block(self):
        # H(v) = E R E' / |v|: symmetric, v in its kernel, and equal to the
        # finite-difference Hessian of the support function
        bodies = _zoo() + [
            difference_body(Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)),
            Reflect(Translate(Ellipsoid.from_semiaxes(2.0, 1.0), [0.3, 0.1])),
        ]
        for body in bodies:
            for v in 1.7 * _off_axis(body.dim):
                H = body.hessian_hom(v)
                ref = body._fd_hessian(v)
                scale = np.linalg.norm(ref)
                assert np.abs(H - H.T).max() <= 1e-15 * scale, body
                assert np.linalg.norm(H @ v) <= 1e-14 * scale, body
                assert np.linalg.norm(H - ref) <= 1e-6 * scale, body

    def test_closed_forms_skip_the_hessian(self, monkeypatch):
        calls = []
        hessian_hom = ConvexBody.hessian_hom

        def counting(self, v):
            calls.append(self)
            return hessian_hom(self, v)

        monkeypatch.setattr(ConvexBody, "hessian_hom", counting)
        for G in (Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, 0.1]),
                  Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)):
            u = _units(G.dim, 1)[0]
            for body in (G, difference_body(G), Dilate(G, 2.0),
                         Translate(G, np.full(G.dim, 0.1)), Reflect(G),
                         MinkowskiSum(G, Ball(0.5, dim=G.dim))):
                curvature(body, u)
                reverse_weingarten(body, u)
        for body in _zoo():
            curvature(body, _units(body.dim, 1)[0])
        assert calls == []
        fd = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5,
                                     derivative_mode="finite-difference")
        u = _units(3, 1)[0]
        curvature(fd, u)
        assert calls == [fd]
        # an analytic sum projects only its finite-difference summand
        curvature(MinkowskiSum(Ellipsoid.from_semiaxes(2.0, 1.0, 1.5), fd), u)
        assert calls == [fd, fd]


# ---------------------------------------------------------------------------
# gauges

class TestGauge:
    def test_ball_gauge_exact(self):
        B = Ball(2.0, center=[0.5, 0.0])
        pts = np.array([[2.5, 0.0], [0.5, 2.0], [0.5, 0.0]])
        g = B.gauge_many(pts)
        # gauge 1 on the boundary; interior points below 1
        assert g[0] == pytest.approx(1.0)
        assert g[1] == pytest.approx(1.0)
        assert g[2] < 1.0

    def test_ellipsoid_gauge_exact(self):
        E = Ellipsoid.from_semiaxes(2.0, 1.0)
        assert E.gauge_many(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.5)
        assert E.gauge_many(np.array([[0.0, 2.0]]))[0] == pytest.approx(2.0)

    def test_generic_gauge_matches_exact(self):
        # MinkowskiSum falls back to the scan-and-refine gauge
        S = MinkowskiSum(Ball(1.0), Ball(1.0))  # = ball of radius 2
        pts = 3.0 * _units(2, 32)
        assert np.allclose(S.gauge_many(pts, refine="all"), 1.5, atol=1e-8)
        S3 = MinkowskiSum(Ball(1.0, dim=3), Ball(1.0, dim=3))
        pts = 1.0 * _units(3, 16)
        assert np.allclose(S3.gauge_many(pts, refine="all"), 0.5, atol=1e-5)

    def test_generic_gauge_ellipse_sum(self):
        K = difference_body(Ellipsoid.from_semiaxes(2.0, 1.0))  # = 2G
        E = Ellipsoid.from_semiaxes(4.0, 2.0)
        pts = RNG.normal(size=(64, 2)) * [3.0, 1.5]
        g_exact = E.gauge_many(pts)
        g_scan = K.gauge_many(pts, refine="all")
        assert np.allclose(g_scan, g_exact, atol=1e-7)

    def test_gauge_homogeneity(self):
        G = Superellipse2D(4.0)
        pts = _units(2, 8)
        assert np.allclose(G.gauge_many(2.5 * pts), 2.5 * G.gauge_many(pts))

    def test_reuleaux_gauge_is_max_of_disks(self):
        G = ReuleauxTriangle2D(1.0)
        U = _units(2, 32)
        P = boundary_points(G, U)  # works off arc sectors; vertices included
        g = G.gauge_many(P)
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_contains(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        pts = np.array([[0.0, 0.0], [1.99, 0.0], [0.0, 1.01], [3.0, 3.0]])
        assert list(G.contains(pts)) == [True, True, False, False]

    def test_coarse_scan_independent_of_block(self):
        # point counts that are not multiples of the 256- and 32-row blocks
        for G, n in ((Ellipsoid.from_semiaxes(2.0, 1.0), 1000),
                     (Ellipsoid.from_semiaxes(1.5, 1.0, 0.8), 100)):
            K = difference_body(G)
            pts = RNG.normal(size=(n, G.dim))
            _, _, Uh = K._gauge_grid()
            ratios = pts @ Uh.T
            idx = np.argmax(ratios, axis=1)
            g, got = K._gauge_coarse(pts)
            assert np.array_equal(got, idx)
            assert np.array_equal(g, ratios[np.arange(n), idx])

    def test_empty_input(self):
        # the pruned QMC predicates can hand a body no points at all
        E = Ellipsoid.from_semiaxes(2.0, 1.0)
        bodies = _zoo() + [
            ReuleauxTriangle2D(1.0),
            difference_body(E),
            difference_body(Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)),
            Dilate(difference_body(E), 0.5),
            Translate(difference_body(E), [0.3, -0.2]),
            Reflect(Superellipse2D(4.0)),
        ]
        for body in bodies:
            empty = np.empty((0, body.dim))
            for refine in ("auto", "all", "none"):
                assert body.gauge_many(empty, refine=refine).shape == (0,)
            inside = body.contains(empty)
            assert inside.shape == (0,) and inside.dtype == bool
