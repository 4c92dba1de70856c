"""Tests of the support-function bodies, gauges and curvature data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdense.bodies import (Ball, ConvexBody, Dilate, Ellipsoid, FourierBody2D,
                           MinkowskiSum, ReuleauxTriangle2D,
                           Superellipse2D, SupportRows,
                           Translate, _as_directions, _direction, _frame,
                           _optimality_residual, _unit, as_direction,
                           boundary_point, boundary_points, curvature,
                           curvature_many, difference_body, normal_at,
                           reverse_weingarten, sphere_directions,
                           support_ratio_max, tangent_frame)
from kdense import bodies, measure
from kdense.analysis import krantz_parks_check
from kdense.config import BODY_KINDS, load_config
from kdense.errors import SingularCurvature
from kdense.measure import bounding_box

from finite_difference import (FiniteDifference, GRADIENT_TOL, HESSIAN_TOL,
                               NonUniqueSupport)
from oracles import ellipse_curvature_param

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


def _gauge_zoo():
    """The zoo plus generic gauges (2D and 3D) and the forwarding kinds."""
    E = Ellipsoid.from_semiaxes(2.0, 1.0)
    return _zoo() + [
        ReuleauxTriangle2D(1.0),
        difference_body(E),
        difference_body(Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)),
        Dilate(difference_body(E), 0.5),
        Translate(difference_body(E), [0.3, -0.2]),
        Dilate(Superellipse2D(4.0), -1.0),
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

    def test_nan_direction_rejected(self):
        # a NaN norm is not within 1e-9 of 1: each entry point raises
        # ValueError instead of returning NaN or SingularCurvature
        nan = [math.nan, 0.0]
        with pytest.raises(ValueError):
            as_direction(nan)
        with pytest.raises(ValueError):
            curvature_many(Ellipsoid.from_semiaxes(2.0, 1.0), [nan])
        with pytest.raises(ValueError):
            krantz_parks_check(Ball(1.0), Ball(0.7), nan)

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


class TestDirectionMemo:
    """``_direction``: validated unit tuples, their frames and antipodes,
    memoized by the bytes of the float array."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        bodies._DIRECTION_MEMO.clear()
        yield
        bodies._DIRECTION_MEMO.clear()

    @staticmethod
    def _bits(*parts):
        return tuple(np.array(a).tobytes() for a in parts)

    @staticmethod
    def _rows(dim, n):
        """n random rows a hair off unit length, so the normalization
        divides; from a generator of their own, so the draws of the shared
        RNG that later tests read stay as they were."""
        rng = np.random.default_rng([15, dim, n])
        V = rng.normal(size=(n, dim))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        return V * (1.0 + rng.uniform(-5e-10, 5e-10, (n, 1)))

    @classmethod
    def _inputs(cls, dim):
        """Random rows as lists, tuples and float64 arrays; and float32
        arrays, which are unit within 1e-9 only for the axes and a few
        random rows."""
        V = cls._rows(dim, 64)
        W = np.vstack([np.eye(dim), -np.eye(dim), cls._rows(dim, 4000)])
        W = W.astype(np.float32)
        n = np.sqrt(np.einsum("ij,ij->i", W.astype(float), W.astype(float)))
        W = W[np.abs(n - 1.0) <= 1e-9]
        assert len(W) > 2 * dim
        return ([v.tolist() for v in V] + [tuple(v.tolist()) for v in V] +
                list(V) + list(W))

    def test_hit_equals_miss(self):
        for dim in (2, 3):
            for u in self._inputs(dim):
                v = _unit(u, dim)
                expect = self._bits(v, _frame(v), [-c for c in v])
                bodies._DIRECTION_MEMO.clear()
                miss = _direction(u, dim)
                hit = _direction(u, dim)
                assert hit is miss
                assert self._bits(*miss) == expect, u

    def test_invalid_input_raises_every_time_and_is_not_stored(self):
        bad = [[math.nan, 0.0], [0.0, math.nan, 0.0], [1.0, 1.0],
               [0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0]], [1.0]]
        for u in bad:
            for dim in (2, 3):
                for _ in range(3):
                    with pytest.raises(ValueError):
                        _direction(u, dim)
        assert not bodies._DIRECTION_MEMO
        # bytes valid at dim 2 still raise at dim 3, through the public
        # entries too
        u = np.array([0.6, 0.8])
        _direction(u, 2)
        curvature(Ellipsoid.from_semiaxes(2.0, 1.0), u)
        for _ in range(3):
            with pytest.raises(ValueError):
                _direction(u, 3)
            with pytest.raises(ValueError):
                curvature(Ellipsoid.from_semiaxes(2.0, 1.0, 1.5), u)
            with pytest.raises(ValueError):
                krantz_parks_check(Ball(1.0, dim=3), Ball(0.5, dim=3), u)
        assert len(bodies._DIRECTION_MEMO) == 1

    def test_size_stays_within_cap(self):
        cap = bodies.DIRECTION_MEMO_MAX
        for u in sphere_directions(2, cap + 1):
            _direction(u, 2)
            assert len(bodies._DIRECTION_MEMO) <= cap
        assert 0 < len(bodies._DIRECTION_MEMO) <= cap

    def test_as_direction_equals_stacked_rows(self):
        # the scalar norm u.dot(u) and the stacked batched matmul agree
        for dim in (2, 3):
            V = self._rows(dim, 10 ** 4)
            one = np.array([as_direction(v) for v in V])
            assert one.tobytes() == _as_directions(V, dim).tobytes()


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
        R = Dilate(Ball(1.0, center=[0.5, 0.0]), -1.0)
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

    def test_origin_interior_decided_in_closed_form(self):
        # the origin lies just outside the ball and on the ellipse: a
        # sample of support values missed both, and the gauge then raised.
        # A translate by v is decided by the exact gauge of -v: here 1.01 in
        # thin bodies, whose support is negative only at the thin axis
        thin2 = Ellipsoid.from_semiaxes(2.0, 0.001)
        thin3 = Ellipsoid.from_semiaxes(2.0, 1.0, 0.001)
        for make in (lambda: Ball(1.0, center=[1.00001, 0.0]),
                     lambda: Ball(1.0, center=[0.0, 0.0, 1.0]),
                     lambda: Ellipsoid(np.diag([4.0, 1.0]), center=[2.0, 0.0]),
                     lambda: Ellipsoid.from_semiaxes(2.0, 1.0, 1.5,
                                                     center=[0.0, 0.0, 1.5]),
                     lambda: Translate(thin2, [0.0, 0.00101]),
                     lambda: Translate(thin3, [0.0, 0.0, 0.00101]),
                     lambda: Translate(difference_body(thin2), [0.0, 0.00202]),
                     lambda: Translate(difference_body(thin3),
                                       [0.0, 0.0, -0.00202])):
            with pytest.raises(ValueError, match="interior"):
                make()
        # just inside, every body has a finite positive gauge
        for body in (Ball(1.0, center=[0.99999, 0.0]),
                     Ellipsoid(np.diag([4.0, 1.0]), center=[1.9999, 0.0]),
                     Translate(thin2, [0.0, 0.00099]),
                     Translate(difference_body(thin3), [0.0, 0.0, -0.00198])):
            g = body.gauge_many(sphere_directions(body.dim, 16))
            assert np.all(np.isfinite(g) & (g > 0.0))

    @pytest.mark.parametrize("make", [
        lambda: Ball(math.nan), lambda: Ball(math.inf),
        lambda: Ball(1.0, center=[math.nan, 0.0]),
        lambda: Ball(1.0, center=[0.0, math.inf]),
        lambda: Ellipsoid(np.diag([math.inf, 1.0])),
        lambda: Ellipsoid(np.diag([math.nan, 1.0])),
        lambda: Ellipsoid(np.eye(2), center=[math.inf, 0.0]),
        lambda: Ellipsoid.from_semiaxes(1.0, 1.0, 1.0,
                                        center=[0.0, math.nan, 0.0]),
        lambda: Ellipsoid(np.eye(2), center=[0.0, 0.0, 0.0]),
        lambda: Translate(Ball(1.0), [math.nan, 0.0]),
        lambda: Translate(Ball(1.0), [0.0, math.inf]),
        lambda: Translate(Ball(1.0), [0.0, 0.0, 0.0]),
    ])
    def test_non_finite_or_misshaped_quadric_rejected(self, make):
        with pytest.raises(ValueError):
            make()

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

    def test_fourier_origin_certified_between_samples(self):
        # the unit disk centred at (1.00001, 0): h(pi) = -1e-5 on an arc of
        # 0.009 rad, under a 256-direction sample's spacing
        with pytest.raises(ValueError, match="interior"):
            FourierBody2D([1.0, 1.00001])
        # 1 + A cos(t - d), A = 1 + 1e-7, d half the 4096-angle spacing:
        # negative on an arc of 9e-4 rad between two samples, which both
        # read +1.9e-7, below the bound max|h''| D^2 / 8 = 2.9e-7
        d = math.pi / 4096
        A = 1.0 + 1e-7
        t = 2.0 * math.pi * np.arange(4096) / 4096
        assert np.min(1.0 + A * np.cos(t - d)) > 0.0
        with pytest.raises(ValueError, match="interior"):
            FourierBody2D([1.0, A * math.cos(d)], [0.0, A * math.sin(d)])
        # a disk centred at (0.99, 0) keeps a margin of 0.01 and builds
        assert FourierBody2D([1.0, 0.99]).support([-1.0, 0.0]) == \
            pytest.approx(0.01)

    def test_reuleaux_width(self):
        with pytest.raises(ValueError):
            ReuleauxTriangle2D(-1.0)

    @pytest.mark.parametrize("make, name", [
        (lambda v: Superellipse2D(v), "exponent"),
        (lambda v: ReuleauxTriangle2D(v), "width"),
        (lambda v: FourierBody2D([1.0, 0.0, v]), "interior"),
    ], ids=["superellipse", "reuleaux", "fourier"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, make, name, value):
        # a NaN or infinite parameter fails the parameter's own check
        with pytest.raises(ValueError, match=name):
            make(value)

    def test_minkowski_dim_mismatch(self):
        with pytest.raises(ValueError):
            MinkowskiSum(Ball(1.0), Ball(1.0, dim=3))

    def test_dilation_factor(self):
        # any finite nonzero factor is a homothety; zero and non-finite
        # factors would build a degenerate or NaN body
        for s in (0.0, -0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="factor"):
                Dilate(Ball(1.0), s)
        D = Dilate(Ball(1.0, center=[0.5, 0.0]), -2.0)
        assert D.support([1.0, 0.0]) == pytest.approx(1.0)
        assert D.support([-1.0, 0.0]) == pytest.approx(3.0)


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
            g = body.gauge_many(P)
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
        for exact in (Ellipsoid.from_semiaxes(2.0, 1.0), Ball(1.0, dim=3)):
            U = _units(exact.dim, 16)
            err = np.linalg.norm(exact.gradient_hom(U) -
                                 FiniteDifference(exact).gradient_hom(U), axis=1)
            assert np.all(err <= GRADIENT_TOL * exact.support_hom(U))

    def test_non_unique_support_detected(self):
        class Stadium(ConvexBody):
            # ball + horizontal segment: flat edges with normals +-e2
            kind = "stadium"

            def __init__(self):
                super().__init__(2)

            def _support_impl(self, V):
                return np.linalg.norm(V, axis=1) + np.abs(V[:, 0])

        body = FiniteDifference(Stadium())
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
        fd = FiniteDifference(exact)
        # kappa = 1 / det R gathers the errors of the block's entries,
        # amplified by its condition (below 5 here)
        for u in _units(3, 6):
            assert curvature(fd, u).kappa == pytest.approx(
                curvature(exact, u).kappa, rel=10 * HESSIAN_TOL)

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

    def test_frame_must_be_orthonormal(self):
        # the closed-form blocks read the frame only as an orthonormal basis
        # of the plane orthogonal to u; a scaled or skewed one must raise,
        # not give a wrong R
        for axes in ((2.0, 1.0), (2.0, 1.0, 1.5)):
            G = Ellipsoid.from_semiaxes(*axes)
            u = as_direction(_units(len(axes), 1)[0])
            E = tangent_frame(u)
            tilted = E + 0.1 * u[:, None]
            tilted /= np.linalg.norm(tilted, axis=0)
            bad = [2.0 * E, (1.0 + 1e-9) * E, tilted]
            if len(axes) == 3:
                skewed = (E[:, 0] + E[:, 1]) / math.sqrt(2.0)
                bad.append(np.column_stack([E[:, 0], skewed]))
            bad.append(E[:, :1] if len(axes) == 3 else np.column_stack([E, E]))
            for frame in bad:
                with pytest.raises(ValueError):
                    curvature(G, u, frame=frame)
                with pytest.raises(ValueError):
                    reverse_weingarten(G, u, frame=frame)
            # the frame of -u is an orthonormal basis of the same plane
            for frame in (E, tangent_frame(-u)):
                assert curvature(G, u, frame=frame).kappa == pytest.approx(
                    curvature(G, u).kappa, rel=1e-14)
                reverse_weingarten(G, u, frame=frame)


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


def _hessian(body, v):
    """Hessian of the support extension H at v: E R E' / |v|, from the
    tangent block R at u = v / |v| in E = tangent_frame(u)."""
    n = np.linalg.norm(v)
    R, E = reverse_weingarten(body, v / n)
    return E @ R @ E.T / n


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
        # G - G, tG (t = 2.5 and -1.5), G + v and -G of an ellipsoid with
        # matrix Q are ellipsoids with matrices 4Q, t^2 Q, Q and Q
        rng = np.random.default_rng(22)
        for axes in self.ECCENTRIC:
            dim = len(axes)
            G = _rotated_ellipsoid(rng, axes, rng.normal(size=dim) * 0.1)
            rtol = 1e-14 * (max(axes) / min(axes)) ** 2
            cases = [(difference_body(G), 4.0 * G.Q),
                     (Dilate(G, 2.5), 6.25 * G.Q),
                     (Dilate(G, -1.5), 2.25 * G.Q),
                     (Translate(G, rng.normal(size=dim) * 0.1), G.Q)]
            for u in _units(dim, 12):
                for body, Q in cases:
                    assert curvature(body, u).kappa == pytest.approx(
                        _ellipsoid_kappa(Q, u), rel=rtol, abs=0.0)
                # -G in the frame of -u: the antipodal curvature of G
                data = curvature(Dilate(G, -1.0), u, frame=tangent_frame(-u))
                assert data.kappa == pytest.approx(
                    _ellipsoid_kappa(G.Q, u), rel=rtol, abs=0.0)

    def test_block_equals_hessian_projection(self):
        # the block in either frame is the projection of the Hessian built
        # from the default frame's block, so bodies with a difference block
        # meet the analytic bound too
        E2 = Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, -0.2])
        E3 = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5, center=[0.1, 0.0, -0.2])
        bodies = _zoo() + [
            ReuleauxTriangle2D(1.0), E2, E3,
            _rotated_ellipsoid(np.random.default_rng(23), (2.0, 1.0, 1.5)),
            difference_body(E2), difference_body(E3), Dilate(E3, 2.5),
            Translate(E2, [0.1, 0.2]), Dilate(E3, -1.0),
            MinkowskiSum(FourierBody2D([1.0, 0.0, 0.0, 0.1]), Ball(0.5)),
            MinkowskiSum(E3, Ball(0.7, dim=3)),
            FiniteDifference(Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)),
            FiniteDifference(FourierBody2D([1.0, 0.0, 0.0, 0.1])),
            FiniteDifference(MinkowskiSum(E2, Ball(0.5))),
            MinkowskiSum(E3, FiniteDifference(
                Ellipsoid.from_semiaxes(1.0, 2.0, 1.0))),
            MinkowskiSum(FiniteDifference(E2), Ball(0.5)),
        ]
        rng = np.random.default_rng(25)
        for body in bodies:
            V = rng.normal(size=(8, body.dim))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            # re-normalized, as a caller may pass them
            for u in (as_direction(as_direction(v)) for v in V):
                for E in (tangent_frame(u), tangent_frame(-u)):
                    R, _ = reverse_weingarten(body, u, E)
                    ref = E.T @ _hessian(body, u) @ E
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
            Dilate(E3, -1.0),
            MinkowskiSum(FourierBody2D([1.0, 0.0, 0.0, 0.1]),
                         Superellipse2D(4.0)),
        ]
        for body in bodies:
            fd = FiniteDifference(body)
            for u in map(as_direction, _off_axis(body.dim)):
                for E in (tangent_frame(u), tangent_frame(-u)):
                    R, _ = reverse_weingarten(body, u, E)
                    ref = E.T @ fd.hessian(u) @ E
                    assert np.linalg.norm(R - ref) <= \
                        HESSIAN_TOL * np.linalg.norm(ref), body

    def test_hessian_from_block(self):
        # H(v) = E R E' / |v|: symmetric, v in its kernel, and equal to the
        # finite-difference Hessian of the support function
        bodies = _zoo() + [
            difference_body(Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)),
            Dilate(Translate(Ellipsoid.from_semiaxes(2.0, 1.0), [0.3, 0.1]),
                   -1.0),
        ]
        for body in bodies:
            for v in 1.7 * _off_axis(body.dim):
                H = _hessian(body, v)
                ref = FiniteDifference(body).hessian(v)
                scale = np.linalg.norm(ref)
                assert np.abs(H - H.T).max() <= 1e-15 * scale, body
                assert np.linalg.norm(H @ v) <= 1e-14 * scale, body
                assert np.linalg.norm(H - ref) <= HESSIAN_TOL * scale, body

    # one body of every config kind, in 2D and 3D where the kind allows
    CONFIG_KINDS = """
[body disk]
kind = ball
radius = 0.8
center = 0.1 -0.2
[body ball]
kind = ball
radius = 0.8
dimension = 3
[body ellipse]
kind = ellipsoid
semiaxes = 2.0 1.0
center = 0.3 -0.2
[body ellipsoid]
kind = ellipsoid
semiaxes = 2.0 1.0 1.5
[body super]
kind = superellipse
exponent = 4.0
[body fourier]
kind = fourier
cos = 1 0 0.1 0.05
sin = 0 0 0.03 0.02
[body wheel]
kind = reuleaux
width = 1.0
[body wheel_diff]
kind = difference
of = wheel
[body diff]
kind = difference
of = ellipsoid
[body dilate]
kind = dilate
of = fourier
factor = -1.5
[body shift]
kind = translate
of = ellipsoid
vector = 0.1 0.2 -0.1
[body shift_wheel]
kind = translate
of = wheel
vector = 0.05 -0.03
[body mirror]
kind = reflect
of = super
[body sum]
kind = minkowski_sum
left = ellipse
right = super
[body sum3]
kind = minkowski_sum
left = ellipsoid
right = ball
"""

    def test_every_config_kind_has_closed_forms(self, tmp_path):
        # each kind the config builds has a closed-form gradient and tangent
        # block: they match central differences of its own support function
        # at directions clear of superellipse flats and Reuleaux kinks
        path = tmp_path / "kinds.cfg"
        path.write_text(self.CONFIG_KINDS)
        cfg = load_config(str(path))
        assert {s.kind for s in cfg.body_specs.values()} == set(BODY_KINDS)
        rng = np.random.default_rng(26)
        for name in cfg.body_specs:
            body = cfg.body(name)
            fd = FiniteDifference(body)
            if body.dim == 2:
                U = _off_axis(2)
            else:
                U = rng.normal(size=(8, 3))
                U /= np.linalg.norm(U, axis=1, keepdims=True)
            err = np.linalg.norm(body.gradient_hom(U) - fd.gradient_hom(U),
                                 axis=1)
            assert np.all(err <= GRADIENT_TOL * body.support_hom(U)), name
            for u in map(as_direction, U):
                E = tangent_frame(u)
                R, _ = reverse_weingarten(body, u, E)
                ref, _ = reverse_weingarten(fd, u, E)
                # the block is 0 in Reuleaux vertex sectors: scale by h(u)
                scale = max(np.linalg.norm(ref), body.support(u))
                assert np.linalg.norm(R - ref) <= HESSIAN_TOL * scale, name


class TestCurvatureMany:
    """curvature_many against curvature, one direction at a time."""

    @staticmethod
    def _bodies():
        E2 = Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, -0.2])
        E3 = Ellipsoid.from_semiaxes(2.0, 1.0, 1.5, center=[0.1, 0.0, -0.2])
        fourier = FourierBody2D([1.0, 0.0, 0.0, 0.1])
        return _zoo() + [
            ReuleauxTriangle2D(1.0), E2, E3,
            _rotated_ellipsoid(np.random.default_rng(31), (2.0, 1.0, 1.5)),
            Dilate(E3, 2.5), Dilate(fourier, 0.5),
            Translate(E2, [0.1, 0.2]), Translate(E3, [0.1, 0.2, 0.0]),
            Dilate(E3, -1.0), Dilate(fourier, -1.0),
            difference_body(E2), difference_body(E3),
            difference_body(Superellipse2D(4.0)),
            MinkowskiSum(fourier, Superellipse2D(4.0)),
            MinkowskiSum(E3, Ball(0.7, dim=3)),
            FiniteDifference(Ellipsoid.from_semiaxes(2.0, 1.0, 1.5)),
            FiniteDifference(fourier),
            FiniteDifference(MinkowskiSum(E2, Ball(0.5))),
            MinkowskiSum(E3, FiniteDifference(
                Ellipsoid.from_semiaxes(1.0, 2.0, 1.0))),
        ]

    @staticmethod
    def _directions(dim):
        # random and grid directions, the coordinate axes (superellipse
        # flats) and, in 2D, the Reuleaux vertex sectors around +-e_2; in
        # 3D also directions whose least aligned axis ties with another
        axes = np.vstack([np.eye(dim), -np.eye(dim)])
        U = [_units(dim, 24), sphere_directions(dim, 64), axes]
        if dim == 3:
            ties = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                             [2.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
            ties /= np.linalg.norm(ties, axis=1, keepdims=True)
            U += [ties, -ties]
        return np.vstack(U)

    def test_rows_equal_curvature_bit_for_bit(self):
        for body in self._bodies():
            U = self._directions(body.dim)
            data, singular = curvature_many(body, U)
            for i, u in enumerate(U):
                try:
                    one = curvature(body, u)
                except SingularCurvature:
                    assert singular[i], (body, u)
                    assert np.isnan(data.kappa[i])
                    assert np.isnan(data.S[i]).all()
                    continue
                assert not singular[i], (body, u)
                for name in ("u", "frame", "R", "S"):
                    assert np.array_equal(getattr(data, name)[i],
                                          getattr(one, name)), (body, u, name)
                assert data.kappa[i] == one.kappa, (body, u)

    def test_axis_frame_closed_form(self):
        # e_3's least aligned axes tie; the first, e_1, starts the frame
        assert np.array_equal(tangent_frame([0.0, 0.0, 1.0]),
                              [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_singular_mask(self):
        # flat on the superellipse axes, zero radius in Reuleaux vertex
        # sectors: those rows and only those are masked
        cases = [(Superellipse2D(4.0), self._directions(2)),
                 (ReuleauxTriangle2D(1.0), sphere_directions(2, 96))]
        for body, U in cases:
            _, singular = curvature_many(body, U)
            raises = []
            for u in U:
                try:
                    curvature(body, u)
                    raises.append(False)
                except SingularCurvature:
                    raises.append(True)
            assert 0 < singular.sum() < len(U)
            assert singular.tolist() == raises

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            curvature_many(Ball(1.0), [[2.0, 0.0]])
        with pytest.raises(ValueError):
            curvature_many(Ball(1.0), [[1.0, 0.0, 0.0]])

    def test_volume_quadrature_makes_no_per_node_call(self, monkeypatch):
        calls, blocks = [], []
        one = curvature

        def counting(body, u, frame=None):
            calls.append(u)
            return one(body, u, frame)

        def counting_block(block):
            def count(self, u, E):
                blocks.append(self)
                return block(self, u, E)
            return count

        monkeypatch.setattr(measure, "curvature", counting, raising=False)
        monkeypatch.setattr("kdense.bodies.curvature", counting)
        for G in (Ellipsoid.from_semiaxes(1.5, 1.0, 0.8),
                  FourierBody2D([1.0, 0.0, 0.0, 0.1])):
            monkeypatch.setattr(type(G), "_tangent_block",
                                counting_block(type(G)._tangent_block))
            blocks.clear()
            measure.volume_quadrature(G)
            # one stacked block for the full grid and one for the half grid
            assert blocks == [G, G]
        assert calls == []


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
        assert np.allclose(S.gauge_many(pts), 1.5, atol=1e-8)
        S3 = MinkowskiSum(Ball(1.0, dim=3), Ball(1.0, dim=3))
        pts = 1.0 * _units(3, 16)
        assert np.allclose(S3.gauge_many(pts), 0.5, atol=1e-5)

    def test_generic_gauge_ellipse_sum(self):
        K = difference_body(Ellipsoid.from_semiaxes(2.0, 1.0))  # = 2G
        E = Ellipsoid.from_semiaxes(4.0, 2.0)
        pts = RNG.normal(size=(64, 2)) * [3.0, 1.5]
        g_exact = E.gauge_many(pts)
        g_scan = K.gauge_many(pts)
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

    @pytest.mark.parametrize("body", [
        Ball(1.0, center=[0.2, -0.1]),
        Ellipsoid(np.array([[3.0, 1.2], [1.2, 1.5]]), center=[0.3, -0.2]),
        Superellipse2D(4.0),
        ReuleauxTriangle2D(1.0),
        Dilate(ReuleauxTriangle2D(1.0), -2.0),
    ], ids=["ball", "ellipse", "superellipse", "reuleaux", "dilated reuleaux"])
    def test_closed_argmax_gauge_is_gauge_many(self, body):
        # a closed gauge answers gauge_argmax from its own closed form: one
        # row's gauge is gauge_many's bit for bit, and the direction is the
        # outward normal at v / g, where <v / g, u> = h(u)
        rng = np.random.default_rng(29)
        for v in rng.normal(size=(200, body.dim)):
            g, u = body.gauge_argmax(v)
            assert g == body.gauge_many(v)[0]
            assert (v / g) @ u == pytest.approx(body.support(u), rel=1e-12)

    def test_contains(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        pts = np.array([[0.0, 0.0], [1.99, 0.0], [0.0, 1.01], [3.0, 3.0]])
        assert list(G.contains(pts)) == [True, True, False, False]

    def test_coarse_scan_independent_of_block(self):
        # 3D scans blocks of 32 rows; 100 is not a multiple of it (the 2D
        # lower bound is checked against the full product in
        # TestGaugeBracket)
        K = difference_body(Ellipsoid.from_semiaxes(1.5, 1.0, 0.8))
        pts = RNG.normal(size=(100, 3))
        _, _, Uh = K._gauge_grid()
        ratios = pts @ Uh.T
        idx = np.argmax(ratios, axis=1)
        g, got = K._gauge_coarse(pts)
        assert np.array_equal(got, idx)
        assert np.array_equal(g, ratios[np.arange(100), idx])

    def test_point_rows_keep_nan_jacobian(self):
        # grad H_A = p is constant for point rows, so the search skips
        # ray * 0; where the ray or p is not finite that product was NaN,
        # and the Jacobian must stay NaN there
        K = difference_body(Ellipsoid.from_semiaxes(2.0, 1.0))
        U = _units(2, 4)
        pts = np.vstack([2.0 * U[0], [-U[1, 1], U[1, 0]],
                         [np.inf, 0.0], [np.nan, 1.0]])
        T = np.column_stack([-U[:, 1], U[:, 0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            r, J, _, _ = _optimality_residual(K, SupportRows(pts), U, [T])
        assert np.all(np.isfinite(J[0])) and np.all(np.isfinite(r[0]))
        assert np.all(np.isnan(J[1:]))

    def test_empty_input(self):
        # the pruned QMC predicates can hand a body no points at all; the
        # zero vector has gauge 0 on every kind, which measure.gauge relies on
        for body in _gauge_zoo():
            empty = np.empty((0, body.dim))
            assert body.gauge_many(empty).shape == (0,)
            inside = body.contains(empty)
            assert inside.shape == (0,) and inside.dtype == bool
            assert body.gauge_many(np.zeros(body.dim)).tolist() == [0.0]
            assert measure.gauge(body, np.zeros(body.dim)) == 0.0

    def test_default_gauge_is_exact(self):
        # K = G - G of an ellipsoid with matrix Q is the ellipsoid 4Q; the
        # default gauge refines every point, not only those near gauge 1
        rng = np.random.default_rng(16)
        for axes, n in (((2.0, 1.0), 10 ** 4), ((1.5, 1.0, 0.8), 2000)):
            G = Ellipsoid.from_semiaxes(*axes)
            P = rng.normal(size=(n, G.dim)) * (2.0 * np.array(axes))
            want = Ellipsoid(4.0 * G.Q).gauge_many(P)
            got = difference_body(G).gauge_many(P)
            assert np.abs(got / want - 1.0).max() <= 1e-12, axes
        # the difference body of a centrally symmetric S is 2S, also where
        # the boundary is flat to high order about the axis normals: the
        # converged gauges and normals are the closed forms of S at p / 2
        for p in (4.0, 8.0):
            S, P = Superellipse2D(p), rng.normal(size=(2000, 2)) * 2.0
            K = difference_body(S)
            got, want = K.gauge_many(P), S.gauge_many(P / 2.0)
            assert np.abs(got / want - 1.0).max() <= 1e-12, p
            normals = K.gauge_argmax_many(P)[1]
            want = S.gauge_argmax_many(P / 2.0)[1]
            assert np.abs(normals - want).max() <= 1e-10, p

    def test_reflection_is_the_body_at_minus_v(self):
        # Dilate(G, -1) multiplies by |s| = 1, which is exact: every value
        # is G's at -V bit for bit, for closed, generic and
        # difference-quotient bodies in 2D and 3D
        rng = np.random.default_rng(17)
        E2 = Ellipsoid.from_semiaxes(2.0, 1.0)
        E3 = Ellipsoid.from_semiaxes(1.5, 1.0, 0.8, center=[0.1, -0.2, 0.05])
        for G in (Translate(difference_body(E2), [0.3, -0.2]),
                  FourierBody2D([1.0, 0.0, 0.1, 0.05], [0.0, 0.0, 0.03, 0.02]),
                  E3, Translate(difference_body(E3), [0.2, 0.1, -0.3]),
                  FiniteDifference(FourierBody2D([1.0, 0.0, 0.0, 0.1]))):
            R = Dilate(G, -1.0)
            U = _units(G.dim, 12)
            assert np.array_equal(R.support_hom(U), G.support_hom(-U))
            assert np.array_equal(R.gradient_hom(U), -G.gradient_hom(-U))
            # the tangent block, stacked and per direction, in the frame of u
            u = tuple(np.ascontiguousarray(U.T))
            E = tuple(tuple(np.ascontiguousarray(e.T))
                      for e in np.moveaxis(np.stack(
                          [tangent_frame(v) for v in U]), 2, 0))
            assert np.array_equal(R._tangent_block(u, E),
                                  G._tangent_block(tuple(-c for c in u), E))
            for v in map(as_direction, U[:4]):
                frame = tangent_frame(v)
                assert np.array_equal(reverse_weingarten(R, v, frame)[0],
                                      reverse_weingarten(G, -v, frame)[0])
            # points inside, outside and near the boundary
            X = boundary_points(R, U)
            P = np.vstack([X * rng.uniform(0.5, 1.5, size=(len(X), 1)),
                           X * (1.0 + 1e-10 * rng.normal(size=(len(X), 1)))])
            assert np.array_equal(R.gauge_many(P), G.gauge_many(-P))
            assert np.array_equal(R.contains(P), G.contains(-P))
            for x in P[:4]:
                g, n = R.gauge_argmax(x)
                g_ref, n_ref = G.gauge_argmax(-x)
                assert g == g_ref and np.array_equal(n, -n_ref)



def _argmax_zoo():
    """The gauge zoo plus offsets with two or three nonzero components: an
    off-centre general ellipse, an off-centre 3D ball and a 3D sum of
    off-centre bodies."""
    return _gauge_zoo() + [
        Ellipsoid(np.array([[3.0, 1.2], [1.2, 1.5]]), center=[0.3, -0.2]),
        Ball(1.3, center=[0.1, -0.2, 0.05]),
        MinkowskiSum(Ball(0.7, center=[0.2, -0.1, 0.15]),
                     Translate(Ellipsoid.from_semiaxes(1.5, 1.0, 0.8),
                               [0.1, 0.05, -0.2])),
    ]


ARGMAX_ZOO = _argmax_zoo()
ARGMAX_IDS = [f"{i}-{body.kind}-{body.dim}d"
              for i, body in enumerate(ARGMAX_ZOO)]


class TestGaugeArgmaxMany:
    """``gauge_argmax_many`` is each kind's one gauge-and-normal primitive:
    ``gauge_argmax(v)`` is its row 0, and every stacked row equals the row
    alone bit for bit, so a stacked touch search changes no value."""

    @staticmethod
    def _rows(dim):
        # points inside, outside and near the boundary, at several scales
        rng = np.random.default_rng(41)
        return rng.normal(size=(12, dim)) * rng.uniform(0.3, 3.0, (12, 1))

    @pytest.mark.parametrize("body", ARGMAX_ZOO, ids=ARGMAX_IDS)
    def test_single_is_row_zero(self, body):
        for v in self._rows(body.dim)[:4]:
            g, u = body.gauge_argmax(v)
            G, U = body.gauge_argmax_many(v[None, :])
            assert isinstance(g, float)
            assert g == G[0] and np.array_equal(u, U[0])

    @pytest.mark.parametrize("body", ARGMAX_ZOO, ids=ARGMAX_IDS)
    def test_rows_equal_one_row_calls(self, body):
        P = self._rows(body.dim)
        G, U = body.gauge_argmax_many(P)
        assert G.shape == (len(P),) and U.shape == P.shape
        for p, g, u in zip(P, G, U):
            g1, u1 = body.gauge_argmax(p)
            assert g == g1 and np.array_equal(u, u1)
            # and the answer is the gauge with the outward normal at p / g
            assert g == pytest.approx(body.gauge_many(p)[0], rel=1e-12)
            assert (p / g) @ u == pytest.approx(body.support(u), rel=1e-9)

    @pytest.mark.parametrize("body", [
        Ball(0.7, center=[0.2, -0.1]), ARGMAX_ZOO[-3], ARGMAX_ZOO[-2],
        Translate(FourierBody2D([1.0, 0.0, 0.0, 0.1]), [0.1, 0.2]),
    ], ids=["ball", "ellipse", "ball 3d", "translate"])
    def test_offset_support_rows_are_their_own(self, body):
        # <v, c> of an off-centre body is summed per row: a BLAS
        # matrix-vector product rounded some rows by their place in the
        # stack, so a generic search over many rows could differ from the
        # same rows searched alone
        V = np.random.default_rng(43).normal(size=(64, body.dim))
        H = body.support_hom(V)
        assert all(H[i] == body.support_hom(V[i:i + 1])[0]
                   for i in range(len(V)))
        assert np.allclose(H, [body.support(v / np.linalg.norm(v)) *
                               np.linalg.norm(v) for v in V], rtol=1e-14)

    @pytest.mark.parametrize("body", [
        Ellipsoid([[3.0, 1.2], [1.2, 1.5]], center=[0.3, -0.2]),
        Ball(0.7, center=[0.2, -0.1, 0.15]), ReuleauxTriangle2D(1.0),
    ], ids=["ellipse", "ball 3d", "reuleaux"])
    def test_offset_quadric_rows_are_their_own(self, body):
        # p.Qinv c of an off-centre quadric is summed per row: the stacked
        # matrix-vector product rounded about a tenth of these gauges by
        # their place in the stack.  Half the rows sit at the membership
        # threshold, where that rounding flips a verdict.
        P = np.random.default_rng(44).normal(size=(1000, body.dim))
        edge = P[::2] / body.gauge_many(P[::2])[:, None]
        P[::2] = edge * (1.0 + bodies.MEMBERSHIP_TOL)
        g, inside = body.gauge_many(P), body.contains(P)
        G, U = body.gauge_argmax_many(P)
        for i, p in enumerate(P):
            assert g[i] == body.gauge_many(p)[0]
            assert inside[i] == body.contains(p)[0]
            g1, u1 = body.gauge_argmax_many(p[None, :])
            assert G[i] == g1[0] and np.array_equal(U[i], u1[0])
        assert 0 < inside[::2].sum() < 500


class TestContains:
    """contains bounds every row and refines the open rows in one search;
    each row's verdict is its own, which the copy sweep's batches rely on."""

    @staticmethod
    def _bodies():
        E = Ellipsoid.from_semiaxes(2.0, 1.0)
        S = Superellipse2D(4.0)
        return [
            difference_body(E),
            difference_body(S),
            difference_body(Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)),
            FiniteDifference(FourierBody2D([1.0, 0.0, 0.1, 0.05],
                                           [0.0, 0.0, 0.03, 0.02])),
            Dilate(difference_body(S), 1.3),
            Dilate(Translate(difference_body(E), [0.3, -0.2]), -1.0),
            E,
        ]

    @staticmethod
    def _sets(K, rng):
        """Sets near the boundary (many open points), an empty one, and
        one deep inside and far outside (no open point)."""
        X = boundary_points(K, sphere_directions(K.dim, 64))
        near = [X * (1.0 + s * rng.normal(size=(len(X), 1)))
                for s in (1e-3, 1e-6, 1e-10)]
        decided = np.vstack([0.1 * X, 5.0 * X])
        return near[:1] + [np.empty((0, K.dim)), decided] + near[1:]

    def test_rows_are_independent(self):
        # the verdicts of stacked sets are the stacked verdicts, bit for bit
        rng = np.random.default_rng(21)
        for K in self._bodies():
            sets = self._sets(K, rng)
            got = K.contains(np.vstack(sets))
            want = np.concatenate([K.contains(P) for P in sets])
            assert got.dtype == bool and got.shape == want.shape
            assert np.array_equal(got, want), K

    def test_empty_input(self):
        for K in self._bodies():
            got = K.contains(np.empty((0, K.dim)))
            assert got.dtype == bool and got.shape == (0,)

    def test_one_search_for_all_open_rows(self, monkeypatch):
        rng = np.random.default_rng(22)
        for K in (difference_body(Superellipse2D(4.0)),
                  difference_body(Ellipsoid.from_semiaxes(1.5, 1.0, 0.8))):
            sets = self._sets(K, rng)
            P = np.vstack(sets)
            open_rows = int(np.count_nonzero(K._gauge_bounds(P)[2]))
            assert not K._gauge_bounds(sets[2])[2].any()
            rows = []

            def counting(pts, idx, g0, cell, _orig=K._gauge_refine):
                rows.append(len(pts))
                return _orig(pts, idx, g0, cell)

            monkeypatch.setattr(K, "_gauge_refine", counting)
            K.contains(P)
            monkeypatch.undo()
            assert rows == [open_rows] and open_rows > 0


def _rotation(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


class TestGaugeBracket:
    """The generic 2D gauge brackets each point by its grid cell: the outer
    polygon of the grid normals from below, the cell's chord from above."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _bodies():
        """Generic 2D bodies, each with its gauge in closed form (or None)
        and the error of its grid boundary points."""
        E = Ellipsoid.from_semiaxes(2.0, 1.0)
        S4, S8 = Superellipse2D(4.0), Superellipse2D(8.0)
        R, v = ReuleauxTriangle2D(1.0), np.array([0.05, -0.03])

        def reuleaux(P):  # an intersection of three disks
            return np.max([Ball(R.width, center=c + v).gauge_many(P)
                           for c in R.vertices], axis=0)

        exact = 16 * TestGaugeBracket.EPS
        return [
            (difference_body(E), Ellipsoid(4.0 * E.Q).gauge_many, exact),
            (difference_body(S4), lambda P: S4.gauge_many(P / 2.0), exact),
            # flat at the axes: the cell wrapping past angle 0 spans 0.9 rad
            (difference_body(S8), lambda P: S8.gauge_many(P / 2.0), exact),
            (FourierBody2D([1.0, 0.0, 0.1, 0.05], [0.0, 0.0, 0.03, 0.02]),
             None, exact),
            # zero-width cells where several grid normals share a vertex
            (Translate(R, v), reuleaux, exact),
            # its boundary points carry the difference gradient's error
            (FiniteDifference(E), E.gauge_many, GRADIENT_TOL),
            (Dilate(difference_body(S4), 0.7),
             lambda P: S4.gauge_many(P / 1.4), exact),
            (Dilate(Translate(difference_body(E), [0.3, -0.2]), -1.0),
             Ellipsoid(4.0 * E.Q, center=[-0.3, 0.2]).gauge_many, exact),
        ]

    @staticmethod
    def _points(K, rng):
        U, _, _ = K._gauge_grid()
        X = boundary_points(K, U)
        # random points, the grid boundary points (cell ends), chord
        # midpoints and points next to the cell ends
        return np.vstack([rng.normal(size=(2000, 2)), X, 0.7 * X,
                          0.5 * (X + np.roll(X, -1, axis=0)),
                          X + 1e-9 * rng.normal(size=X.shape)])

    def test_bounds_hold(self):
        rng = np.random.default_rng(11)
        for K, closed, tol in self._bodies():
            P = self._points(K, rng)
            lo, _, hi, _ = K._gauge_bracket(P)
            # the base method: Dilate forwards its own gauge
            g = (ConvexBody.gauge_many(K, P) if closed is None
                 else closed(P))
            assert np.all(lo <= g * (1.0 + tol)), K
            assert np.all(g <= hi * (1.0 + tol)), K
            assert not np.any(np.isnan(hi)), K

    def test_lower_bound_is_the_full_scan(self):
        rng = np.random.default_rng(12)
        for K, _, _ in self._bodies():
            P = self._points(K, rng)
            lo, idx, _, _ = K._gauge_bracket(P)
            _, _, Uh = K._gauge_grid()
            ratios = P @ Uh.T
            full = ratios.max(axis=1)
            assert np.allclose(lo, full, rtol=8 * self.EPS, atol=0.0), K
            # the start normal attains the maximum
            assert np.allclose(ratios[np.arange(len(P)), idx], full,
                               rtol=8 * self.EPS, atol=0.0), K

    def test_search_starts_at_the_hermite_start(self):
        # every row's gauge and normal are bit for bit the sphere search
        # started where _gauge_start puts it
        rng = np.random.default_rng(13)
        for K, _, _ in self._bodies():
            P = 2.0 * rng.normal(size=(2000, 2))
            lo, idx, _, cell = K._gauge_bracket(P)
            want = support_ratio_max(K, SupportRows(P),
                                     K._gauge_start(idx, cell), lo,
                                     len(K._gauge_grid()[0]))
            got = ConvexBody._gauge_exact(K, P)
            assert np.array_equal(got[0], want[0]), K
            assert np.array_equal(got[1], want[1]), K
            assert np.array_equal(ConvexBody.gauge_many(K, P), want[0]), K

    def test_start_converges_where_the_full_scan_start_does(self):
        # the Hermite start moves converged gauges and normals only within
        # the search's own tolerance; a finite-difference body's normals
        # only within its gradient's error
        rng = np.random.default_rng(16)
        E200 = difference_body(Ellipsoid.from_semiaxes(200.0, 1.0))
        for K, _, tol in self._bodies() + [(E200, None, 0.0)]:
            P = 2.0 * rng.normal(size=(2000, 2))
            U, _, Uh = K._gauge_grid()
            ratios = P @ Uh.T
            g0, u0 = support_ratio_max(K, SupportRows(P),
                                       U[np.argmax(ratios, axis=1)],
                                       ratios.max(axis=1), len(U))
            g, u = ConvexBody._gauge_exact(K, P)
            assert np.all(np.abs(g - g0) <= 1e-14 * g0), K
            assert np.all(np.abs(u - u0) <= max(1e-12, tol)), K

    def test_guard_keeps_the_grid_normal(self):
        # cells that fail the Fritsch-Carlson test start at the better
        # grid normal: the vertex cells of a Reuleaux triangle, where the
        # radius of curvature is 0, and cells at the tips of a (200, 1)
        # difference body
        rng = np.random.default_rng(17)
        R = Translate(ReuleauxTriangle2D(1.0), [0.05, -0.03])
        E200 = difference_body(Ellipsoid.from_semiaxes(200.0, 1.0))
        around = rng.uniform(-np.pi, np.pi, 4000)
        tips = rng.uniform(-1e-2, 1e-2, 4000) + np.pi * (np.arange(4000) % 2)
        for K, psi in ((R, around), (E200, tips)):
            P = np.column_stack([np.cos(psi), np.sin(psi)])
            phi, order, _, _, (_, alpha, _) = K._gauge_cells()
            _, idx, _, cell = K._gauge_bracket(P)
            k = cell[0]
            rejected = np.isnan(alpha[k])
            U = K._gauge_grid()[0]
            if K is R:
                x, y = U[np.concatenate([order[k],
                                         (order[k] + 1) % len(U)])].T
                rho = K._tangent_block((x, y), ((-y, x),))[0]
                assert np.array_equal(rejected,
                                      (rho.reshape(2, -1) == 0.0).any(axis=0))
            else:
                # the guard rejects cells only near the tips
                assert np.all(np.abs(np.sin(phi[np.isnan(alpha)])) < 1e-2)
            assert rejected.any() and not rejected.all(), K
            start = K._gauge_start(idx, cell)
            assert np.array_equal(start[rejected], U[idx[rejected]]), K
            assert not np.any(start[~rejected] == U[idx[~rejected]]), K

    def test_cells_match_searchsorted(self):
        rng = np.random.default_rng(14)
        for K in (difference_body(Ellipsoid.from_semiaxes(200.0, 1.0)),
                  difference_body(Superellipse2D(8.0)),
                  Translate(ReuleauxTriangle2D(1.0), [0.05, -0.03])):
            phi, order = K._gauge_cells()[:2]
            # random angles, the cell ends, and the next angle up
            at = np.concatenate([phi, np.nextafter(phi, np.inf)])
            P = np.vstack([rng.normal(size=(20000, 2)),
                           np.column_stack([np.cos(at), np.sin(at)]),
                           [[-1.0, 0.0], [-1.0, -0.0], [1.0, 0.0]]])
            psi = np.arctan2(P[:, 1], P[:, 0])
            want = order[np.searchsorted(phi, psi, side="right") - 1]
            k, psi = K._gauge_cell(P[:, 0], P[:, 1])
            assert np.array_equal(order[k], want)
            assert np.array_equal(psi, np.arctan2(P[:, 1], P[:, 0]))

    def test_eccentric_difference_bodies_classify_exactly(self):
        # a window of 2% around gauge 1 misclassified box points of these
        # difference bodies; the bracket decides each one
        rng = np.random.default_rng(15)
        E50 = Ellipsoid(_rotation(0.3) @ np.diag([50.0 ** 2, 1.0]) @
                        _rotation(0.3).T)
        E200 = Ellipsoid.from_semiaxes(200.0, 1.0)
        c = np.array([60.0, -0.4])
        for K, closed in ((difference_body(E50), Ellipsoid(4.0 * E50.Q)),
                          (Translate(difference_body(E200), c),
                           Ellipsoid(4.0 * E200.Q, center=c))):
            lo, hi = bounding_box(closed, pad=0.0)
            P = lo + rng.random((2 ** 17, 2)) * (hi - lo)
            wrong = np.flatnonzero(K.contains(P) != closed.contains(P))
            assert wrong.size == 0, f"{wrong.size} points misclassified"


class TestEllipseSandwich:
    """2D membership first compares Q(p) = p' M^-1 p with two certified
    radii: s_in E lies in the inner polygon of the grid chords, and the
    outer polygon of the grid facets lies in s_out E.  Only the points
    between reach the chord bracket, and every verdict is the bracket's."""

    TOL = bodies.MEMBERSHIP_TOL

    @staticmethod
    def _bodies():
        E = Ellipsoid.from_semiaxes
        R = Translate(ReuleauxTriangle2D(1.0), [0.05, -0.03])
        return [difference_body(E(2.0, 1.0)), difference_body(E(200.0, 1.0)),
                difference_body(Superellipse2D(4.0)),
                difference_body(Superellipse2D(8.0)),
                difference_body(ReuleauxTriangle2D(1.0)),
                # near-duplicate boundary points at the three vertices
                R, FourierBody2D([1.0, 0.0, 0.0, 0.1]), Dilate(R, -1.3)]

    @staticmethod
    def _sandwich(K):
        K._gauge_cells()
        assert K._sandwich is not None, K
        return K._sandwich

    @staticmethod
    def _q(P, Minv):
        return np.einsum("ij,jk,ik->i", P, Minv, P)

    @staticmethod
    def _bracket_verdicts(K, P):
        """Membership by the chord bracket and the sphere search alone."""
        g, idx, m, cell = ConvexBody._gauge_bounds(K, P)
        inside = g <= 1.0 + TestEllipseSandwich.TOL
        m = np.flatnonzero(m)
        if len(m):
            g_m = K._gauge_refine(P[m], idx[m], g[m],
                                  tuple(c[m] for c in cell))[0]
            inside[m] = g_m <= 1.0 + TestEllipseSandwich.TOL
        return inside

    def test_chords_stay_outside_the_inner_ellipse(self):
        t = np.linspace(0.0, 1.0, 1001)
        for K in self._bodies():
            Minv, s_in2, _ = self._sandwich(K)
            X = K.gradient_hom(K._gauge_grid()[0])
            D = np.roll(X, -1, axis=0) - X
            Q = [self._q(X + ti * D, Minv) for ti in t]
            assert np.min(Q) >= s_in2 * (1.0 - 1e-12), K
            # the closed-form minimum is the sampled one, to the sampling
            assert np.min(Q) <= s_in2 * (1.0 + 1e-5), K

    def test_outer_vertices_lie_in_the_outer_ellipse(self):
        for K in self._bodies():
            Minv, _, s_out2 = self._sandwich(K)
            U, H, _ = K._gauge_grid()
            V = np.array([np.linalg.solve(np.array([U[i], U[i - 1]]),
                                          [H[i], H[i - 1]])
                          for i in range(len(U))])
            Q = self._q(V, Minv)
            assert Q.max() <= s_out2 * (1.0 + 1e-12), K
            assert Q.max() >= s_out2 * (1.0 - 1e-12), K

    def test_ellipse_fit_is_exact(self):
        # H^2 of an ellipse is a quadratic form: both radii are 1 to the
        # grid's resolution
        E = Ellipsoid(_rotation(0.4) @ np.diag([9.0, 1.0]) @ _rotation(0.4).T)
        Minv, s_in2, s_out2 = self._sandwich(difference_body(E))
        assert np.allclose(Minv, np.linalg.inv(4.0 * E.Q), rtol=1e-10)
        assert 1.0 - 1e-3 < s_in2 < 1.0 < s_out2 < 1.0 + 1e-3

    def _points(self, K, rng):
        """Random points, points just inside and outside both thresholds,
        and points on the chords."""
        Minv, s_in2, s_out2 = self._sandwich(K)
        lo, hi = bounding_box(K)
        mid, half = 0.5 * (lo + hi), 0.75 * (hi - lo)
        sets = [mid + half * rng.uniform(-1.0, 1.0, size=(10 ** 5, 2))]
        d = rng.normal(size=(2000, 2))
        q = self._q(d, Minv)
        for level in (s_in2, s_out2 * (1.0 + self.TOL) ** 2):
            for f in (1.0 - 1e-12, 1.0 + 1e-12):
                sets.append(d * np.sqrt(level * f / q)[:, None])
        X = K.gradient_hom(K._gauge_grid()[0])
        t = rng.random((len(X), 1))
        sets.append(X + t * (np.roll(X, -1, axis=0) - X))
        return sets

    def test_verdicts_equal_the_bracket(self):
        rng = np.random.default_rng(31)
        for K in self._bodies():
            for P in self._points(K, rng):
                got = ConvexBody.contains(K, P)
                assert np.array_equal(got, self._bracket_verdicts(K, P)), K

    def test_non_finite_rows(self):
        K = difference_body(Superellipse2D(4.0))
        inf, nan = np.inf, np.nan
        P = np.array([[nan, 0.0], [0.0, nan], [inf, 0.0], [-inf, 1.0],
                      [inf, inf], [inf, -inf], [0.5, inf], [0.1, 0.2]])
        assert np.array_equal(K.contains(P), self._bracket_verdicts(K, P))
        assert K.contains(P).tolist() == [False] * 7 + [True]

    def test_no_sandwich_for_ill_conditioned_fits(self):
        # cond(M) = 4e8 exceeds SANDWICH_MAX_COND: the bracket decides all
        K = difference_body(Ellipsoid.from_semiaxes(2.0, 1e-4))
        K._gauge_cells()
        assert K._sandwich is None
        P = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [0.0, 1e-3]])
        assert K.contains(P).tolist() == [True, True, False, False]


class TestSearchStopsOnBounds:
    """2D membership stops a point's sphere search once certified bounds
    decide gauge <= 1 + MEMBERSHIP_TOL: the support ratio at the iterate
    from below, the chord between the boundary points at the bracket's
    ends from above.  Verdicts stay those of the converged gauge."""

    TOL = bodies.MEMBERSHIP_TOL

    @staticmethod
    def _bodies():
        E = Ellipsoid.from_semiaxes
        return [difference_body(E(2.0, 1.0)), difference_body(E(200.0, 1.0)),
                Superellipse2D(4.0), ReuleauxTriangle2D(1.0),
                FourierBody2D([1.0, 0.0, 0.0, 0.1]),
                Translate(ReuleauxTriangle2D(1.0), [0.05, -0.03])]

    def _rows(self, K, rel):
        """Points at gauge (1 + TOL)(1 - rel) and (1 + TOL)(1 + rel), on
        rays at random angles; the base method gives the converged gauge
        of every kind."""
        t = np.random.default_rng(51).uniform(-np.pi, np.pi, 400)
        V = np.column_stack([np.cos(t), np.sin(t)])
        V /= ConvexBody.gauge_many(K, V)[:, None]
        return np.vstack([V * ((1.0 + self.TOL) * (1.0 - rel)),
                          V * ((1.0 + self.TOL) * (1.0 + rel))])

    def test_verdicts_equal_the_converged_gauge(self):
        for K in self._bodies():
            for rel in (1e-13, 1e-11, 1e-8):
                P = self._rows(K, rel)
                got = ConvexBody.contains(K, P)
                g = ConvexBody.gauge_many(K, P)
                assert np.array_equal(got, g <= 1.0 + self.TOL), (K, rel)
                half = len(P) // 2
                assert got[:half].all() and not got[half:].any(), (K, rel)

    def test_chord_bounds_hold(self):
        # any two boundary points bound the gauge of each point between
        # them in angle; elsewhere the chord gives no bound
        rng = np.random.default_rng(52)
        for K in self._bodies():
            t = rng.uniform(-np.pi, np.pi, 4000)
            s = t + rng.uniform(0.0, 0.5, 4000)
            A = K.gradient_hom(np.column_stack([np.cos(t), np.sin(t)]))
            B = K.gradient_hom(np.column_stack([np.cos(s), np.sin(s)]))
            P = rng.normal(size=(4000, 2))
            up = bodies._chord_gauge(P, A, B)
            between = (A[:, 0] * P[:, 1] - A[:, 1] * P[:, 0] >= 0.0) & \
                (P[:, 0] * B[:, 1] - P[:, 1] * B[:, 0] >= 0.0)
            assert np.isinf(up[~between]).all(), K
            bounded = np.isfinite(up)
            assert np.count_nonzero(bounded) > 100, K
            g = ConvexBody.gauge_many(K, P[bounded])
            assert np.all(g <= up[bounded] * (1.0 + 1e-14)), K

    # row-steps of each body's open rows near gauge 1 + TOL, membership and
    # converged, when each search started at its better grid normal
    GRID_START_STEPS = [(1809, 2867), (2426, 2504), (2581, 4047),
                        (1777, 2669), (1793, 2873), (1763, 2642)]

    def test_fewer_search_steps(self, monkeypatch):
        # the open rows of points near gauge 1 + TOL: membership's search
        # stops each row where the bounds decide it, the converged search
        # runs every row to the end.  A step is one row in one evaluation
        # of the residual.  Starting at the Hermite interpolant of the
        # cell takes no more steps than starting at the grid normal, and
        # on smooth bodies decides each row in one step and converges it
        # in two.
        steps = []

        def counting(K, A, U, tangents, _orig=bodies._optimality_residual):
            steps.append(len(U))
            return _orig(K, A, U, tangents)

        monkeypatch.setattr(bodies, "_optimality_residual", counting)
        for j, K in enumerate(self._bodies()):
            P = self._rows(K, 1e-8)
            g, idx, m, cell = ConvexBody._gauge_bounds(K, P)
            P, idx, g = P[m], idx[m], g[m]
            cell = tuple(c[m] for c in cell)
            del steps[:]
            K._gauge_refine(P, idx, g, cell)
            member = list(steps)
            del steps[:]
            support_ratio_max(K, SupportRows(P), K._gauge_start(idx, cell), g,
                              len(K._gauge_grid()[0]))
            assert len(member) <= len(steps), K
            assert sum(member) < sum(steps), K
            ceiling = self.GRID_START_STEPS[j]
            assert sum(member) <= ceiling[0] and sum(steps) <= ceiling[1], K
            if j in (0, 4):  # the (2, 1) difference body, the Fourier body
                assert sum(member) <= len(P), K
                assert sum(steps) <= 2 * len(P), K
