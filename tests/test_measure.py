"""Tests of volume estimation, gauges, cuts and circumscribed ratios."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gamma
from scipy.stats import qmc as scipy_qmc

import kdense
from kdense import qmc
from kdense.analysis import kdense_spread

from kdense.bodies import (Ball, ConvexBody, Dilate, Ellipsoid, MinkowskiSum,
                           Superellipse2D, Translate, boundary_points,
                           difference_body, sphere_directions)
from kdense.errors import SingularCurvature
from kdense.measure import (QuadratureGrid, bounding_box, circumscribed_ratio,
                            _copy_counts, _sobol, deficit_volume, gauge,
                            halfspace_cut_volume, intersection_volume, volume,
                            volume_qmc, volume_quadrature)
from kdense.oracles import disk_lens_area

FAST = dict(n=2 ** 13, replicates=4, seed=0)


def _pnorm_ball_area(p):
    return 4.0 * gamma(1.0 + 1.0 / p) ** 2 / gamma(1.0 + 2.0 / p)


class TestQuadratureGrid:
    def test_weights_sum_to_sphere_measure(self):
        assert QuadratureGrid(2).weights.sum() == pytest.approx(2 * math.pi)
        assert QuadratureGrid(3).weights.sum() == pytest.approx(4 * math.pi)

    def test_constant_exact(self):
        g = QuadratureGrid(3, 2048)
        assert g.integrate(np.full(len(g.nodes), 2.5)) == pytest.approx(
            2.5 * 4 * math.pi)

    def test_linear_vanishes(self):
        g = QuadratureGrid(3, 2048)
        assert abs(g.integrate(g.nodes @ [1.0, 2.0, -0.5])) < 1e-12


class TestVolume:
    def test_disk(self):
        res = volume_quadrature(Ball(1.0))
        assert res.value == pytest.approx(math.pi, abs=1e-12)
        assert res.method == "quadrature"

    def test_ellipse(self):
        assert volume_quadrature(Ellipsoid.from_semiaxes(2.0, 1.0)).value == \
            pytest.approx(2 * math.pi, abs=1e-10)

    def test_ball3(self):
        assert volume_quadrature(Ball(1.0, dim=3)).value == pytest.approx(
            4 * math.pi / 3, rel=1e-5)

    def test_ellipsoid3(self):
        res = volume_quadrature(Ellipsoid.from_semiaxes(2.0, 1.0, 1.0))
        exact = 8 * math.pi / 3
        assert res.value == pytest.approx(exact, rel=1e-4)
        assert abs(res.value - exact) < 10 * res.stderr + 1e-12

    def test_translation_invariance(self):
        a = volume_quadrature(Ball(0.8)).value
        b = volume_quadrature(Ball(0.8, center=[0.1, -0.15])).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_qmc_agrees_with_quadrature(self):
        E = Ellipsoid.from_semiaxes(2.0, 1.0)
        quad = volume_quadrature(E)
        mc = volume_qmc(E, **FAST)
        assert mc.value == pytest.approx(quad.value, rel=5e-3)
        assert abs(mc.value - quad.value) < 6 * mc.stderr

    def test_quadrature_raises_on_singular_body(self):
        from kdense.bodies import ReuleauxTriangle2D
        with pytest.raises(SingularCurvature):
            volume(ReuleauxTriangle2D(1.0), method="quadrature")

    def test_auto_falls_back_to_qmc(self):
        from kdense.bodies import ReuleauxTriangle2D
        res = volume(ReuleauxTriangle2D(1.0), qmc_points=2 ** 14, replicates=4)
        assert res.method == "qmc"
        assert res.value == pytest.approx((math.pi - math.sqrt(3.0)) / 2.0,
                                          rel=5e-3)
        # flat spots stall the support integral: auto drops to qmc as well
        res = volume(Superellipse2D(4.0), qmc_points=2 ** 14, replicates=4)
        assert res.method == "qmc"
        assert res.value == pytest.approx(_pnorm_ball_area(4.0), rel=5e-3)

    def test_determinism(self):
        a = volume_qmc(Ball(1.0), **FAST)
        b = volume_qmc(Ball(1.0), **FAST)
        assert a.value == b.value
        c = volume_qmc(Ball(1.0), n=2 ** 13, replicates=4, seed=1)
        assert c.value != a.value


class TestSobol:
    """The in-house engine against scipy's, which it reproduces."""

    @staticmethod
    def _engines(d, seed, rep):
        return (qmc.Sobol(d=d, seed=np.random.default_rng([seed, rep])),
                scipy_qmc.Sobol(d, scramble=True,
                                seed=np.random.default_rng([seed, rep])))

    @pytest.mark.filterwarnings("ignore:The balance properties")
    def test_bit_identical_to_scipy(self):
        for d in (2, 3):
            for seed in range(5):
                for rep in range(3):
                    for m in range(18):
                        ours, ref = self._engines(d, seed, rep)
                        assert np.array_equal(ours.random_base2(m),
                                              ref.random_base2(m)), (d, seed,
                                                                     rep, m)
                    for n in (3, 1000):
                        ours, ref = self._engines(d, seed, rep)
                        assert np.array_equal(ours.random(n), ref.random(n))

    @pytest.mark.filterwarnings("ignore:The balance properties")
    def test_draws_continue_the_sequence(self):
        ours, ref = self._engines(3, 1, 2)
        for n in (1, 3, 4, 100, 7):
            assert np.array_equal(ours.random(n), ref.random(n))

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            qmc.Sobol(d=4, seed=np.random.default_rng([0, 0]))

    def test_cached_points_are_read_only(self):
        pts = _sobol(2, 2 ** 10, 0, 0)
        assert _sobol(2, 2 ** 10, 0, 0) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5

    def test_import_does_not_load_scipy_stats(self):
        src = os.path.dirname(os.path.dirname(kdense.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", "import sys, kdense, kdense.cli; "
             "print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestBoundingBox:
    def test_contains_boundary(self):
        E = Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, -0.1])
        lo, hi = bounding_box(E)
        P = boundary_points(E, sphere_directions(2, 64))
        assert np.all(P >= lo) and np.all(P <= hi)


class TestGauge:
    def test_zero_vector(self):
        assert gauge(Ball(1.0), [0.0, 0.0]) == 0.0

    def test_values(self):
        assert gauge(Ellipsoid.from_semiaxes(2.0, 1.0), [1.0, 0.0]) == \
            pytest.approx(0.5)
        assert gauge(difference_body(Ball(1.0)), [1.0, 0.0]) == \
            pytest.approx(0.5, abs=1e-8)


class TestIntersectionVolume:
    def test_against_disk_lens(self):
        G, K = Ball(1.0), Ball(2.0)
        x = np.array([1.0, 0.0])
        for r in (0.2, 0.5, 0.9):
            res = intersection_volume(G, K, x, r, **FAST)
            exact = disk_lens_area(1.0, 2.0 * r, 1.0)
            assert res.value == pytest.approx(exact, abs=6 * res.stderr + 1e-3)

    def test_complementarity_with_deficit(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        x = np.array([2.0, 0.0])
        inter = intersection_volume(G, K, x, 0.5, **FAST)
        defi = deficit_volume(G, K, x, 0.5, **FAST)
        # same point set split in two: the split is exact per replicate
        assert inter.value + defi.value == pytest.approx(2 * math.pi, rel=3e-3)

    def test_full_cover(self):
        G, K = Ball(1.0), Ball(2.0)
        res = intersection_volume(G, K, np.zeros(2), 1.0, **FAST)
        assert res.value == pytest.approx(math.pi, rel=3e-3)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            intersection_volume(Ball(1.0), Ball(1.0), np.zeros(2), 0.0)


class TestPrunedPredicates:
    """The QMC routes skip K's gauge where it cannot matter; the counts
    must equal those of the plain indicators over the same Sobol points."""

    N = 2 ** 12

    @staticmethod
    def _pairs():
        E = Ellipsoid.from_semiaxes(2.0, 1.0)
        S = Superellipse2D(4.0)
        E3 = Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)
        return [(E, difference_body(E)),
                (S, difference_body(S)),
                (E3, difference_body(E3)),
                # off-centre K: its support box is asymmetric about 0
                (E, Translate(difference_body(E), [0.6, -0.3]))]

    def _plain(self, dim, box, indicator):
        lo, hi = box
        pts = lo + _sobol(dim, self.N, 0, 0) * (hi - lo)
        return float(np.mean(indicator(pts))) * float(np.prod(hi - lo))

    def test_overlap_and_deficit(self):
        for G, K in self._pairs():
            box = bounding_box(G)
            for x in boundary_points(G, sphere_directions(G.dim, 3)):
                for r in (0.1, 0.5, 0.99):
                    def in_copy(P):
                        return K.contains((P - x) / r)
                    inter = intersection_volume(G, K, x, r, n=self.N,
                                                replicates=1, seed=0)
                    assert inter.value == self._plain(
                        G.dim, box, lambda P: G.contains(P) & in_copy(P))
                    defi = deficit_volume(G, K, x, r, n=self.N,
                                          replicates=1, seed=0)
                    assert defi.value == self._plain(
                        G.dim, box, lambda P: G.contains(P) & ~in_copy(P))

    def test_copy_sweep_counts(self):
        # one pass for all copies: per replicate and copy, the counts of
        # the plain indicators over the same points
        for G, K in self._pairs():
            lo, hi = bounding_box(G)
            copies = [(x, r)
                      for x in boundary_points(G, sphere_directions(G.dim, 3))
                      for r in (0.1, 0.5, 0.99)]
            inside, hits, box = _copy_counts(G, K, copies, self.N, 2, 0)
            assert np.array_equal(box, (lo, hi))
            for rep in range(2):
                P = lo + _sobol(G.dim, self.N, 0, rep) * (hi - lo)
                in_G = G.contains(P)
                assert inside[rep] == np.count_nonzero(in_G)
                for j, (x, r) in enumerate(copies):
                    in_copy = K.contains((P - x) / r)
                    assert hits[rep, j] == np.count_nonzero(in_G & in_copy)
                    assert inside[rep] - hits[rep, j] == \
                        np.count_nonzero(in_G & ~in_copy)

    def test_spread_tests_g_once_per_replicate(self, monkeypatch):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        calls = []

        def counting(pts, _orig=G.contains):
            calls.append(len(pts))
            return _orig(pts)

        monkeypatch.setattr(G, "contains", counting)
        kdense_spread(G, K, 0.5, m=16, n=self.N, replicates=4, seed=0)
        assert calls == [self.N] * 4

    def test_halfspace_cut(self):
        for _, K in self._pairs():
            box = bounding_box(K)
            for u in sphere_directions(K.dim, 4):
                cut = halfspace_cut_volume(K, u, n=self.N, replicates=1,
                                           seed=0)
                assert cut.value == self._plain(
                    K.dim, box, lambda P: K.contains(P) & (P @ u >= 0.0))


class TestHalfspaceCut:
    def test_symmetric_bodies_cut_in_half(self):
        for K in (Ball(2.0), Ellipsoid.from_semiaxes(2.0, 1.0),
                  Superellipse2D(4.0)):
            res = halfspace_cut_volume(K, [0.6, 0.8], **FAST)
            full = volume_qmc(K, **FAST)
            assert res.value / full.value == pytest.approx(0.5, abs=5e-3)

    def test_off_center_disk(self):
        d, R = 0.3, 1.0
        K = Ball(R, center=[d, 0.0])
        res = halfspace_cut_volume(K, [1.0, 0.0], **FAST)
        seg = R * R * math.acos(d / R) - d * math.sqrt(R * R - d * d)
        exact = math.pi * R * R - seg
        assert res.value == pytest.approx(exact, abs=6 * res.stderr + 1e-3)


class TestCircumscribedRatio:
    def test_disk_pair(self):
        assert circumscribed_ratio(Ball(1.0), Ball(2.0), np.array([1.0, 0.0])) \
            == pytest.approx(1.0, abs=1e-9)

    def test_scales_with_k(self):
        assert circumscribed_ratio(Ball(1.0), Ball(1.0), np.array([1.0, 0.0])) \
            == pytest.approx(2.0, abs=1e-9)
        K = Dilate(Ball(2.0), 2.0)
        assert circumscribed_ratio(Ball(1.0), K, np.array([1.0, 0.0])) == \
            pytest.approx(0.5, abs=1e-9)

    def test_difference_body_normalization(self):
        # K = G - G circumscribes G exactly from every boundary point
        for G in (Ellipsoid.from_semiaxes(2.0, 1.0),
                  Superellipse2D(4.0),
                  Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)):
            K = difference_body(G)
            U = sphere_directions(G.dim, 4)
            for x in boundary_points(G, U):
                assert circumscribed_ratio(G, K, x) == pytest.approx(
                    1.0, abs=1e-6)

    @staticmethod
    def _ellipsoid_pair(axes, angles, v, s, w):
        """Rotated, off-centre G = E(Q, c) and K = E(s^2 Q, d).

        The centres are c = Q^{1/2} v and d = Q^{1/2} w, with |v| < 1 and
        |w| < s so that both bodies hold the origin.  Q^{-1/2} maps G - x to
        B(a, 1) and K to B(d', s), with a = Q^{-1/2}(c - x) and d' = w.
        B(a, 1) lies in tB(d', s) when |a - t d'| + 1 <= ts, so the ratio
        is 2(s - <a, d'>) / (s^2 - |d'|^2).  Returns G, K and, for eight
        boundary points x, the pairs (x, ratio).
        """
        dim = len(axes)
        R = np.eye(dim)
        for k, phi in enumerate(angles):  # rotations in the planes (k, k+1)
            P = np.eye(dim)
            P[k:k + 2, k:k + 2] = [[math.cos(phi), -math.sin(phi)],
                                   [math.sin(phi), math.cos(phi)]]
            R = R @ P
        root = R @ np.diag(axes) @ R.T  # Q^{1/2}
        Q = root @ root
        w = np.asarray(w, dtype=float)
        c = root @ np.asarray(v, dtype=float)
        G = Ellipsoid(Q, center=c)
        K = Ellipsoid(s * s * Q, center=root @ w)
        cases = []
        for a in sphere_directions(dim, 8):
            x = c - root @ a
            cases.append((x, 2.0 * (s - a @ w) / (s * s - w @ w)))
        return G, K, cases

    def test_ellipsoid_pairs_closed_form(self):
        for axes, angles, v, s, w in (
                ((2.0, 1.0), (0.4,), (0.3, -0.2), 2.5, (0.4, -0.7)),
                ((50.0, 1.0), (1.1,), (-0.6, 0.3), 1.7, (0.5, 0.9)),
                ((1.5, 1.0, 0.8), (0.4, 1.3), (0.2, -0.1, 0.3), 2.2,
                 (0.6, -0.5, 0.4)),
                ((20.0, 1.0, 1.0), (0.7, -0.5), (0.5, 0.2, -0.1), 1.9,
                 (-0.3, 0.8, 0.5))):
            G, K, cases = self._ellipsoid_pair(axes, angles, v, s, w)
            for x, exact in cases:
                assert circumscribed_ratio(G, K, x) == pytest.approx(
                    exact, rel=1e-12), (axes, x)

    def test_no_gauge_solve(self, monkeypatch):
        calls = []
        for cls in (ConvexBody, Ellipsoid):
            def counting(self, pts, refine="auto", _orig=cls.gauge_many):
                calls.append(self)
                return _orig(self, pts, refine)
            monkeypatch.setattr(cls, "gauge_many", counting)
        for G in (Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, 0.1]),
                  Superellipse2D(4.0),
                  Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)):
            x = boundary_points(G, sphere_directions(G.dim, 3))[0]
            for K in (difference_body(G), Ellipsoid(4.0 * np.eye(G.dim))):
                circumscribed_ratio(G, K, x)
        assert calls == []
