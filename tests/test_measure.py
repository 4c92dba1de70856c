"""Tests of volume estimation, gauges, cuts and circumscribed ratios."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.special import gamma
from scipy.stats import qmc as scipy_qmc

import kdense
from kdense import bodies, measure, qmc
from kdense.analysis import halfvolume_condition_check, kdense_spread

from kdense.bodies import (Ball, ConvexBody, Dilate, Ellipsoid, FourierBody2D,
                           MinkowskiSum, ReuleauxTriangle2D, Superellipse2D,
                           Translate, as_direction,
                           boundary_points, difference_body, sphere_directions)
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

    def test_bad_method_rejected(self):
        # an unknown method used to run qmc silently
        with pytest.raises(ValueError, match="bogus"):
            volume(Ball(1.0), method="bogus")

    @pytest.mark.parametrize("dim, n", [(2, 0), (2, 1), (3, 1), (3, 3)])
    def test_too_few_quadrature_nodes(self, dim, n):
        # an empty half grid used to divide by zero
        with pytest.raises(ValueError, match="quadrature nodes"):
            volume_quadrature(Ball(1.0, dim=dim), n)

    @pytest.mark.parametrize("dim, n", [(2, 2), (3, 4)])
    def test_fewest_quadrature_nodes(self, dim, n):
        res = volume_quadrature(Ball(1.0, dim=dim), n)
        assert res.sample_count >= n // 2 and math.isfinite(res.stderr)

    @pytest.mark.parametrize("name, value", [
        ("n", 0), ("n", -4), ("n", 1.5), ("n", 1024.0),
        ("replicates", 0), ("replicates", 2.5)])
    def test_bad_qmc_inputs_rejected(self, name, value):
        # they used to fail deep inside with an OverflowError, a TypeError
        # or an IndexError
        args = dict(n=1024, replicates=2, seed=0) | {name: value}
        with pytest.raises(ValueError, match=name):
            volume_qmc(Ball(1.0), **args)
        with pytest.raises(ValueError, match=name):
            intersection_volume(Ball(1.0), Ball(1.0), [1.0, 0.0], 0.5, **args)

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_worker_count_rejected(self, monkeypatch, value):
        # each used to run silently with one worker
        monkeypatch.setenv(measure.WORKERS_ENV, value)
        with pytest.raises(ValueError, match=measure.WORKERS_ENV):
            volume_qmc(Ball(1.0), n=1024, replicates=2, seed=0)

    def test_worker_count_keeps_values(self, monkeypatch):
        want = volume_qmc(Ball(1.0), n=1024, replicates=3, seed=0)
        monkeypatch.setenv(measure.WORKERS_ENV, "2")
        got = volume_qmc(Ball(1.0), n=1024, replicates=3, seed=0)
        assert (got.value, got.stderr) == (want.value, want.stderr)

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
        return (qmc.Sobol(d=d, entropy=(seed, rep)),
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
            qmc.Sobol(d=4, entropy=(0, 0))

    @pytest.mark.parametrize("entropy", [
        (0, 0), (1, 3), (7, 2), (12345, 1), (5,), (2 ** 32 + 5, 0),
        (2 ** 70 + 3, 3), (3, 2 ** 32 + 5)])
    def test_bits_equal_numpy_generator(self, entropy):
        # numpy's Generator is the oracle: the scipy engine spawns a child
        # of default_rng(entropy) and draws its bits as 0/1 uint32s
        for d in (1, 2, 3):
            n = d * qmc.DRAWS
            ref = np.random.default_rng(entropy).spawn(1)[0].integers(
                0, 2, n, dtype=np.uint32)
            assert np.array_equal(qmc._bits(entropy, n), ref), (d, entropy)

    @pytest.mark.parametrize("entropy", [(-1, 0), (0, -2), (1.5, 0)])
    def test_bad_entropy_rejected(self, entropy):
        with pytest.raises(ValueError):
            qmc.Sobol(d=2, entropy=entropy)

    @pytest.mark.filterwarnings("ignore:The balance properties")
    def test_point_counts(self):
        for d in (2, 3):
            ours, ref = self._engines(d, 4, 1)
            for n in (0, 5, 0, 3):
                # no points leave the engine's state as it was
                got = ours.random(n)
                assert got.shape == (n, d)
                assert np.array_equal(got, ref.random(n))
            for n in (-1, 2.5):
                with pytest.raises(ValueError):
                    ours.random(n)
            assert ours.num_generated == 8
            assert np.array_equal(ours.random(4), ref.random(4))

    def test_cached_points_are_read_only(self):
        pts = _sobol(2, 2 ** 10, 0, 0)
        assert _sobol(2, 2 ** 10, 0, 0) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5

    def test_concurrent_eviction(self):
        # replicate threads evict from a full cache at once; with the
        # switch interval at 1 us an unlocked pop of the oldest key raised
        # KeyError or "dictionary changed size during iteration"
        threads, keys, trials = 8, 8, 50
        cache = measure._SOBOL_CACHE
        saved, interval = dict(cache), sys.getswitchinterval()
        errors, got = [], {}

        def work(trial, t, barrier):
            barrier.wait()
            try:
                for k in range(keys):
                    got[trial, t, k] = _sobol(2, 4, trial, t * keys + k)
            except (KeyError, RuntimeError) as e:  # the race under test
                errors.append(repr(e))

        try:
            sys.setswitchinterval(1e-6)
            for trial in range(trials):
                cache.clear()
                for i in range(measure._SOBOL_CACHE_MAX):
                    cache[(0, 0, -1, i)] = np.empty((0, 2))
                barrier = threading.Barrier(threads, timeout=10.0)
                pool = [threading.Thread(target=work, args=(trial, t, barrier))
                        for t in range(threads)]
                for th in pool:
                    th.start()
                for th in pool:
                    th.join(timeout=10.0)
                assert not any(th.is_alive() for th in pool)
                assert not errors, (trial, errors[:3])
                assert len(got) == (trial + 1) * threads * keys
                assert len(cache) <= measure._SOBOL_CACHE_MAX
            # every thread got the stream a serial call draws
            for (trial, t, k), pts in list(got.items())[::37]:
                cache.clear()
                assert np.array_equal(pts, _sobol(2, 4, trial, t * keys + k))
        finally:
            sys.setswitchinterval(interval)
            cache.clear()
            cache.update(saved)

    def test_import_does_not_load_scipy_stats(self, tmp_path):
        # scipy and numpy's random module are test oracles only: neither is
        # loaded by the import, a QMC volume or a whole verify run
        src = os.path.dirname(os.path.dirname(kdense.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("KDENSE_WORKERS", None)
        shipped = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                               "configs", "verify.cfg")
        prog = """if True:
            import sys, kdense, kdense.cli
            from kdense.bodies import Ball
            from kdense.measure import volume_qmc
            def loaded():
                return [m for m in ("scipy", "numpy.random")
                        if m in sys.modules]
            seen = [loaded()]
            volume_qmc(Ball(1.0), n=2 ** 10, replicates=2, seed=0)
            seen.append(loaded())
            code = kdense.cli.main(["verify", sys.argv[1], "--out",
                                    sys.argv[2]])
            seen.append(loaded())
            print(code, seen)
            """
        out = subprocess.run(
            [sys.executable, "-c", prog, shipped, str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "0 [[], [], []]"


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

    @pytest.mark.parametrize("x, r", [
        ([1.0, 0.0], math.inf), ([1.0, 0.0], math.nan),
        ([1.0, 0.0], -0.5), ([1.0, 0.0], -math.inf),
        ([math.nan, 0.0], 0.5), ([math.inf, 0.0], 0.5),
        ([1.0, 0.0, 0.0], 0.5), ([1.0], 0.5)])
    def test_bad_copy_rejected(self, x, r):
        # an infinite r used to read as a constant spread of 0, a NaN r as
        # not constant
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        with pytest.raises(ValueError):
            _copy_counts(G, difference_body(G), [([2.0, 0.0], 0.5), (x, r)],
                         2 ** 10, 2, 0)


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
                (E, Translate(difference_body(E), [0.6, -0.3])),
                # a forwarding kind: Dilate hands its points to its body
                (S, Dilate(difference_body(S), 1.3))]

    def _plain(self, dim, box, indicator, rep=0):
        lo, hi = box
        pts = lo + _sobol(dim, self.N, 0, rep) * (hi - lo)
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

    def test_spread_refines_once_per_replicate(self, monkeypatch):
        # the points that K's bounds leave open in all 16 copies share one
        # sphere search per replicate
        G = Superellipse2D(4.0)
        K = difference_body(G)
        rows = []

        def counting(pts, idx, g0, _orig=K._gauge_refine):
            rows.append(len(pts))
            return _orig(pts, idx, g0)

        monkeypatch.setattr(K, "_gauge_refine", counting)
        kdense_spread(G, K, 0.5, m=16, n=self.N, replicates=4, seed=0)
        assert len(rows) == 4 and sum(rows) == 28

    @staticmethod
    def _box_rows(P, x, r, box):
        """The rows (p - x) / r of P inside K's box, and which they are."""
        lo, hi = box
        Y = (P - x) / r
        keep = ((Y >= lo) & (Y <= hi)).all(axis=1)
        return Y, keep

    def test_sandwich_leaves_few_rows_to_the_bracket(self, monkeypatch):
        # K's ellipse sandwich decides most rows in G's frame: K receives
        # one set per replicate, under a tenth of the rows of the copies'
        # boxes, and only those reach its own bounds
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        given, bracketed = [], []

        def contains(P, _orig=K.contains):
            given.append(len(P))
            return _orig(P)

        def bracket(pts, _orig=K._gauge_bracket):
            bracketed.append(len(pts))
            return _orig(pts)

        monkeypatch.setattr(K, "contains", contains)
        monkeypatch.setattr(K, "_gauge_bracket", bracket)
        kdense_spread(G, K, 0.5, m=16, n=self.N, replicates=4, seed=0)
        monkeypatch.undo()
        glo, ghi = bounding_box(G)
        box = bounding_box(K)
        X = boundary_points(G, sphere_directions(2, 16))
        boxed = 0
        for rep in range(4):
            P = glo + _sobol(2, self.N, 0, rep) * (ghi - glo)
            P = P[G.contains(P)]
            boxed += sum(int(np.count_nonzero(self._box_rows(P, x, 0.5,
                                                              box)[1]))
                         for x in X)
        assert len(given) == 4 and boxed > 64 * self.N // 10
        assert 0 < sum(given) <= 0.1 * boxed
        assert sum(bracketed) <= sum(given)

    def _copies(self, G):
        """Copies at G's boundary points and far from the origin; r = 1e-6
        leaves its rounding bound above the budget, so those copies keep
        the box in G's frame."""
        X = boundary_points(G, sphere_directions(G.dim, 3))
        far = np.full(G.dim, 30.0)
        return [(x, r) for x in X for r in (1e-6, 1e-3, 0.1, 0.5, 0.99)] + \
            [(far, 1e-3), (far, 9.0), (-far, 12.0)]

    def test_box_in_g_frame_keeps_k_rows(self, monkeypatch):
        # K receives one set per replicate: per copy in turn, the rows
        # (p - x) / r inside K's box of the copy's shell, or of all of G's
        # points for a copy that skips the G-frame decision or a K without
        # a sandwich
        for G, K in self._pairs():
            box = bounding_box(K)
            copies = self._copies(G)
            got = []

            def contains(P, _orig=K.contains):
                got.append(np.array(P))
                return _orig(P)

            monkeypatch.setattr(K, "contains", contains)
            _copy_counts(G, K, copies, self.N, 2, 0)
            monkeypatch.undo()
            sweep = measure._CopySweep(K, copies)
            glo, ghi = bounding_box(G)
            assert len(got) == 2
            for rep, given in enumerate(got):
                P = glo + _sobol(G.dim, self.N, 0, rep) * (ghi - glo)
                P = P[G.contains(P)]
                boxed = [self._box_rows(P, x, r, box) for x, r in copies]
                if sweep.sandwich is None:
                    want = [Y[keep] for Y, keep in boxed]
                    assert np.array_equal(given, np.concatenate(want))
                    continue
                decided = sweep.decided(list(P.T))
                assert decided.any() and not decided.all()
                _, q_in, q_out = bodies._sandwich_levels(sweep.sandwich)
                want = []
                for (x, r), (Y, keep), dec in zip(copies, boxed, decided):
                    if dec:
                        Q = np.einsum("ij,jk,ik->i", P - x, sweep.sandwich[0],
                                      P - x)
                        t_in, t_out = r * r * q_in, r * r * q_out
                        # no row lies where rounding could route it
                        # either way
                        assert not np.any(np.isclose(Q, t_in, rtol=1e-9,
                                                     atol=0.0) |
                                          np.isclose(Q, t_out, rtol=1e-9,
                                                     atol=0.0))
                        keep = keep & (Q > t_in) & (Q <= t_out)
                    want.append(Y[keep])
                assert np.array_equal(given, np.concatenate(want))

    def test_batches_bound_k_calls(self, monkeypatch):
        # a 3D sweep whose copies hand K more than SWEEP_BATCH_ROWS rows a
        # replicate: K tests them in several calls, each ending at the first
        # copy whose rows reach the bound, and the counts are the plain
        # indicator's
        G = Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)
        K = difference_body(G)
        n, replicates, budget = 2 ** 14, 2, measure.SWEEP_BATCH_ROWS
        copies = [(x, r) for x in boundary_points(G, sphere_directions(3, 4))
                  for r in (0.5, 1.0, 1.5)]
        calls = []

        def contains(P, _orig=K.contains):
            calls.append(len(P))
            return _orig(P)

        monkeypatch.setattr(K, "contains", contains)
        _, hits, _ = _copy_counts(G, K, copies, n, replicates, 0)
        monkeypatch.undo()
        sweep = measure._CopySweep(K, copies)
        assert sweep.sandwich is None
        box = bounding_box(K)
        glo, ghi = bounding_box(G)
        want, most = [], 0
        for rep in range(replicates):
            P = glo + _sobol(3, n, 0, rep) * (ghi - glo)
            P = P[G.contains(P)]
            handed = boxed = 0
            start = len(want)
            for j, ((x, r), (_, _, a, b)) in enumerate(zip(copies,
                                                           sweep.copies)):
                # a copy hands K the rows in its box in G's frame; K's box
                # keeps those it tests
                rows = int(np.count_nonzero(((P >= a) & (P <= b)).all(1)))
                Y, keep = self._box_rows(P, x, r, box)
                assert hits[rep, j] == np.count_nonzero(K.contains(Y[keep]))
                handed, boxed = handed + rows, boxed + np.count_nonzero(keep)
                most = max(most, rows)
                if handed >= budget or j == len(copies) - 1:
                    want.append(boxed)
                    handed = boxed = 0
            assert len(want) - start >= 2
        assert calls == want
        assert max(calls) <= budget + most

    def test_rows_at_the_levels(self):
        # rows placed just inside and outside the sandwich's radii and the
        # sweep's thresholds around each copy, in G's frame: every copy's
        # count is the plain indicator's, for copies decided in G's frame
        # and for copies that skip the decision
        E = Ellipsoid.from_semiaxes
        R = ReuleauxTriangle2D(1.0)
        F = FourierBody2D([1.0, 0.0, 0.0, 0.1])
        S = Superellipse2D(4.0)
        rng = np.random.default_rng(41)
        tol = bodies.MEMBERSHIP_TOL
        for G, K in [(E(2.0, 1.0), difference_body(E(2.0, 1.0))),
                     (E(200.0, 1.0), difference_body(E(200.0, 1.0))),
                     (S, difference_body(S)),
                     (R, difference_body(R)), (F, difference_body(F)),
                     (R, Translate(R, [0.05, -0.03])),
                     (F, Dilate(difference_body(R), -1.3))]:
            copies = self._copies(G)
            sweep = measure._CopySweep(K, copies)
            Minv, s_in2, s_out2 = sweep.sandwich
            _, q_in, q_out = bodies._sandwich_levels(sweep.sandwich)
            d = rng.normal(size=(32, 2))
            q = np.einsum("ij,jk,ik->i", d, Minv, d)
            rows = [rng.uniform(*bounding_box(G), size=(500, 2))]
            for x, r in copies:
                for level in (s_in2, s_out2 * (1.0 + tol) ** 2, q_in, q_out):
                    for f in (1.0 - 1e-9, 1.0 + 1e-9):
                        t = r * np.sqrt(level * f / q)
                        rows.append(x + d * t[:, None])
            P = np.vstack(rows)
            decided = sweep.decided(list(P.T))
            assert decided.any() and not decided.all(), K
            want = [int(np.count_nonzero(K.contains((P - x) / r)))
                    for x, r in copies]
            assert sweep(P) == want, K

    def test_halfspace_cut(self):
        # alone, and as the columns of the half-volume battery's one pass:
        # V(K) and each cut are the plain indicators' counts, averaged over
        # the battery's least number of replicates, two
        reps = (0, 1)
        for G, K in self._pairs():
            box = bounding_box(K)
            vol = np.mean([self._plain(K.dim, box, K.contains, i)
                           for i in reps])
            battery = halfvolume_condition_check(G, K, m=4, n=self.N,
                                                 replicates=len(reps), seed=0)
            assert battery.extra["volume"].value == vol
            for u, frac in zip(sphere_directions(K.dim, 4), battery.values):
                u = as_direction(u)
                plain = np.mean([self._plain(
                    K.dim, box, lambda P: K.contains(P) & (P @ u >= 0.0), i)
                    for i in reps])
                cut = halfspace_cut_volume(K, u, n=self.N,
                                           replicates=len(reps), seed=0)
                assert cut.value == plain
                assert frac == plain / vol

    @staticmethod
    def _counting_contains(monkeypatch, body):
        rows = []

        def counting(pts, _orig=body.contains):
            rows.append(len(pts))
            return _orig(pts)

        monkeypatch.setattr(body, "contains", counting)
        return rows

    def test_halfvolume_tests_k_once_per_replicate(self, monkeypatch):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        rows = self._counting_contains(monkeypatch, K)
        halfvolume_condition_check(G, K, m=8, n=self.N, replicates=4, seed=0)
        assert rows == [self.N] * 4

    def test_halfspace_cut_tests_only_its_half(self, monkeypatch):
        # the half-space prefilter stays: K is tested on the kept rows only
        K = difference_body(Ellipsoid.from_semiaxes(2.0, 1.0))
        u = as_direction([0.6, 0.8])
        lo, hi = bounding_box(K)
        kept = [int(np.count_nonzero(
                    (lo + _sobol(2, self.N, 0, rep) * (hi - lo)) @ u >= 0.0))
                for rep in range(2)]
        rows = self._counting_contains(monkeypatch, K)
        halfspace_cut_volume(K, u, n=self.N, replicates=2, seed=0)
        assert rows == kept
        assert all(k < 0.6 * self.N for k in kept)


class TestInPlaceTemporaries:
    """Expressions computed in place to save n-row temporaries round as
    the plain expressions, bit for bit."""

    def test_box_points(self):
        for dim in (2, 3):
            lo, hi = bounding_box(Ellipsoid.from_semiaxes(
                *[2.0, 1.0, 0.7][:dim], center=[0.3, -0.1, 0.2][:dim]))
            unit = _sobol(dim, 2 ** 12, 5, 1)
            assert np.array_equal(measure._box_points(unit, lo, hi),
                                  lo + unit * (hi - lo))

    def test_offset_quadric_gauge(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3):
            A = rng.normal(size=(dim, dim))
            Qinv = np.linalg.inv(A @ A.T + np.eye(dim))
            c = 0.1 * rng.normal(size=dim)
            pts = rng.normal(size=(5000, dim))
            a = 1.0 - c @ Qinv @ c
            b = pts @ (Qinv @ c)
            q = np.einsum("ij,ij->i", pts @ Qinv, pts)
            want = (-b + np.sqrt(b * b + a * q)) / a
            got = bodies._offset_quadric_gauge(pts, Qinv, c)
            assert np.array_equal(got, want)


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
            def counting(self, pts, _orig=cls.gauge_many):
                calls.append(self)
                return _orig(self, pts)
            monkeypatch.setattr(cls, "gauge_many", counting)
        for G in (Ellipsoid.from_semiaxes(2.0, 1.0, center=[0.3, 0.1]),
                  Superellipse2D(4.0),
                  Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)):
            x = boundary_points(G, sphere_directions(G.dim, 3))[0]
            for K in (difference_body(G), Ellipsoid(4.0 * np.eye(G.dim))):
                circumscribed_ratio(G, K, x)
        assert calls == []
