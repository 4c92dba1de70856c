"""Tests of the deficit and small-overlap asymptotic extraction."""

import math

import numpy as np
import pytest

from kdense.asymptotics import (convention_factor, deficit_ladder,
                                fit_power_law, large_r_coefficient_closed,
                                large_r_coefficient_numeric,
                                large_r_limit_closed, small_r_v0,
                                symmetric_closed_constant)
from kdense.bodies import Ball, Dilate, Ellipsoid, Superellipse2D, difference_body
from kdense.errors import DegenerateFit, FlatContact
from kdense.oracles import ball_lens_volume, disk_lens_area

FAST = dict(n=2 ** 14, replicates=4, seed=0)


def disk_pair():
    return Ball(1.0), Ball(2.0), np.array([1.0, 0.0])


def ball3_pair():
    return Ball(1.0, dim=3), Ball(2.0, dim=3), np.array([1.0, 0.0, 0.0])


def disk_oracle(eps):
    return math.pi - disk_lens_area(1.0, 2.0 * (1.0 - eps), 1.0)


def ball3_oracle(eps):
    return 4.0 * math.pi / 3.0 - ball_lens_volume(1.0, 2.0 * (1.0 - eps), 1.0)


class TestFitPowerLaw:
    def test_exact_recovery(self):
        eps = 0.1 * 0.5 ** np.arange(6)
        samples = [(e, 5.0 * e ** 1.5, 0.0) for e in eps]
        fit = fit_power_law(samples)
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.coefficient == pytest.approx(5.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.trusted

    def test_weights_prefer_tight_rungs(self):
        eps = 0.1 * 0.5 ** np.arange(6)
        f = 5.0 * eps ** 1.5
        f[0] *= 1.5  # corrupt the rung with the huge error bar
        samples = [(e, v, 0.3 * v if i == 0 else 1e-6 * v)
                   for i, (e, v) in enumerate(zip(eps, f))]
        fit = fit_power_law(samples)
        assert fit.coefficient == pytest.approx(5.0, rel=1e-2)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 1.0, 0.0)] * 3)

    def test_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, -1.0, 0.0), (0.05, 1.0, 0.0),
                           (0.025, 1.0, 0.0), (0.0125, 1.0, 0.0)])

    @pytest.mark.parametrize("bad", [(0, np.nan), (1, np.nan), (2, np.nan),
                                     (0, np.inf), (1, np.inf), (2, np.inf)])
    def test_non_finite_samples(self, bad):
        # a NaN f passed the positivity check and fitted a NaN exponent
        samples = [[e, 5.0 * e ** 1.5, 0.0] for e in 0.1 * 0.5 ** np.arange(5)]
        samples[2][bad[0]] = bad[1]
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([tuple(s) for s in samples])

    def test_degenerate_when_noise_dominates(self):
        eps = 0.1 * 0.5 ** np.arange(5)
        samples = [(e, 1e-6, 1e-3) for e in eps]
        with pytest.raises(DegenerateFit):
            fit_power_law(samples)
        # a rung that counted no point has value 0 and stderr 0; it used to
        # raise a bare ValueError, which ended ``kdense verify`` with a
        # traceback
        samples = [(0.1, 0.0, 0.0)] + [(e, 5.0 * e ** 1.5, 0.0)
                                       for e in eps[1:]]
        with pytest.raises(DegenerateFit):
            fit_power_law(samples)


class TestDeficitLadder:
    def test_oracle_ladder(self):
        G, K, x = disk_pair()
        ladder = deficit_ladder(G, K, x, eps0=0.1, rungs=5, oracle=disk_oracle)
        eps, f, s = zip(*ladder)
        assert list(eps) == [0.1 * 0.5 ** k for k in range(5)]
        assert all(v == 0.0 for v in s)
        assert all(a > b > 0 for a, b in zip(f, f[1:]))

    def test_qmc_ladder_tracks_oracle(self):
        G, K, x = disk_pair()
        ladder = deficit_ladder(G, K, x, eps0=0.1, rungs=3, **FAST)
        for eps, f, s in ladder:
            assert f == pytest.approx(disk_oracle(eps), abs=6 * s + 1e-3)


class TestLargeR:
    def test_disk_exponent_and_coefficient(self):
        G, K, x = disk_pair()
        fit = large_r_coefficient_numeric(G, K, x, eps0=0.005, rungs=10,
                                          oracle=disk_oracle)
        assert fit.exponent == pytest.approx(1.5, abs=0.01)
        assert fit.coefficient == pytest.approx(16.0 * math.sqrt(2.0) / 3.0,
                                                rel=0.01)

    def test_ball3_exponent_and_coefficient(self):
        G, K, x = ball3_pair()
        fit = large_r_coefficient_numeric(G, K, x, eps0=0.005, rungs=10,
                                          oracle=ball3_oracle)
        assert fit.exponent == pytest.approx(2.0, abs=0.01)
        assert fit.coefficient == pytest.approx(8.0 * math.pi, rel=0.01)

    def test_unnormalized_k_rejected(self):
        G = Ball(1.0)
        with pytest.raises(ValueError, match="circumscribed ratio"):
            large_r_coefficient_numeric(G, Ball(3.0), np.array([1.0, 0.0]))

    def test_closed_disk(self):
        G, K, x = disk_pair()
        assert large_r_coefficient_closed(G, K, x) == pytest.approx(
            16.0 / 3.0, abs=1e-10)
        assert large_r_limit_closed(G, K, x) == pytest.approx(
            16.0 * math.sqrt(2.0) / 3.0, abs=1e-9)

    def test_closed_ball3(self):
        G, K, x = ball3_pair()
        assert large_r_coefficient_closed(G, K, x) == pytest.approx(
            4.0 * math.pi, abs=1e-10)
        assert large_r_limit_closed(G, K, x) == pytest.approx(
            8.0 * math.pi, abs=1e-9)

    def test_closed_ellipse_with_double_body(self):
        # S_K = S_G / 2, h_K = 2 h_G: the displayed constant is 32/3 at the
        # major-axis touch direction
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = Dilate(G, 2.0)
        x = np.array([2.0, 0.0])
        assert large_r_coefficient_closed(G, K, x) == pytest.approx(
            32.0 / 3.0, abs=1e-8)

    def test_convention_factor(self):
        assert convention_factor(2) == pytest.approx(math.sqrt(2.0))
        assert convention_factor(3) == pytest.approx(2.0)

    def test_numeric_matches_true_limit_on_ellipse(self):
        G = Ellipsoid.from_semiaxes(2.0, 1.0)
        K = difference_body(G)
        x = np.array([2.0, 0.0])
        fit = large_r_coefficient_numeric(G, K, x, eps0=0.1, rungs=5,
                                          n=2 ** 15, replicates=4, seed=0)
        limit = large_r_limit_closed(G, K, x)
        assert fit.exponent == pytest.approx(1.5, abs=0.1)
        # qmc coefficient extrapolation is noisy at desk budgets; the exact
        # oracle ladders elsewhere pin it to 1%
        assert fit.coefficient == pytest.approx(limit, rel=0.15)

    def test_flat_contact(self):
        G = Superellipse2D(4.0)
        K = difference_body(G)
        x = np.array([1.0, 0.0])
        with pytest.raises(FlatContact) as exc:
            large_r_coefficient_numeric(G, K, x, eps0=0.1, rungs=6,
                                        n=2 ** 14, replicates=4, seed=0)
        fit = exc.value.fit
        assert fit.exponent == pytest.approx(1.25, abs=0.06)

    def test_symmetric_constant_ratio(self):
        # the two displayed symmetric-case constants agree at N = 2 and
        # differ by sqrt(2) (N-1) / 2^((N-1)/2) at N = 3
        G, K, x = disk_pair()
        assert symmetric_closed_constant(G, K, x) == pytest.approx(
            large_r_coefficient_closed(G, K, x), rel=1e-10)
        G, K, x = ball3_pair()
        ratio = symmetric_closed_constant(G, K, x) / \
            large_r_coefficient_closed(G, K, x)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert ratio != pytest.approx(1.0, rel=1e-3)


class TestSmallR:
    def test_disk_pair_v0(self):
        # the leading overlap coefficient is the half-disk of K: 2 pi
        G, K, x = disk_pair()
        oracle = lambda r: disk_lens_area(1.0, 2.0 * r, 1.0)
        numeric, closed = small_r_v0(G, K, x, r0=0.1, rungs=6, oracle=oracle,
                                     **FAST)
        assert numeric == pytest.approx(2.0 * math.pi, rel=1e-3)
        assert closed == pytest.approx(2.0 * math.pi, rel=1e-2)
        assert numeric == pytest.approx(closed, rel=1e-2)

    def test_next_order_residual(self):
        # V(r) - V0 r^N = O(r^(N+1)): the rescaled residual stays bounded
        G, K, x = disk_pair()
        oracle = lambda r: disk_lens_area(1.0, 2.0 * r, 1.0)
        v0 = 2.0 * math.pi
        res = [(oracle(r) - v0 * r ** 2) / r ** 3 for r in (0.08, 0.04, 0.02)]
        assert max(abs(v) for v in res) < 10.0
        assert abs(res[-1] - res[-2]) < 0.5 * abs(res[0]) + 0.1

    def test_qmc_route(self):
        G, K, x = disk_pair()
        numeric, closed = small_r_v0(G, K, x, r0=0.2, rungs=4, **FAST)
        assert numeric == pytest.approx(2.0 * math.pi, rel=0.05)

    def test_degenerate_small_radius(self):
        G, K, x = disk_pair()
        with pytest.raises(DegenerateFit):
            small_r_v0(G, K, x, r0=1e-4, rungs=4, n=2 ** 10, replicates=2)
