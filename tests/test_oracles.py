"""Tests of the classical-mensuration reference implementations."""

import math

import numpy as np
import pytest

from kdense.oracles import ball_lens_volume, disk_lens_area

from oracles import (ConvexPolygon, ellipse_curvature_param,
                     polygon_clip_area, shoelace_area)


class TestDiskLens:
    def test_disjoint(self):
        assert disk_lens_area(1.0, 1.0, 2.5) == 0.0
        assert disk_lens_area(1.0, 1.0, 2.0) == 0.0

    def test_containment(self):
        assert disk_lens_area(1.0, 3.0, 0.5) == pytest.approx(math.pi)
        assert disk_lens_area(3.0, 1.0, 0.5) == pytest.approx(math.pi)

    def test_equal_unit_disks_at_unit_distance(self):
        # classical value: 2 pi / 3 - sqrt(3) / 2
        expect = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
        assert disk_lens_area(1.0, 1.0, 1.0) == pytest.approx(expect, rel=1e-14)

    def test_symmetry_in_radii(self):
        assert disk_lens_area(1.0, 2.0, 1.7) == pytest.approx(
            disk_lens_area(2.0, 1.0, 1.7), rel=1e-14)

    def test_monotone_in_distance(self):
        vals = [disk_lens_area(1.0, 1.5, d) for d in np.linspace(0.0, 2.5, 40)]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_against_polygon_clipping(self):
        n = 4096
        P = ConvexPolygon.regular(n, radius=1.0)
        Q = ConvexPolygon.regular(n, radius=1.5, center=(1.2, 0.0))
        approx = polygon_clip_area(P, Q)
        exact = disk_lens_area(1.0, 1.5, 1.2)
        assert approx == pytest.approx(exact, rel=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            disk_lens_area(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            disk_lens_area(1.0, 1.0, -0.1)


class TestBallLens:
    def test_disjoint_and_containment(self):
        assert ball_lens_volume(1.0, 1.0, 2.0) == 0.0
        assert ball_lens_volume(1.0, 3.0, 0.5) == pytest.approx(4.0 * math.pi / 3.0)

    def test_equal_unit_balls_at_unit_distance(self):
        # two caps of height 1/2: 2 * pi h^2 (3R - h) / 3 = 5 pi / 12
        assert ball_lens_volume(1.0, 1.0, 1.0) == pytest.approx(
            5.0 * math.pi / 12.0, rel=1e-14)

    def test_cap_decomposition(self):
        # lens = cap of ball 1 beyond the radical plane + cap of ball 2
        R1, R2, d = 1.0, 1.4, 1.1
        a = (d * d + R1 * R1 - R2 * R2) / (2.0 * d)
        h1, h2 = R1 - a, R2 - (d - a)
        cap = lambda R, h: math.pi * h * h * (3.0 * R - h) / 3.0
        assert ball_lens_volume(R1, R2, d) == pytest.approx(
            cap(R1, h1) + cap(R2, h2), rel=1e-12)

    def test_symmetry_in_radii(self):
        assert ball_lens_volume(1.0, 2.0, 1.7) == pytest.approx(
            ball_lens_volume(2.0, 1.0, 1.7), rel=1e-14)


class TestPolygons:
    def test_shoelace_square(self):
        V = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert shoelace_area(V) == pytest.approx(1.0)
        assert shoelace_area(V[::-1]) == pytest.approx(-1.0)

    def test_regular_polygon_area(self):
        n = 7
        P = ConvexPolygon.regular(n, radius=2.0)
        assert P.area() == pytest.approx(0.5 * n * 4.0 * math.sin(2 * math.pi / n))

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 0)])

    def test_clip_offset_squares(self):
        S = [(0, 0), (1, 0), (1, 1), (0, 1)]
        T = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        assert polygon_clip_area(S, T) == pytest.approx(0.25)

    def test_clip_self(self):
        P = ConvexPolygon.regular(12, radius=1.3)
        assert polygon_clip_area(P, P) == pytest.approx(P.area(), rel=1e-12)

    def test_clip_disjoint(self):
        S = [(0, 0), (1, 0), (1, 1), (0, 1)]
        T = [(5, 5), (6, 5), (6, 6), (5, 6)]
        assert polygon_clip_area(S, T) == 0.0


class TestEllipseCurvature:
    def test_circle(self):
        for t in np.linspace(0.0, 2 * math.pi, 9):
            assert ellipse_curvature_param(2.0, 2.0, t) == pytest.approx(0.5)

    def test_axis_endpoints(self):
        a, b = 2.0, 1.0
        assert ellipse_curvature_param(a, b, 0.0) == pytest.approx(a / b ** 2)
        assert ellipse_curvature_param(a, b, math.pi / 2) == pytest.approx(b / a ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ellipse_curvature_param(0.0, 1.0, 0.3)
