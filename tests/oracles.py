"""Test oracles from classical mensuration: convex polygons, their
Sutherland-Hodgman clipping and shoelace areas, and the parametric
curvature of an ellipse.

They share nothing with the support-function machinery of ``kdense``, so
agreement between the two is evidence rather than tautology.
"""

import math

import numpy as np


class ConvexPolygon:
    """Counterclockwise convex polygon in the plane."""

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or len(V) < 3:
            raise ValueError("need at least three 2D vertices")
        edges = np.roll(V, -1, axis=0) - V
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - \
            edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        scale = float(np.max(np.abs(V))) or 1.0
        if np.any(cross < -1e-12 * scale * scale):
            raise ValueError("vertices are not in counterclockwise convex position")
        if np.any(np.linalg.norm(edges, axis=1) < 1e-14 * scale):
            raise ValueError("repeated vertices")
        self.vertices = V

    @classmethod
    def regular(cls, n, radius=1.0, center=(0.0, 0.0), phase=0.0):
        t = phase + 2.0 * np.pi * np.arange(n) / n
        c = np.asarray(center, dtype=float)
        return cls(c + radius * np.column_stack([np.cos(t), np.sin(t)]))

    def area(self):
        return shoelace_area(self.vertices)


def shoelace_area(V):
    """Signed shoelace area of a vertex loop (positive if counterclockwise)."""
    V = np.asarray(V, dtype=float)
    if len(V) < 3:
        return 0.0
    x, y = V[:, 0], V[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_polygon_halfplane(V, a, b):
    """Clip a vertex loop against the half-plane on the left of edge a->b.

    One Sutherland-Hodgman pass over all edges s -> e at once: each edge
    emits its crossing point if it changes side, then e if e is inside.
    """
    V = np.asarray(V, dtype=float).reshape(-1, 2)
    side = (b[0] - a[0]) * (V[:, 1] - a[1]) - (b[1] - a[1]) * (V[:, 0] - a[0])
    inside = side >= 0.0
    crosses = inside != np.roll(inside, 1)
    S, s_side = np.roll(V, 1, axis=0)[crosses], np.roll(side, 1)[crosses]
    # the two sides have opposite signs on a crossing edge, so t is in [0, 1]
    t = s_side / (s_side - side[crosses])
    out = np.stack([V, V], axis=1)
    out[crosses, 0] = S + t[:, None] * (V[crosses] - S)
    emit = np.column_stack([crosses, inside]).ravel()
    return out.reshape(-1, 2)[emit]


def polygon_clip_area(P, Q):
    """Area of the intersection of two convex polygons (Sutherland-Hodgman)."""
    V = P.vertices if isinstance(P, ConvexPolygon) else np.asarray(P, dtype=float)
    W = Q.vertices if isinstance(Q, ConvexPolygon) else np.asarray(Q, dtype=float)
    for i in range(len(W)):
        V = clip_polygon_halfplane(V, W[i - 1], W[i])
        if len(V) == 0:
            return 0.0
    return abs(shoelace_area(V))


def ellipse_curvature_param(a, b, t):
    """Curvature of the ellipse (a cos t, b sin t) via the parametric formula."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    xp, yp = -a * math.sin(t), b * math.cos(t)
    xpp, ypp = -a * math.cos(t), -b * math.sin(t)
    return abs(xp * ypp - yp * xpp) / (xp * xp + yp * yp) ** 1.5
