"""Independent reference values: lens measures, polygon clipping, parametric curvature.

These are deliberately implemented from classical mensuration formulas and
parametrizations, not from the support-function machinery, so that
agreement between the two is evidence rather than tautology.
"""

import math

import numpy as np


def disk_lens_area(R1, R2, d):
    """Exact area of the intersection of two disks with center distance d."""
    if R1 <= 0 or R2 <= 0:
        raise ValueError("radii must be positive")
    if d < 0:
        raise ValueError("center distance must be nonnegative")
    if d >= R1 + R2:
        return 0.0
    if d <= abs(R1 - R2):
        r = min(R1, R2)
        return math.pi * r * r
    # circular segment formula
    a1 = math.acos((d * d + R1 * R1 - R2 * R2) / (2.0 * d * R1))
    a2 = math.acos((d * d + R2 * R2 - R1 * R1) / (2.0 * d * R2))
    tri = 0.5 * math.sqrt(max(0.0, (-d + R1 + R2) * (d + R1 - R2) *
                              (d - R1 + R2) * (d + R1 + R2)))
    return R1 * R1 * a1 + R2 * R2 * a2 - tri


def ball_lens_volume(R1, R2, d):
    """Exact volume of the intersection of two balls with center distance d."""
    if R1 <= 0 or R2 <= 0:
        raise ValueError("radii must be positive")
    if d < 0:
        raise ValueError("center distance must be nonnegative")
    if d >= R1 + R2:
        return 0.0
    if d <= abs(R1 - R2):
        r = min(R1, R2)
        return 4.0 * math.pi * r ** 3 / 3.0
    # two spherical caps joined at the radical plane
    return (math.pi * (R1 + R2 - d) ** 2 *
            (d * d + 2.0 * d * (R1 + R2) - 3.0 * (R1 - R2) ** 2) / (12.0 * d))


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


def halfplane_clip_area(P, point, normal, extent=None):
    """Area of the part of polygon P with (y - point) . normal >= 0."""
    V = P.vertices if isinstance(P, ConvexPolygon) else np.asarray(P, dtype=float)
    point = np.asarray(point, dtype=float)
    n = np.asarray(normal, dtype=float)
    # left of the directed line through `point` along the rotated normal
    t = np.array([n[1], -n[0]])
    V = clip_polygon_halfplane(V, point, point + t)
    return abs(shoelace_area(V))


def reuleaux_polygon(width=1.0, n=10000):
    """Polygonal approximation of the Reuleaux triangle (three-disk intersection)."""
    rho = width / np.sqrt(3.0)
    angles = np.pi / 2.0 + 2.0 * np.pi * np.arange(3) / 3.0
    centers = rho * np.column_stack([np.cos(angles), np.sin(angles)])
    per_arc = max(n // 3, 8)
    pts = []
    for i in range(3):
        c = centers[i]
        # the arc opposite vertex i spans 60 degrees around direction -c
        base = np.arctan2(-c[1], -c[0])
        t = base + np.linspace(-np.pi / 6.0, np.pi / 6.0, per_arc, endpoint=False)
        pts.append(c + width * np.column_stack([np.cos(t), np.sin(t)]))
    loop = np.vstack(pts)
    order = np.argsort(np.arctan2(loop[:, 1], loop[:, 0]))
    return ConvexPolygon(loop[order])


def ellipse_curvature_param(a, b, t):
    """Curvature of the ellipse (a cos t, b sin t) via the parametric formula."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    xp, yp = -a * math.sin(t), b * math.cos(t)
    xpp, ypp = -a * math.cos(t), -b * math.sin(t)
    return abs(xp * ypp - yp * xpp) / (xp * xp + yp * yp) ** 1.5
