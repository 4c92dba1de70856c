"""Convex bodies in R^2 and R^3 represented by their support functions.

Every body exposes the 1-homogeneous extension H(v) = |v| h(v/|v|) of its
support function, plus its gradient (the boundary point with a given
outward normal).  The second-order primitive of each kind is the tangent
block R = E' H(u) E of the Hessian in an orthonormal frame E of the
plane orthogonal to u (the reverse Weingarten map), built in closed form
once, on components: each component of u and E is a float or an array of
equal length, so one form serves a single direction (``curvature``, the
identity checks) and a stack of them (``curvature_many``, the support
integral).  det R, the degeneracy test and S = R^-1 are array helpers for
the stack; for one direction ``_curvature`` fuses them into a single scalar
routine, and TestCurvatureMany::test_rows_equal_curvature_bit_for_bit pins
the two paths to each other.  A single direction is validated once and
memoized with its frame (``_direction``).  The Hessian itself is
E R E' / |v|, which no check needs whole.
Every kind gives its gradient and tangent block in closed form.  The
Minkowski algebra (sums, homotheties sK with s != 0, so -K too, and
translations) acts linearly on H and on the tangent block.  Balls and
ellipsoids decide that the origin is interior in closed form, translates
by the exact gauge, Fourier bodies by a certified bound between samples;
superellipses and Reuleaux triangles need only finite parameters.  Each
body caches its sphere grid and its support values there, once per size:
the gauge reads the default size, the support-ratio scans any size.
One sphere search for the largest support ratio serves gauges, normals
and circumscribed ratios, whose scan also screens touch points.  Each kind
has one stacked gauge-and-normal primitive, ``gauge_argmax_many``, and
``gauge_argmax(v)`` is its row 0: the generic kinds answer with one search
over all rows, the closed gauges (balls, ellipsoids, superellipses,
Reuleaux triangles) in closed form, and a dilate by its body's.  Its rows
do not depend on each other, bit for bit: BLAS rounds a row of a stacked
matrix-vector product by its place in the stack, so those products are
taken row by row (``_OffsetQuadric.argmax``, ``_unit_rows``) and offsets
<v, c> are summed column by column (``_plus_row_dots``).  ``gauge_many``
is exact; membership is the bounded path.  A 2D point is first compared
with an ellipse sandwich certified by the inner polygon of the grid chords
and the outer polygon of the grid normals; a point between is bracketed by
the grid cell of its angle, from below by the outer polygon and from above
by the chord between two boundary points; only the points those bounds
leave undecided are searched, and the search drops a point as soon as the
same two bounds, taken at its iterate and at its bracket's ends, decide
it.  A 2D gauge search starts inside the point's cell, at the monotone
cubic Hermite interpolant of the normal angle from the cell's ends and
radii of curvature where the cell passes the Fritsch-Carlson test, and at
the cell's better grid normal elsewhere (``_gauge_start``).  3D refines
coarse gauges near 1.  Each point's verdict is its own, so a copy sweep
tests many copies' points in one call; the sandwich lets it decide most
points in the sweep's own frame (``_sweep_sandwich``).
"""

import math
import operator

import numpy as np

from .errors import SingularCurvature

# how far a caller's frame may be from orthonormal and orthogonal to u
UNIT_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9

# gauge grid normals: the cells of the 2D bracket, the 3D coarse scan
GAUGE_GRID_2D = 512
GAUGE_GRID_3D = 4096
# ratios per block of the 3D coarse scan: about 1 MB of doubles, cache-sized
GAUGE_BLOCK_RATIOS = 2 ** 17
# 3D membership refines coarse gauges within this of 1; 2D decides it by
# certified bounds instead
GAUGE_REFINE_MARGIN = 0.02
# the 2D ellipse sandwich (``_ellipse_sandwich``) decides a point only this
# far, relatively, inside s_in^2 or beyond s_out^2 (1 + MEMBERSHIP_TOL)^2.
# Q(p) = p' M^-1 p is a sum of three products: its rounding error is below
# 4 eps (|a| x^2 + 2|b x y| + |c| y^2) <= 8 eps cond(M) Q, at most 9e-8 Q
# for cond(M) <= SANDWICH_MAX_COND, and s_in^2 and s_out^2 are such values
# too; the bracket's bounds hold to a few ulps.  So 1e-6 keeps every point
# the sandwich decides at least 4e-7 from 1 in gauge, on the side where the
# bracket decides it the same way.
SANDWICH_MARGIN = 1e-6
SANDWICH_MAX_COND = 1e8


# ---------------------------------------------------------------------------
# directions and tangent frames

def _unit(u, dim=None):
    """Validate a unit direction and return it normalized, as a tuple of
    floats.  The norm is numpy's dot ``u.dot(u)``, the BLAS dot that
    ``u @ u`` takes at a third of its call cost (a Python sum of squares
    can differ from it in the last bit), and each component is divided by
    it only when it is not exactly 1, as the division would return it."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] not in (2, 3):
        raise ValueError("direction must be a 2- or 3-vector")
    if dim is not None and u.shape[0] != dim:
        raise ValueError(f"direction has dimension {u.shape[0]}, expected {dim}")
    n = math.sqrt(u.dot(u))
    if not abs(n - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"direction is not unit (|u| = {n})")
    c = u.tolist()
    return tuple(c) if n == 1.0 else tuple([x / n for x in c])


def as_direction(u, dim=None):
    """Validate and return a unit direction vector."""
    return np.array(_unit(u, dim))


def _as_directions(U, dim):
    """Validate the rows of U as unit directions and normalize each one
    exactly as ``as_direction`` does: the batched matmul of a row with
    itself takes the same dot product as ``u.dot(u)``."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != dim:
        raise ValueError(f"directions must be the rows of an (n, {dim}) array")
    n = np.sqrt((U[:, None, :] @ U[:, :, None])[:, 0, 0])
    if not np.all(np.abs(n - 1.0) <= 1e-9):  # a NaN norm fails too
        raise ValueError("directions are not unit")
    return U / n[:, None]


def _frame(u):
    """The columns of ``tangent_frame(u)`` as tuples of floats.

    In 3D, e1 = a - <a, u> u for the first axis a least aligned with u,
    the pick of ``_frames_many``'s argmin on ties, written out per axis:
    e.g. for a = e_x, e1 = (1 - x x, -x y, -x z).
    """
    if len(u) == 2:
        return ((-u[1], u[0]),)
    x, y, z = u
    ax, ay, az = abs(x), abs(y), abs(z)
    if ax <= ay and ax <= az:
        x1, y1, z1 = 1.0 - x * x, -x * y, -x * z
    elif ay <= az:
        x1, y1, z1 = -y * x, 1.0 - y * y, -y * z
    else:
        x1, y1, z1 = -z * x, -z * y, 1.0 - z * z
    n = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    x1, y1, z1 = x1 / n, y1 / n, z1 / n
    return ((x1, y1, z1), (y * z1 - z * y1, z * x1 - x * z1, x * y1 - y * x1))


# validated directions and their frames, by the bytes of the float array:
# the per-direction checks meet the same few directions many times.  A full
# memo is emptied in one call, never evicted entry by entry, so threads
# that share it cannot race on an eviction.
DIRECTION_MEMO_MAX = 1024
_DIRECTION_MEMO = {}


def _direction(u, dim):
    """``_unit(u, dim)`` and its ``_frame``, memoized by (dim, shape, bytes)
    of u as a float array: a hit returns the tuples a miss computes from
    the same bytes.  Only validated directions are stored, so invalid input
    raises on every call."""
    a = np.asarray(u, dtype=float)
    key = (dim, a.shape, a.tobytes())
    hit = _DIRECTION_MEMO.get(key)
    if hit is None:
        u = _unit(a, dim)
        hit = u, _frame(u)
        if len(_DIRECTION_MEMO) >= DIRECTION_MEMO_MAX:
            _DIRECTION_MEMO.clear()
        _DIRECTION_MEMO[key] = hit
    return hit


def _frame_matrix(E):
    """The (N, N-1) matrix whose columns are E."""
    return np.array(E).T.copy()


def tangent_frame(u):
    """Deterministic orthonormal basis of the hyperplane orthogonal to u.

    In 2D the single tangent vector is u rotated by +90 degrees; in 3D the
    first vector comes from Gram-Schmidt against the coordinate axis least
    aligned with u and the second closes a right-handed frame.  Returns an
    (N, N-1) matrix with the basis vectors as columns.
    """
    return _frame_matrix(_frame(np.asarray(u, dtype=float).tolist()))


def _frame_columns(frame, u):
    """The columns of a caller's frame, which must be an orthonormal basis
    of the plane orthogonal to u: the closed-form blocks read E only as
    such a basis, so any other frame would give a wrong R without error."""
    E = np.asarray(frame, dtype=float)
    N = len(u)
    if E.shape != (N, N - 1):
        raise ValueError(f"frame must be an ({N}, {N - 1}) matrix")
    gram = np.abs(E.T @ E - np.eye(N - 1)).max()
    normal = np.abs(np.asarray(u) @ E).max()
    if not (gram <= UNIT_TOL and normal <= UNIT_TOL):
        raise ValueError("frame is not an orthonormal basis of the plane "
                         f"orthogonal to u (|E'E - I| = {gram:.3e}, "
                         f"|E'u| = {normal:.3e})")
    return tuple(map(tuple, E.T.tolist()))


def _frames_many(U):
    """Vectorized tangent frames for rows of U (3D); returns (e1, e2)."""
    k = np.argmin(np.abs(U), axis=1)
    a = np.zeros_like(U)
    a[np.arange(len(U)), k] = 1.0
    e1 = a - (np.einsum("ij,ij->i", a, U))[:, None] * U
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(U, e1)
    return e1, e2


def _unit_circle(thetas):
    return np.column_stack([np.cos(thetas), np.sin(thetas)])


def _fibonacci_sphere(n):
    """Quasi-uniform points on S^2 (antipodally symmetrized)."""
    m = n // 2
    i = np.arange(m) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / m)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    pts = np.column_stack([np.cos(theta) * np.sin(phi),
                           np.sin(theta) * np.sin(phi),
                           np.cos(phi)])
    return np.vstack([pts, -pts])


def sphere_directions(dim, n):
    """n roughly equidistributed unit directions (offset grid in 2D)."""
    if dim == 2:
        return _unit_circle(2.0 * np.pi * (np.arange(n) + 0.5) / n)
    return _fibonacci_sphere(n)


def _grid_spacing(dim, n):
    """Angular spacing of the n directions of ``sphere_directions``."""
    return 2.0 * np.pi / n if dim == 2 else 2.0 * np.sqrt(4.0 * np.pi / n)


# ---------------------------------------------------------------------------
# the sphere search for max H_A / H_K: gauges, normals, circumscribed ratios

# forward-difference step for the Jacobian of grad H, near sqrt(machine eps)
FD_STEP = 1e-8
# angular step at which the search has converged, and its iteration cap
SEARCH_TOL = 1e-12
SEARCH_MAX_STEPS = 60


class SupportRows:
    """Numerator H_A(u) = H_G(u) + <p, u> of the search, one point p per row:
    the support function of G + p, or of the point p when G is None."""

    def __init__(self, pts, body=None):
        self.pts, self.body = pts, body

    def rows(self, idx):
        return SupportRows(self.pts[idx], self.body)

    def support_hom(self, V):
        h = np.einsum("ij,ij->i", self.pts, V)
        return h if self.body is None else self.body.support_hom(V) + h

    def gradient_hom(self, V):
        # V stacks copies of the rows; the search calls this only when G is
        # set, since the gradient of a point row is the constant p
        return self.body.gradient_hom(V) + \
            np.tile(self.pts, (len(V) // len(self.pts), 1))


def _optimality_residual(K, A, U, tangents):
    """Residual and Jacobian of the condition grad H_K(u) || grad H_A(u).

    At the maximizer of H_A / H_K, x(u) = grad H_K(u) lies on the ray through
    a(u) = grad H_A(u).  The residual is the offset of x(u) from ray * a(u),
    where the ray meets the plane {y : <u, y> = <u, x(u)>}, in the tangents
    T.  With D the forward differences of the gradients along T and the ray
    held fixed (its derivative vanishes at the optimum), J = T'(D_K - ray D_A)
    is minus the derivative of r.  For point rows grad H_A = p is constant
    and D_A = 0, so ray D_A is skipped; it is NaN only where the ray or p is
    not finite, and stays NaN there.  Returns r (n, k), J (n, k, k), and
    the boundary points x(u) (n, N) and rays (n,) they were built from.
    """
    T = np.stack(tangents)
    n = len(U)
    V = np.concatenate([U] + [U + FD_STEP * t for t in T])
    X = K.gradient_hom(V)
    x = X[:n]
    D = X[n:].reshape(len(T), n, -1) - x
    if A.body is None:
        a = A.pts
        ray = np.einsum("ij,ij->i", U, x) / np.einsum("ij,ij->i", U, a)
        D[:, ~(np.isfinite(ray)[:, None] & np.isfinite(a))] = np.nan
    else:
        Y = A.gradient_hom(V)
        a = Y[:n]
        ray = np.einsum("ij,ij->i", U, x) / np.einsum("ij,ij->i", U, a)
        D -= ray[:, None] * (Y[n:].reshape(len(T), n, -1) - a)
    D /= FD_STEP
    r = np.einsum("anj,nj->na", T, ray[:, None] * a - x)
    return r, np.einsum("anj,bnj->nab", T, D), x, ray


def _chord_gauge(p, A, B):
    """Upper bounds of the gauges of the 2D points p from the chords between
    the boundary points A and B, row by row; inf where a chord gives none.

    Where the origin lies strictly on the inner side of the chord, traversed
    counterclockwise from A to B, and p lies between A and B in angle, the
    ray through p crosses the chord at a point c of K, so the gauge of p is
    at most |p| / |c| = <n, p> / <n, A>, n the chord's outward normal, the
    bound of ``_gauge_bracket`` for a grid cell.
    """
    nx, ny = B[:, 1] - A[:, 1], A[:, 0] - B[:, 0]
    off = nx * A[:, 0] + ny * A[:, 1]
    between = (A[:, 0] * p[:, 1] - A[:, 1] * p[:, 0] >= 0.0) & \
        (p[:, 0] * B[:, 1] - p[:, 1] * B[:, 0] >= 0.0) & (off > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(between, (nx * p[:, 0] + ny * p[:, 1]) / off, np.inf)


def _ascend_2d(K, A, U, n_grid, level=None):
    """Newton steps in the angle, safeguarded by bisection (rtsafe).

    Each row starts inside the grid cell that holds its maximum, since
    H_A / H_K is unimodal, so the bracket of one grid spacing on either
    side of the start holds the maximum: at the cell's better grid normal,
    or for a gauge at the Hermite start of ``_gauge_start``.  The residual
    has the sign of its angular derivative, so every evaluation shrinks
    the bracket; a Newton step that leaves the bracket or fails to halve
    the step before last is replaced by bisection.  That covers singular
    derivative data: zero curvature radius on Reuleaux vertex sectors, an
    infinite one on superellipse axes.

    With a ``level`` (point rows only, whose maximum is the gauge) a row
    also stops once certified bounds decide gauge <= level: from below the
    support ratio <p, u> / H_K(u) = 1 / ray at the iterate, from above the
    chord between the boundary points at the bracket's two ends
    (``_chord_gauge``).  Returns the directions and each row's deciding
    bound, NaN where the row converged undecided.
    """
    th = np.arctan2(U[:, 1], U[:, 0])
    lo = th - _grid_spacing(2, n_grid)
    hi = th + _grid_spacing(2, n_grid)
    dx = hi - lo
    dx_old = dx.copy()
    live = np.arange(len(th))
    bound = np.full(len(th), np.nan)
    if level is not None:
        # the boundary points at the bracket's ends, moved with them
        ends = K.gradient_hom(_unit_circle(np.concatenate([lo, hi])))
        X_lo, X_hi = ends[:len(th)], ends[len(th):]
    for _ in range(SEARCH_MAX_STEPS):
        t = th[live]
        u = _unit_circle(t)
        r, J, x, ray = _optimality_residual(
            K, A.rows(live), u, [np.column_stack([-u[:, 1], u[:, 0]])])
        r, J = r[:, 0], J[:, 0, 0]
        a = lo[live] = np.where(r > 0, t, lo[live])
        b = hi[live] = np.where(r < 0, t, hi[live])
        undecided = True
        if level is not None:
            X_lo[live] = np.where((r > 0)[:, None], x, X_lo[live])
            X_hi[live] = np.where((r < 0)[:, None], x, X_hi[live])
            up = _chord_gauge(A.pts[live], X_lo[live], X_hi[live])
            with np.errstate(divide="ignore"):
                down = 1.0 / ray
            bound[live] = np.where(up <= level, up,
                                   np.where(down > level, down, np.nan))
            undecided = np.isnan(bound[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(r == 0, t, t + r / J)
        bisect = ~((new >= a) & (new <= b)) | \
            (np.abs(2.0 * r) > np.abs(dx_old[live] * J))
        dx_old[live] = dx[live]
        new = np.where(bisect, 0.5 * (a + b), new)
        step = np.abs(new - t)
        dx[live] = step
        th[live] = new
        live = live[(step > SEARCH_TOL) & undecided]
        if not live.size:
            break
    return _unit_circle(th), bound


def _ascend_3d(K, A, U, n_grid):
    """Newton steps in the tangent plane, halved while H_A(u) / H_K(u) drops.

    Steps are capped by a trust radius that starts at the grid spacing; a
    step that lowers the objective beyond rounding is retried at half the
    length, and a singular or indefinite Jacobian falls back to the
    residual direction, which is uphill.
    """
    U = U.copy()
    f = A.support_hom(U) / K.support_hom(U)
    radius = np.full(len(U), _grid_spacing(3, n_grid))
    live = np.arange(len(U))
    for _ in range(SEARCH_MAX_STEPS):
        a, u = A.rows(live), U[live]
        e1, e2 = _frames_many(u)
        r, J, _, _ = _optimality_residual(K, a, u, [e1, e2])
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.column_stack([J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1],
                                 J[:, 0, 0] * r[:, 1] - J[:, 1, 0] * r[:, 0]])
            d /= det[:, None]
            bad = ~((det > 0) & np.isfinite(d).all(axis=1))
            d[bad] = r[bad]
            size = np.linalg.norm(d, axis=1)
            d *= np.minimum(1.0, radius[live] / size)[:, None]
        size = np.minimum(size, radius[live])
        cand = u + d[:, :1] * e1 + d[:, 1:] * e2
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc = a.support_hom(cand) / K.support_hom(cand)
        ok = fc >= f[live] - 4.0 * np.finfo(float).eps * np.abs(f[live])
        U[live[ok]] = cand[ok]
        f[live[ok]] = fc[ok]
        radius[live] = np.where(ok, radius[live], 0.5 * size)
        live = live[~(ok & (size <= SEARCH_TOL) | (radius[live] <= SEARCH_TOL))]
        if not live.size:
            break
    return U


def support_ratio_max(K, A, U, f0, n_grid):
    """Converged max of H_A(u) / H_K(u) per row and its direction, from the
    argmax U and max f0 of a scan over ``n_grid`` sphere directions.  Rows
    with f0 <= 0 (a gauge's zero vector) have no maximizing direction."""
    return _support_ratio_search(K, A, U, f0, n_grid, None)


def _support_ratio_search(K, A, U, f0, n_grid, level):
    """``support_ratio_max``; with a ``level`` (2D point rows) each row stops
    once certified bounds decide whether its max exceeds the level, and its
    value is then the deciding bound (``_ascend_2d``)."""
    u = U.copy()
    decided = np.full(len(u), np.nan)
    live = f0 > 0.0
    if live.any():
        if K.dim == 2:
            u[live], decided[live] = _ascend_2d(K, A.rows(live), u[live],
                                                n_grid, level)
        else:
            u[live] = _ascend_3d(K, A.rows(live), u[live], n_grid)
    g = np.maximum(f0, A.support_hom(u) / K.support_hom(u))
    return np.where(np.isnan(decided), g, decided), u


def _point_rows(pts):
    return np.atleast_2d(np.asarray(pts, dtype=float))


def _inside(g):
    """Membership from gauges: points within the tolerance count inside."""
    return g <= 1.0 + MEMBERSHIP_TOL


def _angle_bucket(psi, n):
    """Index of the angle psi in [-pi, pi] among n equal buckets; monotone."""
    with np.errstate(invalid="ignore"):  # NaN angles land anywhere
        b = ((psi + np.pi) * (n / (2.0 * np.pi))).astype(np.intp)
    return np.clip(b, 0, n - 1)


def _quadratic_form(P, Minv):
    """Q(p) = p' M^-1 p for each row p of the 2-column P."""
    t = P @ Minv
    t *= P
    return t[:, 0] + t[:, 1]


def _ellipse_sandwich(U, H, X, D):
    """The 2D membership sandwich (M^-1, s_in^2, s_out^2), or None.

    U holds the uniformly spaced grid normals in angle order, H the support
    values on them, X the boundary points grad H(u_i) and D the chords
    X_{i+1} - X_i, cyclically.  M is the least-squares fit of
    H(u_i)^2 = u_i' M u_i, exact for an ellipse, and Q(q) = q' M^-1 q.
    Both radii are certified for any M, so the fit only sets how many
    points the sandwich decides:

    - s_in^2 is the least Q over the chords X_i X_{i+1}, each minimized in
      closed form with its parameter clamped to [0, 1].  The chord cycle
      winds once around the origin and never enters the open ellipse
      {Q < s_in^2}, which holds the origin; so every point of that ellipse
      has winding number 1, lies in the inner polygon, and so in K.
    - s_out^2 is the largest Q over the outer polygon's vertices V_i, where
      the facets <y, u_i> = H(u_i) and <y, u_{i+1}> = H(u_{i+1}) meet.  A
      point z inside every facet sees V_i within a right angle of the
      bisector of u_i and u_{i+1}, so with equal spacing the vertex cycle
      winds once around z; the cycle lies in the convex {Q <= s_out^2}, so
      z does too, and K lies in the outer polygon.

    Edge half-planes of the chords give no such bound: near-duplicate X_i
    at a vertex make edges whose offsets are rounding noise.  A point with
    Q <= q_in = s_in^2 (1 - SANDWICH_MARGIN) lies strictly inside the inner
    polygon; one with Q > q_out = s_out^2 (1 + MEMBERSHIP_TOL)^2
    (1 + SANDWICH_MARGIN) lies beyond the outer polygon dilated by
    1 + MEMBERSHIP_TOL.  None when the data are not finite, M is not
    positive definite or its condition exceeds SANDWICH_MAX_COND, or the
    chords do not wind once around the origin.
    """
    if not (np.isfinite(H).all() and np.isfinite(X).all()):
        return None
    # H^2 = (m11 + m22) / 2 + (m11 - m22) / 2 cos 2t + m12 sin 2t, and on
    # equally spaced angles t the three terms are orthogonal: each least-
    # squares coefficient is one mean, with no linear solve
    ux, uy = U[:, 0], U[:, 1]
    h2 = H * H
    mean, half = h2.mean(), 2.0 * np.mean(h2 * (ux * ux - uy * uy))
    m11, m12, m22 = mean + half, 4.0 * np.mean(h2 * ux * uy), mean - half
    det = m11 * m22 - m12 * m12
    big = 0.5 * (m11 + m22 + math.hypot(m11 - m22, 2.0 * m12))
    if not (m11 > 0.0 and det > 0.0 and big * big <= SANDWICH_MAX_COND * det):
        return None
    Minv = np.array([[m22, -m12], [-m12, m11]]) / det
    turn = np.arctan2(X[:, 0] * D[:, 1] - X[:, 1] * D[:, 0],
                      np.einsum("ij,ij->i", X, X + D)).sum()
    if not abs(turn - 2.0 * np.pi) < np.pi:
        return None
    QD = _quadratic_form(D, Minv)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -np.einsum("ij,ij->i", X @ Minv, D) / QD
    t = np.clip(np.where(QD > 0.0, t, 0.0), 0.0, 1.0)
    s_in2 = _quadratic_form(X + t[:, None] * D, Minv).min()
    Un, Hn = np.roll(U, -1, axis=0), np.roll(H, -1)
    cross = ux * Un[:, 1] - uy * Un[:, 0]
    V = np.column_stack([H * Un[:, 1] - Hn * uy, ux * Hn - Un[:, 0] * H])
    s_out2 = _quadratic_form(V / cross[:, None], Minv).max()
    if not (s_in2 > 0.0 and np.isfinite(s_out2)):
        return None
    return Minv, s_in2, s_out2


def _sandwich_levels(sandwich):
    """M^-1 and the levels of Q at and below which a point is inside,
    and above which it is outside: s_in^2 (1 - SANDWICH_MARGIN) and
    s_out^2 (1 + MEMBERSHIP_TOL)^2 (1 + SANDWICH_MARGIN)."""
    Minv, s_in2, s_out2 = sandwich
    return (Minv, s_in2 * (1.0 - SANDWICH_MARGIN),
            s_out2 * (1.0 + MEMBERSHIP_TOL) ** 2 * (1.0 + SANDWICH_MARGIN))


def _plus_row_dots(h, V, c):
    """h + <v, c> for each row v of V; h itself when c is zero.  The dot
    products are summed column by column over the nonzero components of c:
    BLAS rounds a row of a stacked matrix-vector product by its place in
    the stack, and a search's rows must not depend on the rows stacked
    with them."""
    d = None
    for j, cj in enumerate(c.tolist()):
        if cj != 0.0:
            t = V[:, j] * cj
            d = t if d is None else d + t
    return h if d is None else h + d


def _sqrt(x):
    """Square root of a float or an array; both are correctly rounded, so
    a stacked entry equals its single-direction value."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _as_arrays(u):
    """The components of u as 1-d arrays, and whether u is one direction.

    numpy's vectorized arctan2 and power can differ from libm's in the
    last bit, so a single direction is evaluated as a stack of one, and
    its value equals the stacked one bit for bit.
    """
    single = not isinstance(u[0], np.ndarray)
    return [np.atleast_1d(c) for c in u], single


# ---------------------------------------------------------------------------
# base class

class ConvexBody:
    """A convex body with the origin in its interior, given by support data.

    A kind defines ``_support_impl`` and ``_gradient_impl`` (vectorized
    over rows) and ``_tangent_block``, each in closed form.
    """

    kind = "abstract"

    def __init__(self, dim):
        if dim not in (2, 3):
            raise ValueError("only dimensions 2 and 3 are supported")
        self.dim = dim
        self._grids = {}
        self._cell_cache = None
        self._sandwich = None

    # -- support ------------------------------------------------------------

    def _support_impl(self, V):
        raise NotImplementedError

    def support_hom(self, V):
        """H(v) = |v| h(v/|v|) for each row v of V."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        return self._support_impl(V)

    def support(self, u):
        """Support function value h(u) for a unit direction u."""
        u = as_direction(u, self.dim)
        return float(self.support_hom(u[None, :])[0])

    # -- derivatives of the homogeneous extension ---------------------------

    def _gradient_impl(self, V):
        raise NotImplementedError

    def gradient_hom(self, V):
        """Gradient of H at each row of V; 0-homogeneous (the boundary point)."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        return self._gradient_impl(V)

    def _tangent_block(self, u, E):
        """Entries of the tangent block R = E' H(u) E: (r11,) in 2D and the
        symmetric (r11, r12, r22) in 3D.

        u is a unit direction and E the columns of an orthonormal basis of
        the plane orthogonal to it, both given by components: each one a
        float, or for a stack of directions an array of equal length.  The
        entries come back in the same type.
        """
        raise NotImplementedError

    # -- gauge (Minkowski functional) ---------------------------------------

    def _sphere_grid(self, n=None):
        """The directions U of ``sphere_directions(dim, n)``, H on them, and
        U / H, pre-divided so a ratio <p, u> / H(u) is one dot product; n
        defaults to the gauge grid's GAUGE_GRID_2D or GAUGE_GRID_3D.  Built
        once per n and read-only: the body's gauges and support-ratio scans
        at that size share it."""
        if n is None:
            n = GAUGE_GRID_2D if self.dim == 2 else GAUGE_GRID_3D
        grid = self._grids.get(n)
        if grid is None:
            U = sphere_directions(self.dim, n)
            h = self.support_hom(U)
            grid = (U, h, U / h[:, None])
            for a in grid:
                a.flags.writeable = False
            self._grids[n] = grid
        return grid

    def _gauge_grid(self):
        """The default ``_sphere_grid``: the normals of the 2D bracket's
        cells and of the 3D coarse scan."""
        return self._sphere_grid()

    def _gauge_cells(self):
        """2D cells: cell i runs from X_i = grad H(u_i) to X_{i+1}, cyclically.

        Returns the polar angles phi of the X_i in increasing order from -pi
        (where several grid normals share a vertex, rounding can make them
        drop by an ulp; they are made non-decreasing), the cells that start
        at them, the columns that ``_gauge_bracket`` reads per cell i, the
        bucket table of ``_gauge_cell``, and what ``_gauge_start`` reads:
        phi with the wrapping cell's ends added on both sides, and the
        slopes of ``_hermite_slopes``.  The columns, each contiguous, are
        the x and y of u_i / H(u_i), of u_{i+1} / H(u_{i+1}), and of W_i,
        the outward normal of the chord X_i X_{i+1} over its offset.  A
        vertex cell has zero width and a NaN W_i; the lookup never picks it.
        The same chords and facets certify the ellipse sandwich of
        ``contains``, built here once and kept as ``_sandwich``
        (``_ellipse_sandwich``: M^-1, s_in^2 and s_out^2, or None).
        """
        if self._cell_cache is None:
            U, h, Uh = self._gauge_grid()
            X = self.gradient_hom(U)
            d = np.roll(X, -1, axis=0) - X
            self._sandwich = _ellipse_sandwich(U, h, X, d)
            phi = np.arctan2(X[:, 1], X[:, 0])
            # start at the first boundary point past the angle pi
            order = np.roll(np.arange(len(U)),
                            -1 - np.argmax(phi - np.roll(phi, -1)))
            phi = np.maximum.accumulate(phi[order])
            # the cell ends' angles, with the wrapping cell's ends on both
            # sides: cell k runs from ends[k + 1] to ends[k + 2]
            ends = np.concatenate([phi[-1:] - 2.0 * np.pi, phi,
                                   phi[:1] + 2.0 * np.pi])
            nrm = np.column_stack([d[:, 1], -d[:, 0]])
            with np.errstate(divide="ignore", invalid="ignore"):
                W = nrm / np.einsum("ij,ij->i", nrm, X)[:, None]
            # four buckets per cell; per bucket: the last angle in an earlier
            # bucket, the angle after it, and whether it holds two or more
            nb = 4 * len(U)
            bucket = _angle_bucket(phi, nb)
            start = np.searchsorted(bucket, np.arange(nb)) - 1
            table = (start, np.append(phi, np.inf)[start + 1],
                     np.bincount(bucket, minlength=nb) > 1)
            ux, uy = np.ascontiguousarray(Uh.T)
            wx, wy = np.ascontiguousarray(W.T)
            cols = (ux, uy, np.roll(ux, -1), np.roll(uy, -1), wx, wy)
            hermite = (ends,) + self._hermite_slopes(U, h, X, order, ends)
            self._cell_cache = (ends[1:-1], order, cols, table, hermite)
        return self._cell_cache

    def _hermite_slopes(self, U, h, X, order, ends):
        """Per cell, in angle order, the end slopes of the normal angle
        theta against the polar angle phi over the cell's secant slope,
        (alpha, beta), NaN where the cell fails the Fritsch-Carlson test.

        The boundary point X(theta) = h u + h' u_perp moves by rho u_perp,
        rho = h + h'' the radius of curvature, so dphi/dtheta is
        rho <X, u> / |X|^2 = rho h / |X|^2.  A cubic Hermite interpolant of
        theta(phi) with alpha, beta >= 0 and alpha^2 + beta^2 <= 9 is
        monotone on its cell (Fritsch and Carlson, SIAM J. Numer. Anal. 17,
        1980); cells at vertices (rho = 0) and at the tips of eccentric
        bodies fail it, and ``_gauge_start`` keeps the grid normal there.
        """
        x, y = np.ascontiguousarray(U.T)
        (rho,) = self._tangent_block((x, y), ((-y, x),))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = (np.einsum("ij,ij->i", X, X) / (rho * h))[order]
            # each cell's width in phi over its width in theta
            width = np.diff(ends[1:]) / _grid_spacing(2, len(U))
            alpha, beta = slope * width, np.roll(slope, -1) * width
            ok = (alpha >= 0.0) & (beta >= 0.0) & \
                (alpha * alpha + beta * beta <= 9.0)
        alpha[~ok] = beta[~ok] = np.nan
        return alpha, beta

    def _gauge_cell(self, x, y):
        """2D cell of each point (x, y), and its polar angle psi: the last
        k with phi[k] <= psi, the index searchsorted finds; the cell is
        order[k].

        Angles in earlier buckets are below psi and those in later buckets
        above it, so where psi's bucket holds at most one angle a single
        comparison finds k.  Crowded buckets, at vertices and at the tips
        of eccentric bodies, fall back to searchsorted.  k = -1 (psi below
        phi[0]) is the last cell, which wraps past the angle pi.
        """
        phi, _, _, (start, after, crowded), _ = self._gauge_cells()
        psi = np.arctan2(y, x)
        b = _angle_bucket(psi, len(start))
        k = start[b] + (after[b] <= psi)
        c = np.flatnonzero(crowded[b])
        k[c] = np.searchsorted(phi, psi[c], side="right") - 1
        return k, psi

    def gauge_many(self, pts):
        """Gauge values inf{t > 0 : v in tK} for each row of pts, exact:
        every row is refined from its grid bound (``_gauge_bounds``)."""
        return self._gauge_exact(_point_rows(pts))[0]

    def _gauge_bounds(self, pts):
        """Lower bound of each row's gauge, the grid index of its normal,
        and whether the row is open: whether a membership test refines it.
        In 2D the point's grid cell bounds the gauge from both sides
        (``_gauge_bracket``), and a row is open when the bounds do not decide
        gauge <= 1 + MEMBERSHIP_TOL; in 3D the coarse scan gives the bound,
        and a row is open within GAUGE_REFINE_MARGIN of 1."""
        if self.dim == 2:
            g, idx, hi = self._gauge_bracket(pts)
            # a NaN upper bound decides nothing
            return g, idx, (g <= 1.0 + MEMBERSHIP_TOL) & \
                ~(hi <= 1.0 + MEMBERSHIP_TOL)
        g, idx = self._gauge_coarse(pts)
        return g, idx, np.abs(g - 1.0) < GAUGE_REFINE_MARGIN

    def _gauge_bracket(self, pts):
        """Certified bounds lo <= gauge <= hi of 2D points, from one cell each.

        The angle of p finds its cell i.  The outer polygon
        {y : <u_j, y> <= H(u_j)} contains K, and the ray through p leaves it
        through facet i or i+1, whose ratios <p, u_j> / H(u_j) give its
        gauge: that is lo, the full scan's maximum.  The chord X_i X_{i+1}
        lies in K, so its gauge is hi.  The maximizing normal lies between
        u_i and u_{i+1}; idx is the grid index of the better one.  Every
        kind's X_i are closed forms, so hi holds to rounding.
        """
        _, order, (ux, uy, vx, vy, wx, wy), _, _ = self._gauge_cells()
        x, y = pts[:, 0], pts[:, 1]
        i = order[self._gauge_cell(x, y)[0]]
        gi = x * ux.take(i) + y * uy.take(i)
        gj = x * vx.take(i) + y * vy.take(i)
        idx = i + (gj > gi)
        idx[idx == len(ux)] = 0
        return np.maximum(gi, gj), idx, x * wx.take(i) + y * wy.take(i)

    def _gauge_coarse(self, pts):
        """Largest 3D grid ratio <p, u> / H(u) per row, and its grid index.

        Rows are scanned in blocks of about GAUGE_BLOCK_RATIOS ratios (32
        rows of the grid), so each block's ratio matrix stays near 1 MB and
        is still in cache when argmax reads it back.  The inner dimension
        is 3, so every row's ratios, and with them g and idx, do not depend
        on the block size.
        """
        U, h, Uh = self._gauge_grid()
        block = GAUGE_BLOCK_RATIOS // len(U)
        g = np.empty(len(pts))
        idx = np.empty(len(pts), dtype=np.intp)
        rows = np.arange(block)
        for a in range(0, len(pts), block):
            b = min(a + block, len(pts))
            ratios = pts[a:b] @ Uh.T
            idx[a:b] = np.argmax(ratios, axis=1)
            g[a:b] = ratios[rows[:b - a], idx[a:b]]
        return g, idx

    def _gauge_refine(self, pts, idx, g0):
        """Gauges of the rows of pts, refined from their grid bounds g0 with
        grid normals idx until they decide membership, and their
        directions: ``contains`` refines the rows its bounds leave open, each
        on its own.  3D converges each row.  In 2D a row stops once certified
        bounds decide gauge <= 1 + MEMBERSHIP_TOL, and its value is the
        deciding bound, so ``_inside`` reads the converged verdict."""
        level = 1.0 + MEMBERSHIP_TOL if self.dim == 2 else None
        return _support_ratio_search(self, SupportRows(pts),
                                     self._gauge_start(pts, idx), g0,
                                     len(self._gauge_grid()[0]), level)

    def _gauge_exact(self, pts):
        """Exact gauges of the rows of pts and their maximizing directions:
        each row is converged from its grid bound."""
        g0, idx, _ = self._gauge_bounds(pts)
        return support_ratio_max(self, SupportRows(pts),
                                 self._gauge_start(pts, idx), g0,
                                 len(self._gauge_grid()[0]))

    def _gauge_start(self, pts, idx):
        """Where the sphere search for the gauges of the rows of pts starts,
        given their grid normals idx.

        In 2D a row whose cell passes the Fritsch-Carlson test starts at
        the Hermite interpolant of theta(phi) at its polar angle psi, from
        the cell's end angles and slopes (``_hermite_slopes``), where that
        value lies in the cell: within O(D^4) of the maximizing normal, D
        the grid spacing.  Every other row, and every 3D row, starts at its
        grid normal.
        """
        U = self._gauge_grid()[0]
        if self.dim == 3:
            return U[idx]
        _, order, _, _, (ends, alpha, beta) = self._gauge_cells()
        k, psi = self._gauge_cell(pts[:, 0], pts[:, 1])
        # t in [0, 1] across the cell, and s the interpolant's share of the
        # cell's normal angles; a rejected cell's NaN slopes, and a NaN
        # psi, fail the test s in [0, 1] silently
        a = ends[k + 1]
        t = (psi - a) / (ends[k + 2] - a)
        r = 1.0 - t
        s = t * (t * (3.0 - 2.0 * t) + r * (alpha[k] * r - beta[k] * t))
        hermite = _unit_circle(_grid_spacing(2, len(U)) * (order[k] + 0.5 + s))
        return np.where(((s >= 0.0) & (s <= 1.0))[:, None], hermite, U[idx])

    def gauge_argmax_many(self, pts):
        """Gauges of the rows of pts and their maximizing directions, the
        outward normals at pts / gauge: one sphere search for every row.
        Each row's values are those of the row alone, bit for bit; a kind
        with a closed gauge answers in closed form."""
        return self._gauge_exact(_point_rows(pts))

    def gauge_argmax(self, v):
        """Gauge of a single vector together with the maximizing direction:
        row 0 of ``gauge_argmax_many``."""
        g, u = self.gauge_argmax_many(np.asarray(v, dtype=float)[None, :])
        return float(g[0]), u[0]

    def contains(self, pts):
        """Membership test; points within the gauge tolerance count inside.
        Bounds (``_membership_bounds``), then one sphere search for the
        rows they leave open (``_gauge_refine``); each row is decided on
        its own, so stacked point sets get the stacked verdicts."""
        p = _point_rows(pts)
        inside, m, idx, g = self._membership_bounds(p)
        if len(m):
            inside[m] = _inside(self._gauge_refine(p[m], idx, g)[0])
        return inside

    def _sweep_sandwich(self):
        """The ellipse sandwich (M^-1, s_in^2, s_out^2) of ``_gauge_cells``
        when certified bounds decide this body's membership, else None.
        They do for a 2D body without a closed gauge: its bracket holds to
        rounding and its search converges, or stops on certified bounds, so
        every point whose gauge is 1e-7 or more from 1 + MEMBERSHIP_TOL gets
        its true verdict.  A copy sweep may then decide such points by the
        sandwich alone (``measure._CopySweep``)."""
        if self.dim != 2:
            return None
        self._gauge_cells()  # builds the sandwich with the cells
        return self._sandwich

    def _membership_bounds(self, p):
        """Verdicts of the rows of p by bounds alone, the rows they leave
        open, and those rows' grid indices and lower bounds.  In 2D the
        ellipse sandwich of ``_gauge_cells`` decides the rows well inside or
        outside it, and only the rows between reach ``_gauge_bounds``; a
        row the sandwich decides is one the bracket decides the same way, so
        the verdicts and open rows are the bracket's bit for bit."""
        sandwich = None
        if self.dim == 2:
            self._gauge_cells()  # builds the sandwich with the cells
            sandwich = self._sandwich
        if sandwich is None:
            g, idx, m = self._gauge_bounds(p)
            m = np.flatnonzero(m)
            return _inside(g), m, idx[m], g[m]
        Minv, q_in, q_out = _sandwich_levels(sandwich)
        with np.errstate(invalid="ignore"):  # inf - inf in a row's Q
            Q = _quadratic_form(p, Minv)
        inside = Q <= q_in
        # a NaN row is outside, as its NaN bracket says
        rest = np.flatnonzero((Q > q_in) & (Q <= q_out))
        g, idx, m = self._gauge_bounds(p.take(rest, axis=0))
        inside[rest] = _inside(g)
        m = np.flatnonzero(m)
        return inside, rest[m], idx[m], g[m]

    def __repr__(self):
        return f"{self.__class__.__name__}(dim={self.dim})"


# ---------------------------------------------------------------------------
# concrete kinds

class _ClosedGauge(ConvexBody):
    """A kind whose gauge has a closed form, ``_closed_gauge(pts)``: nothing
    is bounded or refined, and ``contains`` reads the gauge."""

    def gauge_many(self, pts):
        return self._closed_gauge(_point_rows(pts))

    def contains(self, pts):
        return _inside(self.gauge_many(pts))

    def _sweep_sandwich(self):
        # a closed gauge carries no bound of its rounding: an offset
        # quadric's can cancel where the origin is near its boundary
        return None


class Ball(_ClosedGauge):
    kind = "ball"

    def __init__(self, radius, center=None, dim=2):
        if center is not None:
            center = np.asarray(center, dtype=float)
            dim = center.shape[0]
        else:
            center = np.zeros(dim)
        super().__init__(dim)
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(
                f"radius must be positive and finite, not {radius}")
        self.radius = float(radius)
        self.center = center
        self._quadric = _OffsetQuadric(self.kind,
                                       np.eye(dim) / self.radius ** 2, center)

    def _support_impl(self, V):
        return _plus_row_dots(self.radius * np.linalg.norm(V, axis=1), V,
                              self.center)

    def _gradient_impl(self, V):
        return self.radius * V / np.linalg.norm(V, axis=1, keepdims=True) + self.center

    def _tangent_block(self, u, E):
        r = self.radius
        return (r,) if self.dim == 2 else (r, 0.0, r)

    def _closed_gauge(self, pts):
        return self._quadric.gauge(pts)

    def gauge_argmax_many(self, pts):
        return self._quadric.argmax(_point_rows(pts))


class _OffsetQuadric:
    """{y : (y-c)' Qinv (y-c) <= 1} with the origin strictly interior: its
    exact gauge about the origin and its outward normals.  The margin
    a = 1 - c' Qinv c and Qinv c do not depend on the point, so they are
    built once."""

    def __init__(self, kind, Qinv, c):
        # the margin the gauge divides by decides in closed form that the
        # origin is strictly interior: c.c < r^2 for a ball, c' Q^-1 c < 1
        # for an ellipsoid.  A non-finite center raises too.
        if c.shape != (len(Qinv),) or not np.isfinite(c).all():
            raise ValueError(
                f"{kind}: center must be a finite {len(Qinv)}-vector")
        a = 1.0 - c @ Qinv @ c
        if not a > 0.0:
            raise ValueError(f"{kind}: origin must be strictly interior "
                             f"(1 - c' Q^-1 c = {a:.3e})")
        self.Qinv, self.c, self.a, self.Qc = Qinv, c, a, Qinv @ c

    def gauge(self, pts):
        """Exact gauges of the rows of pts, each its one-row value: the
        stacked pts @ Qinv rounds a row as the row alone, and p.Qinv c is
        summed column by column (``_plus_row_dots``)."""
        a = self.a
        b = _plus_row_dots(0.0, pts, self.Qc)
        q = np.einsum("ij,ij->i", pts @ self.Qinv, pts)
        # (-b + sqrt(b * b + a * q)) / a, in place: products and sums
        # commute and -b + s is s - b, so every rounding is the plain
        # expression's
        q *= a
        q += b * b
        np.sqrt(q, out=q)
        q -= b
        q /= a
        return q

    def argmax(self, pts):
        """Gauges of the rows of pts and the outward normals Qinv (y - c)
        at y = p / gauge, each row's products taken on its own."""
        g = self.gauge(pts)
        n = np.matmul(self.Qinv, (pts / g[:, None] - self.c)[:, :, None])
        return g, _unit_rows(n[:, :, 0])


def _unit_rows(n):
    """The rows of n over their lengths, each length the norm of the row
    alone: a stacked matrix product of each row with itself is one BLAS
    dot product per row, as ``np.linalg.norm`` of the row takes it."""
    return n / np.sqrt(np.matmul(n[:, None, :], n[:, :, None]))[:, 0]


class Ellipsoid(_ClosedGauge):
    """Ellipsoid {y : (y-c)' Q^{-1} (y-c) <= 1} with Q symmetric positive definite.

    The support function is h(u) = sqrt(u' Q u) + c . u.
    """

    kind = "ellipsoid"

    def __init__(self, Q, center=None):
        Q = np.asarray(Q, dtype=float)
        dim = Q.shape[0]
        if Q.shape != (dim, dim) or not np.isfinite(Q).all():
            raise ValueError("Q must be a finite square matrix")
        # np.allclose(Q, Q.T, atol=1e-12) on finite entries, in one
        # expression: |Q - Q'| <= 1e-12 + 1e-5 |Q'| entry by entry
        if not (np.abs(Q - Q.T) <= 1e-12 + 1e-5 * np.abs(Q.T)).all():
            raise ValueError("Q must be a symmetric matrix")
        # the tangent block reads only the upper triangle, the support
        # function all of Q: both see its symmetric part
        Q = 0.5 * (Q + Q.T)
        w = np.linalg.eigvalsh(Q)
        if np.min(w) <= 0:
            raise ValueError("Q must be positive definite")
        super().__init__(dim)
        self.Q = Q
        self.Qinv = np.linalg.inv(Q)
        rows = Q.tolist()
        self._Q_upper = tuple(rows[i][j] for i in range(dim)
                              for j in range(i, dim))
        self.center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
        self._quadric = _OffsetQuadric(self.kind, self.Qinv, self.center)

    @classmethod
    def from_semiaxes(cls, *axes, center=None):
        return cls(np.diag(np.asarray(axes, dtype=float) ** 2), center=center)

    def _support_impl(self, V):
        s = np.sqrt(np.einsum("ij,ij->i", V @ self.Q, V))
        return _plus_row_dots(s, V, self.center)

    def _gradient_impl(self, V):
        QV = V @ self.Q
        s = np.sqrt(np.einsum("ij,ij->i", QV, V))
        return QV / s[:, None] + self.center

    def _tangent_block(self, u, E):
        # E' (Q/s - Qu u'Q/s^3) E with s^2 = u'Qu, from the upper triangle
        # of Q; in 2D the one entry is det Q / s^3, because
        # e'Qe u'Qu - (e'Qu)^2 = det Q det[u e]^2 and det[u e] = +-1
        if self.dim == 2:
            a, b, d = self._Q_upper
            x, y = u
            s2 = a * x * x + 2.0 * b * x * y + d * y * y
            return ((a * d - b * b) / (s2 * _sqrt(s2)),)
        a, b, c, d, e, f = self._Q_upper
        x, y, z = u
        (x1, y1, z1), (x2, y2, z2) = E
        # Qu against u, e1, e2; then Qe1 against e1, e2; then Qe2 against e2
        qx = a * x + b * y + c * z
        qy = b * x + d * y + e * z
        qz = c * x + e * y + f * z
        s2 = x * qx + y * qy + z * qz
        p1 = x1 * qx + y1 * qy + z1 * qz
        p2 = x2 * qx + y2 * qy + z2 * qz
        qx = a * x1 + b * y1 + c * z1
        qy = b * x1 + d * y1 + e * z1
        qz = c * x1 + e * y1 + f * z1
        r11 = x1 * qx + y1 * qy + z1 * qz
        r12 = x2 * qx + y2 * qy + z2 * qz
        qx = a * x2 + b * y2 + c * z2
        qy = b * x2 + d * y2 + e * z2
        qz = c * x2 + e * y2 + f * z2
        r22 = x2 * qx + y2 * qy + z2 * qz
        s3 = s2 * _sqrt(s2)
        return ((r11 * s2 - p1 * p1) / s3, (r12 * s2 - p1 * p2) / s3,
                (r22 * s2 - p2 * p2) / s3)

    def _closed_gauge(self, pts):
        return self._quadric.gauge(pts)

    def gauge_argmax_many(self, pts):
        return self._quadric.argmax(_point_rows(pts))


class _Theta2DBody(ConvexBody):
    """2D bodies defined by an angular support profile h(theta); a kind
    defines ``_profile(t, n)``, h and its first n - 1 derivatives at t."""

    def __init__(self):
        super().__init__(2)

    def _support_impl(self, V):
        t = np.arctan2(V[:, 1], V[:, 0])
        (h,) = self._profile(t, 1)
        return np.linalg.norm(V, axis=1) * h

    def _gradient_impl(self, V):
        t = np.arctan2(V[:, 1], V[:, 0])
        h, dh = self._profile(t, 2)
        r = np.linalg.norm(V, axis=1, keepdims=True)
        u = V / r
        uperp = np.column_stack([-u[:, 1], u[:, 0]])
        return h[:, None] * u + dh[:, None] * uperp

    def _tangent_block(self, u, E):
        # the radius of curvature h + h''
        (x, y), single = _as_arrays(u)
        h, _, d2h = self._profile(np.arctan2(y, x), 3)
        r = h + d2h
        return (float(r[0]) if single else r,)


def _trig_lower_bound(a, b, n=4096):
    """Certified lower bound, over every angle, of the trigonometric
    polynomial P(t) = sum_k a_k cos kt + b_k sin kt, from n samples D apart.

    At a minimizer t*, P'(t*) = 0 and a sample lies within D / 2, so
    P(t*) >= min(samples) - max|P''| D^2 / 8, and |P''| <= sum k^2 amp_k
    with amp_k = |(a_k, b_k)|.  The last term bounds the rounding of the
    samples: 6 pi k eps in each angle k t, 4 ulps in each cosine and sine,
    and len(a) eps in the sum.  A NaN or infinite coefficient gives no bound.
    """
    k = np.arange(len(a))
    kt = np.multiply.outer(k, 2.0 * np.pi * np.arange(n) / n)
    amp = np.hypot(a, b)
    d = 2.0 * np.pi / n
    return np.min(a @ np.cos(kt) + b @ np.sin(kt)) - \
        np.sum(k * k * amp) * d * d / 8.0 - \
        np.finfo(float).eps * np.sum((8.0 + 32.0 * k + 2.0 * len(k)) * amp)


class FourierBody2D(_Theta2DBody):
    """2D body with support h(theta) = sum a_k cos(k theta) + b_k sin(k theta)."""

    kind = "fourier"

    def __init__(self, cos_coeffs, sin_coeffs=None):
        super().__init__()
        self.a = np.asarray(cos_coeffs, dtype=float)
        self.b = (np.zeros_like(self.a) if sin_coeffs is None
                  else np.asarray(sin_coeffs, dtype=float))
        if self.b.shape != self.a.shape:
            raise ValueError("cosine and sine coefficient lists must have equal length")
        # h and the radius of curvature h + h'' are trigonometric polynomials
        # with coefficients (a_k, b_k) and (1 - k^2) (a_k, b_k)
        if not _trig_lower_bound(self.a, self.b) > 0.0:  # NaN fails too
            raise ValueError(f"{self.kind}: support function is not strictly "
                             "positive (origin must be strictly interior)")
        c = 1.0 - np.arange(len(self.a)) ** 2.0
        if not _trig_lower_bound(c * self.a, c * self.b) > 0.0:
            raise ValueError("fourier coefficients produce a non-convex profile "
                             "(h + h'' <= 0 somewhere)")
        # the coefficients of h, h' and h'', built once
        self._k = k = np.arange(len(self.a))
        self._weights = ((self.a, self.b), (k * self.b, -k * self.a),
                         (-k * k * self.a, -k * k * self.b))

    def _trig(self, t):
        """cos(k t) and sin(k t) for every k, stacked along a first axis."""
        kt = np.multiply.outer(self._k, np.asarray(t, dtype=float))
        return np.cos(kt), np.sin(kt)

    def _series(self, trig, deriv):
        cos, sin = trig
        wc, ws = self._weights[deriv]
        w = (-1,) + (1,) * (cos.ndim - 1)
        terms = cos * wc.reshape(w) + sin * ws.reshape(w)
        # added term by term: each angle's value is then the same however
        # many angles are evaluated with it, which a matrix product's
        # blocking does not guarantee
        total = terms[0].copy()
        for term in terms[1:]:
            total += term
        return total

    def _profile(self, t, n):
        # one cos(k t) and sin(k t) for all n terms
        trig = self._trig(t)
        return tuple(self._series(trig, d) for d in range(n))


class Superellipse2D(_ClosedGauge):
    """Unit ball of the p-norm in the plane, p > 2.

    The support function is the dual-norm closed form
    h(u) = (|u1|^q + |u2|^q)^(1/q) with q = p/(p-1).  The boundary is flat
    at the axis directions, where curvature data degenerates.
    """

    kind = "superellipse"

    def __init__(self, exponent):
        super().__init__(2)
        exponent = float(exponent)
        # the unit ball of a p-norm holds the origin strictly inside
        if not (math.isfinite(exponent) and exponent > 2.0):
            raise ValueError(f"exponent must be finite and exceed 2, "
                             f"not {exponent}")
        self.p = exponent
        self.q = self.p / (self.p - 1.0)

    def _support_impl(self, V):
        q = self.q
        return (np.abs(V[:, 0]) ** q + np.abs(V[:, 1]) ** q) ** (1.0 / q)

    def _gradient_impl(self, V):
        q = self.q
        phi = np.abs(V) ** q
        s = phi.sum(axis=1)
        psi = np.sign(V) * np.abs(V) ** (q - 1.0)
        return psi * (s ** (1.0 / q - 1.0))[:, None]

    def _tangent_block(self, u, E):
        # radius of curvature (q-1) |xy|^(q-2) (|x|^q + |y|^q)^(1/q-2) at a
        # unit u = (x, y); infinite on the axes, where the boundary is flat
        q = self.q
        (x, y), single = _as_arrays(u)
        x, y = np.abs(x), np.abs(y)
        with np.errstate(divide="ignore", over="ignore"):
            r = (q - 1.0) * (x * y) ** (q - 2.0) * \
                (x ** q + y ** q) ** (1.0 / q - 2.0)
        return (float(r[0]) if single else r,)

    def _closed_gauge(self, pts):
        return (np.abs(pts[:, 0]) ** self.p +
                np.abs(pts[:, 1]) ** self.p) ** (1.0 / self.p)

    def gauge_argmax_many(self, pts):
        pts = _point_rows(pts)
        n = np.sign(pts) * np.abs(pts) ** (self.p - 1.0)
        return self._closed_gauge(pts), _unit_rows(n)


class ReuleauxTriangle2D(_ClosedGauge, _Theta2DBody):
    """Reuleaux triangle of constant width w, centroid at the origin.

    Intersection of the three disks of radius w centered at the vertices.
    The support function is piecewise: v_i . u + w on the arc sector
    opposite vertex v_i, v_j . u on the sector supported at vertex v_j;
    sector boundaries match continuously.
    """

    kind = "reuleaux"

    def __init__(self, width=1.0):
        super().__init__()
        width = float(width)
        # centred at its centroid, which is strictly inside
        if not (math.isfinite(width) and width > 0.0):
            raise ValueError(f"width must be positive and finite, not {width}")
        self.width = width
        rho = width / np.sqrt(3.0)
        self.vertex_angles = np.array([np.pi / 2.0,
                                       np.pi / 2.0 + 2.0 * np.pi / 3.0,
                                       np.pi / 2.0 + 4.0 * np.pi / 3.0])
        self.vertices = rho * _unit_circle(self.vertex_angles)
        Qinv = np.eye(2) / width ** 2
        self._disks = [_OffsetQuadric(self.kind, Qinv, v)
                       for v in self.vertices]

    def _sector(self, t):
        """Index of the governing vertex and whether t is in its arc sector."""
        arc = np.full(t.shape, -1, dtype=np.intp)
        vert = np.full(t.shape, -1, dtype=np.intp)
        for i, a in enumerate(self.vertex_angles):
            d_arc = np.abs((t - (a + np.pi) + np.pi) % (2 * np.pi) - np.pi)
            d_vert = np.abs((t - a + np.pi) % (2 * np.pi) - np.pi)
            arc[d_arc <= np.pi / 6.0 + 1e-15] = i
            vert[d_vert <= np.pi / 6.0 + 1e-15] = i
        return arc, vert

    def _profile(self, t, n):
        # one sector lookup for all n terms
        t = np.asarray(t, dtype=float)
        arc, vert = self._sector(t)
        u = _unit_circle(t)
        h = np.empty(t.shape)
        m = arc >= 0
        h[m] = np.einsum("ij,ij->i", u[m], self.vertices[arc[m]]) + self.width
        m = ~m
        h[m] = np.einsum("ij,ij->i", u[m], self.vertices[vert[m]])
        if n == 1:
            return (h,)
        V = self.vertices[np.where(arc >= 0, arc, vert)]
        dh = np.einsum("ij,ij->i", _unit_circle(t + np.pi / 2.0), V)
        if n == 2:
            return h, dh
        # radius of curvature h + h'' is w on arcs, 0 at vertex sectors
        return h, dh, -np.einsum("ij,ij->i", u, V)

    def _disk_gauges(self, pts):
        """Gauges of the rows of pts in each of the three disks."""
        return [disk.gauge(pts) for disk in self._disks]

    def _closed_gauge(self, pts):
        # gauge of an intersection is the max of the member gauges
        return np.max(self._disk_gauges(pts), axis=0)

    def gauge_argmax_many(self, pts):
        # the disk with the largest gauge sets it, and its normal at p / g
        pts = _point_rows(pts)
        disk = np.argmax(self._disk_gauges(pts), axis=0)
        g, n = np.empty(len(pts)), np.empty(pts.shape)
        for i, quadric in enumerate(self._disks):
            rows = np.flatnonzero(disk == i)
            g[rows], n[rows] = quadric.argmax(pts[rows])
        return g, n


# ---------------------------------------------------------------------------
# combinators: they evaluate their parts through ``_support_impl`` and
# ``_gradient_impl``, as V reaches them validated

def _block_sum(A, B):
    """Entries of the tangent block of a Minkowski sum: R_A + R_B."""
    return tuple(map(operator.add, A, B))


class MinkowskiSum(ConvexBody):
    kind = "minkowski_sum"

    def __init__(self, left, right):
        if left.dim != right.dim:
            raise ValueError("summands must share a dimension")
        super().__init__(left.dim)
        self.left = left
        self.right = right
        # positivity is inherited: the support functions add

    def _support_impl(self, V):
        return self.left._support_impl(V) + self.right._support_impl(V)

    def _gradient_impl(self, V):
        return self.left._gradient_impl(V) + self.right._gradient_impl(V)

    def _tangent_block(self, u, E):
        return _block_sum(self.left._tangent_block(u, E),
                          self.right._tangent_block(u, E))


class Dilate(ConvexBody):
    """sK = {s y : y in K} for a finite s != 0; s = -1 is the reflection -K.
    With e = sign(s), H(v) = |s| H_K(e v), and the tangent block at u is
    |s| R_K(e u) in the same frame; gauges are those of p / s.  Multiplying
    by 1 is exact, so every value equals a plain scaling (s > 0) or sign
    flip (s = -1) bit for bit."""

    kind = "dilate"

    def __init__(self, body, factor):
        super().__init__(body.dim)
        factor = float(factor)
        if not (math.isfinite(factor) and factor != 0.0):
            raise ValueError("dilation factor must be finite and nonzero, "
                             f"not {factor}")
        self.body = body
        self.factor = factor
        self._scale, self._sign = abs(factor), math.copysign(1.0, factor)

    def _support_impl(self, V):
        return self._scale * self.body._support_impl(self._sign * V)

    def _gradient_impl(self, V):
        return self.factor * self.body._gradient_impl(self._sign * V)

    def _tangent_block(self, u, E):
        # the per-direction checks call this once per u: the exact factors
        # 1 and -1 are skipped or taken as a sign flip, not multiplied
        if self._sign < 0.0:
            u = tuple(map(operator.neg, u))
        R = self.body._tangent_block(u, E)
        return R if self._scale == 1.0 else tuple(self._scale * r for r in R)

    def gauge_many(self, pts):
        return self.body.gauge_many(np.asarray(pts, dtype=float) / self.factor)

    def contains(self, pts):
        return self.body.contains(_point_rows(pts) / self.factor)

    def _sweep_sandwich(self):
        # membership is the body's, so it is certified when the body's is;
        # this body's own sandwich then bounds its shape
        if self.body._sweep_sandwich() is None:
            return None
        return super()._sweep_sandwich()

    def gauge_argmax_many(self, pts):
        g, u = self.body.gauge_argmax_many(_point_rows(pts) / self.factor)
        return g, self._sign * u


class Translate(ConvexBody):
    """K + v.  The origin is strictly interior exactly when -v is strictly
    inside K, that is when K's exact gauge of -v is below 1."""

    kind = "translate"

    def __init__(self, body, vector):
        super().__init__(body.dim)
        v = np.asarray(vector, dtype=float)
        if v.shape != (body.dim,) or not np.isfinite(v).all():
            raise ValueError(f"{self.kind}: vector must be a finite "
                             f"{body.dim}-vector")
        g = float(body.gauge_many(-v)[0])
        if not g < 1.0:  # a NaN gauge fails too
            raise ValueError(f"{self.kind}: origin must be strictly interior "
                             f"(gauge of -v = {g:.6g})")
        self.body = body
        self.vector = v

    def _support_impl(self, V):
        return _plus_row_dots(self.body._support_impl(V), V, self.vector)

    def _gradient_impl(self, V):
        return self.body._gradient_impl(V) + self.vector

    def _tangent_block(self, u, E):
        return self.body._tangent_block(u, E)


def difference_body(G):
    """The centrally symmetric difference body G + (-G)."""
    return MinkowskiSum(G, Dilate(G, -1.0))


def _is_difference_body(K, G):
    """Whether K is ``difference_body(G)``: its tangent block at u is then
    G's at u plus G's at -u, entry by entry."""
    return type(K) is MinkowskiSum and type(K.right) is Dilate and \
        K.left is G and K.right.body is G and K.right.factor == -1.0


# ---------------------------------------------------------------------------
# curvature

class CurvatureData:
    """Tangent frame, reverse Weingarten matrix, shape operator and kappa.

    From ``curvature`` each field is one direction's; from
    ``curvature_many`` each is a stack with one direction per row.
    """

    def __init__(self, u, frame, R, S, kappa):
        self.u = u
        self.frame = frame
        self.R = R
        self.S = S
        self.kappa = kappa

    def __repr__(self):
        return f"CurvatureData(u={self.u}, kappa={self.kappa})"


# ``curvature_many``'s algebra on the entries of a stack of tangent blocks,
# (r11,) or (r11, r12, r22), each an array.  For a single direction the
# scalar ``_curvature`` fuses the same arithmetic and comparisons into one
# routine; TestCurvatureMany::test_rows_equal_curvature_bit_for_bit pins
# the two paths to each other.

def _det(R):
    return R[0] if len(R) == 1 else R[0] * R[2] - R[1] * R[1]


def _inverse(R, det_r):
    """Entries of S = R^-1, by the adjugate."""
    if len(R) == 1:
        return (1.0 / R[0],)
    r11, r12, r22 = R
    return (r22 / det_r, -r12 / det_r, r11 / det_r)


def _degenerate(R, det_r):
    """det R < 1e-12 max(1, |r_ij|)^(N-1): a flat or infinitely curved point.

    Rounding is monotone, so det R is below 1e-12 times the power of the
    largest entry exactly when it is below that product for some entry,
    so the entries are tested one by one, each over the whole stack.
    """
    flat, one = det_r < 1e-12, len(R) == 1
    for r in R:
        a = abs(r)
        flat = flat | (det_r < 1e-12 * (a if one else a * a))
    return flat


def _block_matrix(R):
    """The symmetric matrix with entries R, or the stack of them."""
    M = np.array([[R[0]]] if len(R) == 1 else [[R[0], R[1]], [R[1], R[2]]])
    return M if M.ndim == 2 else np.moveaxis(M, -1, 0)


def _curvature(R, u):
    """Entries of R and S = R^-1, and kappa = det S, from the entries R of
    a tangent block at the direction u (a tuple of floats).  Raises
    SingularCurvature where the data is degenerate (see ``curvature``).

    The finiteness test, det R, the comparisons of ``_degenerate`` in its
    order and the adjugate of ``_inverse``, written out on floats; r * r
    is |r| * |r| bit for bit, as the sign does not enter a product's
    magnitude.
    """
    if len(R) == 1:
        (r11,) = R
        if not math.isfinite(r11):
            raise _singular(u)
        if r11 < 1e-12 or r11 < 1e-12 * abs(r11):
            raise _singular(u, r11)
        return R, (1.0 / r11,), 1.0 / r11
    r11, r12, r22 = R
    if not (math.isfinite(r11) and math.isfinite(r12) and math.isfinite(r22)):
        raise _singular(u)
    det_r = r11 * r22 - r12 * r12
    if det_r < 1e-12 or det_r < 1e-12 * (r11 * r11) or \
            det_r < 1e-12 * (r12 * r12) or det_r < 1e-12 * (r22 * r22):
        raise _singular(u, det_r)
    return R, (r22 / det_r, -r12 / det_r, r11 / det_r), 1.0 / det_r


def _singular(u, det_r=None):
    """``_curvature``'s error at u: non-finite data, or else det R."""
    if det_r is None:
        return SingularCurvature(f"support Hessian not finite at u={u}",
                                 direction=np.array(u))
    return SingularCurvature(
        f"degenerate reverse Weingarten matrix at u={u} (det R = {det_r:.3e})",
        direction=np.array(u))


def _direction_frame(u, dim, frame):
    """The validated u and the columns of its frame: the memoized
    ``tangent_frame`` when frame is None, else the caller's, checked."""
    if frame is None:
        return _direction(u, dim)
    u = _unit(u, dim)
    return u, _frame_columns(frame, u)


def reverse_weingarten(body, u, frame=None):
    """Reverse Weingarten matrix of the body at the unit direction u.

    The frame's columns must be an orthonormal basis of the hyperplane
    orthogonal to u (the frame of -u is allowed, which lets antipodal
    curvatures share a basis); any other frame raises ValueError.
    """
    u, E = _direction_frame(u, body.dim, frame)
    return _block_matrix(body._tangent_block(u, E)), _frame_matrix(E)


def curvature(body, u, frame=None):
    """Curvature data (R, S = R^-1, kappa = det S) of the body at u.

    Raises SingularCurvature when the data is degenerate: a flat point
    (det R effectively zero), an infinitely curved one, or a direction
    where the support Hessian is not finite.  The tangent space has one or
    two dimensions, so the determinant and inverse are closed forms on the
    body's tangent block; the frame is as in ``reverse_weingarten``.
    """
    u, E = _direction_frame(u, body.dim, frame)
    R, S, kappa = _curvature(body._tangent_block(u, E), u)
    return CurvatureData(np.array(u), _frame_matrix(E), _block_matrix(R),
                         _block_matrix(S), kappa)


def curvature_many(body, U):
    """Curvature data at every unit row of U, and the singular rows.

    Returns (data, singular).  data is a CurvatureData of stacks: u (n, N),
    frame (n, N, N-1), R and S (n, N-1, N-1) and kappa (n,).  singular
    marks the rows where ``curvature`` raises SingularCurvature, by the
    same finiteness and determinant tests; their S and kappa are NaN.
    Every other row equals ``curvature(body, u)`` bit for bit: the rows are
    normalized as by ``as_direction``, the frames are ``tangent_frame``'s,
    and the tangent block and its inverse are the same arithmetic on
    arrays.
    """
    U = _as_directions(U, body.dim)
    if body.dim == 2:
        x, y = np.ascontiguousarray(U.T)
        u, E = (x, y), ((-y, x),)
        frame = np.column_stack([-y, x])[:, :, None]
    else:
        e1, e2 = _frames_many(U)
        u = tuple(np.ascontiguousarray(U.T))
        E = (tuple(np.ascontiguousarray(e1.T)),
             tuple(np.ascontiguousarray(e2.T)))
        frame = np.stack([e1, e2], axis=2)
    R = tuple(np.broadcast_to(r, len(U)) for r in body._tangent_block(u, E))
    with np.errstate(all="ignore"):
        det_r = _det(R)
        singular = ~np.isfinite(R).all(axis=0) | _degenerate(R, det_r)
        S, kappa = _block_matrix(_inverse(R, det_r)), 1.0 / det_r
    S[singular] = np.nan
    kappa[singular] = np.nan
    return CurvatureData(U, frame, _block_matrix(R), S, kappa), singular


# ---------------------------------------------------------------------------
# boundary points

def boundary_point(body, u):
    """The boundary point of the body with outward unit normal u: the
    gradient of the homogeneous support extension."""
    u = as_direction(u, body.dim)
    return body.gradient_hom(u[None, :])[0]


def boundary_points(body, U):
    """Vectorized boundary points for unit directions in the rows of U."""
    return body.gradient_hom(np.atleast_2d(np.asarray(U, dtype=float)))


def normal_at(body, x):
    """Outward unit normal of the body at a boundary point x.

    Recovered as the maximizing direction of the gauge, which is exact for
    strictly convex bodies: in closed form for balls, ellipsoids,
    superellipses and Reuleaux triangles (away from their vertices, whose
    normals form an arc), by the converged sphere search otherwise.
    """
    g, u = body.gauge_argmax(np.asarray(x, dtype=float))
    return u
