"""Convex bodies in R^2 and R^3 represented by their support functions.

Every body exposes the 1-homogeneous extension H(v) = |v| h(v/|v|) of its
support function, plus its gradient (the boundary point with a given
outward normal) and Hessian.  The second-order primitive of each analytic
kind is the tangent block R = E' H(u) E in an orthonormal frame E of the
plane orthogonal to u (the reverse Weingarten map), built in closed form;
curvature uses it directly and the Hessian is E R E' / |v|.  Bodies in
finite-difference mode take the Hessian by central differences and project
it.  The Minkowski algebra (sums, dilations, translations, reflections)
acts linearly on H and on the tangent block.
"""

import math

import numpy as np

from .errors import NonUniqueSupport, SingularCurvature

UNIT_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9

# directions of the coarse gauge/support scan
GAUGE_GRID_2D = 512
GAUGE_GRID_3D = 4096
# ratios per block of the coarse scan: about 1 MB of doubles, cache-sized
GAUGE_BLOCK_RATIOS = 2 ** 17


# ---------------------------------------------------------------------------
# directions and tangent frames

def as_direction(u, dim=None):
    """Validate and return a unit direction vector."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] not in (2, 3):
        raise ValueError("direction must be a 2- or 3-vector")
    if dim is not None and u.shape[0] != dim:
        raise ValueError(f"direction has dimension {u.shape[0]}, expected {dim}")
    n = math.sqrt(u @ u)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"direction is not unit (|u| = {n})")
    return u / n


def tangent_frame(u):
    """Deterministic orthonormal basis of the hyperplane orthogonal to u.

    In 2D the single tangent vector is u rotated by +90 degrees; in 3D the
    first vector comes from Gram-Schmidt against the coordinate axis least
    aligned with u and the second closes a right-handed frame.  Returns an
    (N, N-1) matrix with the basis vectors as columns.
    """
    u = np.asarray(u, dtype=float).tolist()
    if len(u) == 2:
        return np.array([[-u[1]], [u[0]]])
    a = [abs(c) for c in u]
    k = a.index(min(a))
    e1 = [-u[k] * c for c in u]
    e1[k] += 1.0
    n = math.sqrt(e1[0] * e1[0] + e1[1] * e1[1] + e1[2] * e1[2])
    x1, y1, z1 = (c / n for c in e1)
    x, y, z = u
    return np.array([[x1, y * z1 - z * y1],
                     [y1, z * x1 - x * z1],
                     [z1, x * y1 - y * x1]])


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


# ---------------------------------------------------------------------------
# the sphere search behind the generic gauge

# forward-difference step for the Jacobian of grad H, near sqrt(machine eps)
FD_STEP = 1e-8
# angular step at which the search has converged, and its iteration cap
SEARCH_TOL = 1e-12
SEARCH_MAX_STEPS = 60


def _optimality_residual(body, pts, U, tangents):
    """Residual and Jacobian of the condition grad H(u) || p at directions U.

    At the maximizer of <p, u> / H(u) the boundary point x(u) = grad H(u)
    lies on the ray through p.  The residual is the offset of x(u) from the
    point where that ray meets the tangent plane {y : <u, y> = <u, x(u)>},
    in the given tangent directions; moving u along a tangent moves x(u) by
    the reverse Weingarten map, so the Jacobian is that map, taken here by
    forward differences of grad H.  Returns r (n, k) and J (n, k, k).
    """
    T = np.stack(tangents)
    n = len(U)
    X = body.gradient_hom(np.concatenate([U] + [U + FD_STEP * t for t in T]))
    x = X[:n]
    ray = np.einsum("ij,ij->i", U, x) / np.einsum("ij,ij->i", U, pts)
    r = np.einsum("anj,nj->na", T, ray[:, None] * pts - x)
    D = (X[n:].reshape(len(T), n, -1) - x) / FD_STEP
    return r, np.einsum("anj,bnj->nab", T, D)


def _ascend_2d(body, pts, U, n_grid):
    """Newton steps in the angle, safeguarded by bisection (rtsafe).

    The coarse maximum brackets the true one within one grid cell, since
    <p, u> / H(u) is unimodal.  The residual has the sign of its angular
    derivative, so every evaluation shrinks the bracket; a Newton step that
    leaves the bracket or fails to halve the step before last is replaced by
    bisection.  That covers singular derivative data: zero curvature radius
    on Reuleaux vertex sectors, an infinite one on superellipse axes.
    """
    th = np.arctan2(U[:, 1], U[:, 0])
    lo = th - 2.0 * np.pi / n_grid
    hi = th + 2.0 * np.pi / n_grid
    dx = hi - lo
    dx_old = dx.copy()
    live = np.arange(len(th))
    for _ in range(SEARCH_MAX_STEPS):
        t = th[live]
        u = _unit_circle(t)
        r, J = _optimality_residual(body, pts[live], u,
                                    [np.column_stack([-u[:, 1], u[:, 0]])])
        r, J = r[:, 0], J[:, 0, 0]
        a = lo[live] = np.where(r > 0, t, lo[live])
        b = hi[live] = np.where(r < 0, t, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(r == 0, t, t + r / J)
        bisect = ~((new >= a) & (new <= b)) | \
            (np.abs(2.0 * r) > np.abs(dx_old[live] * J))
        dx_old[live] = dx[live]
        new = np.where(bisect, 0.5 * (a + b), new)
        step = np.abs(new - t)
        dx[live] = step
        th[live] = new
        live = live[step > SEARCH_TOL]
        if not live.size:
            break
    return _unit_circle(th)


def _ascend_3d(body, pts, U, n_grid):
    """Newton steps in the tangent plane, halved while <p, u> / H(u) drops.

    Steps are capped by a trust radius that starts at the grid spacing; a
    step that lowers the objective beyond rounding is retried at half the
    length, and a singular or indefinite Jacobian falls back to the
    residual direction, which is uphill.
    """
    U = U.copy()
    f = body._gauge_objective(pts, U)
    radius = np.full(len(U), 2.0 * np.sqrt(4.0 * np.pi / n_grid))
    live = np.arange(len(U))
    for _ in range(SEARCH_MAX_STEPS):
        p, u = pts[live], U[live]
        e1, e2 = _frames_many(u)
        r, J = _optimality_residual(body, p, u, [e1, e2])
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
        fc = body._gauge_objective(p, cand)
        ok = fc >= f[live] - 4.0 * np.finfo(float).eps * np.abs(f[live])
        U[live[ok]] = cand[ok]
        f[live[ok]] = fc[ok]
        radius[live] = np.where(ok, radius[live], 0.5 * size)
        live = live[~(ok & (size <= SEARCH_TOL) | (radius[live] <= SEARCH_TOL))]
        if not live.size:
            break
    return U


# ---------------------------------------------------------------------------
# base class

class ConvexBody:
    """A convex body with the origin in its interior, given by support data.

    Subclasses implement ``_support_impl`` (vectorized over rows) and may
    provide an analytic gradient and tangent block; otherwise central
    finite differences on the homogeneous extension are used.
    """

    kind = "abstract"

    def __init__(self, dim, derivative_mode="analytic"):
        if dim not in (2, 3):
            raise ValueError("only dimensions 2 and 3 are supported")
        if derivative_mode not in ("analytic", "finite-difference"):
            raise ValueError(f"unknown derivative_mode {derivative_mode!r}")
        self.dim = dim
        self.derivative_mode = derivative_mode
        self._grid_cache = None

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
        return None

    def gradient_hom(self, V):
        """Gradient of H at each row of V; 0-homogeneous (the boundary point)."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if self.derivative_mode == "analytic":
            g = self._gradient_impl(V)
            if g is not None:
                return g
        return self._fd_gradient(V)

    def hessian_hom(self, v):
        """Hessian of H at v; (-1)-homogeneous, with v in its kernel.

        For analytic bodies it is E R E' / |v|, with R the tangent block at
        u = v / |v| in E = tangent_frame(u).
        """
        v = np.asarray(v, dtype=float)
        if self.derivative_mode == "analytic":
            n = math.sqrt(v @ v)
            u = v / n
            E = tangent_frame(u)
            R = self._tangent_block_impl(u, E)
            if R is not None:
                return E @ np.array(R) @ E.T / n
        return self._fd_hessian(v)

    def _tangent_block(self, u, E):
        """Tangent block R = E' H(u) E of the Hessian, as nested floats.

        u is a unit direction and E an (N, N-1) matrix whose columns are
        an orthonormal basis of the plane orthogonal to u.  Analytic bodies
        build the (N-1)x(N-1) block in closed form; finite-difference
        bodies project ``hessian_hom``.
        """
        if self.derivative_mode == "analytic":
            R = self._tangent_block_impl(u, E)
            if R is not None:
                return R
        return (E.T @ self.hessian_hom(u) @ E).tolist()

    def _tangent_block_impl(self, u, E):
        return None

    def _fd_gradient(self, V):
        scale = np.linalg.norm(V, axis=1, keepdims=True)
        step = 1e-6 * np.maximum(scale, 1e-30)
        g = np.empty_like(V)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            g[:, i] = (self.support_hom(V + step * e) -
                       self.support_hom(V - step * e)) / (2.0 * step[:, 0])
        return g

    def _fd_hessian(self, v):
        # step 1e-4 * h(u): truncation/rounding balance for double precision
        h0 = float(self.support_hom(v[None, :])[0])
        step = 1e-4 * max(abs(h0), 1e-30)
        n = self.dim
        H = np.empty((n, n))
        eye = np.eye(n)
        for i in range(n):
            for j in range(i, n):
                ei, ej = step * eye[i], step * eye[j]
                if i == j:
                    f = self.support_hom(np.vstack([v + 2 * ei, v, v - 2 * ei]))
                    H[i, i] = (f[0] - 2 * f[1] + f[2]) / (4 * step * step)
                else:
                    f = self.support_hom(np.vstack([v + ei + ej, v + ei - ej,
                                                    v - ei + ej, v - ei - ej]))
                    H[i, j] = H[j, i] = (f[0] - f[1] - f[2] + f[3]) / (4 * step * step)
        return H

    # -- gauge (Minkowski functional) ---------------------------------------

    def _gauge_grid(self):
        if self._grid_cache is None:
            n = GAUGE_GRID_2D if self.dim == 2 else GAUGE_GRID_3D
            U = sphere_directions(self.dim, n)
            h = self.support_hom(U)
            # pre-divide so the coarse scan is a single matrix product
            self._grid_cache = (U, h, U / h[:, None])
        return self._grid_cache

    def gauge_many(self, pts, refine="auto", margin=0.02):
        """Gauge values inf{t > 0 : v in tK} for each row of pts.

        ``refine='auto'`` runs local ascent only for points whose coarse
        gauge lies within ``margin`` of 1 (enough for membership tests);
        ``'all'`` refines everything, ``'none'`` returns the coarse scan.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        g, idx = self._gauge_coarse(pts)
        if refine == "none":
            return g
        if refine == "all":
            mask = np.ones(len(pts), dtype=bool)
        else:
            mask = np.abs(g - 1.0) < margin
        if mask.any():
            g[mask] = self._gauge_refine(pts[mask], idx[mask], g[mask])[0]
        return g

    def _gauge_coarse(self, pts):
        """Largest grid ratio <p, u> / H(u) per row, and the grid index of it.

        Rows are scanned in blocks of about GAUGE_BLOCK_RATIOS ratios (256
        rows of the 2D grid, 32 of the 3D grid), so each block's ratio matrix
        stays near 1 MB and is still in cache when argmax reads it back.
        The inner dimension is 2 or 3, so every row's ratios, and with them
        g and idx, do not depend on the block size.
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

    def _gauge_objective(self, pts, dirs):
        # 0-homogeneous in dirs, so no normalization needed
        return np.einsum("ij,ij->i", pts, dirs) / self.support_hom(dirs)

    def _gauge_refine(self, pts, idx, g0):
        """Converged maximum of <p, u> / H(u) from the coarse grid maximum.

        Returns the refined gauges and their maximizing unit directions.
        """
        U, _, _ = self._gauge_grid()
        u = U[idx]
        live = g0 > 0.0  # the zero vector has no maximizing direction
        if live.any():
            search = _ascend_2d if self.dim == 2 else _ascend_3d
            u[live] = search(self, pts[live], u[live], len(U))
        return np.maximum(g0, self._gauge_objective(pts, u)), u

    def gauge_argmax(self, v):
        """Gauge of a single vector together with the maximizing direction."""
        v = np.asarray(v, dtype=float)[None, :]
        g0, idx = self._gauge_coarse(v)
        g, u = self._gauge_refine(v, idx, g0)
        return float(g[0]), u[0]

    def contains(self, pts):
        """Membership test; points within the gauge tolerance count inside."""
        return self.gauge_many(pts) <= 1.0 + MEMBERSHIP_TOL

    # -- validation ---------------------------------------------------------

    def _validate_positive(self):
        U = sphere_directions(self.dim, 256 if self.dim == 2 else 1024)
        h = self.support_hom(U)
        if not np.all(np.isfinite(h)) or np.min(h) <= 0.0:
            raise ValueError(
                f"{self.kind}: support function is not strictly positive "
                "(origin must be strictly interior)")

    def __repr__(self):
        return f"{self.__class__.__name__}(dim={self.dim})"


# ---------------------------------------------------------------------------
# concrete kinds

class Ball(ConvexBody):
    kind = "ball"

    def __init__(self, radius, center=None, dim=2, **kw):
        if center is not None:
            center = np.asarray(center, dtype=float)
            dim = center.shape[0]
        else:
            center = np.zeros(dim)
        super().__init__(dim, **kw)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = center
        self._validate_positive()

    def _support_impl(self, V):
        return self.radius * np.linalg.norm(V, axis=1) + V @ self.center

    def _gradient_impl(self, V):
        return self.radius * V / np.linalg.norm(V, axis=1, keepdims=True) + self.center

    def _tangent_block_impl(self, u, E):
        r = self.radius
        return [[r]] if self.dim == 2 else [[r, 0.0], [0.0, r]]

    def gauge_many(self, pts, refine="auto", margin=0.02):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _offset_quadric_gauge(pts, np.eye(self.dim) / self.radius ** 2,
                                     self.center)

    def gauge_argmax(self, v):
        return _offset_quadric_argmax(v, np.eye(self.dim) / self.radius ** 2,
                                      self.center)


def _offset_quadric_gauge(pts, Qinv, center):
    """Exact gauge of {y : (y-c)' Qinv (y-c) <= 1} about the origin."""
    c = center
    a = 1.0 - c @ Qinv @ c
    if a <= 0:
        raise ValueError("origin is not interior to the body")
    Qc = Qinv @ c
    b = pts @ Qc
    q = np.einsum("ij,ij->i", pts @ Qinv, pts)
    return (-b + np.sqrt(b * b + a * q)) / a


def _offset_quadric_argmax(v, Qinv, center):
    """Gauge of v and the outward normal Qinv (y - c) at y = v / gauge."""
    v = np.asarray(v, dtype=float)
    g = float(_offset_quadric_gauge(v[None, :], Qinv, center)[0])
    n = Qinv @ (v / g - center)
    return g, n / np.linalg.norm(n)


class Ellipsoid(ConvexBody):
    """Ellipsoid {y : (y-c)' Q^{-1} (y-c) <= 1} with Q symmetric positive definite.

    The support function is h(u) = sqrt(u' Q u) + c . u.
    """

    kind = "ellipsoid"

    def __init__(self, Q, center=None, **kw):
        Q = np.asarray(Q, dtype=float)
        dim = Q.shape[0]
        if Q.shape != (dim, dim) or not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be a symmetric matrix")
        # the tangent block reads only the upper triangle, the support
        # function all of Q: both see its symmetric part
        Q = 0.5 * (Q + Q.T)
        w = np.linalg.eigvalsh(Q)
        if np.min(w) <= 0:
            raise ValueError("Q must be positive definite")
        super().__init__(dim, **kw)
        self.Q = Q
        self.Qinv = np.linalg.inv(Q)
        self._Q_upper = tuple(Q[np.triu_indices(dim)].tolist())
        self.center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
        self._validate_positive()

    @classmethod
    def from_semiaxes(cls, *axes, center=None, **kw):
        return cls(np.diag(np.asarray(axes, dtype=float) ** 2), center=center, **kw)

    def _support_impl(self, V):
        s = np.sqrt(np.einsum("ij,ij->i", V @ self.Q, V))
        return s + V @ self.center

    def _gradient_impl(self, V):
        QV = V @ self.Q
        s = np.sqrt(np.einsum("ij,ij->i", QV, V))
        return QV / s[:, None] + self.center

    def _tangent_block_impl(self, u, E):
        # E' (Q/s - Qu u'Q/s^3) E with s^2 = u'Qu, from the upper triangle
        # of Q; in 2D the one entry is det Q / s^3, because
        # e'Qe u'Qu - (e'Qu)^2 = det Q det[u e]^2 and det[u e] = +-1
        if self.dim == 2:
            a, b, d = self._Q_upper
            x, y = u.tolist()
            s2 = a * x * x + 2.0 * b * x * y + d * y * y
            return [[(a * d - b * b) / (s2 * math.sqrt(s2))]]
        a, b, c, d, e, f = self._Q_upper
        x, y, z = u.tolist()
        (x1, x2), (y1, y2), (z1, z2) = E.tolist()
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
        s3 = s2 * math.sqrt(s2)
        off = (r12 * s2 - p1 * p2) / s3
        return [[(r11 * s2 - p1 * p1) / s3, off],
                [off, (r22 * s2 - p2 * p2) / s3]]

    def gauge_many(self, pts, refine="auto", margin=0.02):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _offset_quadric_gauge(pts, self.Qinv, self.center)

    def gauge_argmax(self, v):
        return _offset_quadric_argmax(v, self.Qinv, self.center)


class _Theta2DBody(ConvexBody):
    """2D bodies defined by an angular support profile h(theta)."""

    def __init__(self, **kw):
        super().__init__(2, **kw)

    def h_theta(self, t):
        raise NotImplementedError

    def dh_theta(self, t):
        return None

    def d2h_theta(self, t):
        return None

    def _support_impl(self, V):
        t = np.arctan2(V[:, 1], V[:, 0])
        return np.linalg.norm(V, axis=1) * self.h_theta(t)

    def _gradient_impl(self, V):
        t = np.arctan2(V[:, 1], V[:, 0])
        dh = self.dh_theta(t)
        if dh is None:
            return None
        r = np.linalg.norm(V, axis=1, keepdims=True)
        u = V / r
        uperp = np.column_stack([-u[:, 1], u[:, 0]])
        return self.h_theta(t)[:, None] * u + dh[:, None] * uperp

    def _tangent_block_impl(self, u, E):
        # the radius of curvature h + h''
        t = np.arctan2(u[1:], u[:1])
        d2h = self.d2h_theta(t)
        if d2h is None:
            return None
        return [[float(self.h_theta(t)[0] + d2h[0])]]


class FourierBody2D(_Theta2DBody):
    """2D body with support h(theta) = sum a_k cos(k theta) + b_k sin(k theta)."""

    kind = "fourier"

    def __init__(self, cos_coeffs, sin_coeffs=None, **kw):
        super().__init__(**kw)
        self.a = np.asarray(cos_coeffs, dtype=float)
        self.b = (np.zeros_like(self.a) if sin_coeffs is None
                  else np.asarray(sin_coeffs, dtype=float))
        if self.b.shape != self.a.shape:
            raise ValueError("cosine and sine coefficient lists must have equal length")
        self._validate_positive()
        # convexity: h + h'' > 0 on a fine grid
        t = 2.0 * np.pi * np.arange(4096) / 4096
        if np.min(self.h_theta(t) + self.d2h_theta(t)) <= 0:
            raise ValueError("fourier coefficients produce a non-convex profile "
                             "(h + h'' <= 0 somewhere)")

    def _series(self, t, deriv):
        k = np.arange(len(self.a))
        kt = np.multiply.outer(t, k)
        if deriv == 0:
            return np.cos(kt) @ self.a + np.sin(kt) @ self.b
        if deriv == 1:
            return -np.sin(kt) @ (k * self.a) + np.cos(kt) @ (k * self.b)
        return -np.cos(kt) @ (k * k * self.a) - np.sin(kt) @ (k * k * self.b)

    def h_theta(self, t):
        return self._series(t, 0)

    def dh_theta(self, t):
        return self._series(t, 1)

    def d2h_theta(self, t):
        return self._series(t, 2)


class Superellipse2D(ConvexBody):
    """Unit ball of the p-norm in the plane, p > 2.

    The support function is the dual-norm closed form
    h(u) = (|u1|^q + |u2|^q)^(1/q) with q = p/(p-1).  The boundary is flat
    at the axis directions, where curvature data degenerates.
    """

    kind = "superellipse"

    def __init__(self, exponent, **kw):
        super().__init__(2, **kw)
        if exponent <= 2:
            raise ValueError("exponent must exceed 2")
        self.p = float(exponent)
        self.q = self.p / (self.p - 1.0)
        self._validate_positive()

    def _support_impl(self, V):
        q = self.q
        return (np.abs(V[:, 0]) ** q + np.abs(V[:, 1]) ** q) ** (1.0 / q)

    def _gradient_impl(self, V):
        q = self.q
        phi = np.abs(V) ** q
        s = phi.sum(axis=1)
        psi = np.sign(V) * np.abs(V) ** (q - 1.0)
        return psi * (s ** (1.0 / q - 1.0))[:, None]

    def _tangent_block_impl(self, u, E):
        # radius of curvature (q-1) |xy|^(q-2) (|x|^q + |y|^q)^(1/q-2) at a
        # unit u = (x, y); infinite on the axes, where the boundary is flat
        q = self.q
        x, y = np.abs(u)
        with np.errstate(divide="ignore", over="ignore"):
            r = (q - 1.0) * (x * y) ** (q - 2.0) * \
                (x ** q + y ** q) ** (1.0 / q - 2.0)
        return [[float(r)]]

    def gauge_many(self, pts, refine="auto", margin=0.02):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (np.abs(pts[:, 0]) ** self.p +
                np.abs(pts[:, 1]) ** self.p) ** (1.0 / self.p)

    def gauge_argmax(self, v):
        v = np.asarray(v, dtype=float)
        n = np.sign(v) * np.abs(v) ** (self.p - 1.0)
        return float(self.gauge_many(v)[0]), n / np.linalg.norm(n)


class ReuleauxTriangle2D(_Theta2DBody):
    """Reuleaux triangle of constant width w, centroid at the origin.

    Intersection of the three disks of radius w centered at the vertices.
    The support function is piecewise: v_i . u + w on the arc sector
    opposite vertex v_i, v_j . u on the sector supported at vertex v_j;
    sector boundaries match continuously.
    """

    kind = "reuleaux"

    def __init__(self, width=1.0, **kw):
        super().__init__(**kw)
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = float(width)
        rho = width / np.sqrt(3.0)
        self.vertex_angles = np.array([np.pi / 2.0,
                                       np.pi / 2.0 + 2.0 * np.pi / 3.0,
                                       np.pi / 2.0 + 4.0 * np.pi / 3.0])
        self.vertices = rho * _unit_circle(self.vertex_angles)
        self._validate_positive()

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

    def h_theta(self, t):
        t = np.asarray(t, dtype=float)
        arc, vert = self._sector(t)
        u = _unit_circle(t)
        h = np.empty(t.shape)
        m = arc >= 0
        h[m] = np.einsum("ij,ij->i", u[m], self.vertices[arc[m]]) + self.width
        m = ~m
        h[m] = np.einsum("ij,ij->i", u[m], self.vertices[vert[m]])
        return h

    def dh_theta(self, t):
        t = np.asarray(t, dtype=float)
        arc, vert = self._sector(t)
        up = _unit_circle(t + np.pi / 2.0)
        which = np.where(arc >= 0, arc, vert)
        return np.einsum("ij,ij->i", up, self.vertices[which])

    def d2h_theta(self, t):
        t = np.asarray(t, dtype=float)
        arc, vert = self._sector(t)
        u = _unit_circle(t)
        which = np.where(arc >= 0, arc, vert)
        d2 = -np.einsum("ij,ij->i", u, self.vertices[which])
        # radius of curvature h + h'' is w on arcs, 0 at vertex sectors
        return d2

    def gauge_many(self, pts, refine="auto", margin=0.02):
        # gauge of an intersection is the max of the member gauges
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        Qinv = np.eye(2) / self.width ** 2
        return np.max([_offset_quadric_gauge(pts, Qinv, v) for v in self.vertices],
                      axis=0)


# ---------------------------------------------------------------------------
# combinators

class MinkowskiSum(ConvexBody):
    kind = "minkowski_sum"

    def __init__(self, left, right, **kw):
        if left.dim != right.dim:
            raise ValueError("summands must share a dimension")
        super().__init__(left.dim, **kw)
        self.left = left
        self.right = right
        # positivity is inherited: the support functions add

    def _support_impl(self, V):
        return self.left.support_hom(V) + self.right.support_hom(V)

    def _gradient_impl(self, V):
        return self.left.gradient_hom(V) + self.right.gradient_hom(V)

    def _tangent_block_impl(self, u, E):
        A = self.left._tangent_block(u, E)
        B = self.right._tangent_block(u, E)
        return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


class Dilate(ConvexBody):
    kind = "dilate"

    def __init__(self, body, factor, **kw):
        super().__init__(body.dim, **kw)
        if factor <= 0:
            raise ValueError("dilation factor must be positive")
        self.body = body
        self.factor = float(factor)

    def _support_impl(self, V):
        return self.factor * self.body.support_hom(V)

    def _gradient_impl(self, V):
        return self.factor * self.body.gradient_hom(V)

    def _tangent_block_impl(self, u, E):
        t = self.factor
        return [[t * a for a in row] for row in self.body._tangent_block(u, E)]

    def gauge_many(self, pts, refine="auto", margin=0.02):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.body.gauge_many(pts / self.factor, refine=refine, margin=margin)

    def gauge_argmax(self, v):
        return self.body.gauge_argmax(np.asarray(v, dtype=float) / self.factor)


class Translate(ConvexBody):
    kind = "translate"

    def __init__(self, body, vector, **kw):
        super().__init__(body.dim, **kw)
        self.body = body
        self.vector = np.asarray(vector, dtype=float)
        self._validate_positive()

    def _support_impl(self, V):
        return self.body.support_hom(V) + V @ self.vector

    def _gradient_impl(self, V):
        return self.body.gradient_hom(V) + self.vector

    def _tangent_block_impl(self, u, E):
        return self.body._tangent_block(u, E)


class Reflect(ConvexBody):
    """The reflection -K of a body through the origin."""

    kind = "reflect"

    def __init__(self, body, **kw):
        super().__init__(body.dim, **kw)
        self.body = body

    def _support_impl(self, V):
        return self.body.support_hom(-V)

    def _gradient_impl(self, V):
        return -self.body.gradient_hom(-V)

    def _tangent_block_impl(self, u, E):
        return self.body._tangent_block(-u, E)

    def gauge_many(self, pts, refine="auto", margin=0.02):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.body.gauge_many(-pts, refine=refine, margin=margin)

    def gauge_argmax(self, v):
        g, u = self.body.gauge_argmax(-np.asarray(v, dtype=float))
        return g, -u


def difference_body(G):
    """The centrally symmetric difference body G + (-G)."""
    return MinkowskiSum(G, Reflect(G))


# ---------------------------------------------------------------------------
# curvature

class CurvatureData:
    """Tangent frame, reverse Weingarten matrix, shape operator and kappa."""

    def __init__(self, u, frame, R, S, kappa):
        self.u = u
        self.frame = frame
        self.R = R
        self.S = S
        self.kappa = kappa

    def __repr__(self):
        return f"CurvatureData(u={self.u}, kappa={self.kappa})"


def reverse_weingarten(body, u, frame=None):
    """Reverse Weingarten matrix of the body at the unit direction u.

    The frame's columns must be an orthonormal basis of the hyperplane
    orthogonal to u (the frame of -u is allowed, which lets antipodal
    curvatures share a basis).
    """
    u = as_direction(u, body.dim)
    E = tangent_frame(u) if frame is None else frame
    R = np.array(body._tangent_block(u, E))
    return 0.5 * (R + R.T), E


def curvature(body, u, frame=None):
    """Curvature data (R, S = R^-1, kappa = det S) of the body at u.

    Raises SingularCurvature when the data is degenerate: a flat point
    (det R effectively zero), an infinitely curved one, or a direction
    where the support Hessian is not finite.  The tangent space has one or
    two dimensions, so the determinant and inverse are closed forms on the
    body's tangent block; the frame is as in ``reverse_weingarten``.
    """
    u = as_direction(u, body.dim)
    E = tangent_frame(u) if frame is None else frame
    R = body._tangent_block(u, E)
    if body.dim == 2:
        (r11,), = R
        det_r = r11
        entries = (r11,)
    else:
        (r11, r12), (r21, r22) = R
        r12 = 0.5 * (r12 + r21)  # the symmetric part
        det_r = r11 * r22 - r12 * r12
        entries = (r11, r12, r22)
    if not all(map(math.isfinite, entries)):
        raise SingularCurvature(f"support Hessian not finite at u={u}", direction=u)
    scale = max(1.0, *map(abs, entries)) ** (body.dim - 1)
    if det_r < 1e-12 * scale:
        raise SingularCurvature(
            f"degenerate reverse Weingarten matrix at u={u} (det R = {det_r:.3e})",
            direction=u)
    if body.dim == 2:
        R, S = [[r11]], [[1.0 / r11]]
    else:
        R = [[r11, r12], [r12, r22]]
        S = [[r22 / det_r, -r12 / det_r], [-r12 / det_r, r11 / det_r]]
    return CurvatureData(u, E, np.array(R), np.array(S), 1.0 / det_r)


# ---------------------------------------------------------------------------
# boundary points

def boundary_point(body, u, check_unique=None):
    """The boundary point of the body with outward unit normal u.

    Equals the gradient of the homogeneous support extension.  When the
    body only has finite-difference derivatives the uniqueness of the
    supporting face is checked against a boundary sample and
    NonUniqueSupport is raised for flat faces.
    """
    u = as_direction(u, body.dim)
    if check_unique is None:
        check_unique = body.derivative_mode == "finite-difference" or \
            body._gradient_impl(u[None, :]) is None
    if check_unique:
        _check_unique_support(body, u)
    x = body.gradient_hom(u[None, :])[0]
    return x


def boundary_points(body, U):
    """Vectorized boundary points for unit directions in the rows of U."""
    return body.gradient_hom(np.atleast_2d(np.asarray(U, dtype=float)))


def _check_unique_support(body, u):
    U, _, _ = body._gauge_grid()
    P = boundary_points(body, U)
    vals = P @ u
    top = float(np.max(vals))
    scale = max(1.0, float(np.max(np.abs(P))))
    hits = P[vals > top - 1e-9 * scale]
    if len(hits) > 1:
        # strictly convex points scatter the near-maximizers within a few
        # grid spacings; a flat face spreads them across its full length
        spacing = 2.0 * np.pi / len(U) if body.dim == 2 else \
            2.0 * np.sqrt(4.0 * np.pi / len(U))
        spread = np.max(np.linalg.norm(hits - hits[0], axis=1))
        if spread > 8.0 * spacing * scale:
            raise NonUniqueSupport(
                f"support face in direction {u} is not a single point "
                f"(spread {spread:.3e})", points=hits)


def normal_at(body, x):
    """Outward unit normal of the body at a boundary point x.

    Recovered as the maximizing direction of the gauge, which is exact for
    strictly convex bodies: in closed form for balls, ellipsoids and
    superellipses, by the converged sphere search otherwise.
    """
    g, u = body.gauge_argmax(np.asarray(x, dtype=float))
    return u
