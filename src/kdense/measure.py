"""Volumes, gauges and half-space cuts of convex bodies.

Two independent volume routes are provided: a spherical quadrature of the
support integral (1/N) * integral of h * det R over the unit sphere, and
quasi-Monte Carlo membership counting in a support-derived bounding box,
with independently scrambled replicates for the error bar.  The points are
scrambled Sobol' points (LMS + digital shift, d <= 3) from ``kdense.qmc``,
equal bit for bit to scipy's ``qmc.Sobol(d, scramble=True)``.  Each QMC
route is one pass, ``_qmc_pass``, that tests a body's membership once per
replicate and counts columns on the points inside; a sweep over copies
x + rK sharing one G counts each copy on the points inside G, and the
points K's bounds leave open in every copy share one sphere search.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bodies, qmc
from .bodies import curvature_many, sphere_directions
from .errors import SingularCurvature

# surface measure of the unit sphere one dimension down (S^{N-2})
OMEGA = {2: 2.0, 3: 2.0 * np.pi}
# total surface measure of S^{N-1}
SPHERE_MEASURE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}

DEFAULT_QMC_POINTS = 2 ** 17
DEFAULT_REPLICATES = 8
WORKERS_ENV = "KDENSE_WORKERS"


class IntegrationResult:
    """A volume or area estimate with an attached error estimate."""

    def __init__(self, value, stderr, method, sample_count):
        self.value = float(value)
        self.stderr = float(stderr)
        self.method = method
        self.sample_count = int(sample_count)

    def __repr__(self):
        return (f"IntegrationResult({self.value:.9g} +/- {self.stderr:.3g}, "
                f"{self.method}, n={self.sample_count})")


class QuadratureGrid:
    """Equal-area nodes and weights on the unit sphere.

    2D uses the uniform trapezoid rule in the angle (spectrally accurate
    for smooth integrands); 3D uses antipodally symmetrized Fibonacci
    nodes with equal weights.  Weights sum to the sphere measure.
    """

    def __init__(self, dim, n=None):
        if n is None:
            n = 1024 if dim == 2 else 4096
        self.dim = dim
        self.nodes = sphere_directions(dim, n)
        n = len(self.nodes)
        self.weights = np.full(n, SPHERE_MEASURE[dim] / n)

    def integrate(self, values):
        return float(np.dot(self.weights, values))


def _workers():
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _replicate_map(fn, replicates):
    """Run replicate jobs, preserving index order for bit-stable reduction."""
    w = _workers()
    if w == 1:
        return [fn(i) for i in range(replicates)]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, range(replicates)))


_SOBOL_CACHE = {}
_SOBOL_CACHE_MAX = 32
# replicate threads insert and evict at once: eviction reads the oldest key
# and pops it, which must not interleave with another thread's writes
_SOBOL_LOCK = threading.Lock()


def _sobol(dim, n, seed, replicate):
    # cached: calls with the same size and seed reuse the same streams,
    # which both saves regeneration and correlates their integration
    # errors.  Every caller shares the array, so it is read-only.
    key = (dim, n, seed, replicate)
    hit = _SOBOL_CACHE.get(key)
    if hit is not None:
        return hit
    rng = np.random.default_rng([seed, replicate])
    eng = qmc.Sobol(d=dim, seed=rng)
    m = int(np.log2(n))
    pts = eng.random_base2(m) if 2 ** m == n else eng.random(n)
    pts.flags.writeable = False
    with _SOBOL_LOCK:
        # another thread may have stored the same stream meanwhile
        hit = _SOBOL_CACHE.get(key)
        if hit is not None:
            return hit
        if len(_SOBOL_CACHE) >= _SOBOL_CACHE_MAX:
            _SOBOL_CACHE.pop(next(iter(_SOBOL_CACHE)))
        _SOBOL_CACHE[key] = pts
    return pts


def bounding_box(body, pad=0.01):
    """Axis-aligned box around the body from support values, padded."""
    lo = np.empty(body.dim)
    hi = np.empty(body.dim)
    for i in range(body.dim):
        e = np.zeros(body.dim)
        e[i] = 1.0
        hi[i] = body.support_hom(e[None, :])[0]
        lo[i] = -body.support_hom(-e[None, :])[0]
    width = hi - lo
    return lo - 0.5 * pad * width, hi + 0.5 * pad * width


def gauge(body, v):
    """Minkowski functional of the body at v (origin must be interior)."""
    return float(body.gauge_many(v)[0])


def _result(counts, n, box):
    """Volume estimate from per-replicate hit counts among n points of box.

    count / n is the mean of the boolean indicator, bit for bit.
    """
    lo, hi = box
    box_vol = float(np.prod(hi - lo))
    means = np.array([c / n * box_vol for c in counts.tolist()])
    replicates = len(means)
    value = float(np.mean(means))
    if replicates > 1:
        stderr = float(np.std(means, ddof=1) / np.sqrt(replicates))
    else:
        stderr = float("nan")
    return IntegrationResult(value, stderr, "qmc", n * replicates)


def _box_points(unit, lo, hi):
    """lo + unit * (hi - lo) bit for bit, with one n-row array: IEEE
    addition commutes, so adding lo in place rounds the same.  It works
    column by column, which numpy loops over several times faster than a
    broadcast along rows of two or three."""
    w = hi - lo
    pts = np.empty_like(unit)
    for i in range(len(w)):
        np.multiply(unit[:, i], w[i], out=pts[:, i])
        pts[:, i] += lo[i]
    return pts


def _qmc_pass(body, n, replicates, seed, columns=None, keep=None):
    """Per replicate: n Sobol points scaled into the body's box, the rows
    ``keep(pts)`` passes if given, and one membership test of the body.

    Returns (inside, cols, box): inside[i] counts the kept points of
    replicate i inside the body, cols[i] holds the integers
    ``columns(inner)`` returns on those points, and box is the body's box.
    Membership is decided row by row, so each count equals the plain
    indicator's."""
    lo, hi = box = bounding_box(body)

    def one(rep):
        pts = _box_points(_sobol(len(lo), n, seed, rep), lo, hi)
        if keep is not None:
            pts = pts.compress(keep(pts), axis=0)
        inner = pts.compress(body.contains(pts), axis=0)
        return [len(inner)] + (columns(inner) if columns else [])

    counts = np.array(_replicate_map(one, replicates))
    return counts[:, 0], counts[:, 1:], box


def volume_qmc(body, n=DEFAULT_QMC_POINTS, replicates=DEFAULT_REPLICATES, seed=0):
    inside, _, box = _qmc_pass(body, n, replicates, seed)
    return _result(inside, n, box)


def volume_quadrature(body, n=None):
    """Support-integral volume (1/N) * integral h det R dsigma.

    Raises SingularCurvature if any node has degenerate curvature data.
    """
    grid = QuadratureGrid(body.dim, n)
    full = _support_integral(body, grid)
    half = QuadratureGrid(body.dim, len(grid.nodes) // 2)
    coarse = _support_integral(body, half)
    stderr = abs(full - coarse) + 1e-12 * abs(full)
    return IntegrationResult(full, stderr, "quadrature", len(grid.nodes))


def _support_integral(body, grid):
    data, singular = curvature_many(body, grid.nodes)
    if singular.any():
        u = data.u[np.argmax(singular)]
        raise SingularCurvature(f"degenerate curvature data at u={u}",
                                direction=u)
    h = body.support_hom(grid.nodes)
    # det R = 1 / kappa, from the closed-form 1x1 or 2x2 determinant
    return grid.integrate(h * (1.0 / data.kappa)) / body.dim


def volume(body, method="auto", n=None, qmc_points=DEFAULT_QMC_POINTS,
           replicates=DEFAULT_REPLICATES, seed=0):
    """Volume of the body; quadrature when curvature permits, qmc otherwise.

    ``auto`` falls back to qmc both on degenerate curvature data and when
    the quadrature error estimate has not converged (flat spots slow the
    support integral to an algebraic rate).
    """
    if method in ("auto", "quadrature"):
        try:
            res = volume_quadrature(body, n)
            if method == "quadrature" or res.stderr <= 1e-3 * abs(res.value):
                return res
        except SingularCurvature:
            if method == "quadrature":
                raise
    return volume_qmc(body, qmc_points, replicates, seed)


def _copy_counts(G, K, copies, n, replicates, seed):
    """QMC counts of G and of G intersected with each copy x + rK.

    ``copies`` is a sequence of pairs (x, r), each x a finite point and
    each r finite and positive; ``_qmc_pass`` tests G's membership once per
    replicate, and its columns are the copies.  Each copy keeps the points
    inside G whose (p - x) / r lie in K's ``bounding_box``, and one
    ``K.contains_many`` call tests the kept points of every copy: the
    bounds of K's gauge (in 2D the ellipse sandwich, then the chord
    bracket) decide each copy's points, and the points they leave open in
    all copies share one sphere search.  The box is first taken in G's
    frame: per replicate the coordinates of the points inside G are stored
    as contiguous columns, a copy keeps the rows inside x + r [lo, hi]
    widened by a rounding pad, and (p - x) / r and the box test in K's frame
    run on those rows only, so K receives the rows it would from the box
    test on all of them.
    Returns (inside, hits, box): inside[i] is the number of the n points of
    replicate i inside G, hits[i, j] the number of those inside copy j as
    well, and box is G's box.  The deficit count of copy j is
    inside[i] - hits[i, j].

    Both are the counts of the plain indicators G(p) & K((p - x) / r) and
    G(p) & ~K((p - x) / r) over the same points.  A point outside K's box
    has a coordinate beyond h_K(+-e_i) + 0.005 * width_i, and
    width_i > h_K(+-e_i), so its gauge is at least 1.005, far above
    1 + MEMBERSHIP_TOL: it is outside.  In 2D skipping it changes no count:
    ``K.contains`` counts a point inside only when its chord bound, which
    is at least its gauge, or its converged gauge is at most
    1 + MEMBERSHIP_TOL, never for a gauge of 1.005 or more.  In 3D that
    holds wherever the coarse gauge is right to 0.5%; where the coarse scan
    of a very eccentric K is worse, a skipped point that ``K.contains``
    would wrongly count inside is counted outside.
    """
    lo, hi = bounding_box(K)
    checked = []
    for x, r in copies:
        x, r = np.asarray(x, dtype=float), float(r)
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"dilation parameter r must be finite and "
                             f"positive, not {r}")
        if x.shape != (G.dim,) or not np.isfinite(x).all():
            raise ValueError(f"copy point x must be a finite {G.dim}-vector")
        # p - x and the division by r round by under an ulp of |x| and of
        # r |lo|, r |hi|: the pad covers that many times over, so the box in
        # G's frame keeps every row the box in K's frame keeps
        pad = 1e-9 * (np.abs(x) + r * (hi - lo))
        checked.append((x, r, x + r * lo - pad, x + r * hi + pad))

    def in_box(cols, a, b):
        keep = (cols[0] >= a[0]) & (cols[0] <= b[0])
        for i in range(1, len(cols)):
            keep &= (cols[i] >= a[i]) & (cols[i] <= b[i])
        return keep

    def hits(inner):
        cols = [np.ascontiguousarray(c) for c in inner.T]

        def near(x, r, a, b):
            # the rows in G's frame, then (p - x) / r and K's box on them;
            # x is subtracted column by column, which numpy loops over
            # faster than a broadcast along rows of two or three
            q = inner.compress(in_box(cols, a, b), axis=0)
            for i in range(len(cols)):
                np.subtract(q[:, i], x[i], out=q[:, i])
            np.divide(q, r, out=q)
            return q.compress(in_box(q.T, lo, hi), axis=0)

        sets = K.contains_many(near(*c) for c in checked)
        return [int(np.count_nonzero(h)) for h in sets]

    return _qmc_pass(G, n, replicates, seed, columns=hits)


def intersection_volume(G, K, x, r, n=DEFAULT_QMC_POINTS,
                        replicates=DEFAULT_REPLICATES, seed=0):
    """V(G intersected with x + rK), by qmc membership counting over G's box.

    One copy of the sweep of ``_copy_counts``: G's membership comes first,
    and K's gauge is evaluated only on the points in G that fall in the
    padded support box of x + rK, so the count is that of the plain
    indicator G(p) & K((p - x) / r).
    """
    _, hits, box = _copy_counts(G, K, [(x, r)], n, replicates, seed)
    return _result(hits[:, 0], n, box)


def deficit_volume(G, K, x, r, n=DEFAULT_QMC_POINTS,
                   replicates=DEFAULT_REPLICATES, seed=0):
    """V(G \\ (x + rK)); estimated directly so the difference is not noisy.

    One copy of the sweep of ``_copy_counts``: the points of G not inside
    x + rK, the count of the plain indicator G(p) & ~K((p - x) / r).
    """
    inside, hits, box = _copy_counts(G, K, [(x, r)], n, replicates, seed)
    return _result(inside - hits[:, 0], n, box)


def halfspace_cut_volume(K, n_dir, n=DEFAULT_QMC_POINTS,
                         replicates=DEFAULT_REPLICATES, seed=0):
    """V({y in K : y . n >= 0}) by qmc membership counting.

    The half-space test is cheap and comes first, as ``_qmc_pass``'s
    ``keep``: K's gauge is evaluated only on the points it keeps, so the
    count is that of the plain indicator K(p) & (p . n >= 0).
    """
    u = bodies.as_direction(n_dir, K.dim)
    inside, _, box = _qmc_pass(K, n, replicates, seed,
                               keep=lambda pts: pts @ u >= 0.0)
    return _result(inside, n, box)


def _support_ratio_scan(G, K, x, samples):
    """Sphere directions U and (H_G(u) - <x, u>) / H_K(u) on them:
    ``circumscribed_ratio`` refines its argmax, ``analysis.touch_point``
    screens contact by its top values.  U and both H come from each body's
    cached sphere grid of ``samples`` directions, by default its gauge grid,
    so a repeated scan evaluates no support function."""
    U, h_G, _ = G._sphere_grid(samples)
    return U, (h_G - U @ x) / K._sphere_grid(samples)[1]


def circumscribed_ratio(G, K, x, samples=None):
    """Smallest t with G inside x + tK, by support-function duality.

    G - x lies in tK exactly when H_G(v) - <x, v> <= t H_K(v) for every v
    (Schneider, Convex Bodies, 1.7), so t = max_v (H_G(v) - <x, v>) / H_K(v):
    a scan over ``samples`` directions, then the sphere search of ``bodies``.
    The numerator is no ``Translate`` of G: for x on the boundary of G it
    vanishes at the normal of x, and a body holds the origin strictly inside.
    """
    x = np.asarray(x, dtype=float)
    U, f = _support_ratio_scan(G, K, x, samples)
    i = np.argmax(f)
    A = bodies.SupportRows(-x[None, :], G)
    g, _ = bodies.support_ratio_max(K, A, U[i:i + 1], f[i:i + 1], len(U))
    return float(g[0])
