"""Volumes, gauges and half-space cuts of convex bodies.

Two independent volume routes are provided: a spherical quadrature of the
support integral (1/N) * integral of h * det R over the unit sphere, and
quasi-Monte Carlo membership counting in a support-derived bounding box
with randomized-shift replicates for the error bar.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.stats import qmc

from . import bodies
from .bodies import boundary_points, curvature, sphere_directions
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


def _sobol(dim, n, seed, replicate):
    # cached: sweeps over boundary points reuse the same streams, which
    # both saves regeneration and correlates their integration errors
    key = (dim, n, seed, replicate)
    hit = _SOBOL_CACHE.get(key)
    if hit is not None:
        return hit
    rng = np.random.default_rng([seed, replicate])
    eng = qmc.Sobol(d=dim, scramble=True, seed=rng)
    m = int(np.log2(n))
    pts = eng.random_base2(m) if 2 ** m == n else eng.random(n)
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
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0.0:
        return 0.0
    return float(body.gauge_many(v[None, :], refine="all")[0])


def _qmc_indicator(dim, box, predicate, n, replicates, seed):
    lo, hi = box
    box_vol = float(np.prod(hi - lo))

    def one(rep):
        pts = lo + _sobol(dim, n, seed, rep) * (hi - lo)
        return float(np.mean(predicate(pts))) * box_vol

    means = np.array(_replicate_map(one, replicates))
    value = float(np.mean(means))
    if replicates > 1:
        stderr = float(np.std(means, ddof=1) / np.sqrt(replicates))
    else:
        stderr = float("nan")
    return IntegrationResult(value, stderr, "qmc", n * replicates)


def volume_qmc(body, n=DEFAULT_QMC_POINTS, replicates=DEFAULT_REPLICATES, seed=0):
    box = bounding_box(body)
    return _qmc_indicator(body.dim, box, body.contains, n, replicates, seed)


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
    h = body.support_hom(grid.nodes)
    # det R = 1 / kappa, from the closed-form 1x1 or 2x2 determinant
    det_r = np.fromiter((1.0 / curvature(body, u).kappa for u in grid.nodes),
                        float, len(grid.nodes))
    return grid.integrate(h * det_r) / body.dim


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


def _where(keep, pts, test):
    """``test`` on the rows of pts where ``keep`` holds, False on the rest.

    The membership tests classify each row on its own, so restricting them
    to a subset changes none of the values on it.
    """
    hit = np.zeros(len(pts), dtype=bool)
    hit[keep] = test(pts.compress(keep, axis=0))
    return hit


def _copy_membership(K, x, r):
    """Membership in x + rK that evaluates K's gauge only where it can matter.

    A point outside K's padded support box has a coordinate beyond
    h_K(+-e_i) + 0.005 * width_i, and width_i > h_K(+-e_i), so its gauge is
    at least 1.005, far above 1 + MEMBERSHIP_TOL: it is outside.  Only the
    points in the box reach ``K.contains``, so the result equals
    ``K.contains((pts - x) / r)`` bit for bit wherever that gauge is right
    to 0.5%.  (Where the coarse scan of a very eccentric K is worse, a
    skipped point that ``K.contains`` would wrongly count inside is
    counted outside.)
    """
    if r <= 0:
        raise ValueError("dilation parameter r must be positive")
    x = np.asarray(x, dtype=float)
    lo, hi = bounding_box(K)

    def member(pts):
        q = (pts - x) / r
        near = (q[:, 0] >= lo[0]) & (q[:, 0] <= hi[0])
        for i in range(1, K.dim):
            near &= (q[:, i] >= lo[i]) & (q[:, i] <= hi[i])
        return _where(near, q, K.contains)

    return member


def intersection_volume(G, K, x, r, n=DEFAULT_QMC_POINTS,
                        replicates=DEFAULT_REPLICATES, seed=0):
    """V(G intersected with x + rK), by qmc membership counting over G's box.

    G's membership comes first.  K's gauge is evaluated only on the points
    in G that fall in the padded support box of x + rK; outside that box
    the gauge is at least 1.005 (see ``_copy_membership``), so the count is
    that of the plain indicator G(p) & K((p - x) / r).
    """
    member = _copy_membership(K, x, r)

    def pred(pts):
        return _where(G.contains(pts), pts, member)

    return _qmc_indicator(G.dim, bounding_box(G), pred, n, replicates, seed)


def deficit_volume(G, K, x, r, n=DEFAULT_QMC_POINTS,
                   replicates=DEFAULT_REPLICATES, seed=0):
    """V(G \\ (x + rK)); estimated directly so the difference is not noisy.

    As in ``intersection_volume``, K's gauge is evaluated only on the points
    in G inside the padded support box of x + rK.  The points of G outside
    it have gauge at least 1.005 and count as outside x + rK, exactly as in
    the plain indicator G(p) & ~K((p - x) / r).
    """
    member = _copy_membership(K, x, r)

    def pred(pts):
        return _where(G.contains(pts), pts, lambda p: ~member(p))

    return _qmc_indicator(G.dim, bounding_box(G), pred, n, replicates, seed)


def halfspace_cut_volume(K, n_dir, n=DEFAULT_QMC_POINTS,
                         replicates=DEFAULT_REPLICATES, seed=0):
    """V({y in K : y . n >= 0}) by qmc membership counting.

    The half-space test is cheap and comes first; K's gauge is evaluated
    only on the points it keeps, so the count is that of the plain
    indicator K(p) & (p . n >= 0).
    """
    u = bodies.as_direction(n_dir, K.dim)

    def pred(pts):
        return _where(pts @ u >= 0.0, pts, K.contains)

    return _qmc_indicator(K.dim, bounding_box(K), pred, n, replicates, seed)


def circumscribed_ratio(G, K, x, samples=None, refine_iters=60):
    """max over the boundary of G of gauge_K(y - x): the smallest dilation
    of K centered at x that contains G."""
    x = np.asarray(x, dtype=float)
    if samples is None:
        samples = 512 if G.dim == 2 else 4096
    U = sphere_directions(G.dim, samples)
    P = boundary_points(G, U)
    g = K.gauge_many(P - x, refine="all")
    i0 = int(np.argmax(g))
    best = float(g[i0])

    def val(u):
        p = boundary_points(G, u[None, :])[0]
        return float(K.gauge_many((p - x)[None, :], refine="all")[0])

    # local refinement over the normal direction around the coarse argmax
    if G.dim == 2:
        th0 = float(np.arctan2(U[i0, 1], U[i0, 0]))
        dth = 2.0 * np.pi / samples
        a, b = th0 - dth, th0 + dth
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        for _ in range(refine_iters):
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            if val(np.array([np.cos(c), np.sin(c)])) > \
               val(np.array([np.cos(d), np.sin(d)])):
                b = d
            else:
                a = c
        th = 0.5 * (a + b)
        best = max(best, val(np.array([np.cos(th), np.sin(th)])))
    else:
        u = U[i0].copy()
        step = 2.0 * np.sqrt(4.0 * np.pi / samples)
        cur = best
        for _ in range(refine_iters):
            E = bodies.tangent_frame(u)
            improved = False
            for d in (E[:, 0], -E[:, 0], E[:, 1], -E[:, 1]):
                cand = u + step * d
                cand /= np.linalg.norm(cand)
                v = val(cand)
                if v > cur:
                    cur, u, improved = v, cand, True
            step *= 0.5 if not improved else 0.9
        best = max(best, cur)
    return best
