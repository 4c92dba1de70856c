"""Volumes, gauges and half-space cuts of convex bodies.

Two independent volume routes are provided: a spherical quadrature of the
support integral (1/N) * integral of h * det R over the unit sphere, and
quasi-Monte Carlo membership counting in a support-derived bounding box,
with independently scrambled replicates for the error bar.  The points are
scrambled Sobol' points (LMS + digital shift, d <= 3) from ``kdense.qmc``,
equal bit for bit to scipy's ``qmc.Sobol(d, scramble=True)`` for numpy's
Generator ``default_rng([seed, replicate])``.  The engine computes that
Generator's bits itself, so a pass imports neither scipy nor numpy's
random module.  Each QMC route is one pass, ``_qmc_pass``, that tests a
body's membership once per replicate and counts columns on the points
inside; a sweep over copies x + rK sharing one G counts each copy on the
points inside G.  In 2D K's ellipse sandwich decides most of a copy's
points in G's frame; the rest of successive copies go to one bounded batch
of K's membership test each.
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

# the fewest nodes whose half grid is not empty (3D nodes are antipode pairs)
MIN_QUADRATURE_NODES = {2: 2, 3: 4}

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
    raw = os.environ.get(WORKERS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, "
                         f"not {raw!r}")
    return int(raw)


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
    eng = qmc.Sobol(d=dim, entropy=(seed, replicate))
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
    for name, v in (("n", n), ("replicates", replicates)):
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"{name} must be an integer >= 1, not {v!r}")
    lo, hi = box = bounding_box(body)

    def one(rep):
        pts = _box_points(_sobol(len(lo), n, seed, rep), lo, hi)
        if keep is not None:
            pts = pts.compress(keep(pts), axis=0)
        # dropping the box points before the columns run lowers peak memory
        pts = pts.compress(body.contains(pts), axis=0)
        return [len(pts)] + (columns(pts) if columns else [])

    counts = np.array(_replicate_map(one, replicates))
    return counts[:, 0], counts[:, 1:], box


def volume_qmc(body, n=DEFAULT_QMC_POINTS, replicates=DEFAULT_REPLICATES, seed=0):
    inside, _, box = _qmc_pass(body, n, replicates, seed)
    return _result(inside, n, box)


def volume_quadrature(body, n=None):
    """Support-integral volume (1/N) * integral h det R dsigma.

    Raises SingularCurvature if any node has degenerate curvature data.
    """
    if n is not None and n < MIN_QUADRATURE_NODES[body.dim]:
        raise ValueError(f"too few quadrature nodes for an error estimate: "
                         f"{n}")
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
    if method not in ("auto", "quadrature", "qmc"):
        raise ValueError(f"unknown volume method {method!r}")
    if method in ("auto", "quadrature"):
        try:
            res = volume_quadrature(body, n)
            if method == "quadrature" or res.stderr <= 1e-3 * abs(res.value):
                return res
        except SingularCurvature:
            if method == "quadrature":
                raise
    return volume_qmc(body, qmc_points, replicates, seed)


# A copy of a sweep decides its rows in G's frame (``_CopySweep``) only when
# the rounding bound of the expanded quadratic form is at most this share of
# SANDWICH_MARGIN r^2 q_in.
SWEEP_ROUNDING_SHARE = 0.25
# K tests the rows of successive copies of a sweep in one call once they
# reach this many: a memory bound, 1.5 MB of 3D points per call
SWEEP_BATCH_ROWS = 2 ** 16


def _in_box(cols, a, b):
    """Rows whose coordinates, given as columns, lie in the box [a, b]."""
    keep = (cols[0] >= a[0]) & (cols[0] <= b[0])
    for i in range(1, len(cols)):
        keep &= (cols[i] >= a[i]) & (cols[i] <= b[i])
    return keep


class _CopySweep:
    """The columns of ``_copy_counts``: called on the points inside G, it
    returns the number of them inside each copy x + rK.

    A copy keeps the points whose (p - x) / r lie in K's ``bounding_box``:
    ``K.contains`` decides them, and every other point is outside.  Each
    copy hands K a set of G's points; K tests the sets of successive copies
    in one call once they hold SWEEP_BATCH_ROWS rows, and at the last copy.
    ``contains`` decides each row on its own, so batches change no count.

    With K's ellipse sandwich (``ConvexBody._sweep_sandwich``) a copy
    decides its rows in G's frame first.  Per replicate the rows p give
    Q(p) = p' M^-1 p and p' M^-1 once; per copy
    Q(p - x) = Q(p) - 2 p' M^-1 x + Q(x) is one dot product per row, and a
    row is inside when Q(p - x) <= r^2 q_in and outside when it exceeds
    r^2 q_out (``bodies._sandwich_levels``).  Only the rows between, the
    copy's shell, go to K.  Every other copy (3D, closed gauges, a rejected
    fit, or a rounding bound that fails the check below, as for a tiny r or
    a copy far from the origin) hands K the rows inside x + r [lo, hi] in
    G's frame, widened by a rounding pad.  Either way the count is that of
    the plain indicator K((p - x) / r).
    """

    def __init__(self, K, copies):
        self.K = K
        lo, hi = self.box = bounding_box(K)
        self.copies = []
        for x, r in copies:
            x, r = np.asarray(x, dtype=float), float(r)
            if not (math.isfinite(r) and r > 0.0):
                raise ValueError(f"dilation parameter r must be finite and "
                                 f"positive, not {r}")
            if x.shape != (K.dim,) or not np.isfinite(x).all():
                raise ValueError(f"copy point x must be a finite "
                                 f"{K.dim}-vector")
            # p - x and the division by r round by under an ulp of |x| and
            # of r |lo|, r |hi|: the pad covers that many times over, so the
            # box in G's frame keeps every row the box in K's frame keeps
            pad = 1e-9 * (np.abs(x) + r * (hi - lo))
            self.copies.append((x, r, x + r * lo - pad, x + r * hi + pad))
        self.sandwich = K._sweep_sandwich()
        if self.sandwich is None:
            return
        Minv, q_in, q_out = bodies._sandwich_levels(self.sandwich)
        X = np.array([c[0] for c in self.copies]).reshape(-1, 2)
        r = np.array([c[1] for c in self.copies])
        r2 = r * r
        k = bodies._quadratic_form(X, Minv)
        self.form = Minv.tolist()
        self.weights = (-2.0 * X).tolist()
        self.levels = list(zip((r2 * q_in - k).tolist(),
                               (r2 * q_out - k).tolist()))
        # The rounding bound, with N(z) = |z|' |M^-1| |z|.  |M^-1| is
        # positive definite as M^-1 is (ac > b^2), so by Cauchy-Schwarz
        # |p|' |M^-1| |x| <= sqrt(N(p) N(x)).  Row by row, p' M^-1 rounds by
        # under eps |p|' |M^-1|, which moves its product with -2x by
        # 2 eps sqrt(N(p) N(x)); Q(p) rounds by 2 eps N(p), and the sum
        # Q(p) - 2 p' M^-1 x by 2 eps (N(p) + 2 sqrt(N(p) N(x))) more.  Per
        # copy, Q(x) rounds by 2 eps N(x), and r^2 q - Q(x) by
        # 2 eps (r^2 q + N(x)).  So each comparison's two sides differ by
        # under half of E = 8 eps ((sqrt N(p) + sqrt N(x))^2 + r^2 q_out)
        # from their exact difference, with N(p) at most rho' |M^-1| rho
        # for rho the largest |p_i| of the replicate (``decided``).
        # A copy is decided in G's frame only when E <= margin r^2 q_in / 4,
        # margin = SANDWICH_MARGIN.  A row it decides inside then has
        # Q(p - x) <= r^2 s_in^2 (1 - 3 margin / 4).  K receives
        # y = fl(fl(p - x) / r), whose coordinates carry two roundings;
        # they move sqrt Q by at most 2.0001 (eps / 2) sqrt(cond M), under
        # 2.3e-12 for cond M <= SANDWICH_MAX_COND, so
        # Q(y) < s_in^2 (1 - margin / 2).  So y lies in the inner ellipse of
        # K scaled by 1 - margin / 4: its gauge is below 1 - 2.5e-7, and
        # K's membership test counts it inside (``_sweep_sandwich``).
        # Likewise a row decided outside has Q(y) > s_out^2
        # (1 + MEMBERSHIP_TOL)^2 (1 + margin / 2), as s_in^2 <= s_out^2, so
        # its gauge exceeds (1 + MEMBERSHIP_TOL)(1 + 2.4e-7) and K counts it
        # outside.  A row inside K lies in K's box, so the count is the box
        # route's.
        self.abs_form = np.abs(Minv)
        eps = np.finfo(float).eps
        self.root_nx = np.sqrt(bodies._quadratic_form(np.abs(X),
                                                      self.abs_form))
        self.budget = SWEEP_ROUNDING_SHARE * bodies.SANDWICH_MARGIN * \
            r2 * q_in - 8.0 * eps * r2 * q_out

    def decided(self, cols):
        """Which copies decide their rows in G's frame, for rows given by
        their coordinate columns: those whose rounding bound E meets the
        budget (see ``__init__``)."""
        if self.sandwich is None or not len(cols[0]):
            return np.zeros(len(self.copies), dtype=bool)
        rho = np.array([np.abs(c).max() for c in cols])
        e = (math.sqrt(rho @ self.abs_form @ rho) + self.root_nx) ** 2
        return 8.0 * np.finfo(float).eps * e <= self.budget

    def __call__(self, inner):
        cols = [np.ascontiguousarray(c) for c in inner.T]
        decided = self.decided(cols)
        if decided.any():
            # p' M^-1 and Q(p) on contiguous columns: numpy loops over
            # these several times faster than over rows of two
            (a, b), (_, c) = self.form
            px, py = cols
            ax = px * a
            ax += py * b
            ay = px * b
            ay += py * c
            qp = ax * px
            qp += ay * py
        counts = np.zeros(len(self.copies), dtype=np.int64)
        rows, size, first = [], 0, 0
        for j, (x, r, a, b) in enumerate(self.copies):
            if decided[j]:
                (wx, wy), (t_in, t_out) = self.weights[j], self.levels[j]
                d = ax * wx
                d += qp
                d += ay * wy
                counts[j] = np.count_nonzero(d <= t_in)
                rows.append(np.flatnonzero((d > t_in) & (d <= t_out)))
            else:
                rows.append(np.flatnonzero(_in_box(cols, a, b)))
            size += len(rows[-1])
            if size >= SWEEP_BATCH_ROWS or j == len(self.copies) - 1:
                counts[first:j + 1] += self._hits(cols, rows, first)
                rows, size, first = [], 0, j + 1
        return counts.tolist()

    def _hits(self, cols, rows, first):
        """K's hits among the rows of copies first, first + 1, ...: their
        (p - x) / r, coordinate by coordinate and copy by copy with the
        same two roundings as one copy at a time, then K's box and one
        ``K.contains`` call.  ``rows`` is emptied, so that the row indices
        are gone before that call."""
        ends = np.cumsum([len(i) for i in rows])
        segments = [slice(e - len(i), e) for i, e in zip(rows, ends)]
        idx = np.concatenate(rows)
        rows.clear()
        q = [c.take(idx) for c in cols]
        del idx
        for s, (x, r, _, _) in zip(segments, self.copies[first:]):
            for y, xi in zip(q, x):
                v = y[s]
                v -= xi
                v /= r
        keep = _in_box(q, *self.box)
        pts = np.column_stack([y.compress(keep) for y in q])
        del q
        hit = np.zeros(len(keep), dtype=bool)
        hit[keep] = self.K.contains(pts)
        return [np.count_nonzero(hit[s]) for s in segments]


def _copy_counts(G, K, copies, n, replicates, seed):
    """QMC counts of G and of G intersected with each copy x + rK.

    ``copies`` is a sequence of pairs (x, r), each x a finite point and
    each r finite and positive; ``_qmc_pass`` tests G's membership once per
    replicate, and its columns, a ``_CopySweep``, count each copy on the
    points inside G: in 2D K's ellipse sandwich decides most rows in G's
    frame, and K tests the other rows of successive copies in one call per
    SWEEP_BATCH_ROWS rows, whose open points share one sphere search.
    Returns (inside, hits, box): inside[i] is the number of the n points of
    replicate i inside G, hits[i, j] the number of those inside copy j as
    well, and box is G's box.  The deficit count of copy j is
    inside[i] - hits[i, j].

    Both are the counts of the plain indicators G(p) & K((p - x) / r) and
    G(p) & ~K((p - x) / r) over the same points.  A point outside K's box
    has a coordinate beyond h_K(+-e_i) + 0.005 * width_i, and
    width_i > h_K(+-e_i), so its gauge is at least 1.005, far above
    1 + MEMBERSHIP_TOL: it is outside.  In 2D skipping it changes no count:
    ``K.contains`` counts a point inside only when a chord bound, which is
    at least its gauge, or its converged gauge is at most
    1 + MEMBERSHIP_TOL, never for a gauge of 1.005 or more.  In 3D that
    holds wherever the coarse gauge is right to 0.5%; where the coarse scan
    of a very eccentric K is worse, a skipped point that ``K.contains``
    would wrongly count inside is counted outside.
    """
    return _qmc_pass(G, n, replicates, seed, columns=_CopySweep(K, copies))


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
