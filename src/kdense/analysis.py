"""Verification battery for the K-density characterization.

Checks, on concrete bodies, each identity the characterization rests on:
constancy of the overlap volume along the boundary, uniqueness of the
touch point, the Minkowski-sum shape-operator identity and its difference
body specialization, antipodal curvature symmetry, the difference body
being twice the body, the half-volume cut condition, and the
curvature-support power identity that pins down ellipsoids.
"""

import math
import operator

import numpy as np

from . import measure
from .bodies import (_as_directions, _block_sum, _curvature, _direction,
                     _grid_spacing, _is_difference_body, boundary_points,
                     curvature_many, difference_body, sphere_directions)
from .errors import NonUniqueContact

# how far below the top of the support-ratio scan a normal still counts as
# a contact normal, and how far from 1 the touch point's K gauge may be
CONTACT_TOL = 1e-6


class SpreadReport:
    """Min/max/mean statistics of a sampled quantity with an error budget."""

    def __init__(self, name, values, error_budget, extra=None):
        values = np.asarray(values, dtype=float)
        self.name = name
        self.sample_count = len(values)
        self.min = float(np.min(values))
        self.max = float(np.max(values))
        self.mean = float(np.mean(values))
        self.relative_spread = (self.max - self.min) / self.mean if self.mean else np.inf
        self.error_budget = float(error_budget)
        self.values = values
        self.extra = extra or {}

    @property
    def constant(self):
        """True when the spread is within the error budget."""
        return self.relative_spread <= self.error_budget

    def __repr__(self):
        verdict = "constant" if self.constant else "not constant"
        return (f"SpreadReport({self.name}: mean={self.mean:.6g}, "
                f"spread={self.relative_spread:.3g}, "
                f"budget={self.error_budget:.3g} -> {verdict})")


# ---------------------------------------------------------------------------

def touch_point(G, K, x, samples=None):
    """The unique point where the boundary of x + K meets G, with its normal.

    For strictly convex differentiable G and K the inscribed copy x + K
    touches G at exactly one boundary point xbar, characterized by the
    outward normal at xbar being the opposite of the one at x.  Raises
    NonUniqueContact when the normals within CONTACT_TOL of the top of the
    scan of ``measure.circumscribed_ratio`` spread over an arc, carrying G's
    boundary points at them; a lone touching vertex of G is unique contact.
    The scan reads both bodies' cached sphere grids, ``samples`` directions
    (by default their gauge grids), so a repeated call evaluates no support
    function on them.  This is the one-row case of ``touch_points``.
    """
    row, = touch_points(G, K, np.asarray(x, dtype=float)[None, :], samples)
    if isinstance(row, NonUniqueContact):
        raise row
    return row[:2]


def touch_points(G, K, X, samples=None):
    """``touch_point`` at every row x of X, with K's side of the contact.

    Per row: (xbar, u) and K's gauge of xbar - x with its normal there,
    from the search that checks the inscribed-copy condition
    gauge_K(xbar - x) = 1; or the NonUniqueContact that ``touch_point``
    raises for that row, returned, not raised.  Each row is screened by
    its own support-ratio scan; then one stacked normal search on G gives
    every u, and one stacked search of K's gauge every xbar - x.  Both
    searches give each row its one-row bits (``gauge_argmax_many``).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out, contact = [None] * len(X), [None] * len(X)
    for i, x in enumerate(X):
        U, f = measure._support_ratio_scan(G, K, x, samples)
        dirs = U[f > np.max(f) - CONTACT_TOL]
        # angular diameter of the contact directions
        diam = float(np.max(np.arccos(np.clip(dirs @ dirs.T, -1.0, 1.0))))
        if diam > 8.0 * _grid_spacing(G.dim, len(U)):
            out[i] = NonUniqueContact(
                f"contact set spans an angular diameter of {diam:.3f} rad",
                contact_points=boundary_points(G, dirs))
        else:
            contact[i] = dirs
    rows = [i for i in range(len(X)) if out[i] is None]
    if rows:
        Xr = X if len(rows) == len(X) else X[rows]
        u = -G.gauge_argmax_many(Xr)[1]
        xbar = boundary_points(G, u)
        gk, nu_k = K.gauge_argmax_many(xbar - Xr)
        for j, (i, g) in enumerate(zip(rows, gk.tolist())):
            if abs(g - 1.0) > CONTACT_TOL:
                out[i] = NonUniqueContact(
                    f"touch point fails the inscribed-copy condition "
                    f"(gauge_K(xbar - x) = {g:.8f})",
                    contact_points=boundary_points(G, contact[i]))
            else:
                out[i] = (xbar[j], u[j], g, nu_k[j])
    return out


def kdense_spread(G, K, r, m=64, n=measure.DEFAULT_QMC_POINTS,
                  replicates=measure.DEFAULT_REPLICATES, seed=0):
    """Spread of V(G ^ (x + rK)) over m boundary points of G.

    The spread is a difference of two estimates, so its standard error
    is up to sqrt(2) times the worst single error bar; the budget is
    three times that, relative to the mean, so the verdict compares
    geometry against integration noise.
    """
    if m < 8:
        raise ValueError("need at least 8 boundary samples")
    if replicates < 2:  # one has no standard error, so a NaN budget
        raise ValueError("need at least 2 replicates")
    U = sphere_directions(G.dim, m)
    X = boundary_points(G, U)
    # one QMC pass over G's points serves all m copies x + rK
    _, hits, box = measure._copy_counts(G, K, [(x, r) for x in X], n,
                                        replicates, seed)
    results = [measure._result(c, n, box) for c in hits.T]
    vols = [res.value for res in results]
    errs = [res.stderr for res in results]
    budget = 3.0 * np.sqrt(2.0) * max(errs) / np.mean(vols)
    return SpreadReport(f"overlap volume at r={r}", vols, budget,
                        extra={"stderr": errs, "r": r, "points": X})


def petty_check(G, m=256):
    """Spread of kappa(u) / h(u)^(N+1) over the sphere.

    Constant ratio is the ellipsoid signature; directions with degenerate
    curvature are excluded from the statistics and counted in the report.
    Its extra holds, per evaluated direction, the index into the m
    directions, kappa and h; the ratios are its values.
    """
    N = G.dim
    data, singular = curvature_many(G, sphere_directions(N, m))
    ok = ~singular
    h = G.support_hom(data.u[ok])
    kappa = data.kappa[ok]
    # h^(N+1) by libm's pow, one value at a time: numpy's vectorized power
    # can differ from it in the last bit
    ratios = kappa / np.array([v ** (N + 1) for v in h.tolist()])
    return SpreadReport("kappa / h^(N+1)", ratios, 1e-6,
                        extra={"singular_directions": int(singular.sum()),
                               "constant": float(np.mean(ratios)),
                               "u_index": np.flatnonzero(ok),
                               "kappa": kappa, "h": h})


def _full(S):
    """Row-major entries of the 1x1 or symmetric 2x2 matrix with entries S."""
    return S if len(S) == 1 else (S[0], S[1], S[1], S[2])


def _frobenius_gap(P, Q):
    """Frobenius norm of P - Q, both given by row-major entries."""
    return math.hypot(*map(operator.sub, P, Q))


def krantz_parks_check(A, B, u):
    """Residual of the Minkowski-sum shape operator identity at u.

    Compares S_{A+B} with [I + S_A^{-1} S_B]^{-1} S_B in the shared frame
    of u; algebraically this is additivity of the reverse Weingarten maps.
    Each summand's tangent block is evaluated once: the sum's is R_A + R_B,
    entry by entry, as ``MinkowskiSum`` forms it.  SingularCurvature is
    raised for A, B and A + B in that order.
    """
    u, F = _direction(u, A.dim)
    R_A = A._tangent_block(u, F)
    S_A = _curvature(R_A, u)[1]
    R_B = B._tangent_block(u, F)
    S_B = _curvature(R_B, u)[1]
    S_AB = _curvature(_block_sum(R_A, R_B), u)[1]
    return _frobenius_gap(_full(S_AB), _harmonic_compose(S_A, S_B))


def _harmonic_compose(S_A, S_B):
    """S_B (I + S_A^{-1} S_B)^{-1}, the harmonic sum (S_A^{-1}+S_B^{-1})^{-1}.

    The resolvent factor must multiply on the right: the left-multiplied
    reading (I + S_A^{-1} S_B)^{-1} S_B only agrees when the shape
    operators commute, which fails for generic 3D pairs.  S_A and S_B are
    the entries of symmetric 1x1 or 2x2 matrices, (s11,) or (s11, s12,
    s22); both inverses are adjugates over determinants.  Returns the
    row-major entries of the product, which rounding leaves unsymmetric.
    """
    if len(S_A) == 1:
        (a,), (b,) = S_A, S_B
        return (b / (1.0 + b / a),)
    a11, a12, a22 = S_A
    b11, b12, b22 = S_B
    det_a = a11 * a22 - a12 * a12
    # M = I + S_A^{-1} S_B
    m11 = 1.0 + (a22 * b11 - a12 * b12) / det_a
    m12 = (a22 * b12 - a12 * b22) / det_a
    m21 = (a11 * b12 - a12 * b11) / det_a
    m22 = 1.0 + (a11 * b22 - a12 * b12) / det_a
    det_m = m11 * m22 - m12 * m21
    # S_B M^{-1}
    return ((b11 * m22 - b12 * m21) / det_m, (b12 * m11 - b11 * m12) / det_m,
            (b12 * m22 - b22 * m21) / det_m, (b22 * m11 - b12 * m12) / det_m)


def kp1_check(G, u, K=None):
    """Residual of the difference-body shape operator identity at u.

    With K = G + (-G), checks S_K(u) against
    [I + S_G(u)^{-1} S_G(-u)]^{-1} S_G(-u) in a shared frame, and that
    S_G(u) - S_K(u) is positive definite.  G's tangent blocks at u and -u
    are evaluated once each.  When K is G's difference body (the default,
    or ``difference_body(G)`` passed in), its block is their sum, entry by
    entry, as ``MinkowskiSum`` and ``Dilate`` form it; any other K is
    evaluated on its own.  SingularCurvature is raised for K, G at u and
    G at -u in that order.
    """
    u, F = _direction(u, G.dim)
    mu = tuple(map(operator.neg, u))
    R_Gu = G._tangent_block(u, F)
    R_Gmu = G._tangent_block(mu, F)
    R_K = _block_sum(R_Gu, R_Gmu) if K is None or _is_difference_body(K, G) \
        else K._tangent_block(u, F)
    S_K = _curvature(R_K, u)[1]
    S_Gu = _curvature(R_Gu, u)[1]
    S_Gmu = _curvature(R_Gmu, mu)[1]
    rhs = _harmonic_compose(S_Gu, S_Gmu)
    if not _is_positive_definite(tuple(map(operator.sub, S_Gu, S_K))):
        raise ValueError("S_G(u) - S_K(u) is not positive definite")
    return _frobenius_gap(_full(S_K), rhs)


def _is_positive_definite(M):
    """Positive definiteness of a symmetric 1x1 or 2x2 matrix, by entries."""
    if len(M) == 1:
        return M[0] > 0
    a, b, d = M
    return a > 0 and a * d - b * b > 0


def curvature_symmetry_check(G, m=64):
    """max |kappa(u) - kappa(-u)| over m antipodal direction pairs.

    Degenerate pairs are skipped; their count is returned alongside.  When
    every pair is skipped nothing was compared, and the maximum is NaN.
    """
    U = sphere_directions(G.dim, m)
    plus, singular_plus = curvature_many(G, U)
    minus, singular_minus = curvature_many(G, -U)
    ok = ~(singular_plus | singular_minus)
    diffs = np.abs(plus.kappa - minus.kappa)[ok]
    worst = float(diffs.max()) if diffs.size else float("nan")
    return worst, len(U) - int(ok.sum())


def symmetry_center(G, m=64):
    """Estimate of the center of symmetry: midpoints of antipodal supports."""
    U = sphere_directions(G.dim, m)
    P = boundary_points(G, U)
    Q = boundary_points(G, -U)
    return np.mean(0.5 * (P + Q), axis=0)


def k_equals_2g_check(G, m=256):
    """Spread of h_{G-G}(u) / (2 h_{G-c}(u)) over the sphere.

    c is the symmetry-center estimate of G; the ratio is identically 1
    exactly when the difference body is twice the (centered) body, so the
    budget is rounding level, 1e-8.
    """
    K = difference_body(G)
    c = symmetry_center(G, m)
    U = sphere_directions(G.dim, m)
    hK = K.support_hom(U)
    hG_centered = G.support_hom(U) - U @ c
    ratios = hK / (2.0 * hG_centered)
    return SpreadReport("h_{G-G} / 2 h_{G-c}", ratios, 1e-8,
                        extra={"center": c})


def halfvolume_condition_check(G, K, m=16, n=measure.DEFAULT_QMC_POINTS,
                               replicates=measure.DEFAULT_REPLICATES, seed=0):
    """Spread of V({y in K : y . nu >= 0}) / V(K) over boundary normals of G.

    The half-volume cut condition demands the ratio be 1/2 for every
    boundary normal; the error budget comes from the qmc error bars.  One
    membership test of K per replicate serves V(K) and every cut, with the
    counts of ``measure.volume_qmc`` and ``measure.halfspace_cut_volume``.
    """
    if replicates < 2:  # one has no standard error, so a NaN budget
        raise ValueError("need at least 2 replicates")
    U = _as_directions(sphere_directions(G.dim, m), K.dim)

    def cuts(P):
        # one matrix-vector product per normal, as halfspace_cut_volume
        # takes it: a stacked product rounds differently on the cut plane
        return [int(np.count_nonzero(P @ u >= 0.0)) for u in U]

    inside, hits, box = measure._qmc_pass(K, n, replicates, seed, columns=cuts)
    vk, *results = [measure._result(c, n, box) for c in (inside, *hits.T)]
    vals = [res.value / vk.value for res in results]
    errs = [res.stderr / vk.value for res in results]
    budget = 3.0 * (np.sqrt(2.0) * max(errs) + vk.stderr / vk.value)
    return SpreadReport("half-space cut fraction", vals, budget,
                        extra={"stderr": errs, "volume": vk})
