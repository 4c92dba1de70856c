"""Verification battery for the K-density characterization.

Checks, on concrete bodies, each identity the characterization rests on:
constancy of the overlap volume along the boundary, uniqueness of the
touch point, the Minkowski-sum shape-operator identity and its difference
body specialization, antipodal curvature symmetry, the difference body
being twice the body, the half-volume cut condition, and the
curvature-support power identity that pins down ellipsoids.
"""

import math

import numpy as np

from . import measure
from .bodies import (MinkowskiSum, _curvature, _frame, as_direction,
                     boundary_points, curvature_many, difference_body,
                     normal_at, sphere_directions)
from .errors import NonUniqueContact


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

def touch_point(G, K, x, contact_tol=1e-6, samples=None):
    """The unique point where the boundary of x + K meets G, with its normal.

    For strictly convex differentiable G and K the inscribed copy x + K
    touches G at exactly one boundary point xbar, characterized by the
    outward normal at xbar being the opposite of the one at x.  Raises
    NonUniqueContact when the contact set spreads over an arc (corner or
    flat contact), carrying the offending boundary samples.
    """
    x = np.asarray(x, dtype=float)
    if samples is None:
        samples = 512 if G.dim == 2 else 4096
    U = sphere_directions(G.dim, samples)
    P = boundary_points(G, U)
    g = K.gauge_many(P - x, refine="all")
    top = float(np.max(g))
    hits = np.flatnonzero(g > top - contact_tol)
    dirs = U[hits]
    # angular diameter of the contact directions
    dots = np.clip(dirs @ dirs.T, -1.0, 1.0)
    diam = float(np.max(np.arccos(dots)))
    spacing = 2.0 * np.pi / samples if G.dim == 2 else 2.0 * np.sqrt(4.0 * np.pi / samples)
    if diam > 8.0 * spacing:
        raise NonUniqueContact(
            f"contact set spans an angular diameter of {diam:.3f} rad",
            contact_points=P[hits])
    nu = normal_at(G, x)
    u = -nu
    xbar = boundary_points(G, u[None, :])[0]
    gk = measure.gauge(K, xbar - x)
    if abs(gk - 1.0) > contact_tol:
        raise NonUniqueContact(
            f"touch point fails the inscribed-copy condition "
            f"(gauge_K(xbar - x) = {gk:.8f})", contact_points=P[hits])
    return xbar, u


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


def _direction(u, dim):
    """u validated and normalized once, as floats, and its tangent frame."""
    u = tuple(as_direction(u, dim).tolist())
    return u, _frame(u)


def _shape(body, u, E):
    """Entries of the shape operator S at u in the frame E (floats)."""
    return _curvature(body, u, E)[1]


def _full(S):
    """Row-major entries of the 1x1 or symmetric 2x2 matrix with entries S."""
    return S if len(S) == 1 else (S[0], S[1], S[1], S[2])


def _frobenius_gap(P, Q):
    """Frobenius norm of P - Q, both given by row-major entries."""
    return math.hypot(*(p - q for p, q in zip(P, Q)))


def krantz_parks_check(A, B, u):
    """Residual of the Minkowski-sum shape operator identity at u.

    Compares S_{A+B} with [I + S_A^{-1} S_B]^{-1} S_B in the shared frame
    of u; algebraically this is additivity of the reverse Weingarten maps.
    """
    u, F = _direction(u, A.dim)
    S_A = _shape(A, u, F)
    S_B = _shape(B, u, F)
    S_AB = _shape(MinkowskiSum(A, B), u, F)
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
    S_G(u) - S_K(u) is positive definite.
    """
    if K is None:
        K = difference_body(G)
    u, F = _direction(u, G.dim)
    S_K = _shape(K, u, F)
    S_Gu = _shape(G, u, F)
    S_Gmu = _shape(G, tuple(-c for c in u), F)
    rhs = _harmonic_compose(S_Gu, S_Gmu)
    if not _is_positive_definite([g - k for g, k in zip(S_Gu, S_K)]):
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


def k_equals_2g_check(G, m=256, budget=1e-8):
    """Spread of h_{G-G}(u) / (2 h_{G-c}(u)) over the sphere.

    c is the symmetry-center estimate of G; the ratio is identically 1
    exactly when the difference body is twice the (centered) body.
    """
    K = difference_body(G)
    c = symmetry_center(G, m)
    U = sphere_directions(G.dim, m)
    hK = K.support_hom(U)
    hG_centered = G.support_hom(U) - U @ c
    ratios = hK / (2.0 * hG_centered)
    return SpreadReport("h_{G-G} / 2 h_{G-c}", ratios, budget,
                        extra={"center": c})


def halfvolume_condition_check(G, K, m=16, n=measure.DEFAULT_QMC_POINTS,
                               replicates=measure.DEFAULT_REPLICATES, seed=0):
    """Spread of V({y in K : y . nu >= 0}) / V(K) over boundary normals of G.

    The half-volume cut condition demands the ratio be 1/2 for every
    boundary normal; the error budget comes from the qmc error bars.
    """
    U = sphere_directions(G.dim, m)
    vk = measure.volume_qmc(K, n=n, replicates=replicates, seed=seed)
    vals, errs = [], []
    for u in U:
        res = measure.halfspace_cut_volume(K, u, n=n, replicates=replicates,
                                           seed=seed)
        vals.append(res.value / vk.value)
        errs.append(res.stderr / vk.value)
    budget = 3.0 * (np.sqrt(2.0) * max(errs) + vk.stderr / vk.value)
    return SpreadReport("half-space cut fraction", vals, budget,
                        extra={"stderr": errs, "volume": vk})
