"""Asymptotic regimes of the overlap volume V(G ^ (x + rK)).

Near r = 1 (with K normalized so the circumscribed ratio is 1) the deficit
V(G) - V(G ^ (x + rK)) decays like (1-r)^((N+1)/2) with a closed-form
coefficient built from the support function of K and the shape operators
of G and K at the touch direction; near r = 0 the overlap grows like
V0(x) r^N where V0 is a half-space cut of K.  Both regimes are extracted
numerically from geometric ladders and compared with the closed forms.
"""

import operator

import numpy as np

from .analysis import _is_positive_definite, touch_point
from .bodies import _curvature, _det, _direction, normal_at
from .errors import DegenerateFit, FlatContact
from .measure import OMEGA, halfspace_cut_volume
from . import measure

# relative error floor of a QMC ladder's fit in large_r_coefficient_numeric
LADDER_REL_FLOOR = 0.005


class PowerLawFit:
    """Result of fitting f ~ coefficient * eps^exponent on a ladder."""

    def __init__(self, exponent, coefficient, r_squared, ladder):
        self.exponent = float(exponent)
        self.coefficient = float(coefficient)
        self.r_squared = float(r_squared)
        self.ladder = list(ladder)
        self.trusted = self.r_squared >= 0.99

    def __repr__(self):
        return (f"PowerLawFit(exponent={self.exponent:.6g}, "
                f"coefficient={self.coefficient:.6g}, r2={self.r_squared:.6g})")


def fit_power_law(samples, rel_floor=0.0):
    """Weighted least squares of log f against log eps.

    ``samples`` is a list of (eps, f, stderr), all finite, with f >= 0.  A
    rung no larger than its error bar, such as one that counted no point,
    raises ``DegenerateFit``.
    Weights are the inverse variances of log f; ``rel_floor`` adds a
    relative error floor guarding against over-trusting rungs with tiny
    error bars.
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 ladder samples")
    eps = np.array([s[0] for s in samples], dtype=float)
    f = np.array([s[1] for s in samples], dtype=float)
    sig = np.array([s[2] for s in samples], dtype=float)
    # a NaN passes every comparison below as false
    if not (np.isfinite(eps).all() and np.isfinite(f).all()
            and np.isfinite(sig).all()):
        raise ValueError("ladder samples must be finite")
    if np.any(f < 0):
        raise ValueError("ladder values must be non-negative")
    if np.any(f <= sig):
        raise DegenerateFit("ladder value drowned by its error bar; "
                            "deepen the qmc budget")
    rel = np.sqrt((sig / f) ** 2 + rel_floor ** 2)
    if np.all(rel == 0):
        w = np.ones_like(f)
    else:
        w = 1.0 / np.maximum(rel, 1e-150) ** 2
    intercept, slope, r2 = _weighted_line(np.log(eps), np.log(f), w)
    return PowerLawFit(slope, np.exp(intercept), r2, samples)


def _weighted_line(X, Y, w):
    """Weighted least-squares line Y ~ intercept + slope X, and its weighted
    coefficient of determination (1 when Y is constant)."""
    W = np.sum(w)
    xb = np.sum(w * X) / W
    yb = np.sum(w * Y) / W
    sxx = np.sum(w * (X - xb) ** 2)
    sxy = np.sum(w * (X - xb) * (Y - yb))
    slope = sxy / sxx
    intercept = yb - slope * xb
    resid = Y - (intercept + slope * X)
    ss_res = np.sum(w * resid ** 2)
    ss_tot = np.sum(w * (Y - yb) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return intercept, slope, r2


def deficit_ladder(G, K, x, eps0=0.1, rungs=8, oracle=None,
                   n=measure.DEFAULT_QMC_POINTS,
                   replicates=measure.DEFAULT_REPLICATES, seed=0):
    """Ladder of deficit volumes f(eps) = V(G \\ (x + (1-eps)K)).

    ``oracle`` maps eps to the exact deficit (used for disk/ball pairs so
    regression error is isolated from integration error).
    """
    epss = [eps0 * 0.5 ** k for k in range(rungs)]
    if oracle is not None:
        return [(eps, float(oracle(eps)), 0.0) for eps in epss]
    # one QMC pass over G's points serves every rung
    inside, hits, box = measure._copy_counts(
        G, K, [(x, 1.0 - eps) for eps in epss], n, replicates, seed)
    ladder = []
    for eps, c in zip(epss, hits.T):
        res = measure._result(inside - c, n, box)
        ladder.append((eps, res.value, res.stderr))
    return ladder


def large_r_coefficient_numeric(G, K, x, eps0=0.1, rungs=8, oracle=None,
                                n=measure.DEFAULT_QMC_POINTS,
                                replicates=measure.DEFAULT_REPLICATES,
                                seed=0):
    """Fitted exponent and coefficient of the deficit decay as r -> 1^-.

    Requires K normalized so the circumscribed ratio at x equals 1.
    Raises FlatContact when the fitted exponent falls short of (N+1)/2,
    the signature of a flat touch point.
    """
    x = np.asarray(x, dtype=float)
    ratio = measure.circumscribed_ratio(G, K, x)
    if abs(ratio - 1.0) > 1e-3:
        raise ValueError(f"circumscribed ratio is {ratio:.6f}; "
                         "normalize K so it equals 1")
    ladder = deficit_ladder(G, K, x, eps0=eps0, rungs=rungs, oracle=oracle,
                            n=n, replicates=replicates, seed=seed)
    fit = fit_power_law(ladder, rel_floor=0.0 if oracle is not None
                        else LADDER_REL_FLOOR)
    target = (G.dim + 1) / 2.0
    if fit.exponent < target - 0.1:
        raise FlatContact(
            f"fitted exponent {fit.exponent:.4f} below {target} - 0.1: "
            "flat touch point (deficit blows up relative to the strongly "
            "convex rate)", fit=fit)
    return fit


def large_r_coefficient_closed(G, K, x):
    """Displayed closed-form deficit coefficient at the touch direction of x.

    Evaluates 2 w_{N-1} h_K(u)^((N+1)/2) / ((N^2-1) det[S_G(u)-S_K(u)]^(1/2))
    with u the outward normal at the touch point opposite x, plugging in the
    shape operators of this package (Hessians of the boundary graph).

    Note: the displayed constant is stated for the convention in which the
    boundary expansion reads y_N = <S y, y> without the 1/2 factor, i.e.
    S equal to HALF the graph Hessian.  The geometric deficit therefore
    converges to 2^((N-1)/2) times this value; see large_r_limit_closed.
    """
    N = G.dim
    return _touch_constant(G, K, x, 2.0, N * N - 1, minus_k=True)


def _touch_constant(G, K, x, c, d, minus_k):
    """c w_{N-1} h_K(u)^((N+1)/2) / (d det[M]^(1/2)) at the touch direction
    u of x, with M = S_G(u) - S_K(u) if minus_k, else S_G(u).

    The shape operators are ``kp1_check``'s: ``_curvature`` of each body's
    tangent block in the memoized frame of u, by entries, with det M from
    the entries.  SingularCurvature is raised for G, then K; ValueError
    when M is not positive definite.
    """
    N = G.dim
    u = touch_point(G, K, x)[1]
    v, E = _direction(u, N)
    M = _curvature(G._tangent_block(v, E), v)[1]
    name = "S_G(u)"
    if minus_k:
        S_K = _curvature(K._tangent_block(v, E), v)[1]
        M = tuple(map(operator.sub, M, S_K))
        name = "S_G(u) - S_K(u)"
    if not _is_positive_definite(M):
        raise ValueError(f"{name} is not positive definite at the touch "
                         "direction")
    hK = K.support(u)
    return float(c * OMEGA[N] * hK ** ((N + 1) / 2.0) /
                 (d * np.sqrt(_det(M))))


def convention_factor(dim):
    """Ratio of the geometric deficit limit to the displayed constant.

    Equals 2^((N-1)/2): the det[S_G - S_K]^(1/2) in the displayed constant
    assumes shape operators equal to half the graph Hessian, while the
    curvature data here carries the full Hessian.
    """
    return 2.0 ** ((dim - 1) / 2.0)


def large_r_limit_closed(G, K, x):
    """The value the deficit ladder actually converges to.

    Closed form derived independently from the paraboloid-slab volume
    integral (v - |z|^2/2)_+ between the osculating paraboloids:
    2^((N+1)/2) w_{N-1} h_K(u)^((N+1)/2) /
    ((N^2-1) det[Hess_G(u) - Hess_K(u)]^(1/2)).
    """
    return convention_factor(G.dim) * large_r_coefficient_closed(G, K, x)


def symmetric_closed_constant(G, K, x):
    """The alternative displayed constant for the symmetric case K = 2G:

    2 sqrt(2) w_{N-1} h_K(u)^((N+1)/2) / ((N+1) det[S_G(u)]^(1/2)).

    Composing the general limit with S_K = S_G / 2 instead yields an extra
    factor 2^((N-1)/2)/(N-1); the two agree only for N = 2.  Both values
    are exposed so they can be reported side by side.
    """
    N = G.dim
    return _touch_constant(G, K, x, 2.0 * np.sqrt(2.0), N + 1, minus_k=False)


def small_r_v0(G, K, x, r0=0.1, rungs=6, oracle=None,
               n=measure.DEFAULT_QMC_POINTS,
               replicates=measure.DEFAULT_REPLICATES, seed=0):
    """Leading small-r overlap coefficient, numerically and in closed form.

    numeric: intercept of the linear fit of V(G ^ (x+rK)) / r^N against r
    on the ladder r_k = r0 * 2^-k (the slope estimates the next-order
    coefficient).  closed: the half-space cut of K on the inward side of
    the tangent plane at x.  Returns (numeric, closed).
    """
    x = np.asarray(x, dtype=float)
    N = G.dim
    radii = [r0 * 0.5 ** k for k in range(rungs)]
    if oracle is not None:
        samples = [(float(oracle(r)), 0.0) for r in radii]
    else:
        # one QMC pass over G's points serves every rung
        _, hits, box = measure._copy_counts(
            G, K, [(x, r) for r in radii], n, replicates, seed)
        results = [measure._result(c, n, box) for c in hits.T]
        samples = [(res.value, res.stderr) for res in results]
    rs, ys, ws = [], [], []
    for r, (v, s) in zip(radii, samples):
        if v <= s:
            raise DegenerateFit("overlap volume drowned by its error bar")
        rs.append(r)
        ys.append(v / r ** N)
        ws.append(1.0 if s == 0 else (r ** N / s) ** 2)
    numeric = float(_weighted_line(*map(np.asarray, (rs, ys, ws)))[0])
    nu = normal_at(G, x)
    closed = halfspace_cut_volume(K, -nu, n=n, replicates=replicates,
                                  seed=seed).value
    return numeric, closed
