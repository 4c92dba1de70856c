"""A test oracle for the closed-form derivatives: central differences.

``FiniteDifference(body)`` is a ``ConvexBody`` with the wrapped body's
support function, whose gradient and tangent block are central differences
of that support function.  It combines like any body, so
``MinkowskiSum(FiniteDifference(E), Ball(0.5))`` mixes a difference
quotient with a closed form.

The tolerances below are set from the steps.  A central first difference
with relative step s has truncation error O(s^2) and rounding error
O(eps / s); a central second difference with relative step s has
truncation error O(s^2) and rounding error O(eps / s^2).
"""

import numpy as np

from kdense.bodies import ConvexBody, _frame_matrix, _grid_spacing
from kdense.errors import GeometryError

EPS = np.finfo(float).eps
# relative steps of the first and second differences
GRADIENT_STEP = 1e-6
HESSIAN_STEP = 1e-4
# a difference gradient against a closed form, relative to the support
# value: rounding, 4 eps / s = 8.9e-10 (two support values of a few ulps
# each over 2 s, in up to three components), outweighs truncation, s^2
GRADIENT_TOL = 4.0 * EPS / GRADIENT_STEP
# a difference tangent block or Hessian against a closed form, relative to
# its norm: truncation, 100 s^2 = 1e-6, outweighs rounding, eps / s^2
HESSIAN_TOL = 100.0 * HESSIAN_STEP ** 2


class NonUniqueSupport(GeometryError):
    """The face of a body in some direction is not a single point."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points


class FiniteDifference(ConvexBody):
    """``body`` with its gradient and tangent block taken by central
    differences of its support function; its gauge is the generic one.

    A difference quotient at the normal of a flat face returns one point
    of the face.  So each gradient row is checked against a sample of
    boundary points, the gradient at the gauge grid's normals, and
    NonUniqueSupport is raised where the sample's points that nearly
    maximize <x, u> spread across more than 8 grid spacings.
    """

    kind = "finite_difference"

    def __init__(self, body):
        super().__init__(body.dim)
        self.body = body
        self._sample = None

    def _support_impl(self, V):
        return self.body.support_hom(V)

    def _central_gradient(self, V):
        step = GRADIENT_STEP * np.maximum(
            np.linalg.norm(V, axis=1, keepdims=True), 1e-30)
        g = np.empty_like(V)
        for i, e in enumerate(np.eye(self.dim)):
            g[:, i] = (self.support_hom(V + step * e) -
                       self.support_hom(V - step * e)) / (2.0 * step[:, 0])
        return g

    def _gradient_impl(self, V):
        self._check_unique_support(V)
        return self._central_gradient(V)

    def _check_unique_support(self, V):
        if self._sample is None:
            U, _, _ = self._gauge_grid()
            P = self._central_gradient(U)
            scale = max(1.0, float(np.abs(P).max()))
            self._sample = P, scale, 8.0 * _grid_spacing(self.dim, len(U))
        P, scale, width = self._sample
        vals = (V / np.linalg.norm(V, axis=1, keepdims=True)) @ P.T
        near = vals > vals.max(axis=1, keepdims=True) - 1e-9 * scale
        for i in np.flatnonzero(near.sum(axis=1) > 1):
            face = P[near[i]]
            spread = np.linalg.norm(face - face[0], axis=1).max()
            if spread > width * scale:
                raise NonUniqueSupport(
                    f"support face in direction {V[i]} is not a single "
                    f"point (spread {spread:.3e})", points=face)

    def hessian(self, v):
        """Central second differences of H at v, with step HESSIAN_STEP h."""
        h0 = float(self.support_hom(v[None, :])[0])
        step = HESSIAN_STEP * max(abs(h0), 1e-30)
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
                    H[i, j] = H[j, i] = \
                        (f[0] - f[1] - f[2] + f[3]) / (4 * step * step)
        return H

    def _tangent_block(self, u, E):
        """The projection E' H(u) E of ``hessian`` with its off-diagonal
        entry symmetrized; a stack is projected one direction at a time."""
        if isinstance(u[0], np.ndarray):
            u = [c.tolist() for c in u]
            E = [[c.tolist() for c in e] for e in E]
            rows = [self._tangent_block([c[i] for c in u],
                                        [[c[i] for c in e] for e in E])
                    for i in range(len(u[0]))]
            return tuple(np.array(r) for r in zip(*rows))
        E = _frame_matrix(E)
        P = (E.T @ self.hessian(np.array(u)) @ E).tolist()
        if len(P) == 1:
            return (P[0][0],)
        (r11, r12), (r21, r22) = P
        return (r11, 0.5 * (r12 + r21), r22)

    def __repr__(self):
        return f"FiniteDifference({self.body!r})"
