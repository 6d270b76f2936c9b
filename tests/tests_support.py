"""Shared helpers for the test suite."""

import numpy as np

from segpc import Model, ModelEvaluation, univariate_table


class PolyModel(Model):
    """QoI equal to a fixed linear combination of basis functions."""

    name = "poly"
    has_gradient = True

    def __init__(self, space, basis, coeffs):
        super().__init__(space)
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)

    def value(self, xi):
        return float(self.basis.eval(xi) @ self.coeffs)

    def values(self, points):
        return self.basis.eval(np.atleast_2d(points)) @ self.coeffs

    def value_and_grad(self, xi):
        grad = self.basis.grad(xi) @ self.coeffs
        return ModelEvaluation(self.value(xi), grad)


def dense_basis_eval(basis, points):
    """Reference tensor-product evaluation of a ``ChaosBasis``.

    Gathers every univariate factor, 1.0 for a zero exponent included, and
    multiplies them in ascending dimension order.  ``ChaosBasis.eval`` must
    match it bit for bit.
    """
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    if single:
        points = points[None, :]
    tables = [
        univariate_table(family, basis.order, points[:, k])[0]
        for k, family in enumerate(basis.families)
    ]
    idx = basis.index_set.indices
    out = tables[0][:, idx[:, 0]].copy()
    for k in range(1, basis.m):
        out *= tables[k][:, idx[:, k]]
    return out[0] if single else out
