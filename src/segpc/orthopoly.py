"""Orthonormal polynomial bases: univariate recurrences and tensor products.

Two univariate families are supported, each orthonormal under the probability
density of its standardized marginal:

- ``"hermite"``: probabilists' Hermite polynomials against the standard normal
  density.  Normalization is folded into the three-term recurrence
  ``psi_{n+1} = (x psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1)`` so that no
  factorials are ever formed (stable up to high degree).
- ``"legendre"``: Legendre polynomials against the density 1/2 on [-1, 1],
  i.e. the classical P_n scaled by sqrt(2n+1).

Both recurrences share the orthonormal form ``b_{n+1} psi_{n+1} = x psi_n -
b_n psi_{n-1}`` with family-specific off-diagonal coefficients b_n; the same
coefficients build the Jacobi matrices for Gauss rules.  One recurrence,
differentiated alongside, gives the values and derivatives of every
dimension at once.

Multivariate basis functions are tensor products over a total-degree
multi-index set: all exponent tuples with |alpha|_1 <= p, ordered by total
degree and lexicographically (ascending, leftmost dimension most significant)
within each degree.  The first index is always the zero tuple.

``ChaosBasis.eval`` forms the products with one multiply per term and point.
Each term's parent is the same multi-index with its last nonzero exponent
zeroed, so term = parent * psi_{alpha_k}(x_k) with k that last dimension;
terms are formed in order of support size, parents first.  Points go
through in blocks of ``EVAL_BLOCK`` so the univariate values of a block and
its products stay in cache.  The bits equal those of the tensor-product
definition (the product of all m factors, in ascending dimension order):
psi_0 is exactly 1.0, 1.0 * x == x in IEEE-754 arithmetic, and the parent
recursion multiplies the non-constant factors in that same order.

``ChaosBasis.grad`` forms d psi / d x_k as (psi'(x_k) * before) * after,
with running products of the factors of the dimensions before k (ascending)
and after k (descending).
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("hermite", "legendre")

#: hard cap on basis size; larger requests are almost certainly mistakes
MAX_INDEX_SET_SIZE = 2_000_000

#: points per block in ``ChaosBasis.eval``; sized so that a block's tables
#: and products stay in cache (1024 measured fastest at m=10, p=2)
EVAL_BLOCK = 1024

#: bytes of each of the two buffers ``ChaosBasis.eval`` gathers a product
#: step's factors into; a step takes as many terms of a support-size group
#: as fit, so the buffers stay in cache and small beside the term tile
EVAL_PRODUCT_BYTES = 2**18


def recurrence_offdiag(family, n):
    """Off-diagonal coefficient b_n of the orthonormal three-term recurrence.

    Also the n-th sub/super-diagonal entry of the Jacobi matrix used for
    Gauss quadrature.
    """
    if n < 1:
        raise ValueError(f"recurrence coefficient index must be >= 1, got {n}")
    if family == "hermite":
        return math.sqrt(n)
    if family == "legendre":
        return n / math.sqrt(4.0 * n * n - 1.0)
    raise ValueError(f"unknown polynomial family {family!r}")


def univariate_table(family, degree, x):
    """Values and derivatives of all orthonormal polynomials up to ``degree``.

    Parameters
    ----------
    family : str
        "hermite" or "legendre".
    degree : int
        Highest polynomial degree to evaluate.
    x : array_like, shape (n,)
        Evaluation points in the standard domain.

    Returns
    -------
    values, derivs : ndarray, shape (n, degree + 1)
        ``values[:, k]`` is psi_k(x), ``derivs[:, k]`` is psi_k'(x).
    """
    if degree < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {degree}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    values, derivs = np.empty((2, x.shape[0], degree + 1))
    # each point is a row of the recurrence's (k, degree + 1, 1) tables
    _recurrence(_offdiag([family], degree), x[:, None], values[:, :, None], derivs[:, :, None])
    return values, derivs


def _offdiag(families, degree):
    """b_n of each family for n <= degree, shape (degree + 1, len(families), 1); row 0 is 1."""
    b = np.ones((degree + 1, len(families), 1))
    for n in range(1, degree + 1):
        b[n, :, 0] = [recurrence_offdiag(f, n) for f in families]
    return b


def _recurrence(b, x, values, derivs=None):
    """Fill ``values[:, d]`` with psi_d(x), and ``derivs[:, d]`` with psi_d'(x) if given.

    ``x`` has shape (k, n), row i in the family whose b_d is ``b[d, i]``
    (see :func:`_offdiag`); the tables have shape (k, degree + 1, n).
    """
    width = values.shape[1]
    values[:, 0] = 1.0
    if width > 1:
        values[:, 1] = x / b[1]
    if derivs is not None:
        derivs[:, 0] = 0.0
        if width > 1:
            derivs[:, 1] = 1.0 / b[1]
    for n in range(1, width - 1):
        if derivs is not None:
            derivs[:, n + 1] = (
                values[:, n] + x * derivs[:, n] - b[n] * derivs[:, n - 1]
            ) / b[n + 1]
        values[:, n + 1] = (x * values[:, n] - b[n] * values[:, n - 1]) / b[n + 1]


def _compositions(total, parts):
    """All tuples of ``parts`` non-negative ints summing to ``total``, ascending lex."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def build_index_set(m, p):
    """Total-degree exponent tuples for m dimensions: all alpha with |alpha|_1 <= p.

    Returns an int64 array of shape (P + 1, m) with P + 1 = (p + m)! / (p! m!),
    ordered by total degree then ascending lexicographically; row 0 is the
    zero tuple.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    if p < 0:
        raise ValueError(f"chaos order must be >= 0, got {p}")
    count = math.comb(p + m, m)
    if count > MAX_INDEX_SET_SIZE:
        raise ValueError(
            f"index set would hold {count} terms (m={m}, p={p}); "
            f"the supported maximum is {MAX_INDEX_SET_SIZE}"
        )
    rows = []
    for degree in range(p + 1):
        rows.extend(_compositions(degree, m))
    return np.array(rows, dtype=np.int64).reshape(count, m)


class ChaosBasis:
    """Multivariate orthonormal basis bound to a stochastic space.

    The family per dimension follows the marginal (Hermite for Gaussian,
    Legendre for uniform).  Row j of ``indices`` (``build_index_set``) holds
    the exponents of basis function j.  Instances are immutable; evaluation
    and gradient are pure functions, safe for data-parallel use over sample
    points.
    """

    def __init__(self, space, order):
        self.space = space
        self.order = int(order)
        self.indices = build_index_set(space.m, self.order)
        self.families = space.families
        width = self.order + 1
        self._offdiag = _offdiag(self.families, self.order)
        idx = self.indices
        # _cols[k, j] = k * width + alpha_k: where psi_{alpha_k}(x_k) lies in
        # the recurrence's table flattened over (dimension, degree), alpha
        # the exponents of term j
        self._cols = np.arange(space.m)[:, None] * width + idx.T
        # product plan: term j = term parent[j] * psi_{alpha_k}(x_k), with k
        # the last dimension of nonzero exponent
        every = np.arange(len(idx))
        last = idx.shape[1] - 1 - np.argmax(idx[:, ::-1] > 0, axis=1)
        col = self._cols[last, every]
        stripped = idx.copy()
        stripped[every, last] = 0
        position = {alpha: j for j, alpha in enumerate(map(tuple, idx.tolist()))}
        parent = np.array([position[alpha] for alpha in map(tuple, stripped.tolist())])
        # grouped by support size, so every parent is formed before its children
        support = np.count_nonzero(idx, axis=1)
        singles = np.flatnonzero(support == 1)
        self._singles = (singles, col[singles])
        products = []
        for size in range(2, support.max() + 1):
            terms = np.flatnonzero(support == size)
            products.append((terms, parent[terms], col[terms]))
        self._products = tuple(products)

    @property
    def m(self):
        return self.space.m

    @property
    def n_terms(self):
        """Number of retained basis functions, (p + m)! / (p! m!)."""
        return len(self.indices)

    def __repr__(self):
        return f"ChaosBasis(m={self.m}, order={self.order}, n_terms={self.n_terms})"

    def _as_batch(self, points):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        if points.shape[1] != self.m:
            raise ValueError(
                f"points have dimension {points.shape[1]}, basis expects {self.m}"
            )
        return points, single

    def eval(self, points, out=None, scale=None):
        """Evaluate all basis functions, into ``out`` (any memory order) if given.

        Parameters
        ----------
        points : array_like, shape (n, m) or (m,)
            Standardized coordinates.
        scale : ndarray, shape (n,), optional
            Row i is multiplied by ``scale[i]`` as it is written, with the
            bits of ``eval(points) * scale[:, None]``.

        Returns
        -------
        ndarray, shape (n, P + 1) or (P + 1,)
            Tensor-product values; column 0 is identically 1 (``scale`` if given).
        """
        points, single = self._as_batch(points)
        n_pts = points.shape[0]
        width = self.order + 1
        # the result is allocated before the scratch, so the scratch freed on
        # return lies above it on the heap (peak RSS 1.5-2.5 MB lower, measured
        # on Ishigami fits)
        out = np.empty((n_pts, self.n_terms)) if out is None else out
        block = max(1, min(EVAL_BLOCK, n_pts))
        x = np.empty((self.m, block))
        # flat buffers, so that each block's tables are contiguous
        table = np.empty(self.m * width * block)  # psi_d(x_k) at [k, d]
        terms = np.empty(self.n_terms * block)
        terms[:block] = 1.0
        # each product step takes up to ``span`` terms of a support-size
        # group and gathers their parent and last factors into two buffers
        span = max(1, EVAL_PRODUCT_BYTES // (8 * block))
        steps = [
            (group[at : at + span], parent[at : at + span], col[at : at + span])
            for group, parent, col in self._products
            for at in range(0, len(group), span)
        ]
        parents, factors = np.empty((2, max([len(g) for g, _, _ in steps], default=0) * block))
        singles, single_cols = self._singles
        for start in range(0, n_pts, block):
            q = min(block, n_pts - start)
            xq = x[:, :q]
            val = table[: self.m * width * q].reshape(self.m, width, q)
            rows = val.reshape(self.m * width, q)
            tq = terms[: self.n_terms * q].reshape(self.n_terms, q)
            xq[...] = points[start : start + q].T
            _recurrence(self._offdiag, xq, val)
            tq[singles] = rows[single_cols]
            for group, parent, col in steps:
                size = len(group) * q
                head = tq.take(parent, 0, parents[:size].reshape(-1, q), "clip")
                tail = rows.take(col, 0, factors[:size].reshape(-1, q), "clip")
                tq[group] = np.multiply(head, tail, out=head)
            if scale is None:
                out[start : start + q] = tq.T
            else:
                np.multiply(tq, scale[start : start + q], out=out[start : start + q].T)
        return out[0] if single else out

    def grad(self, points):
        """Gradient of every basis function w.r.t. the standardized coordinates.

        Returns shape (n, m, P + 1), or (m, P + 1) for a single point; entry
        (k, j) is the partial derivative of basis function j along dimension k.
        """
        points, single = self._as_batch(points)
        n_pts = points.shape[0]
        width = self.order + 1
        tables = np.empty((2, n_pts, self.m, width))
        # the recurrence fills (m, width, n) views, so that a point's values,
        # and its derivatives, are one row indexed by ``_cols``
        _recurrence(self._offdiag, points.T, *tables.transpose(0, 2, 3, 1))
        values, derivs = tables.reshape(2, n_pts, self.m * width)
        out = derivs.take(self._cols, axis=1)
        # out[:, k] = (psi'_{alpha_k} * before) * after, the factors of the
        # dimensions before k taken ascending, those after k descending
        for dims in (range(self.m), reversed(range(self.m))):
            running = np.ones((n_pts, self.n_terms))
            for k in dims:
                out[:, k] *= running
                running *= values.take(self._cols[k], axis=1)
        return out[0] if single else out
