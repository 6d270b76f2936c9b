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

``ChaosBasis.eval`` forms the products with one multiply per term and point,
one whole column of points at a time.  Each dimension's recurrence runs in
the columns of its single-factor terms psi_d(x_k).  Every other term's
parent is the same multi-index with its last nonzero exponent zeroed, so
term = parent * psi_{alpha_k}(x_k) with k that last dimension: one multiply
of two columns, and parents come before their children in the graded
order.  The bits equal those of the tensor-product definition (the product
of all m factors, in ascending dimension order): psi_0 is exactly 1.0,
1.0 * x == x in IEEE-754 arithmetic, and the parent recursion multiplies
the non-constant factors in that same order.

A column is contiguous only in a column-major array, so a column-major
``out`` (the pool a design ranks) is filled in place, and any other result
``EVAL_BLOCK`` points at a time in one column-major scratch, copied exactly
into its rows: the ``psi.T @ ...`` and ``psi @ c`` products downstream read
row-major bits, and a whole-size scratch would double the peak memory of a
large projection or surrogate sample.  At Ishigami p = 10 (286 terms) a
weighted 10^4-point pool takes ~4.2 ms and a fit's 144 rows ~0.24 ms, most
of it the fixed cost of one call per term (one core, 2-core x86-64 host).

A float32 ``out`` (the pool a partial design read bounds its rows with)
holds each entry to within (2m + 2) 2^-24 of the float64 entry, relative,
plus (2m + 2) 2^-150 (1 + the largest entry of its row in magnitude), for
rows whose scale is 0 or a normal float32 and whose values fit in float32.
A column-major one runs each recurrence in float64 as above, rounds each
single-factor column once and forms the products and the scale in float32:
at most m + (m - 1) + 2 roundings an entry, each off by 2^-24 relative or,
in the subnormal range, by 2^-150, which later factors scale by at most the
row's entry of a lower term.  Any other float32 ``out`` takes the float64
block path and is rounded once.  At Ishigami p = 10 a column-major float32
10^4-point pool takes under half the time of the float64 one (2.8 against
6.5 ms, min of 30 calls, on the same host, loaded).

``ChaosBasis.grad`` reads the columns of one ``eval``:
d psi_alpha / d x_k = (psi_{alpha<k} * psi'_{alpha_k}(x_k)) * psi_{alpha>k},
where alpha<k (alpha>k) is alpha with the exponents of the dimensions from k
on (up to k) zeroed: both are terms of the basis, each the product of its
factors in ascending dimension order.  The derivatives psi'_d(x_k) come from
the differentiated recurrence.  Only the pairs (k, j) with alpha_k > 0 are
multiplied, all at once by three gathers and two multiplies; every other
entry is exactly +0.0.
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("hermite", "legendre")

#: hard cap on basis size; larger requests are almost certainly mistakes
MAX_INDEX_SET_SIZE = 2_000_000

#: points per block of a ``ChaosBasis.eval`` result that is not column-major;
#: its column-major scratch holds at most this many rows
EVAL_BLOCK = 1024


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
    _recurrence(_offdiag([family], degree)[:, 0], x, values.T, derivs.T)
    return values, derivs


def _offdiag(families, degree):
    """b_n of each family for n <= degree, shape (degree + 1, len(families)); row 0 is 1."""
    b = np.ones((degree + 1, len(families)))
    for n in range(1, degree + 1):
        b[n] = [recurrence_offdiag(f, n) for f in families]
    return b


def _recurrence(b, x, values, derivs=None):
    """Fill ``values[d]`` with psi_d(x), and ``derivs[d]`` with psi_d'(x) if given.

    ``b[d]`` holds b_d (see :func:`_offdiag`) and broadcasts against ``x``:
    a scalar for x of one family, shape (k, 1) for the k rows of x of shape
    (k, n).  ``values`` and ``derivs`` are sequences of writable arrays of
    the shape of ``x``, one per degree, updated in place.  Each step forms x * psi_d first: the
    derivative's ``psi_d + x * psi_d'`` then takes its sum in the other
    order, which IEEE-754 addition gives the same bits.
    """
    values[0][...] = 1.0
    if len(values) > 1:
        np.divide(x, b[1], out=values[1])
    if derivs is not None:
        derivs[0][...] = 0.0
        if len(derivs) > 1:
            derivs[1][...] = 1.0 / b[1]
    for n in range(1, len(values) - 1):
        if derivs is not None:
            now = np.multiply(x, derivs[n], out=derivs[n + 1])
            now += values[n]
            now -= b[n] * derivs[n - 1]
            now /= b[n + 1]
        now = np.multiply(x, values[n], out=values[n + 1])
        now -= b[n] * values[n - 1]
        now /= b[n + 1]


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
        # a term's position, keyed by the bytes of its exponents, each in the
        # smallest dtype that holds p
        small = idx.astype(np.min_scalar_type(self.order))
        key = np.dtype((np.void, small.itemsize * space.m))
        position = {alpha: j for j, alpha in enumerate(small.view(key).ravel().tolist())}

        def locate(rows):
            keys = rows.astype(small.dtype).view(key).ravel().tolist()
            return np.array([position[alpha] for alpha in keys], np.intp)

        # eval's plan: _chains[k][d] is the term psi_d(x_k) alone (term 0 for
        # d = 0); every other term j is (j, parent, factor), term j = term
        # parent * term factor, factor psi_{alpha_k}(x_k) alone with k the
        # last dimension of nonzero exponent, parent alpha with alpha_k zeroed
        every = np.arange(len(idx))
        last = idx.shape[1] - 1 - np.argmax(idx[:, ::-1] > 0, axis=1)
        degree = idx[every, last]
        stripped = idx.copy()
        stripped[every, last] = 0
        parent = locate(stripped)
        support = np.count_nonzero(idx, axis=1)
        singles = np.flatnonzero(support == 1)
        chains = np.zeros((space.m, width), dtype=np.intp)
        chains[last[singles], degree[singles]] = singles
        self._chains = chains.tolist()
        # a term's parent and factor have lower degree, so come before it
        streamed = np.flatnonzero(support > 1)
        factor = chains[last[streamed], degree[streamed]]
        self._streams = list(zip(streamed.tolist(), parent[streamed].tolist(), factor.tolist()))
        # grad's plan: the pairs (k, j) with alpha_k > 0, alpha<k and alpha>k
        self._pairs = k, j = np.nonzero(idx.T)
        dims = np.arange(space.m)
        self._before = locate(np.where(dims < k[:, None], small[j], 0))
        self._after = locate(np.where(dims > k[:, None], small[j], 0))
        # the coefficient-free plan of postproc's squared expansion (m > 4),
        # built by the first higher_moments call that needs it
        self._square_plan = None

    @property
    def m(self):
        return self.space.m

    @property
    def n_terms(self):
        """Number of retained basis functions, (p + m)! / (p! m!)."""
        return len(self.indices)

    def __repr__(self):
        return f"ChaosBasis(m={self.m}, order={self.order}, n_terms={self.n_terms})"

    def eval(self, points, out=None, scale=None):
        """Evaluate all basis functions, into ``out`` (any memory order) if given.

        A column-major ``out`` is filled in place, any other result through
        a column-major scratch of at most ``EVAL_BLOCK`` rows (see the
        module docstring).  The bits equal those of the dense tensor
        product, but for the sign of a NaN formed from two NaN factors; a
        float32 ``out`` holds them within the bound the module docstring
        states.

        Parameters
        ----------
        points : array_like, shape (n, m)
            Rows of standardized coordinates.
        scale : ndarray, shape (n,), optional
            Row i is multiplied by ``scale[i]``, with the bits of
            ``eval(points) * scale[:, None]``.

        Returns
        -------
        ndarray, shape (n, P + 1)
            Tensor-product values; column 0 is identically 1 (``scale`` if given).
        """
        points = self.space._check_shape(points, "points")
        n_pts = points.shape[0]
        if out is not None and out.shape != (n_pts, self.n_terms):
            raise ValueError(f"out has shape {out.shape}, expected {(n_pts, self.n_terms)}")
        if scale is not None and np.shape(scale) != (n_pts,):
            raise ValueError(f"scale has shape {np.shape(scale)}, expected {(n_pts,)}")
        if out is not None and out.flags.f_contiguous:
            self._fill(points, out)
            if scale is not None:
                out *= scale.astype(out.dtype, copy=False)[:, None]
            return out
        # the result is allocated before the scratch, so the scratch freed on
        # return lies above it on the heap (peak RSS 1.5-2.5 MB lower, measured
        # on Ishigami fits)
        out = np.empty((n_pts, self.n_terms)) if out is None else out
        block = max(1, min(EVAL_BLOCK, n_pts))
        scratch = np.empty(block * self.n_terms)
        for start in range(0, n_pts, block):
            rows = slice(start, start + block)
            q = min(block, n_pts - start)
            tile = scratch[: q * self.n_terms].reshape(self.n_terms, q).T
            self._fill(points[rows], tile)
            if scale is None:
                out[rows] = tile
            else:
                np.multiply(tile, scale[rows, None], out=out[rows])
        return out

    def _fill(self, points, out):
        """Every term at ``points`` into the column-major ``out``, one column per multiply.

        The recurrences run in float64; into a float32 ``out`` each
        single-factor column is rounded once, and the products are float32.
        """
        cols = list(out.T)
        x = np.empty(points.shape[0])
        single = None if out.dtype == np.float64 else np.empty((self.order + 1, len(x)))
        for k, chain in enumerate(self._chains):
            x[...] = points[:, k]
            if single is None:
                _recurrence(self._offdiag[:, k], x, [cols[j] for j in chain])
                continue
            _recurrence(self._offdiag[:, k], x, single)
            for j, column in zip(chain, single):
                cols[j][...] = column
        for j, parent, factor in self._streams:
            np.multiply(cols[parent], cols[factor], out=cols[j])

    def grad(self, points):
        """Gradient of every basis function w.r.t. the standardized coordinates.

        Takes rows (n, m) of points and returns shape (n, m, P + 1); entry
        (i, k, j) is the partial derivative of basis function j along
        dimension k at point i (see the module docstring).  Where alpha_k = 0
        it is exactly +0.0, also at a point with a non-finite coordinate.
        """
        points = self.space._check_shape(points, "points")
        k, j = self._pairs
        psi = self.eval(points, out=np.empty((len(points), self.n_terms), order="F")).T
        tables = np.empty((2, *self._offdiag.shape, len(points)))
        _recurrence(self._offdiag[:, :, None], points.T, *tables)
        product = psi[self._before] * tables[1][self.indices[j, k], k]
        product *= psi[self._after]
        out = np.zeros((len(points), self.m, self.n_terms))
        out[:, k, j] = product.T
        return out
