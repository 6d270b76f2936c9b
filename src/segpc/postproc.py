"""Moments, Sobol indices and the method cost model.

With an orthonormal basis the mean and variance are read off the spectral
coefficients (mean = c_0, variance = sum of the remaining squared
coefficients).  Skewness and kurtosis are the third and fourth central
moments over powers of the standard deviation, and both central moments are
taken of the centred surrogate M - c_0 directly, exactly where that is cheap:

- m <= 4: the tensor Gauss grid with 2p + 1 points per dimension, exact for
  the degree-4p integrands, its centred values formed by sum factorization
  (one dimension at a time, no basis matrix);
- m > 4: the coefficients d of the squared centred expansion
  (M - c_0)^2 = sum_g d_g psi_g, from which E[(M - c_0)^4] = sum d_g^2 and
  E[(M - c_0)^3] = sum c_g d_g, with no rule and no surrogate evaluation.
  The pairs of terms expand in blocks whose transient arrays fit
  :data:`SQUARE_BLOCK_BYTES`, and each d_g sums its rows in row order, so
  the bits do not depend on the blocks.  While the expansion holds at most
  :data:`SQUARE_PLAN_ROWS` rows before merging (m <= 50 at p = 2, m <= 17
  at p = 3), how its rows expand and merge, which depends on the basis
  alone, is kept on the basis by the first call; a call then runs a few
  gathers and multiplies and one ``bincount`` (0.08 ms in place of 0.9 ms
  at m = 10, p = 2).  The kept plan takes 40 KB at m = 10, p = 2 and
  8.6 MB at m = 40, p = 2 (126 KB and 16.7 MB with int64 indices).  Past
  that each call expands the pairs again (0.85 s at m = 10, p = 4, 1.7 s at
  m = 20, p = 3, one BLAS thread, ~25 MB traced).  The two sums are dot
  products of at most :data:`SQUARE_DOT_ENTRIES` entries, short enough that
  OpenBLAS runs each on one thread, so their bits do not follow the thread
  count.  Where the merge keys would not fit int64
  (:func:`square_keys_overflow`, from m = 10, p = 5 on) skewness and
  kurtosis are NaN.

A product of two orthonormal polynomials of one variable expands exactly as
phi_a phi_b = sum_l L[a, b, l] phi_l, L[a, b, l] = E[phi_a phi_b phi_l],
where parity leaves only l = |a - b|, |a - b| + 2, ..., a + b; a product
of two basis terms factors by dimension, so it expands over the dimensions
both terms involve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import univariate_table
from .quadrature import MomentsReport, gauss_rule, refuse_large_tensor, sample_moments
from .regression import segpc_point_count

#: skewness/kurtosis are reported as NaN below this chaos order
MIN_ORDER_HIGHER_MOMENTS = 2

#: the most rows the squared expansion may hold before merging for its plan
#: to be kept on the basis (m <= 50 at p = 2, m <= 17 at p = 3, m <= 9 at p = 4)
SQUARE_PLAN_ROWS = 1_000_000

#: bytes the transient arrays of one block of the squared expansion may take
SQUARE_BLOCK_BYTES = 64 * 2**20

#: most entries in one dot product of the squared-expansion moments, few
#: enough that OpenBLAS runs it on one thread
SQUARE_DOT_ENTRIES = 8192


@dataclass
class SobolReport:
    """Total sensitivity index per input dimension, each in [0, 1]."""

    total_indices: np.ndarray


def moments_from_coefficients(surrogate):
    """Mean and variance read directly off the spectral coefficients."""
    coeff = surrogate.coefficients
    mean = float(coeff[0])
    variance = float(np.sum(coeff[1:] ** 2))
    return mean, variance


def _sample_moments_surrogate(surrogate, n, seed):
    """Skewness and kurtosis of the surrogate at the points of ``sample_pool(n, seed)``.

    A Monte-Carlo reference for the exact moments of :func:`higher_moments`,
    which never calls it.
    """
    points = surrogate.space.sample_pool(n, seed).points
    return sample_moments(surrogate.eval(points))[2:]


@functools.lru_cache(maxsize=None)
def _product_table(family, order):
    """L[a, b, l] = E[phi_a phi_b phi_l] for a, b <= order and l <= 2 order.

    The integrands have degree <= 4 order, so the (2 order + 1)-point Gauss
    rule gives them exactly.  Cached, so the array is read-only.
    """
    nodes, weights = gauss_rule(family, 2 * order + 1)
    phi = univariate_table(family, 2 * order, nodes)[0]
    low = phi[:, : order + 1]
    table = np.einsum("n,na,nb,nl->abl", weights, low, low, phi)
    table.setflags(write=False)
    return table


def _rank_in_group(sizes):
    """0, 1, ..., size - 1 for each entry of ``sizes``, concatenated."""
    return np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def square_row_count(m, order):
    """Rows of the squared centred expansion before merging, from (m, p) alone.

    A pair of terms a, b gives prod_k (min(a_k, b_k) + 1) rows: one per
    multi-index g below both.  Each g of degree d lies below C(m + p - d, m)
    terms, and C(m + d - 1, d) multi-indices have degree d, so the ordered
    pairs give sum_d C(m + d - 1, d) C(m + p - d, m)^2 rows and the diagonal
    sum_d C(m + d - 1, d) C(m + p - d, m).  Pairs i <= j hold half their
    sum; the P + 1 of them with the constant term give one row each.
    """
    above = [math.comb(m + order - d, m) for d in range(order + 1)]
    at_degree = [math.comb(m + d - 1, d) for d in range(order + 1)]
    pairs = sum(n * a * (a + 1) for n, a in zip(at_degree, above)) // 2
    return pairs - math.comb(m + order, m)


def square_keys_overflow(m, order):
    """Whether the int64 keys that merge the squared expansion would overflow.

    A multi-index of degree <= 2p is keyed as min(m, 2p) digits in base
    2pm + 1 (:func:`_square_expansion`), so its key stays below
    (2pm + 1)^min(m, 2p); from m = 10, p = 5 on that reaches 2^63, and
    skewness and kurtosis past four inputs are NaN there.
    """
    return (2 * order * m + 1) ** min(m, 2 * order) >= 2**63


def _square_expansion(basis, block_bytes):
    """The rows of the squared centred expansion, a range of first terms at a time.

    (M - c_0)^2 = sum_{i <= j} (2 - [i = j]) c_i c_j psi_i psi_j over the
    pairs i <= j of non-constant terms, and each product expands over the
    dimensions both terms involve by the tables of :func:`_product_table`.
    Returns (term_keys, blocks).  Each block takes the pairs of a range of
    first terms and yields (first, second, diagonal, slots, keys): the pairs,
    the positions of those with i = j, whose weight is not doubled, and per
    slot (take, rows, mult), where row r of the slot's expansion copies row
    ``take[r]`` of the last and the rows ``rows`` are multiplied by their
    table entries ``mult``.  The pairs of first term i, of multi-index a,
    give at most (P + 1 - i) prod_k (a_k + 1) rows, and a block holds the
    first terms whose bounds sum to at most ``block_bytes`` over the
    ~8 (7p + 10) bytes its arrays take per row, or one first term.  The
    blocks' rows, in order, are the rows of all pairs in order.

    A row's multi-index g is keyed on int64: its nonzero (dimension, degree)
    codes k 2p + g_k, sorted and packed in base 2pm + 1, below
    (2pm + 1)^min(m, 2p), which fits wherever :func:`square_keys_overflow`
    is false.  ``term_keys`` are the basis terms' keys.  At p >= 2 and
    m >= 2 the rows meet every multi-index of degree <= 2p, each basis
    term's among them: g = a + b with 1 <= |a|, |b| <= p is the top row of
    the pair a, b, and e_k a row of the pair e_j, e_j + e_k.
    """
    order = basis.order
    idx = basis.indices
    n_terms, m = idx.shape
    width = 2 * order
    families = sorted(set(basis.families))
    tables = np.stack([_product_table(f, order) for f in families])
    family_of = np.array([families.index(f) for f in basis.families])

    # each term's nonzero exponents as ``order`` (dimension, degree) slots;
    # an empty slot has dimension -1 and code 0
    term, dim = np.nonzero(idx)
    slot = _rank_in_group(np.count_nonzero(idx, axis=1))
    dims = np.full((n_terms, order), -1)
    degs = np.zeros((n_terms, order), dtype=np.int64)
    dims[term, slot] = dim
    degs[term, slot] = idx[term, dim]
    term_codes = np.where(dims >= 0, dims * width + degs, 0)

    keep = min(m, width)
    powers = (width * m + 1) ** np.arange(keep, dtype=np.int64)

    def keys(code_rows):
        return np.sort(code_rows, axis=1)[:, width - keep :] @ powers

    # the first terms 1, ..., P and the most rows of each one's pairs
    pair_counts = np.arange(n_terms - 1, 0, -1)
    bound = np.cumsum(pair_counts * np.prod(idx[1:] + 1, axis=1))
    rows_per_block = max(1, block_bytes // (8 * (7 * order + 10)))

    def expand(first, second):
        codes = np.concatenate([term_codes[first], term_codes[second]], axis=1)
        # a's slot u expands where b involves its dimension: min(a, b) + 1
        # rows of degree |a - b| + 2t, the shared dimension's code moving to
        # a's slot; row codes hold a's slots, then b's
        slots = []
        for u in range(order):
            k = dims[first, u]
            match = (dims[second] == k[:, None]) & (k[:, None] >= 0)
            shared = match.any(axis=1)
            v = np.argmax(match, axis=1)
            a = degs[first, u]
            b = degs[second, v]
            reps = np.where(shared, np.minimum(a, b) + 1, 1)
            take = np.repeat(np.arange(reps.size), reps)
            first, second, codes = first[take], second[take], codes[take]
            rows = np.flatnonzero(shared[take])
            src = take[rows]
            g = np.abs(a[src] - b[src]) + 2 * _rank_in_group(reps)[rows]
            codes[rows, u] = np.where(g > 0, k[src] * width + g, 0)
            codes[rows, order + v[src]] = 0
            slots.append((take, rows, tables[family_of[k[src]], a[src], b[src], g]))
        return tuple(slots), keys(codes)

    def blocks():
        start = 0
        while start < n_terms - 1:
            below = bound[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(bound, below + rows_per_block, "right")))
            counts = pair_counts[start:stop]
            first = np.repeat(np.arange(start + 1, stop + 1), counts)
            second = first + _rank_in_group(counts)
            yield first, second, np.flatnonzero(first == second), *expand(first, second)
            start = stop

    return keys(np.concatenate([term_codes, np.zeros_like(term_codes)], axis=1)), blocks()


def _distinct(keys):
    """The distinct ``keys``, sorted (``np.unique`` hashes, many times slower here)."""
    keys = np.sort(keys)
    return keys[np.insert(keys[1:] != keys[:-1], 0, True)]


@dataclass(frozen=True)
class _SquarePlan:
    """What :func:`_central_moments_from_square` does, with no coefficient in it.

    Each of ``blocks`` is (first, second, diagonal, slots, merge): a block of
    :func:`_square_expansion` with its keys replaced by each row's place
    among the ``size`` merged multi-indices g, and ``at`` the basis terms'
    places.  Indices take the smallest unsigned dtype that holds the row
    count.
    """

    blocks: tuple
    size: int
    at: np.ndarray


def _build_square_plan(basis):
    """The :class:`_SquarePlan` of a basis."""
    index = np.min_scalar_type(max(square_row_count(basis.m, basis.order), basis.n_terms))

    def kept(array):
        array = array.astype(index, copy=False) if array.dtype.kind in "iu" else array
        array.setflags(write=False)
        return array

    term_keys, blocks = _square_expansion(basis, SQUARE_BLOCK_BYTES)
    blocks = [
        (*map(kept, (first, second, diagonal)), tuple(tuple(map(kept, s)) for s in slots), keys)
        for first, second, diagonal, slots, keys in blocks
    ]
    merged = _distinct(np.concatenate([keys for *_, keys in blocks]))
    return _SquarePlan(
        blocks=tuple((*block, kept(np.searchsorted(merged, keys))) for *block, keys in blocks),
        size=merged.size,
        at=kept(np.searchsorted(merged, term_keys)),
    )


def _pair_rows(coeff, first, second, diagonal, slots):
    """The square's row weights: c_i c_j, doubled off the diagonal, through the slots."""
    # take and put, which index with the plan's small dtypes at no cost
    weight = coeff.take(first) * coeff.take(second)
    # doubling all and restoring the diagonal gives each weight its own bits
    diagonal_weights = weight.take(diagonal)
    weight *= 2.0
    weight.put(diagonal, diagonal_weights)
    for take, rows, mult in slots:
        weight = weight.take(take)
        weight.put(rows, weight.take(rows) * mult)
    return weight


def _streamed_square(basis, coeff):
    """(square, at) of :func:`_central_moments_from_square`, block by block, with no plan.

    A block with keys not met before widens the sorted distinct keys, its
    sums copied across, before its rows are added.
    """
    term_keys, blocks = _square_expansion(basis, SQUARE_BLOCK_BYTES)
    merged = np.empty(0, dtype=np.int64)
    square = np.empty(0)
    for *pairs, keys in blocks:
        weight = _pair_rows(coeff, *pairs)
        grown = _distinct(np.concatenate([merged, keys]))
        if grown.size > merged.size:
            widened = np.zeros(grown.size)
            widened[np.searchsorted(grown, merged)] = square
            merged, square = grown, widened
        np.add.at(square, np.searchsorted(merged, keys), weight)
    return square, np.searchsorted(merged, term_keys)


def _dot(a, b):
    """a @ b in dot products of at most :data:`SQUARE_DOT_ENTRIES` entries, summed in order.

    OpenBLAS splits a longer dot product between its threads, which moves
    its last bits with the thread count; one this short runs on one thread.
    """
    step = SQUARE_DOT_ENTRIES
    total = float(a[:step] @ b[:step])
    for start in range(step, a.size, step):
        total += float(a[start : start + step] @ b[start : start + step])
    return total


def _central_moments_from_square(surrogate):
    """E[(M - c_0)^3] and E[(M - c_0)^4] from the square of the centred expansion.

    The weights c_i c_j of the pairs, doubled off the diagonal, are carried
    through the expanded rows and summed into the coefficients d_g of the
    square.  Up to :data:`SQUARE_PLAN_ROWS` rows the basis keeps the
    expansion's :class:`_SquarePlan`, built on the first call; past that each
    call expands the pairs again in blocks of :data:`SQUARE_BLOCK_BYTES`.
    Either way the blocks add their rows in row order (``np.add.at``) onto
    the sorted distinct keys, so each d_g has the bits of one ``bincount``
    over all rows, whatever the blocks.  Returns
    (sum_{|g| <= p} c_g d_g, sum d_g^2).
    """
    basis = surrogate.basis
    coeff = np.array(surrogate.coefficients, dtype=float)
    coeff[0] = 0.0
    if square_row_count(basis.m, basis.order) <= SQUARE_PLAN_ROWS:
        if basis._square_plan is None:
            basis._square_plan = _build_square_plan(basis)
        plan = basis._square_plan
        square = np.zeros(plan.size)
        for *pairs, merge in plan.blocks:
            np.add.at(square, merge, _pair_rows(coeff, *pairs))
        at = plan.at
    else:
        square, at = _streamed_square(basis, coeff)
    return _dot(coeff, square.take(at)), _dot(square, square)


@functools.lru_cache(maxsize=None)
def _grid_table(family, order):
    """Weights and polynomial table of the (2 order + 1)-point Gauss rule.

    Returns (w, T): w the rule's weights and T[i, a] = phi_a(x_i) for
    a <= order.  Cached, so the arrays are read-only.
    """
    nodes, weights = gauss_rule(family, 2 * order + 1)
    table = univariate_table(family, order, nodes)[0]
    weights.setflags(write=False)
    table.setflags(write=False)
    return weights, table


def _central_moments_on_grid(surrogate):
    """E[(M - c_0)^3] and E[(M - c_0)^4] on the tensor Gauss grid, by sum factorization.

    The coefficients are scattered into a dense (p + 1)^m array at the basis
    multi-indices, with c_0 = 0 so the values come out centred.  Contracting
    one axis at a time with the (2p + 1) x (p + 1) table of the orthonormal
    polynomials at that dimension's 2p + 1 Gauss nodes gives the values on the
    (2p + 1)^m grid in O(m (2p + 1)^m (p + 1)) flops, with no basis matrix;
    their powers are then contracted axis by axis with the 1D weights.
    """
    basis = surrogate.basis
    order = surrogate.order
    m = surrogate.space.m
    n = 2 * order + 1
    refuse_large_tensor(m, n)
    rules = [_grid_table(family, order) for family in basis.families]
    values = np.zeros((order + 1,) * m)
    values[tuple(basis.indices.T)] = surrogate.coefficients
    values.flat[0] = 0.0
    # each step contracts the leading axis and appends its grid axis last, so
    # after m steps the axes are back in dimension order
    for _, table in rules:
        values = values.reshape(order + 1, -1).T @ table.T

    def integral(integrand):
        for weights, _ in rules:
            integrand = weights @ integrand.reshape(n, -1)
        return integrand.item()

    square = values * values
    return integral(square * values), integral(square * square)


def _skewness_kurtosis(surrogate, variance):
    """Skewness and kurtosis of the surrogate, exact wherever that is cheap."""
    m, order = surrogate.space.m, surrogate.order
    if m <= 4:
        # 2p + 1 Gauss points per dimension integrate the degree-4p quartic;
        # the grid values come by sum factorization, with no basis matrix
        third, fourth = _central_moments_on_grid(surrogate)
    elif square_keys_overflow(m, order):
        return math.nan, math.nan
    else:
        third, fourth = _central_moments_from_square(surrogate)
    return third / math.sqrt(variance) ** 3, fourth / variance**2


def higher_moments(surrogate):
    """First four moments of a fitted surrogate.

    The mean and variance come from the coefficients.  The third and fourth
    central moments are exact: on the tensor Gauss grid for m <= 4, and
    from the square of the centred expansion for m > 4.  Skewness and
    kurtosis are NaN below chaos order 2, for zero variance, and past four
    inputs where :func:`square_keys_overflow` holds; no sample is drawn.
    """
    mean, variance = moments_from_coefficients(surrogate)
    std = math.sqrt(variance)
    skewness = float("nan")
    kurtosis = float("nan")
    if surrogate.order >= MIN_ORDER_HIGHER_MOMENTS and variance > 0.0:
        skewness, kurtosis = _skewness_kurtosis(surrogate, variance)
    return MomentsReport(
        mean=mean,
        std=std,
        variance=variance,
        skewness=skewness,
        kurtosis=kurtosis,
        method=surrogate.fit_report.method,
        evaluation_count=surrogate.fit_report.evaluation_count,
    )


def sobol_total(surrogate):
    """Total Sobol indices from the squared spectral coefficients.

    Index i sums the squared coefficients of every basis term that involves
    dimension i, normalized by the variance.  Scaling the QoI leaves the
    indices unchanged.
    """
    coeff_sq = surrogate.coefficients**2
    indices = surrogate.basis.indices
    variance = float(np.sum(coeff_sq[1:]))
    if variance <= 0.0:
        raise ValueError("total Sobol indices are undefined for zero variance")
    involved = indices > 0
    totals = coeff_sq @ involved / variance
    return SobolReport(total_indices=totals)


def predicted_cost(method, m, p):
    """Predicted model-evaluation counts per method, dimension and order.

    - "segpc": two evaluations (direct + adjoint) at each of
      ceil((P + 1) / (m + 1)) points; reduces to 2 at p = 1 and to m + 2 at
      p = 2 for even m.
    - "wlsq": one evaluation per point, P + 1 points (oversampling ratio 1);
      m + 1 at p = 1 and (m + 1)(m + 2) / 2 at p = 2.
    - "smolyak": closed forms for the reference sparse construction,
      2m + 1 (p = 1), (m + 1)(2m + 1) (p = 2), (m + 1)(2m + 1)(2m + 3) / 3
      (p = 3).  Counts of the rules actually built here may differ slightly;
      they are reported at runtime alongside these predictions.
    """
    if m < 1 or p < 1:
        raise ValueError(f"cost model needs m >= 1 and p >= 1, got m={m}, p={p}")
    n_terms = math.comb(p + m, m)
    if method == "segpc":
        return 2 * segpc_point_count(n_terms, m)
    if method == "wlsq":
        return n_terms
    if method == "smolyak":
        if p == 1:
            return 2 * m + 1
        if p == 2:
            return (m + 1) * (2 * m + 1)
        if p == 3:
            return (m + 1) * (2 * m + 1) * (2 * m + 3) // 3
        raise ValueError(
            "no closed-form sparse-rule count beyond p = 3; build the rule "
            "and read its node count instead"
        )
    raise ValueError(f"unknown method {method!r}")
