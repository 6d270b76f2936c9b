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
  E[(M - c_0)^3] = sum c_g d_g, with no rule and no surrogate evaluation,
  while that expansion holds at most :data:`SURROGATE_MC_SAMPLES` rows
  before merging (m <= 50 at p = 2, m <= 17 at p = 3).  How the rows
  expand and merge depends on the basis alone, so that plan is built on
  the first call and kept on the basis; a call then runs a few gathers and
  multiplies and one ``bincount`` (0.08 ms in place of 0.9 ms at m = 10,
  p = 2).  The kept plan takes 40 KB at m = 10, p = 2 and 8.6 MB at
  m = 40, p = 2 (126 KB and 16.7 MB with int64 indices);
- beyond that, :data:`SURROGATE_MC_SAMPLES` seeded samples of the surrogate,
  evaluated in chunks of at most :data:`SURROGATE_EVAL_BYTES`.

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

#: sample count for surrogate sampling of higher moments, and the most rows
#: the squared expansion may hold before merging to be used instead
SURROGATE_MC_SAMPLES = 1_000_000

#: bytes one chunk of the surrogate Monte Carlo may allocate
SURROGATE_EVAL_BYTES = 64 * 2**20


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
    """Skewness and kurtosis of ``n`` seeded samples of the surrogate.

    The samples are evaluated in chunks of a multiple of 16 points that fit
    in :data:`SURROGATE_EVAL_BYTES`: at one BLAS thread the matrix-vector
    product then groups each chunk's rows as in one product over all the
    samples, so the values keep their bits.  They are not byte-stable across
    BLAS thread counts: with two OpenBLAS threads the product splits a
    chunk's rows between the threads, and a split off a multiple of 16 rows
    moves the last bits of the rows at its edge.  No run of
    ``tools/cli_matrix.py`` reaches this path.
    """
    pool = surrogate.space.sample_pool(n, seed)
    basis = surrogate.basis
    # a point's basis row, at most as much eval scratch, its univariate values
    point_bytes = 8 * (2 * basis.n_terms + basis.m * (basis.order + 2) + 1)
    chunk = 16 * max(1, SURROGATE_EVAL_BYTES // point_bytes // 16)
    values = np.empty(n)
    for start in range(0, n, chunk):
        values[start : start + chunk] = surrogate.eval(pool.points[start : start + chunk])
    return sample_moments(values)[2:]


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


def _square_row_count(m, order):
    """Rows of :func:`_central_moments_from_square` before merging, from (m, p) alone.

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


@dataclass(frozen=True)
class _SquarePlan:
    """What :func:`_central_moments_from_square` does, with no coefficient in it.

    ``first`` and ``second`` are the pairs i <= j of non-constant terms, and
    ``diagonal`` the pairs with i = j, whose weight is not doubled.  Each
    slot of ``slots`` is (take, rows, mult): row r of the slot's expansion
    copies row ``take[r]`` of the last, and the rows ``rows`` are multiplied
    by their table entries ``mult``.  ``merge`` sends each row to its
    multi-index g among the merged ones; the basis terms among those are
    ``terms``, at ``at``.  Indices take the smallest unsigned dtype that
    holds the row count.
    """

    first: np.ndarray
    second: np.ndarray
    diagonal: np.ndarray
    slots: tuple
    merge: np.ndarray
    terms: np.ndarray
    at: np.ndarray


def _build_square_plan(basis):
    """The :class:`_SquarePlan` of a basis.

    (M - c_0)^2 = sum_{i <= j} (2 - [i = j]) c_i c_j psi_i psi_j, and each
    product expands over the dimensions both terms involve by the tables of
    :func:`_product_table`.  The expanded rows are merged into the
    coefficients d_g of the square on int64 keys: a multi-index of degree
    <= 2p is its nonzero (dimension, degree) codes k 2p + g, sorted and
    packed in base 2pm + 1.  The keys stay below (2pm + 1)^min(m, 2p), which
    fits int64 for every m > 4 and p within the row cap of
    :func:`_square_row_count` (the largest is 73^8, at m = 9, p = 4).
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

    # pairs i <= j of non-constant terms; row codes hold a's slots, then b's
    first = np.repeat(np.arange(1, n_terms), np.arange(n_terms - 1, 0, -1))
    second = first + _rank_in_group(np.arange(n_terms - 1, 0, -1))
    pairs = (first, second, np.flatnonzero(first == second))
    codes = np.concatenate([term_codes[first], term_codes[second]], axis=1)
    # a's slot u expands where b involves its dimension: min(a, b) + 1 rows of
    # degree |a - b| + 2t, the shared dimension's code moving to a's slot
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

    keep = min(m, width)
    powers = (width * m + 1) ** np.arange(keep, dtype=np.int64)

    def keys(code_rows):
        return np.sort(code_rows, axis=1)[:, width - keep :] @ powers

    merged, merge = np.unique(keys(codes), return_inverse=True)
    term_keys = keys(np.concatenate([term_codes, np.zeros_like(term_codes)], axis=1))
    at = np.minimum(np.searchsorted(merged, term_keys), merged.size - 1)
    present = merged[at] == term_keys
    index = np.min_scalar_type(max(codes.shape[0], n_terms))

    def kept(array):
        array = array.astype(index) if array.dtype.kind in "iu" else array
        array.setflags(write=False)
        return array

    return _SquarePlan(
        *map(kept, pairs),
        slots=tuple(tuple(map(kept, slot)) for slot in slots),
        merge=kept(merge),
        terms=kept(np.flatnonzero(present)),
        at=kept(at[present]),
    )


def _central_moments_from_square(surrogate):
    """E[(M - c_0)^3] and E[(M - c_0)^4] from the square of the centred expansion.

    The weights c_i c_j of the pairs, doubled off the diagonal, are carried
    through the basis's :class:`_SquarePlan`, built on the first call and
    kept on the basis, and summed into the coefficients d_g of the square.  Returns (sum_{|g| <= p} c_g d_g,
    sum d_g^2).
    """
    basis = surrogate.basis
    if basis._square_plan is None:
        basis._square_plan = _build_square_plan(basis)
    plan = basis._square_plan
    coeff = np.array(surrogate.coefficients, dtype=float)
    coeff[0] = 0.0
    # take and put, which index with the plan's small dtypes at no cost
    weight = coeff.take(plan.first) * coeff.take(plan.second)
    # doubling all and restoring the diagonal gives each weight its own bits
    diagonal = weight.take(plan.diagonal)
    weight *= 2.0
    weight.put(plan.diagonal, diagonal)
    for take, rows, mult in plan.slots:
        weight = weight.take(take)
        weight.put(rows, weight.take(rows) * mult)
    square = np.bincount(plan.merge, weights=weight)
    return float(coeff.take(plan.terms) @ square.take(plan.at)), float(square @ square)


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
    elif _square_row_count(m, order) <= SURROGATE_MC_SAMPLES:
        third, fourth = _central_moments_from_square(surrogate)
    else:
        return _sample_moments_surrogate(surrogate, SURROGATE_MC_SAMPLES, seed=0)
    return third / math.sqrt(variance) ** 3, fourth / variance**2


def higher_moments(surrogate):
    """First four moments of a fitted surrogate.

    The mean and variance come from the coefficients.  The third and fourth
    central moments are exact: on the tensor Gauss grid for m <= 4, and
    from the square of the centred expansion for m > 4 while it holds at
    most :data:`SURROGATE_MC_SAMPLES` rows before merging.  Beyond that the
    surrogate is sampled that many times with seed 0 instead.  Skewness and
    kurtosis are NaN below chaos order 2 or for zero variance.
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
