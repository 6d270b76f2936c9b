import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from tests_support import dense_basis_eval, dense_basis_grad

from segpc import (
    ChaosBasis,
    Gaussian,
    StochasticSpace,
    Uniform,
    build_index_set,
    tensor_rule,
    univariate_table,
)
from segpc.orthopoly import EVAL_BLOCK


def _numpy_orthonormal(family, degree, x):
    """Independent oracle built on numpy's polynomial modules."""
    coef = [0.0] * degree + [1.0]
    if family == "hermite":
        val = np.polynomial.hermite_e.hermeval(x, coef)
        der = np.polynomial.hermite_e.hermeval(
            x, np.polynomial.hermite_e.hermeder(coef)
        ) if degree else 0.0
        norm = math.sqrt(math.factorial(degree))
    else:
        val = np.polynomial.legendre.legval(x, coef)
        der = np.polynomial.legendre.legval(
            x, np.polynomial.legendre.legder(coef)
        ) if degree else 0.0
        norm = 1.0 / math.sqrt(2 * degree + 1)
    return val / norm, der / norm


def _univariate(family, degree, x):
    """psi_degree(x) and its derivative at one scalar point."""
    values, derivs = univariate_table(family, degree, [x])
    return values[0, degree], derivs[0, degree]


def test_univariate_trivial_and_derived_values():
    val, der = _univariate("hermite", 0, 3.7)
    assert (val, der) == (1.0, 0.0)
    val, der = _univariate("hermite", 2, 0.0)
    assert val == pytest.approx(-1.0 / math.sqrt(2.0))
    assert der == pytest.approx(0.0)
    val, der = _univariate("legendre", 1, 1.0)
    assert val == pytest.approx(math.sqrt(3.0))
    assert der == pytest.approx(math.sqrt(3.0))


def test_univariate_against_numpy_oracle():
    rng = np.random.default_rng(0)
    for family, lo, hi in (("hermite", -3.0, 3.0), ("legendre", -1.0, 1.0)):
        for degree in range(0, 12):
            for x in rng.uniform(lo, hi, 5):
                want_val, want_der = _numpy_orthonormal(family, degree, x)
                got_val, got_der = _univariate(family, degree, x)
                assert got_val == pytest.approx(want_val, rel=1e-10, abs=1e-12)
                assert got_der == pytest.approx(want_der, rel=1e-10, abs=1e-12)


def test_recurrence_stable_at_high_degree():
    for family, x_max in (("hermite", 6.0), ("legendre", 1.0)):
        vals, ders = univariate_table(family, 30, np.linspace(-x_max, x_max, 33))
        assert np.all(np.isfinite(vals))
        assert np.all(np.isfinite(ders))


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        univariate_table("hermite", -1, [0.0])
    with pytest.raises(ValueError):
        univariate_table("unknown", 2, [0.0])


def test_index_set_counts():
    assert len(build_index_set(2, 4)) == 15
    assert len(build_index_set(1, 6)) == 7
    assert len(build_index_set(3, 0)) == 1
    for m in range(1, 11):
        for p in range(0, 7):
            assert len(build_index_set(m, p)) == math.comb(p + m, m)


def test_index_set_ordering():
    idx = build_index_set(2, 2)
    assert np.array_equal(idx[0], [0, 0])
    degrees = idx.sum(axis=1)
    assert np.all(np.diff(degrees) >= 0)
    # lexicographic ascending within each degree
    for d in range(3):
        block = idx[degrees == d]
        as_tuples = [tuple(row) for row in block]
        assert as_tuples == sorted(as_tuples)


def test_index_set_size_guard():
    with pytest.raises(ValueError):
        build_index_set(40, 12)


def test_basis_eval_examples():
    gauss2 = StochasticSpace([Gaussian(), Gaussian()])
    basis = ChaosBasis(gauss2, 2)
    [row] = basis.eval(np.zeros((1, 2)))
    want = [1.0, 0.0, 0.0, -1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)]
    assert row == pytest.approx(want)

    unif1 = StochasticSpace([Uniform()])
    basis1 = ChaosBasis(unif1, 2)
    [row] = basis1.eval(np.array([[1.0]]))
    assert row == pytest.approx([1.0, math.sqrt(3.0), math.sqrt(5.0)])


def test_basis_eval_first_column_is_one():
    space = StochasticSpace([Gaussian(), Uniform(), Gaussian()])
    basis = ChaosBasis(space, 3)
    pts = space.sample_pool(50, seed=2).points
    vals = basis.eval(pts)
    assert np.allclose(vals[:, 0], 1.0)


def test_basis_dimension_mismatch():
    # rows (n, m) only: a single point is a one-row batch
    basis = ChaosBasis(StochasticSpace([Gaussian(), Uniform()]), 2)
    for points in (np.zeros(2), np.zeros((4, 3)), np.zeros((1, 1, 2))):
        message = f"points have shape {points.shape}, expected (n, 2)"
        for evaluate in (basis.eval, basis.grad):
            with pytest.raises(ValueError, match=re.escape(message)):
                evaluate(points)


def test_basis_grad_constant_and_linear():
    space = StochasticSpace([Gaussian()])
    basis = ChaosBasis(space, 1)
    for x in (-1.3, 0.0, 2.4):
        [grad] = basis.grad(np.array([[x]]))
        assert grad[0, 0] == 0.0
        assert grad[0, 1] == pytest.approx(1.0)


def test_basis_grad_matches_finite_differences():
    space = StochasticSpace([Gaussian(), Uniform(), Uniform()])
    basis = ChaosBasis(space, 4)
    rng = np.random.default_rng(3)
    pts = np.column_stack(
        [rng.standard_normal(100), rng.uniform(-0.98, 0.98, (100, 2))]
    )
    grads = basis.grad(pts)
    step = 1e-6
    for k in range(3):
        shift = np.zeros(3)
        shift[k] = step
        fd = (basis.eval(pts + shift) - basis.eval(pts - shift)) / (2 * step)
        err = np.abs(grads[:, k, :] - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() < 1e-7


@pytest.mark.parametrize("m,p", [(1, 6), (2, 5), (3, 4)])
def test_orthonormality_gram_identity(m, p):
    # tensor Gauss of order p+1 integrates products of degree 2p exactly
    space = StochasticSpace([Gaussian() if i % 2 == 0 else Uniform() for i in range(m)])
    basis = ChaosBasis(space, p)
    rule = tensor_rule(space, p + 1)
    psi = basis.eval(rule.nodes)
    gram = psi.T @ (rule.weights[:, None] * psi)
    assert np.max(np.abs(gram - np.eye(basis.n_terms))) < 1e-12


def _space(kind, m):
    if kind == "hermite":
        return StochasticSpace([Gaussian()] * m)
    if kind == "legendre":
        return StochasticSpace([Uniform()] * m)
    return StochasticSpace([Gaussian() if k % 2 == 0 else Uniform() for k in range(m)])


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


@pytest.mark.parametrize("kind", ["hermite", "legendre", "mixed"])
@pytest.mark.parametrize(
    "m,p", [(1, 0), (1, 1), (1, 2), (1, 5), (1, 10), (3, 0), (3, 1), (3, 2),
            (3, 5), (3, 10), (10, 0), (10, 1), (10, 2)]
)
def test_basis_eval_bit_identical_to_dense_products(kind, m, p):
    basis = ChaosBasis(_space(kind, m), p)
    rng = np.random.default_rng(100 * m + p)
    for n in (0, 1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 3 * EVAL_BLOCK + 7):
        points = 2.0 * rng.standard_normal((n, m))
        assert _same_bits(basis.eval(points), dense_basis_eval(basis, points))


@pytest.mark.parametrize("kind", ["hermite", "legendre", "mixed"])
@pytest.mark.parametrize("n", [1, 7, EVAL_BLOCK, EVAL_BLOCK + 1, 3000])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_basis_eval_into_out_keeps_the_bits(kind, n, layout):
    space = _space(kind, 3)
    basis = ChaosBasis(space, 6)
    points = space.sample_pool(n, seed=n).points
    scale = np.random.default_rng(n).uniform(0.0, 2.0, n)
    want = basis.eval(points)
    out = np.empty((n, basis.n_terms), order=layout)
    assert basis.eval(points, out=out) is out
    assert _same_bits(out, want)
    assert basis.eval(points, out=out, scale=scale) is out
    assert _same_bits(out, want * scale[:, None])
    assert _same_bits(basis.eval(points, scale=scale), want * scale[:, None])


@pytest.mark.parametrize("kind", ["hermite", "legendre", "mixed"])
@pytest.mark.parametrize("m,p", [(1, 10), (3, 6), (10, 2)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_basis_eval_into_float32_stays_within_its_bound(kind, m, p, layout):
    # each entry within (2m + 2) 2^-24 of the float64 entry, relative, plus
    # (2m + 2) 2^-150 (1 + the row's largest entry); scales down to 2^-125
    # take products and weights into float32's subnormal range
    basis = ChaosBasis(_space(kind, m), p)
    points = basis.space.sample_pool(2000, seed=m + p).points
    rng = np.random.default_rng(m * p)
    scale = np.ldexp(rng.uniform(1.0, 2.0, 2000), rng.integers(-125, 2, 2000))
    out = np.empty((2000, basis.n_terms), dtype=np.float32, order=layout)
    for factor in (None, scale):
        want = basis.eval(points, scale=factor)
        assert basis.eval(points, out=out, scale=factor) is out
        floor = 1.0 + np.abs(want).max(axis=1, keepdims=True)
        bound = (2 * m + 2) * (2.0**-24 * np.abs(want) + 2.0**-150 * floor)
        assert np.all(np.abs(out - want) <= bound)
    assert np.any((out != 0) & (np.abs(out) < 2.0**-126))


@pytest.mark.parametrize("kind", ["hermite", "legendre", "mixed"])
@pytest.mark.parametrize("m,p", [(1, 0), (1, 5), (3, 0), (3, 6), (10, 2)])
@pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001])
@pytest.mark.parametrize("non_finite", [False, True])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_basis_eval_column_streams_keep_the_bits(kind, m, p, n, non_finite):
    # every layout of the result, with and without ``scale``, against the
    # dense tensor product
    basis = ChaosBasis(_space(kind, m), p)
    rng = np.random.default_rng(1000 * m + 10 * p + n)
    # every other column of a wider array: points that are not contiguous
    points = rng.uniform(-1.0, 1.0, (n, 2 * m))[:, ::2]
    if non_finite:
        points[0, 0] = np.nan
        points[n // 2, m - 1] = np.inf
        points[n - 1, m // 2] = -np.inf
    scale = rng.uniform(0.0, 2.0, n)
    with np.errstate(invalid="ignore"):
        want = dense_basis_eval(basis, points)
    assert _same_bits_up_to_nan_sign(basis.eval(points), want)
    assert _same_bits_up_to_nan_sign(basis.eval(points, scale=scale), want * scale[:, None])
    for layout in "CF":
        out = np.empty((n, basis.n_terms), order=layout)
        assert basis.eval(points, out=out) is out
        assert _same_bits_up_to_nan_sign(out, want)
        assert basis.eval(points, out=out, scale=scale) is out
        assert _same_bits_up_to_nan_sign(out, want * scale[:, None])


def test_basis_eval_row_major_result_needs_one_block_of_scratch():
    # a row-major result is filled through one column-major scratch of at
    # most EVAL_BLOCK rows, not a whole-size one copied at the end
    basis = ChaosBasis(_space("mixed", 3), 6)
    n = 3 * EVAL_BLOCK + 7
    points = _space("mixed", 3).sample_pool(n, seed=4).points
    row = 8 * basis.n_terms
    tracemalloc.start()
    try:
        psi = basis.eval(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_bits(psi, dense_basis_eval(basis, points))
    assert peak <= n * row + EVAL_BLOCK * row + 64 * 2**10
    # either layout of ``out`` is refused at the wrong shape
    for layout in "CF":
        for shape in [(n, basis.n_terms + 1), (n - 1, basis.n_terms)]:
            with pytest.raises(ValueError, match="out has shape"):
                basis.eval(points, out=np.empty(shape, order=layout))


def _same_bits_up_to_nan_sign(got, want):
    """Same bits, except that a NaN may carry either sign.

    A product of two NaNs (inf - inf in one factor, a NaN input in the
    other) takes the sign of one of them, and which one numpy's multiply
    returns depends on where the element falls in its vector loop: the
    first operand's in an array of 8 elements, the second's at the tail of
    an array of 17, on numpy 2.4 for x86-64.  ``eval`` does not fix it.
    """
    clear = ~np.uint64(1 << 63)
    nan = np.isnan(want)
    return (
        _same_bits(np.where(nan, 0.0, got), np.where(nan, 0.0, want))
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got.view(np.uint64)[nan] & clear, want.view(np.uint64)[nan] & clear)
    )


#: sha256 of ChaosBasis(_space(kind, 3), 6).eval of a 3000-point pool (seed 2),
#: stored so that any change to the evaluation's arithmetic shows
EVAL_SHA256 = {
    "hermite": "2b5372581fce5fdcf1e9728108606e2abea87595e9653f9d6e31a9beefbf38f8",
    "legendre": "5db285d77324d07d57b3f80d424f9a00f6790877039bd97b6734b3f4fb860236",
    "mixed": "cd0c61f0201ba19be647a28e070f222e85fa9cfa9c2a2233953485ba7c7d674f",
}


@pytest.mark.parametrize("kind", sorted(EVAL_SHA256))
def test_basis_eval_keeps_the_stored_bits(kind):
    space = _space(kind, 3)
    psi = ChaosBasis(space, 6).eval(space.sample_pool(3000, seed=2).points)
    assert hashlib.sha256(psi.tobytes()).hexdigest() == EVAL_SHA256[kind]


@pytest.mark.parametrize("kind", ["hermite", "legendre", "mixed"])
@pytest.mark.parametrize("m,p", [(1, 10), (3, 10), (4, 4), (6, 4), (10, 3), (40, 2)])
def test_basis_grad_bit_identical_to_prefix_suffix_products(kind, m, p):
    # (4, 4) and (6, 4) hold suffixes of three factors, multiplied ascending
    basis = ChaosBasis(_space(kind, m), p)
    rng = np.random.default_rng(100 * m + p)
    for n in (0, 1, 41):
        points = 2.0 * rng.standard_normal((n, m))
        assert _same_bits(basis.grad(points), dense_basis_grad(basis, points))


@pytest.mark.parametrize("kind", ["hermite", "legendre", "mixed"])
def test_basis_grad_structural_zeros_are_positive_zero(kind):
    # entry (k, j) with alpha_k = 0 is +0.0, never 0.0 times the other
    # factors: not -0.0 where they are negative, nor NaN where one is infinite
    basis = ChaosBasis(_space(kind, 3), 4)
    points = np.array([[-0.7, -1.3, 0.4], [np.inf, -0.5, 1.1], [0.3, -np.inf, -0.9]])
    with np.errstate(invalid="ignore"):
        assert (basis.eval(points[:1]) < 0).any()
        assert np.isinf(basis.eval(points[1:])).any(axis=1).all()
        grad = basis.grad(points)
    zero = np.broadcast_to(basis.indices.T == 0, grad.shape)
    assert (grad[zero] == 0.0).all()
    assert not np.signbit(grad[zero]).any()


@pytest.mark.parametrize("layout", [None, "C", "F"])
def test_basis_eval_refuses_a_scale_of_another_length(layout):
    # one block of points: a longer scale was cut to its first n entries
    basis = ChaosBasis(_space("mixed", 3), 4)
    points = _space("mixed", 3).sample_pool(1000, seed=6).points
    out = None if layout is None else np.empty((1000, basis.n_terms), order=layout)
    for scale in (np.ones(2000), np.ones(999), np.ones((1000, 1))):
        message = f"scale has shape {scale.shape}, expected (1000,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            basis.eval(points, out=out, scale=scale)


@pytest.mark.parametrize("kind", ["hermite", "legendre", "mixed"])
def test_basis_eval_bit_identical_on_awkward_inputs(kind):
    basis = ChaosBasis(_space(kind, 3), 4)
    rng = np.random.default_rng(5)
    wide = rng.uniform(-1.5, 1.5, (EVAL_BLOCK + 9, 5))
    cases = [
        wide[:1, :3],  # a single point
        wide[:, 1:4],  # column slice: rows are not contiguous
        np.asfortranarray(wide[:, :3]),
    ]
    special = wide[:, :3].copy()
    special[3, 0] = np.nan
    special[7, 2] = np.inf
    special[EVAL_BLOCK + 2, 1] = -np.inf
    special[8] = [np.nan, np.inf, -np.inf]
    cases.append(special)
    with np.errstate(invalid="ignore"):
        for points in cases:
            assert _same_bits(basis.eval(points), dense_basis_eval(basis, points))
