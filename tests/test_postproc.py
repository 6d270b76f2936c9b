import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from tests_support import BLAS_THREAD_VARIABLES, dense_basis_eval, sparse_combination_blocks

from segpc import (
    ChaosBasis,
    FitReport,
    Gaussian,
    PceSurrogate,
    StochasticSpace,
    Uniform,
    higher_moments,
    moments_from_coefficients,
    predicted_cost,
    sobol_total,
)
import segpc
import segpc.postproc as postproc
from segpc.postproc import _sample_moments_surrogate
from segpc.quadrature import QuadratureRule, sample_moments, tensor_rule


def make_surrogate(space, order, coeffs, method="wlsq"):
    basis = ChaosBasis(space, order)
    report = FitReport(
        method=method,
        n_points=len(coeffs),
        n_equations=len(coeffs),
        residual_norm=0.0,
        cond_number=1.0,
        evaluation_count=len(coeffs),
    )
    full = np.zeros(basis.n_terms)
    full[: len(coeffs)] = coeffs
    return PceSurrogate(full, basis, report)


def test_moments_from_coefficients_basic():
    space = StochasticSpace([Gaussian(), Gaussian()])
    sur = make_surrogate(space, 2, [3.0])
    assert moments_from_coefficients(sur) == (3.0, 0.0)
    sur2 = make_surrogate(space, 2, [0.0, 1.0, 1.0])
    mean, var = moments_from_coefficients(sur2)
    assert mean == 0.0
    assert var == pytest.approx(2.0)


def test_higher_moments_gaussian_linear():
    # surrogate equal to xi_1: standard normal moments
    space = StochasticSpace([Gaussian(), Gaussian()])
    sur = make_surrogate(space, 2, [0.0, 1.0])
    report = higher_moments(sur)
    assert report.mean == 0.0
    assert report.std == pytest.approx(1.0)
    assert report.skewness == pytest.approx(0.0, abs=1e-12)
    assert report.kurtosis == pytest.approx(3.0, abs=0.01)


def test_higher_moments_undefined_below_order_two():
    space = StochasticSpace([Gaussian()])
    sur = make_surrogate(space, 1, [1.0, 0.5])
    report = higher_moments(sur)
    assert math.isnan(report.skewness)
    assert math.isnan(report.kurtosis)


def test_higher_moments_zero_variance():
    space = StochasticSpace([Gaussian()])
    sur = make_surrogate(space, 3, [4.0])
    report = higher_moments(sur)
    assert report.variance == 0.0
    assert math.isnan(report.skewness)
    assert math.isnan(report.kurtosis)


def test_higher_moments_odd_hermite_symmetry():
    # odd-degree Hermite surrogate is an odd function: zero skewness.
    # Oracle: surrogate sampling with antithetic pairs.
    space = StochasticSpace([Gaussian()])
    basis = ChaosBasis(space, 5)
    coeffs = np.zeros(basis.n_terms)
    coeffs[1] = 0.7
    coeffs[3] = 0.4
    coeffs[5] = 0.2
    sur = PceSurrogate(
        coeffs,
        basis,
        FitReport("wlsq", 6, 6, 0.0, 1.0, 6),
    )
    report = higher_moments(sur)
    rng = np.random.default_rng(0)
    half = rng.standard_normal((50000, 1))
    pts = np.vstack([half, -half])
    vals = sur.eval(pts)
    centered = vals - vals.mean()
    oracle_skew = np.mean(centered**3) / np.mean(centered**2) ** 1.5
    assert abs(oracle_skew) < 1e-3
    assert report.skewness == pytest.approx(0.0, abs=1e-3)


def test_higher_moments_surrogate_mc_close_to_quadrature():
    space = StochasticSpace([Gaussian(), Uniform()])
    basis = ChaosBasis(space, 3)
    rng = np.random.default_rng(4)
    coeffs = 0.2 * rng.standard_normal(basis.n_terms)
    sur = PceSurrogate(coeffs, basis, FitReport("wlsq", 10, 10, 0.0, 1.0, 10))
    exact = higher_moments(sur)  # m <= 4: tensor Gauss quadrature
    skewness, kurtosis = _sample_moments_surrogate(sur, 10**6, seed=1)
    assert skewness == pytest.approx(exact.skewness, abs=0.1)
    assert kurtosis == pytest.approx(exact.kurtosis, abs=0.3)


def _mixed_space(m):
    return StochasticSpace([Gaussian() if k % 2 == 0 else Uniform() for k in range(m)])


def test_surrogate_mc_moments_equal_dense_reference():
    # the surrogate MC must reproduce, bit for bit, the sample moments of
    # the dense tensor-product evaluation over 10^5-point chunks
    space = _mixed_space(10)
    basis = ChaosBasis(space, 2)
    coeffs = np.random.default_rng(8).standard_normal(basis.n_terms)
    sur = PceSurrogate(coeffs, basis, FitReport("segpc", 6, 66, 0.0, 1.0, 12))
    n = 200_000
    points = space.sample_pool(n, seed=0).points
    values = np.concatenate([
        dense_basis_eval(basis, points[start : start + 100_000]) @ coeffs
        for start in range(0, n, 100_000)
    ])
    want = sample_moments(values)[2:]
    assert _sample_moments_surrogate(sur, n, seed=0) == want


def _random_surrogate(space, order, seed):
    basis = ChaosBasis(space, order)
    coeffs = np.random.default_rng(seed).standard_normal(basis.n_terms)
    return PceSurrogate(coeffs, basis, FitReport("wlsq", 1, 1, 0.0, 1.0, 1))


def _centred_rule_moments(surrogate, rule):
    """Third and fourth central moments of the surrogate under ``rule``."""
    centred = surrogate.eval(rule.nodes) - surrogate.coefficients[0]
    return rule.weights @ centred**3, rule.weights @ centred**4


def _assert_moments(report, third, fourth, rel):
    variance = report.variance
    assert report.skewness == pytest.approx(third / math.sqrt(variance) ** 3, rel=rel)
    assert report.kurtosis == pytest.approx(fourth / variance**2, rel=rel)


class _EvalRefused:
    """Forwards to a surrogate but refuses ``eval``."""

    def __init__(self, surrogate):
        self._surrogate = surrogate

    def __getattr__(self, name):
        return getattr(self._surrogate, name)

    def eval(self, points):
        raise AssertionError("higher_moments evaluated the surrogate")


_GRID_SPACES = {
    "hermite": lambda m: StochasticSpace([Gaussian()] * m),
    "legendre": lambda m: StochasticSpace([Uniform()] * m),
    "mixed": lambda m: StochasticSpace([Uniform() if k % 2 == 0 else Gaussian() for k in range(m)]),
}


@pytest.mark.parametrize(
    "kind, m, order",
    [
        pytest.param(kind, m, order, id=f"{kind}-m{m}-p{order}")
        for m, orders in {1: (2, 7, 10), 2: (3, 10), 3: (4, 10), 4: (2, 5)}.items()
        for order in orders
        for kind in _GRID_SPACES
        if not (m == 1 and kind == "mixed")
    ],
)
def test_higher_moments_exact_on_the_gauss_grid(kind, m, order):
    # m <= 4 sums over the tensor Gauss grid by factorization and never
    # evaluates the surrogate; the oracle evaluates it at that rule's nodes
    sur = _random_surrogate(_GRID_SPACES[kind](m), order, seed=10 * m + order)
    third, fourth = _centred_rule_moments(sur, tensor_rule(sur.space, 2 * order + 1))
    _assert_moments(higher_moments(_EvalRefused(sur)), third, fourth, rel=1e-12)


def test_higher_moments_on_the_grid_memory():
    # the m = 4, p = 10 grid holds 21^4 values (1.6 MB); a basis matrix at its
    # nodes would take 21^4 x 1001 x 8 B = 1.56 GB
    sur = _random_surrogate(StochasticSpace([Gaussian()] * 4), 10, seed=4)
    tracemalloc.start()
    try:
        report = higher_moments(sur)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(report.kurtosis)
    assert peak <= 8_000_000


def test_higher_moments_refuse_a_grid_beyond_the_node_cap(monkeypatch):
    import segpc.quadrature as quad

    # m = 3, p = 2: 5^3 = 125 grid nodes
    sur = _random_surrogate(_mixed_space(3), 2, seed=1)
    monkeypatch.setattr(quad, "MAX_RULE_NODES", 124)
    with pytest.raises(ValueError, match="tensor rule would hold 125 nodes"):
        higher_moments(sur)
    monkeypatch.setattr(quad, "MAX_RULE_NODES", 125)
    assert math.isfinite(higher_moments(sur).skewness)


@pytest.mark.parametrize("m, order", [(5, 2), (5, 3), (6, 2), (6, 3)])
def test_higher_moments_exact_beyond_four_dimensions(m, order):
    # oracle: central moments under the tensor Gauss rule with 2p + 1 points
    # per dimension, exact for the degree-4p integrands
    sur = _random_surrogate(_mixed_space(m), order, seed=m + order)
    third, fourth = _centred_rule_moments(sur, tensor_rule(sur.space, 2 * order + 1))
    _assert_moments(higher_moments(sur), third, fourth, rel=1e-12)


def test_higher_moments_match_centred_sparse_rule_at_m10():
    # the level-(2p + 1) sparse rule is exact for degree-4p integrands too.
    # Its blocks are summed unmerged: smolyak_rule rounds merged nodes to 12
    # decimals, which alone moves these skewnesses by up to ~1e-11
    sur = _random_surrogate(_mixed_space(10), 2, seed=10)
    nodes, weights = map(np.concatenate, zip(*sparse_combination_blocks(sur.space, 5)))
    rule = QuadratureRule(nodes=nodes, weights=weights, kind="smolyak")
    third, fourth = _centred_rule_moments(sur, rule)
    _assert_moments(higher_moments(sur), third, fourth, rel=1e-12)


@pytest.mark.parametrize("m", [1, 5])
def test_higher_moments_of_hermite_quadratic(m):
    # the first degree-2 term, M = psi_2(xi_m) = (xi_m^2 - 1) / sqrt(2): a
    # centred chi-square with one degree of freedom over sqrt(2), skewness
    # 2 sqrt(2) and kurtosis 15
    sur = make_surrogate(StochasticSpace([Gaussian()] * m), 2, [0.0] * (m + 1) + [1.0])
    report = higher_moments(sur)
    assert report.skewness == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert report.kurtosis == pytest.approx(15.0, rel=1e-12)


@pytest.mark.parametrize("m", [3, 5])
def test_higher_moments_far_from_zero_mean(m):
    # mean/std = 1000: both branches take central moments of M - c_0, so the
    # raw moments' cancellation never enters
    sur = _random_surrogate(_mixed_space(m), 2, seed=m)
    coeffs = sur.coefficients.copy()
    coeffs[0] = 1000.0 * math.sqrt(np.sum(coeffs[1:] ** 2))
    shifted = PceSurrogate(coeffs, sur.basis, sur.fit_report)
    third, fourth = _centred_rule_moments(shifted, tensor_rule(sur.space, 5))
    report = higher_moments(shifted)
    assert report.mean / report.std == pytest.approx(1000.0)
    _assert_moments(report, third, fourth, rel=1e-12)


def test_higher_moments_m10_p2_does_not_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("surrogate sampled where the squared expansion is exact")

    monkeypatch.setattr(postproc, "_sample_moments_surrogate", refuse)
    report = higher_moments(_random_surrogate(_mixed_space(10), 2, seed=3))
    assert math.isfinite(report.skewness)
    assert report.kurtosis >= 1.0 + report.skewness**2


@pytest.mark.parametrize("m, order", [(2, 3), (5, 2), (5, 3), (6, 2), (7, 4), (40, 2)])
def test_square_row_count_matches_enumeration(m, order):
    # brute force over the pairs i <= j of non-constant terms: each gives
    # min(a_k, b_k) + 1 rows per dimension k that both involve
    idx = ChaosBasis(_mixed_space(m), order).indices[1:]
    want = 0
    for i, a in enumerate(idx):
        shared = (a > 0) & (idx[i:] > 0)
        want += int(np.prod(np.where(shared, np.minimum(a, idx[i:]) + 1, 1), axis=1).sum())
    assert postproc._square_row_count(m, order) == want


def test_square_row_cap_covers_forty_inputs_at_order_two():
    assert postproc._square_row_count(40, 2) <= postproc.SURROGATE_MC_SAMPLES
    # 1,891 terms: the 1,786,995 pairs of non-constant terms alone exceed it
    assert postproc._square_row_count(60, 2) > postproc.SURROGATE_MC_SAMPLES


def test_higher_moments_samples_beyond_the_row_limit(monkeypatch):
    # the m = 5, p = 2 squared expansion holds 330 rows before merging
    sur = _random_surrogate(_mixed_space(5), 2, seed=5)
    calls = []

    def spy(surrogate, n, seed):
        calls.append((n, seed))
        return _sample_moments_surrogate(surrogate, n, seed)

    monkeypatch.setattr(postproc, "SURROGATE_MC_SAMPLES", 329)
    monkeypatch.setattr(postproc, "_sample_moments_surrogate", spy)
    report = higher_moments(sur)
    assert calls == [(329, 0)]
    assert (report.skewness, report.kurtosis) == _sample_moments_surrogate(sur, 329, seed=0)

    calls.clear()
    monkeypatch.setattr(postproc, "SURROGATE_MC_SAMPLES", 330)
    higher_moments(sur)
    assert calls == []


#: float.hex of (skewness, kurtosis) of _random_surrogate(space, order, seed),
#: stored from the squared expansion before its plan was kept on the basis
SQUARE_MOMENTS_HEX = {
    ("hermite", 10, 2, 12): ("0x1.1ed5c555ae6afp-2", "0x1.4b00e5a16d940p+2"),
    ("mixed", 6, 3, 9): ("-0x1.964388a768229p-2", "0x1.eccda382ac206p+2"),
}


@pytest.mark.parametrize("key", sorted(SQUARE_MOMENTS_HEX))
def test_square_plan_is_built_once_per_basis_and_keeps_the_bits(key, monkeypatch):
    kind, m, order, seed = key
    space = StochasticSpace([Gaussian()] * m) if kind == "hermite" else _mixed_space(m)
    built = []
    build = postproc._build_square_plan
    monkeypatch.setattr(
        postproc, "_build_square_plan", lambda basis: built.append(basis) or build(basis)
    )
    surrogate = _random_surrogate(space, order, seed)
    # the same coefficients on a basis of its own
    fresh = _random_surrogate(space, order, seed)
    for sur in (surrogate, surrogate, fresh):
        report = higher_moments(sur)
        assert (report.skewness.hex(), report.kurtosis.hex()) == SQUARE_MOMENTS_HEX[key]
    assert len(built) == 2
    assert built[0] is surrogate.basis and built[1] is fresh.basis


@pytest.mark.parametrize("m, dtype", [(10, np.uint16), (40, np.uint32)])
def test_square_plan_holds_small_read_only_arrays(m, dtype):
    plan = postproc._build_square_plan(ChaosBasis(_mixed_space(m), 2))
    index = [plan.first, plan.second, plan.diagonal, plan.merge, plan.terms, plan.at]
    index += [a for take, rows, _ in plan.slots for a in (take, rows)]
    # the rows before merging, counted from (m, p) alone
    assert plan.merge.size == postproc._square_row_count(m, 2)
    assert all(a.dtype == dtype for a in index)
    assert all(mult.dtype == np.float64 for _, _, mult in plan.slots)
    assert not any(a.flags.writeable for a in index + [mult for _, _, mult in plan.slots])


_PRINT_CHUNKED_MOMENTS = """
import json
import numpy as np
from segpc import ChaosBasis, FitReport, Gaussian, PceSurrogate, StochasticSpace, Uniform
from segpc import higher_moments, postproc
from segpc.quadrature import sample_moments
space = StochasticSpace([Gaussian() if k % 2 == 0 else Uniform() for k in range(10)])
basis = ChaosBasis(space, 4)
coeffs = np.random.default_rng(12).standard_normal(basis.n_terms)
sur = PceSurrogate(coeffs, basis, FitReport("wlsq", 1, 1, 0.0, 1.0, 1))
postproc.SURROGATE_MC_SAMPLES = n = 12_000
chunks, sampled = [], []


class Counting:
    def __getattr__(self, name):
        return getattr(sur, name)

    def eval(self, points):
        chunks.append(len(points))
        return sur.eval(points)


def spy(values):
    sampled.append(values)
    return sample_moments(values)


postproc.sample_moments = spy
report = higher_moments(Counting())
values = sur.eval(space.sample_pool(n, 0).points)
want = sample_moments(values)[2:]
print(json.dumps([chunks, sampled[0].tobytes() == values.tobytes(),
                  [report.skewness.hex(), report.kurtosis.hex()], [w.hex() for w in want]]))
"""


def test_surrogate_mc_chunks_keep_the_unchunked_bits():
    # m = 10, p = 4: 1,001 terms, whose square holds 1,047,750 rows, so
    # higher_moments samples the surrogate, here 12,000 times in chunks.
    # The matrix-vector product's bits follow the BLAS thread count, which is
    # read when numpy loads: compare in a one-thread child
    env = dict(os.environ, PYTHONPATH=str(Path(segpc.__file__).parents[1]))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    child = subprocess.run(
        [sys.executable, "-c", _PRINT_CHUNKED_MOMENTS],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    chunks, same_values, got, want = json.loads(child.stdout)
    assert len(chunks) >= 2 and chunks[0] % 16 == 0
    assert same_values
    assert got == want


def test_surrogate_mc_chunks_hold_the_byte_budget(monkeypatch):
    sur = _random_surrogate(_mixed_space(10), 4, seed=12)
    n = 12_000
    monkeypatch.setattr(postproc, "SURROGATE_MC_SAMPLES", n)
    pool_bytes = sur.space.sample_pool(n, 0).points.nbytes
    # one basis matrix over the whole pool would take 96 MB
    assert n * sur.basis.n_terms * 8 > postproc.SURROGATE_EVAL_BYTES + pool_bytes
    tracemalloc.start()
    try:
        report = higher_moments(sur)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(report.kurtosis)
    assert peak < postproc.SURROGATE_EVAL_BYTES + pool_bytes


def test_surrogate_mc_draws_its_pool_a_chunk_at_a_time(monkeypatch):
    # 26 chunks of 4 MB: the 200,000 points of 20 coordinates (32 MB) are
    # never held at once, only the values (1.6 MB) and one chunk
    sur = _random_surrogate(StochasticSpace([Gaussian(), Uniform()] * 10), 1, seed=3)
    n = 200_000
    monkeypatch.setattr(postproc, "SURROGATE_EVAL_BYTES", 4 * 2**20)
    tracemalloc.start()
    try:
        skewness, kurtosis = postproc._sample_moments_surrogate(sur, n, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(skewness) and math.isfinite(kurtosis)
    assert peak < 8 * n + 2 * postproc.SURROGATE_EVAL_BYTES < n * sur.space.m * 8


def test_basis_pickle_round_trip_evaluates_identically():
    # model workers receive their bases by pickle
    basis = ChaosBasis(_mixed_space(10), 2)
    clone = pickle.loads(pickle.dumps(basis))
    points = np.random.default_rng(6).standard_normal((3000, 10))
    got, want = clone.eval(points), basis.eval(points)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_parseval_variance_vs_surrogate_sampling():
    # variance from coefficients vs seeded surrogate MC within 3 standard errors
    space = StochasticSpace([Gaussian(), Gaussian(), Gaussian()])
    basis = ChaosBasis(space, 4)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(basis.n_terms) * 0.5
    sur = PceSurrogate(coeffs, basis, FitReport("wlsq", 1, 1, 0.0, 1.0, 1))
    _, var = moments_from_coefficients(sur)

    n = 10**6
    pool = space.sample_pool(n, seed=3)
    vals = np.concatenate(
        [sur.eval(pool.points[i : i + 100000]) for i in range(0, n, 100000)]
    )
    sample_var = vals.var(ddof=1)
    centered = vals - vals.mean()
    m4 = np.mean(centered**4)
    se_var = math.sqrt((m4 - sample_var**2) / n)
    assert abs(var - sample_var) < 3 * se_var


def test_sobol_additive_and_absent_variable():
    space = StochasticSpace([Gaussian(), Gaussian()])
    sur = make_surrogate(space, 2, [0.0, 1.0, 1.0])
    report = sobol_total(sur)
    assert report.total_indices == pytest.approx([0.5, 0.5])
    # additive model: indices in [0, 1] and they sum to one
    assert np.all(report.total_indices >= 0.0)
    assert np.all(report.total_indices <= 1.0)
    assert report.total_indices.sum() == pytest.approx(1.0, abs=1e-9)

    # graded-lex order at degree one is (0,1) then (1,0): index 2 is xi_1
    sur2 = make_surrogate(space, 2, [0.0, 0.0, 1.0])
    report2 = sobol_total(sur2)
    assert report2.total_indices == pytest.approx([1.0, 0.0])


def test_sobol_scale_invariant():
    space = StochasticSpace([Uniform(), Uniform(), Uniform()])
    basis = ChaosBasis(space, 3)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(basis.n_terms)
    sur = PceSurrogate(coeffs, basis, FitReport("wlsq", 1, 1, 0.0, 1.0, 1))
    scaled = PceSurrogate(-7.5 * coeffs, basis, sur.fit_report)
    assert np.allclose(
        sobol_total(sur).total_indices,
        sobol_total(scaled).total_indices,
        rtol=1e-14,
        atol=0.0,
    )


def test_sobol_zero_variance_undefined():
    space = StochasticSpace([Gaussian()])
    sur = make_surrogate(space, 2, [1.0])
    with pytest.raises(ValueError):
        sobol_total(sur)


def test_predicted_cost_table_values():
    # m=40 anchor values
    assert [predicted_cost("segpc", 40, p) for p in (1, 2, 3)] == [2, 42, 602]
    assert [predicted_cost("wlsq", 40, p) for p in (1, 2, 3)] == [41, 861, 12341]
    assert [predicted_cost("smolyak", 40, p) for p in (1, 2, 3)] == [81, 3321, 91881]


def test_predicted_cost_closed_forms():
    for m in (1, 3, 10, 40):
        assert predicted_cost("segpc", m, 1) == 2
        assert predicted_cost("wlsq", m, 1) == m + 1
        assert predicted_cost("wlsq", m, 2) == (m + 1) * (m + 2) // 2
        assert predicted_cost("smolyak", m, 1) == 2 * m + 1
        assert predicted_cost("smolyak", m, 2) == (m + 1) * (2 * m + 1)
    # general-p forms
    assert predicted_cost("segpc", 3, 6) == 2 * math.ceil(84 / 4)
    assert predicted_cost("wlsq", 3, 6) == 84


def test_predicted_cost_validation():
    with pytest.raises(ValueError):
        predicted_cost("smolyak", 4, 4)
    with pytest.raises(ValueError):
        predicted_cost("bogus", 4, 2)
    with pytest.raises(ValueError):
        predicted_cost("segpc", 0, 1)
