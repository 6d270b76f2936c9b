import math
import pickle

import numpy as np
import pytest
from tests_support import dense_basis_eval

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
import segpc.postproc as postproc
from segpc.postproc import _sample_moments_surrogate
from segpc.quadrature import sample_moments, tensor_rule


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
    # the dense tensor-product evaluation over the same 10^5-point chunks
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


@pytest.mark.parametrize("m, order", [(5, 2), (5, 3), (6, 2)])
def test_higher_moments_exact_beyond_four_dimensions(m, order):
    # oracle: central moments under the tensor Gauss rule with 2p + 1 points
    # per dimension, exact for the degree-4p integrands
    sur = _random_surrogate(_mixed_space(m), order, seed=m + order)
    rule = tensor_rule(sur.space, 2 * order + 1)
    vals = sur.eval(rule.nodes)
    mean = rule.weights @ vals
    var = rule.weights @ (vals - mean) ** 2
    want_skew = rule.weights @ (vals - mean) ** 3 / var**1.5
    want_kurt = rule.weights @ (vals - mean) ** 4 / var**2
    report = higher_moments(sur)
    assert report.skewness == pytest.approx(want_skew, rel=1e-9)
    assert report.kurtosis == pytest.approx(want_kurt, rel=1e-9)


def test_higher_moments_m10_p2_does_not_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("surrogate sampled where a sparse rule is exact")

    monkeypatch.setattr(postproc, "_sample_moments_surrogate", refuse)
    report = higher_moments(_random_surrogate(_mixed_space(10), 2, seed=3))
    assert math.isfinite(report.skewness)
    assert report.kurtosis >= 1.0 + report.skewness**2


def test_higher_moments_samples_beyond_the_row_limit(monkeypatch):
    # the m = 5, p = 2 sparse rule's blocks hold 3206 rows before merging
    sur = _random_surrogate(_mixed_space(5), 2, seed=5)
    calls = []

    def spy(surrogate, n, seed):
        calls.append((n, seed))
        return _sample_moments_surrogate(surrogate, n, seed)

    monkeypatch.setattr(postproc, "SURROGATE_MC_SAMPLES", 3205)
    monkeypatch.setattr(postproc, "_sample_moments_surrogate", spy)
    report = higher_moments(sur)
    assert calls == [(3205, 0)]
    assert (report.skewness, report.kurtosis) == _sample_moments_surrogate(sur, 3205, seed=0)

    calls.clear()
    monkeypatch.setattr(postproc, "SURROGATE_MC_SAMPLES", 3206)
    higher_moments(sur)
    assert calls == []


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
