import itertools
import math

import numpy as np
import pytest
from tests_support import reference_smolyak_rule

from segpc import (
    ChaosBasis,
    Gaussian,
    StochasticSpace,
    Uniform,
    gauss_rule,
    ishigami_model,
    monte_carlo_moments,
    ode_mean,
    ode_model,
    quadrature_fit,
    smolyak_rule,
    tensor_rule,
)
from segpc.models import Model
from segpc.quadrature import sample_moments, smolyak_node_count, smolyak_row_count


def test_gauss_hermite_closed_forms():
    nodes, weights = gauss_rule("hermite", 1)
    assert nodes == pytest.approx([0.0])
    assert weights == pytest.approx([1.0])

    nodes, weights = gauss_rule("hermite", 3)
    assert nodes == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)])
    assert weights == pytest.approx([1 / 6, 2 / 3, 1 / 6])


def test_gauss_legendre_two_point():
    nodes, weights = gauss_rule("legendre", 2)
    assert nodes == pytest.approx([-1 / math.sqrt(3.0), 1 / math.sqrt(3.0)])
    assert weights == pytest.approx([0.5, 0.5])


def test_gauss_rule_validation():
    with pytest.raises(ValueError):
        gauss_rule("hermite", 0)


@pytest.mark.parametrize("family", ["hermite", "legendre"])
def test_gauss_exactness_on_monomials(family):
    # an n-point rule integrates monomials up to degree 2n-1 exactly
    n = 6
    nodes, weights = gauss_rule(family, n)
    for degree in range(2 * n):
        got = float(weights @ nodes**degree)
        if family == "hermite":
            want = 0.0 if degree % 2 else math.prod(range(1, degree, 2))
        else:
            want = 0.0 if degree % 2 else 1.0 / (degree + 1)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10)


def test_tensor_rule_weights_sum_to_one():
    space = StochasticSpace([Gaussian(), Uniform(), Gaussian()])
    rule = tensor_rule(space, 4)
    assert rule.n_nodes == 64
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_smolyak_level_one_is_origin():
    for m in (1, 2, 5):
        space = StochasticSpace([Gaussian()] * m)
        rule = smolyak_rule(space, 1)
        assert rule.n_nodes == 1
        assert np.allclose(rule.nodes, 0.0)
        assert rule.weights == pytest.approx([1.0])


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_smolyak_level_two_node_count(m):
    space = StochasticSpace([Gaussian()] * m)
    rule = smolyak_rule(space, 2)
    assert rule.n_nodes == 2 * m + 1
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_smolyak_m1_reduces_to_gauss():
    space = StochasticSpace([Uniform()])
    rule = smolyak_rule(space, 3)
    nodes, weights = gauss_rule("legendre", 5)
    order = np.argsort(rule.nodes[:, 0])
    assert rule.nodes[order, 0] == pytest.approx(nodes)
    assert rule.weights[order] == pytest.approx(weights)


def test_smolyak_weights_sum_and_merge_idempotent():
    space = StochasticSpace([Gaussian(), Uniform(), Gaussian()])
    rule = smolyak_rule(space, 3)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # negative combination weights are inherent and retained
    assert np.any(rule.weights < 0.0)
    # merging again at the same resolution changes nothing
    seen = {}
    for node, weight in zip(np.round(rule.nodes, 12), rule.weights):
        key = tuple(node)
        assert key not in seen
        seen[key] = weight


def _mixed_space(m):
    return StochasticSpace([Gaussian() if k % 2 == 0 else Uniform() for k in range(m)])


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 3, 6, 10])
def test_smolyak_matches_reference_bit_for_bit(m, level):
    space = _mixed_space(m)
    got = smolyak_rule(space, level)
    want = reference_smolyak_rule(space, level)
    assert got.nodes.shape == want.nodes.shape
    # same nodes in the same order, signed zeros included, and same weights
    assert np.array_equal(got.nodes.view(np.uint64), want.nodes.view(np.uint64))
    assert np.array_equal(got.weights.view(np.uint64), want.weights.view(np.uint64))
    assert got.n_nodes == smolyak_node_count(m, level)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_smolyak_row_count_matches_enumeration(m):
    # brute force over every multi-level k in [1, level]^m with a nonzero
    # combination coefficient (level <= |k| <= level + m - 1)
    for level in range(1, 6):
        want = sum(
            math.prod(2 * k - 1 for k in k_vec)
            for k_vec in itertools.product(range(1, level + 1), repeat=m)
            if level <= sum(k_vec) <= level + m - 1
        )
        assert smolyak_row_count(m, level) == want


def test_smolyak_node_guard(monkeypatch):
    import segpc.quadrature as quad

    monkeypatch.setattr(quad, "MAX_RULE_NODES", 10)
    space = StochasticSpace([Gaussian(), Gaussian(), Gaussian()])
    with pytest.raises(ValueError):
        quad.smolyak_rule(space, 3)
    monkeypatch.setattr(quad, "MAX_RULE_NODES", 10)
    with pytest.raises(ValueError):
        quad.tensor_rule(space, 4)


def test_smolyak_guard_refuses_one_node_over(monkeypatch):
    import segpc.quadrature as quad

    space = _mixed_space(4)
    n_nodes = smolyak_rule(space, 4).n_nodes
    monkeypatch.setattr(quad, "MAX_RULE_NODES", n_nodes - 1)
    with pytest.raises(ValueError, match="exceeds"):
        quad.smolyak_rule(space, 4)
    monkeypatch.setattr(quad, "MAX_RULE_NODES", n_nodes)
    assert quad.smolyak_rule(space, 4).n_nodes == n_nodes


def test_smolyak_validation():
    space = StochasticSpace([Gaussian()])
    with pytest.raises(ValueError):
        smolyak_rule(space, 0)


def test_quadrature_fit_constant_and_basis_function():
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis = ChaosBasis(space, 3)

    class Const(Model):
        name = "const"

        def values(self, points):
            return np.full(np.atleast_2d(points).shape[0], 5.0)

    rule = tensor_rule(space, 5)
    sur = quadrature_fit(basis, rule, Const(space))
    want = np.zeros(basis.n_terms)
    want[0] = 5.0
    assert np.max(np.abs(sur.coefficients - want)) < 1e-12

    class BasisFn(Model):
        name = "psi2"

        def __init__(self, space, basis):
            super().__init__(space)
            self.basis = basis

        def values(self, points):
            return self.basis.eval(np.atleast_2d(points))[:, 2]

    sur2 = quadrature_fit(basis, rule, BasisFn(space, basis))
    want2 = np.zeros(basis.n_terms)
    want2[2] = 1.0
    assert np.max(np.abs(sur2.coefficients - want2)) < 1e-12


def test_quadrature_fit_ode_smolyak_mean():
    model = ode_model(1.0)
    basis = ChaosBasis(model.space, 6)
    rule = smolyak_rule(model.space, 4)
    sur = quadrature_fit(basis, rule, model)
    assert abs(sur.coefficients[0] - ode_mean(1.0)) < 1e-4


def test_sample_moments_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.gamma(2.0, 1.5, size=10000)
    mean, variance, skewness, kurtosis = sample_moments(data)
    assert mean == data.mean()
    assert variance == pytest.approx(data.var(ddof=1), rel=1e-10)
    centered = data - data.mean()
    want_skew = np.mean(centered**3) / np.mean(centered**2) ** 1.5
    want_kurt = np.mean(centered**4) / np.mean(centered**2) ** 2
    assert skewness == pytest.approx(want_skew, rel=1e-9)
    assert kurtosis == pytest.approx(want_kurt, rel=1e-9)
    # Pearson inequality holds for any nondegenerate sample
    assert kurtosis >= 1.0 + skewness**2


class LinearModel(Model):
    name = "xi1"

    def values(self, points):
        return np.atleast_2d(points)[:, 0]


class ConstModel(Model):
    name = "five"

    def values(self, points):
        return np.full(np.atleast_2d(points).shape[0], 5.0)


def test_monte_carlo_standard_normal_moments():
    space = StochasticSpace([Gaussian(), Gaussian()])
    report, trace = monte_carlo_moments(space, LinearModel(space), 10**6, seed=42)
    assert trace.shape == (10**6,)
    assert abs(report.mean) < 5e-3
    assert abs(report.std - 1.0) < 5e-3
    assert abs(report.kurtosis - 3.0) < 5e-2


def test_monte_carlo_constant_is_degenerate():
    space = StochasticSpace([Gaussian()])
    report, _ = monte_carlo_moments(space, ConstModel(space), 100, seed=0)
    assert report.mean == pytest.approx(5.0)
    assert report.std == pytest.approx(0.0)
    assert math.isnan(report.skewness)
    assert math.isnan(report.kurtosis)
    with pytest.raises(ValueError):
        monte_carlo_moments(space, ConstModel(space), 1, seed=0)


def test_monte_carlo_ishigami_reference_moments():
    model = ishigami_model()
    report, _ = monte_carlo_moments(model.space, model, 10**6, seed=5)
    assert report.mean == pytest.approx(3.5, abs=0.02)
    assert report.std == pytest.approx(3.7208, abs=0.02)


def test_monte_carlo_determinism_and_worker_invariance():
    space = StochasticSpace([Gaussian()])
    rep_a, trace_a = monte_carlo_moments(space, LinearModel(space), 5000, seed=9)
    rep_b, trace_b = monte_carlo_moments(space, LinearModel(space), 5000, seed=9)
    assert np.array_equal(trace_a, trace_b)
    assert rep_a.mean == rep_b.mean


def test_monte_carlo_moments_are_sample_moments_of_the_trace():
    # the report holds the moments of the whole trace, bit for bit, for any
    # worker count
    model = ishigami_model()
    report, trace = monte_carlo_moments(model.space, model, 70_000, seed=4)
    moments = (report.mean, report.variance, report.skewness, report.kurtosis)
    assert moments == sample_moments(trace)
    assert report.std == math.sqrt(report.variance)
    report2, trace2 = monte_carlo_moments(model.space, model, 70_000, seed=4, workers=2)
    assert report2 == report
    assert np.array_equal(trace2, trace)


class SquareModel(Model):
    name = "xi-squared"

    def values(self, points):
        return np.atleast_2d(points)[:, 0] ** 2


def test_monte_carlo_error_scales_like_sqrt_n():
    # RMS error over repetitions of the mean of xi^2 (true mean 1)
    space = StochasticSpace([Gaussian()])
    sizes = [10**3, 10**4, 10**5]
    rms = []
    for n in sizes:
        errors = []
        for rep in range(200):
            report, _ = monte_carlo_moments(
                space, SquareModel(space), n, seed=1000 + rep
            )
            errors.append((report.mean - 1.0) ** 2)
        rms.append(math.sqrt(np.mean(errors)))
    slope = np.polyfit(np.log10(sizes), np.log10(rms), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)
