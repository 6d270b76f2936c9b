import hashlib
import math

import numpy as np
import pytest
from tests_support import meshgrid_tensor_block, reference_smolyak_rule

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
from segpc.quadrature import sample_moments, smolyak_node_count


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


@pytest.mark.parametrize(
    "families,n_per_dim",
    [(["hermite"], 7), (["legendre", "hermite", "legendre"], 5),
     (["hermite", "legendre", "hermite", "legendre"], 4), (["legendre"] * 3, 21)],
)
def test_tensor_rule_bit_identical_to_meshgrid(families, n_per_dim):
    kinds = {"hermite": Gaussian, "legendre": Uniform}
    space = StochasticSpace([kinds[family]() for family in families])
    nodes, weights = meshgrid_tensor_block([gauss_rule(f, n_per_dim) for f in families])
    rule = tensor_rule(space, n_per_dim)
    assert np.array_equal(rule.nodes.view(np.uint64), nodes.view(np.uint64))
    assert np.array_equal(rule.weights.view(np.uint64), weights.view(np.uint64))


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


# mixed spaces at levels 1-5, plus the all-uniform m = 3 rules that
# `segpc convergence` builds for Ishigami at orders 6 and 8
@pytest.mark.parametrize(
    "space, level",
    [
        pytest.param(_mixed_space(m), level, id=f"{m}-{level}")
        for m in (1, 3, 6, 10)
        for level in range(1, 6)
    ]
    + [
        pytest.param(StochasticSpace([Uniform()] * 3), level, id=f"uniform3-{level}")
        for level in (7, 9)
    ],
)
def test_smolyak_matches_reference_bit_for_bit(space, level):
    got = smolyak_rule(space, level)
    want = reference_smolyak_rule(space, level)
    assert got.nodes.shape == want.nodes.shape
    # same nodes in the same order, signed zeros included, and same weights
    assert np.array_equal(got.nodes.view(np.uint64), want.nodes.view(np.uint64))
    assert np.array_equal(got.weights.view(np.uint64), want.weights.view(np.uint64))
    assert got.n_nodes == smolyak_node_count(space.m, level)


# sha256 of the nodes' and weights' bytes, pinned from the rules built before
# the merge moved from np.unique to one lexsort
SMOLYAK_DIGESTS = {
    ("ishigami", 3): (
        "44bcad26a13e124b43f5a0f4005cea57a8227d7ae316055ea698e47f97673a19",
        "9f9041a20d049ed46c6238aac94a8146920b447464eec6b6138ac417fd9ee239",
    ),
    ("ishigami", 5): (
        "c26e90893f59d6b51c438e344a2ac6c5487c5f255f03c8a7383c8b148cb09a3b",
        "8d1da8e13ec685d5f06d75610faa2b878a007132e6d7c9990c061905ffc6669d",
    ),
    ("ishigami", 7): (
        "74c119140d2af0904485ca3f4b7568ec049ac8b640c5aa6fbc2c21794c66779f",
        "7c9f413cd60a39c446be87d0b896012918def31479da9b6119e51ccfc082d7c1",
    ),
    ("ishigami", 9): (
        "dd36bfc18bd608f700f39a02b827950136a1c4d1748114326a940aa8e8163278",
        "57557b2b7a4d717ed906bae040ddd480e981a12717e85c5bf90c2beb9be47e17",
    ),
    ("mixed4", 5): (
        "8efa84eb4f7bce4101f273df3ebab156c4c86234aa08f06be53471b605909b50",
        "d7bd865ca8b8b4dc82606c3c581514b51b6f5c00720d0cc59d8abfe055d2064b",
    ),
}


@pytest.mark.parametrize("name, level", list(SMOLYAK_DIGESTS))
def test_smolyak_rule_bytes_are_pinned(name, level):
    space = ishigami_model().space if name == "ishigami" else _mixed_space(4)
    rule = smolyak_rule(space, level)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (rule.nodes, rule.weights))
    assert digests == SMOLYAK_DIGESTS[name, level]


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
