import math
import re

import numpy as np
import pytest
from tests_support import PolyValuesModel

from segpc import (
    ChaosBasis,
    Gaussian,
    StochasticSpace,
    Uniform,
    burgers_model,
    fit_segpc,
    fit_wlsq,
    ishigami_mean,
    ishigami_model,
    ishigami_sobol_total,
    ishigami_variance,
    monte_carlo_moments,
    ode_mean,
    ode_model,
    ode_variance,
    quadrature_fit,
    rank_pool,
    tensor_rule,
)
from segpc.errors import UnsupportedModelError
from segpc.models import IshigamiModel
from segpc.parallel import evaluate_values


def test_ode_model_values():
    values, grads = ode_model(0.0).values_and_grads(np.array([[0.3]]))
    assert values == pytest.approx([1.0])
    assert grads == pytest.approx(np.array([[0.0]]))

    model = ode_model(1.0)
    xi = model.space.standardize(np.array([[0.5]]))
    [value], [[grad]] = model.values_and_grads(xi)
    assert value == pytest.approx(math.exp(-0.5))
    # dM/dk = -e^{-0.5}; dk/dxi = 1/2
    assert grad == pytest.approx(-math.exp(-0.5) * 0.5)


def test_ode_closed_forms():
    assert ode_mean(2.0) == pytest.approx((1 - math.exp(-2.0)) / 2.0)
    assert ode_mean(2.0) == pytest.approx(0.4323323583816936)
    assert ode_mean(0.0) == 1.0
    assert ode_variance(0.0) == 0.0
    # quadrature oracle for the variance closed form
    k = np.linspace(0.0, 1.0, 20001)
    for t in (0.5, 1.0, 3.0):
        vals = np.exp(-k * t)
        mean = np.trapezoid(vals, k)
        var = np.trapezoid((vals - mean) ** 2, k)
        assert ode_mean(t) == pytest.approx(mean, rel=1e-7)
        assert ode_variance(t) == pytest.approx(var, rel=1e-6)


@pytest.mark.parametrize("t", [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0, 5.0, 30.0, 100.0])
def test_ode_closed_forms_match_high_precision(t):
    # neither the closed forms nor the reference moments may cancel at small
    # t: compare with central moments from E[u^n] = -expm1(-n t) / (n t) at
    # 60 digits (the fourth is ~t^4 / 80, so ~26 digits survive at t = 1e-8)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        tt = mpmath.mpf(t)
        raw = [mpmath.mpf(1)] + [-mpmath.expm1(-n * tt) / (n * tt) for n in range(1, 5)]
        mean = raw[1]
        central = [
            mpmath.fsum(math.comb(n, j) * raw[j] * (-mean) ** (n - j) for j in range(n + 1))
            for n in range(5)
        ]
        want_mean, want_var = float(mean), float(central[2])
        want_skewness = float(central[3] / central[2] ** 1.5)
        want_kurtosis = float(central[4] / central[2] ** 2)
    assert ode_mean(t) == pytest.approx(want_mean, rel=1e-14, abs=0.0)
    assert ode_variance(t) == pytest.approx(want_var, rel=1e-14, abs=0.0)
    exact = ode_model(t).exact_moments()
    assert exact["mean"] == ode_mean(t)
    assert exact["std"] == math.sqrt(ode_variance(t))
    assert exact["skewness"] == pytest.approx(want_skewness, rel=0.0, abs=1e-13)
    assert exact["kurtosis"] == pytest.approx(want_kurtosis, rel=1e-14, abs=0.0)


def test_ode_model_rejects_negative_time():
    with pytest.raises(ValueError):
        ode_model(-1.0)


def test_ishigami_values():
    model = ishigami_model()
    xi = model.space.standardize(np.array([[0.0, 0.0, 0.0], [math.pi / 2, math.pi / 2, 0.0]]))
    values, grads = model.values_and_grads(xi)
    assert values == pytest.approx([0.0, 8.0])
    # physical gradient at origin is (1, 0, 0); chain rule multiplies by pi
    assert grads[0] == pytest.approx([math.pi, 0.0, 0.0])


def test_ishigami_reference_values():
    assert ishigami_mean() == pytest.approx(3.5)
    assert ishigami_variance() == pytest.approx(13.844587940719254, rel=1e-12)
    assert math.sqrt(ishigami_variance()) == pytest.approx(3.7208, abs=1e-4)
    sob = ishigami_sobol_total()
    assert sob == pytest.approx([0.5574, 0.4424, 0.2436], abs=2e-4)


def test_ishigami_variance_quadrature_oracle():
    # brute-force quadrature of the closed-form variance
    model = ishigami_model()
    from segpc import tensor_rule

    rule = tensor_rule(model.space, 40)
    vals = model.values(rule.nodes)
    mean = float(rule.weights @ vals)
    var = float(rule.weights @ (vals - mean) ** 2)
    assert mean == pytest.approx(ishigami_mean(), rel=1e-10)
    assert var == pytest.approx(ishigami_variance(), rel=1e-8)


@pytest.mark.parametrize(
    "factory", [lambda: ode_model(1.7), pytest.param(ishigami_model, id="ishigami_model")]
)
def test_analytic_gradients_match_finite_differences(factory):
    model = factory()
    rng = np.random.default_rng(0)
    m = model.space.m
    step = 1e-6
    xi = rng.uniform(-0.95, 0.95, (25, m))
    _, grads = model.values_and_grads(xi)
    fd = np.column_stack([
        (model.values(xi + shift) - model.values(xi - shift)) / (2 * step)
        for shift in step * np.eye(m)
    ])
    err = np.abs(grads - fd) / np.maximum(1.0, np.abs(fd))
    assert err.max() < 1e-7


def test_batched_values_match_scalar():
    # one formula per model, so a wlsq fit and an se-gPC fit see the same bits,
    # and a point alone is a one-row batch with the bits it gets among others
    for model in (ode_model(1.7), ishigami_model()):
        pts = model.space.sample_pool(4096, seed=5).points
        batched = model.values(pts)
        scalar = np.concatenate([model.values(row[None]) for row in pts])
        with_grad = np.array([model.value_and_grad(xi).value for xi in pts])
        assert np.array_equal(batched, scalar), model.name
        assert np.array_equal(batched, with_grad), model.name


def test_values_and_grads_match_value_and_grad():
    # one vectorized gradient call gives each row the bits of its own call
    for model in (ode_model(1.7), ishigami_model()):
        pts = model.space.sample_pool(5000, seed=6).points
        values, grads = model.values_and_grads(pts)
        single = [model.value_and_grad(xi) for xi in pts]
        assert grads.shape == pts.shape, model.name
        assert np.array_equal(values, [ev.value for ev in single]), model.name
        assert np.array_equal(grads, [ev.gradient for ev in single]), model.name
        assert np.array_equal(values, model.values(pts)), model.name


@pytest.mark.parametrize(
    "factory", [ode_model, ishigami_model, pytest.param(lambda: burgers_model(n_grid=11),
                                                        id="burgers_model")]
)
def test_models_take_rows_only(factory):
    # a single point is a one-row batch; no evaluation starts on another shape
    model = factory()
    m = model.space.m
    for points in (np.zeros(m), np.zeros((2, m + 1)), np.zeros((1, 1, m))):
        message = f"points have shape {points.shape}, expected (n, {m})"
        for evaluate in (model.values, model.values_and_grads):
            with pytest.raises(ValueError, match=re.escape(message)):
                evaluate(points)


def test_a_model_with_values_only_fits_without_gradients():
    # values(points) is the whole contract of wlsq, quadrature and Monte Carlo;
    # se-gPC needs values_and_grads and names the model that lacks it
    space = StochasticSpace([Gaussian(), Uniform()])
    basis = ChaosBasis(space, 3)
    coeffs = np.random.default_rng(4).standard_normal(basis.n_terms)
    model = PolyValuesModel(space, basis, coeffs)
    plan = rank_pool(basis, 500, seed=1)
    points, w_sqrt = plan.take(2 * basis.n_terms)
    wlsq = fit_wlsq(basis, points, w_sqrt, evaluate_values(model, points))
    assert np.max(np.abs(wlsq.coefficients - coeffs)) < 1e-12
    projected = quadrature_fit(basis, tensor_rule(space, 4), model)
    assert np.max(np.abs(projected.coefficients - coeffs)) < 1e-12
    report, samples = monte_carlo_moments(space, model, 200, seed=2)
    assert np.array_equal(samples, model.values(space.sample_pool(200, 2).points))
    assert report.evaluation_count == 200
    with pytest.raises(UnsupportedModelError, match="model 'poly-values' provides no gradient"):
        fit_segpc(basis, plan, model)


def centred_moments(weights, values):
    """First four moments of ``values`` under quadrature ``weights``, centred first."""
    mean = float(weights @ values)
    centered = values - mean
    var = float(weights @ centered**2)
    return {
        "mean": mean,
        "std": math.sqrt(var),
        "skewness": float(weights @ centered**3) / var**1.5,
        "kurtosis": float(weights @ centered**4) / var**2,
    }


def centred_moments_on_rule(model, n_per_dim):
    """First four moments of a model on a tensor Gauss rule, centred first."""
    rule = tensor_rule(model.space, n_per_dim)
    return centred_moments(rule.weights, model.values(rule.nodes))


@pytest.mark.parametrize("alpha, beta", [(7.0, 0.1), (5.0, 0.2), (7.0, 0.0)])
def test_ishigami_exact_moments_match_quadrature(alpha, beta):
    model = IshigamiModel(alpha, beta)
    exact = model.exact_moments()
    oracle = centred_moments_on_rule(model, 60)
    assert exact["std"] == math.sqrt(ishigami_variance(alpha, beta))
    assert exact["skewness"] == 0.0
    assert abs(oracle["skewness"]) < 1e-13
    for key in ("mean", "std", "kurtosis"):
        assert exact[key] == pytest.approx(oracle[key], rel=1e-13, abs=0.0), key


@pytest.mark.parametrize("t", [1e-4, 1e-2, 1.0, 30.0])
def test_ode_exact_moments_are_the_centred_60_point_rule(t):
    # mean and std are the closed forms; the shape moments are the 60-point
    # rule centred on u - 1 = expm1(-k t), bit for bit, at every time
    model = ode_model(t)
    rule = tensor_rule(model.space, 60)
    decay = model.space.destandardize(rule.nodes)[:, 0] * t
    shape = centred_moments(rule.weights, np.expm1(-decay))
    assert model.exact_moments() == {
        "mean": ode_mean(t), "std": math.sqrt(ode_variance(t)),
        "skewness": shape["skewness"], "kurtosis": shape["kurtosis"],
    }
