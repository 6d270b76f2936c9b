import math

import numpy as np
import pytest

from segpc import (
    ishigami_mean,
    ishigami_model,
    ishigami_sobol_total,
    ishigami_variance,
    ode_mean,
    ode_model,
    ode_variance,
)


def test_ode_model_values():
    model = ode_model(0.0)
    ev = model.value_and_grad(np.array([0.3]))
    assert ev.value == pytest.approx(1.0)
    assert ev.gradient == pytest.approx([0.0])

    model = ode_model(1.0)
    xi = model.space.standardize(np.array([0.5]))
    ev = model.value_and_grad(xi)
    assert ev.value == pytest.approx(math.exp(-0.5))
    # dM/dk = -e^{-0.5}; dk/dxi = 1/2
    assert ev.gradient[0] == pytest.approx(-math.exp(-0.5) * 0.5)


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


def test_ode_model_rejects_negative_time():
    with pytest.raises(ValueError):
        ode_model(-1.0)


def test_ishigami_values():
    model = ishigami_model()
    x0 = model.space.standardize(np.zeros(3))
    ev = model.value_and_grad(x0)
    assert ev.value == pytest.approx(0.0)
    # physical gradient at origin is (1, 0, 0); chain rule multiplies by pi
    assert ev.gradient == pytest.approx([math.pi, 0.0, 0.0])

    x1 = model.space.standardize(np.array([math.pi / 2, math.pi / 2, 0.0]))
    assert model.value(x1) == pytest.approx(8.0)


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


@pytest.mark.parametrize("factory", [lambda: ode_model(1.7), ishigami_model])
def test_analytic_gradients_match_finite_differences(factory):
    model = factory()
    rng = np.random.default_rng(0)
    m = model.space.m
    step = 1e-6
    for _ in range(25):
        xi = rng.uniform(-0.95, 0.95, m)
        ev = model.value_and_grad(xi)
        fd = np.empty(m)
        for k in range(m):
            shift = np.zeros(m)
            shift[k] = step
            fd[k] = (model.value(xi + shift) - model.value(xi - shift)) / (2 * step)
        err = np.abs(ev.gradient - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() < 1e-7


def test_batched_values_match_scalar():
    # one formula per model, so a wlsq fit and an se-gPC fit see the same bits
    for model in (ode_model(1.7), ishigami_model()):
        pts = model.space.sample_pool(4096, seed=5).points
        batched = model.values(pts)
        scalar = np.array([model.value(xi) for xi in pts])
        with_grad = np.array([model.value_and_grad(xi).value for xi in pts])
        assert np.array_equal(batched, scalar), model.name
        assert np.array_equal(batched, with_grad), model.name
