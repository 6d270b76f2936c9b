import numpy as np
import pytest

from segpc import burgers_model, ishigami_model, monte_carlo_moments
from segpc.errors import ModelSolveError, SolverDivergenceError
from segpc.models import Model
from segpc.parallel import evaluate_values, evaluate_with_gradients


class NonFiniteAtMark(Model):
    """Ishigami's space; value 1 and gradient xi, except NaN at points with xi_0 = 9."""

    def __init__(self, where):
        super().__init__(ishigami_model().space)
        self.where = where

    def values(self, points):
        return self.values_and_grads(points)[0]

    def values_and_grads(self, points):
        values, grads = np.ones(len(points)), np.array(points, dtype=float)
        marked = points[:, 0] == 9.0
        if self.where == "value":
            values[marked] = np.nan
        else:
            grads[marked, 1] = np.nan
        return values, grads


def test_values_worker_invariance():
    model = ishigami_model()
    pts = model.space.sample_pool(64, seed=0).points
    serial = evaluate_values(model, pts, workers=1)
    parallel = evaluate_values(model, pts, workers=2)
    assert np.array_equal(serial, parallel)


def test_gradients_worker_invariance():
    model = ishigami_model()
    pts = model.space.sample_pool(16, seed=1).points
    v1, g1 = evaluate_with_gradients(model, pts, workers=1)
    v2, g2 = evaluate_with_gradients(model, pts, workers=2)
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_burgers_worker_invariance():
    for n_grid in (11, 21):
        model = burgers_model(n_grid=n_grid)
        pts = model.space.sample_pool(8, seed=4).points
        v1 = evaluate_values(model, pts, workers=1)
        v2 = evaluate_values(model, pts, workers=2)
        assert np.array_equal(v1, v2)
        v1, g1 = evaluate_with_gradients(model, pts, workers=1)
        v2, g2 = evaluate_with_gradients(model, pts, workers=2)
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)


@pytest.mark.parametrize("evaluate", [evaluate_values, evaluate_with_gradients])
def test_failure_index_counts_from_the_whole_call(evaluate):
    # 12 points in 8 chunks: the failing point is row 1 of the chunk from row 4
    model = burgers_model(n_grid=11)
    pts = model.space.sample_pool(12, seed=1).points
    pts[5] = 8.0
    where = r"at sample 5, standardized point \[8,"
    with pytest.raises(SolverDivergenceError, match=where) as info:
        evaluate(model, pts, workers=2)
    assert info.value.index == 5
    assert np.array_equal(info.value.point, pts[5])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "evaluate, where",
    [
        pytest.param(evaluate_with_gradients, "value", id="value"),
        pytest.param(evaluate_with_gradients, "gradient", id="gradient"),
        pytest.param(evaluate_values, "value", id="evaluate_values"),
    ],
)
def test_non_finite_gradient_output_names_the_sample(workers, evaluate, where):
    # a model without its own check still fails the fit, naming the first
    # sample, in whichever chunk it lies
    pts = ishigami_model().space.sample_pool(12, seed=1).points
    pts[[5, 9], 0] = 9.0
    message = r"non-finite QoI value.* at sample 5, standardized point \[9,"
    with pytest.raises(ModelSolveError, match=message) as info:
        evaluate(NonFiniteAtMark(where), pts, workers=workers)
    assert info.value.index == 5
    assert np.array_equal(info.value.point, pts[5])


def test_monte_carlo_worker_invariance():
    model = ishigami_model()
    rep1, trace1 = monte_carlo_moments(model.space, model, 4000, seed=2, workers=1)
    rep2, trace2 = monte_carlo_moments(model.space, model, 4000, seed=2, workers=2)
    assert np.array_equal(trace1, trace2)
    assert rep1.mean == rep2.mean
    assert rep1.kurtosis == rep2.kurtosis
