import json
import math
import re

import numpy as np
import pytest
from tests_support import PolyModel

from segpc import (
    ChaosBasis,
    Gaussian,
    Model,
    StochasticSpace,
    Uniform,
    coherence_weights,
    fit_segpc,
    fit_wlsq,
    moments_from_coefficients,
    ode_mean,
    ode_model,
    rank_pool,
    segpc_point_count,
)
from segpc.cli import build_space
from segpc.errors import InsufficientSamplesError, UnsupportedModelError
from segpc.regression import _RCOND


def make_plan(space, order, q=2000, seed=0):
    basis = ChaosBasis(space, order)
    return basis, rank_pool(basis, q, seed)


class CountingModel(PolyModel):
    """PolyModel that records every row of points it evaluates with gradients."""

    def __init__(self, space, basis, coeffs):
        super().__init__(space, basis, coeffs)
        self.calls = []

    def values_and_grads(self, points):
        self.calls.append(points)
        return super().values_and_grads(points)


def test_fit_wlsq_constant():
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis, plan = make_plan(space, 2)
    values = np.ones(plan.n_selected)
    sur = fit_wlsq(basis, plan.points, plan.w_sqrt, values)
    want = np.zeros(basis.n_terms)
    want[0] = 1.0
    assert np.max(np.abs(sur.coefficients - want)) < 1e-12


def test_fit_wlsq_recovers_basis_function():
    space = StochasticSpace([Gaussian(), Uniform()])
    basis, plan = make_plan(space, 3)
    target = basis.eval(plan.points)[:, 3]
    sur = fit_wlsq(basis, plan.points, plan.w_sqrt, target)
    want = np.zeros(basis.n_terms)
    want[3] = 1.0
    assert np.max(np.abs(sur.coefficients - want)) < 1e-10


def test_fit_wlsq_underdetermined():
    space = StochasticSpace([Gaussian()])
    basis = ChaosBasis(space, 4)
    pts = space.sample_pool(3, seed=0).points
    with pytest.raises(InsufficientSamplesError):
        fit_wlsq(basis, pts, np.ones(3), np.zeros(3))


def test_fit_wlsq_rank_deficient_raises():
    from segpc.errors import RankDeficientError

    space = StochasticSpace([Gaussian()])
    basis = ChaosBasis(space, 3)
    pts = np.tile([[0.5]], (6, 1))  # all points identical
    with pytest.raises(RankDeficientError) as err:
        fit_wlsq(basis, pts, np.ones(6), np.ones(6))
    assert err.value.cond_number is not None


def test_fit_wlsq_ode_mean():
    model = ode_model(1.0)
    basis, plan = make_plan(model.space, 6, q=10000, seed=42)
    values = model.values(plan.points)
    sur = fit_wlsq(basis, plan.points, plan.w_sqrt, values)
    mean, _ = moments_from_coefficients(sur)
    assert abs(mean - ode_mean(1.0)) < 1e-4


def test_residual_orthogonal_to_design():
    # least-squares optimality: design^T residual = 0
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis, plan = make_plan(space, 2)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(plan.n_selected)
    # oversampled: reuse pool points beyond the plan
    pts = space.sample_pool(40, seed=3).points
    w = coherence_weights(space, pts)
    vals = rng.standard_normal(40)
    sur = fit_wlsq(basis, pts, w, vals)
    design = basis.eval(pts) * w[:, None]
    residual = design @ sur.coefficients - w * vals
    assert np.max(np.abs(design.T @ residual)) < 1e-10
    # the reported residual norm is the achieved weighted misfit
    assert sur.fit_report.residual_norm == pytest.approx(
        float(np.linalg.norm(residual)), rel=1e-12
    )


def test_fit_wlsq_gradient_blocks_recover_cubic():
    # two points with value and slope determine a cubic exactly (m=1, p=3)
    space = StochasticSpace([Uniform()])
    basis = ChaosBasis(space, 3)
    pts = np.array([[-0.4], [0.7]])
    w = np.array([0.6, 0.9])
    x = pts[:, 0]
    vals = 1.0 + 2.0 * x - 0.5 * x**2 + 0.25 * x**3
    grads = (2.0 - x + 0.75 * x**2)[:, None]
    sur = fit_wlsq(basis, pts, w, vals, grads)
    report = sur.fit_report
    assert report.method == "segpc"
    assert report.n_equations == 4
    assert report.evaluation_count == 4
    test = np.linspace(-1.0, 1.0, 9)
    want = 1.0 + 2.0 * test - 0.5 * test**2 + 0.25 * test**3
    assert np.max(np.abs(sur.eval(test[:, None]) - want)) < 1e-12
    # gradient rows sit under the value rows and reuse the point weights
    design = np.vstack([basis.eval(pts), basis.grad(pts)[:, 0, :]]) * np.tile(w, 2)[:, None]
    assert report.cond_number == pytest.approx(np.linalg.cond(design), rel=1e-12)


def test_fit_wlsq_gradient_mismatch():
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis = ChaosBasis(space, 2)
    pts = space.sample_pool(3, seed=2).points
    with pytest.raises(ValueError):
        fit_wlsq(basis, pts, np.ones(3), np.zeros(3), np.zeros((3, 1)))


@pytest.mark.parametrize("name", ["w_sqrt", "values"])
def test_fit_wlsq_refuses_a_per_point_array_of_another_shape(name):
    # a 1-entry w_sqrt was broadcast over every row, and a short values array
    # ended in numpy's broadcast error
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis = ChaosBasis(space, 1)
    pts = space.sample_pool(5, seed=2).points
    args = {"w_sqrt": np.ones(5), "values": np.zeros(5)}
    for wrong in (np.ones(1), np.ones(4), np.ones((5, 1))):
        message = f"{name} has shape {wrong.shape}, expected (5,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_wlsq(basis, pts, **{**args, name: wrong})


def test_fit_segpc_refuses_budget_before_evaluating():
    space = StochasticSpace([Gaussian()])
    basis, plan = make_plan(space, 6)
    model = CountingModel(space, basis, np.zeros(basis.n_terms))
    with pytest.raises(InsufficientSamplesError):
        fit_segpc(basis, plan, model, n_points=3)  # 6 equations, 7 unknowns
    assert model.calls == []


def test_segpc_point_counts():
    assert segpc_point_count(7, 1) == 4       # m=1, p=6
    assert segpc_point_count(10, 2) == 4      # m=2, p=3 -> 12 equations
    assert segpc_point_count(2, 1) == 1       # p=1: single point
    assert segpc_point_count(861, 40) == 21   # m=40, p=2


def test_fit_segpc_exact_linear():
    # M = 2 xi1 - xi2 is exactly representable at p=1: one point suffices
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis, plan = make_plan(space, 1)
    coeffs = np.array([0.0, 2.0, -1.0])
    model = PolyModel(space, basis, coeffs)
    sur = fit_segpc(basis, plan, model)
    assert sur.fit_report.n_points == 1
    assert sur.fit_report.evaluation_count == 2
    assert np.max(np.abs(sur.coefficients - coeffs)) < 1e-12


def test_fit_segpc_exact_recovery_full_rank():
    space = StochasticSpace([Uniform(), Uniform()])
    basis, plan = make_plan(space, 4)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(basis.n_terms)
    model = PolyModel(space, basis, coeffs)
    sur = fit_segpc(basis, plan, model, n_points=basis.n_terms)
    assert sur.fit_report.rank == basis.n_terms
    assert np.max(np.abs(sur.coefficients - coeffs)) < 1e-9


def test_fit_segpc_equivalence_with_wlsq_for_constant():
    # constant QoI with analytically zero gradients: both paths coincide
    space = StochasticSpace([Gaussian(), Uniform()])
    basis, plan = make_plan(space, 2)
    coeffs = np.zeros(basis.n_terms)
    coeffs[0] = 3.25
    model = PolyModel(space, basis, coeffs)
    sur_g = fit_segpc(basis, plan, model, n_points=basis.n_terms)
    values = model.values(plan.points)
    sur_w = fit_wlsq(basis, plan.points, plan.w_sqrt, values)
    assert np.max(np.abs(sur_g.coefficients - sur_w.coefficients)) < 1e-12


def test_fit_segpc_requires_gradient():
    space = StochasticSpace([Gaussian()])
    basis, plan = make_plan(space, 2)

    class NoGrad(Model):
        name = "value-only"

    with pytest.raises(UnsupportedModelError):
        fit_segpc(basis, plan, NoGrad(space))


def test_fit_segpc_plan_too_small():
    # p=6, m=1: the minimum budget of 4 points cannot come from a 2-point pool
    space = StochasticSpace([Gaussian()])
    basis, plan = make_plan(space, 6, q=2)
    model = CountingModel(space, basis, np.zeros(basis.n_terms))
    with pytest.raises(ValueError, match="pool of 2 cannot supply 4"):
        fit_segpc(basis, plan, model)
    assert model.calls == []


def test_fit_segpc_rank_deficient_minimum_norm():
    # p=2 with fewer than m+1 points: structural rank deficit C(m-n+2, 2)
    space = StochasticSpace([Gaussian()] * 6)
    basis, plan = make_plan(space, 2, q=5000)
    n_pts = segpc_point_count(basis.n_terms, 6)  # 4 points, 28 equations
    coeffs = np.zeros(basis.n_terms)
    coeffs[0] = 2.0
    coeffs[1] = 1.0
    model = PolyModel(space, basis, coeffs)
    sur = fit_segpc(basis, plan, model)
    expected_deficit = math.comb(6 - (n_pts - 1) + 1, 2)
    assert sur.fit_report.rank == basis.n_terms - expected_deficit
    # the minimum-norm solution still reproduces values and gradients at the
    # fitted points (it interpolates within the resolvable subspace)
    pts = plan.points[:n_pts]
    assert np.allclose(sur.eval(pts), model.values(pts), atol=1e-9)
    assert np.allclose(sur.grad(pts), model.values_and_grads(pts)[1], atol=1e-9)
    # the condition number covers the resolved subspace, not round-off
    dpsi = basis.grad(pts)
    blocks = [basis.eval(pts)] + [dpsi[:, k, :] for k in range(6)]
    design = np.vstack(blocks) * np.tile(plan.w_sqrt[:n_pts], 7)[:, None]
    sing = np.linalg.svd(design, compute_uv=False)
    rank = sur.fit_report.rank
    assert sur.fit_report.cond_number == pytest.approx(sing[0] / sing[rank - 1], rel=1e-10)
    assert sur.fit_report.cond_number <= 1.0 / _RCOND


def test_surrogate_eval_and_grad():
    space = StochasticSpace([Gaussian(), Uniform()])
    basis, plan = make_plan(space, 3)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(basis.n_terms)
    model = PolyModel(space, basis, coeffs)
    sur = fit_segpc(basis, plan, model, n_points=basis.n_terms)
    pts = np.column_stack([rng.standard_normal(5), rng.uniform(-1, 1, 5)])
    assert np.allclose(sur.eval(pts), model.values(pts))
    assert np.allclose(sur.grad(pts), model.values_and_grads(pts)[1])


def test_surrogate_json_roundtrip(tmp_path):
    space = StochasticSpace([Gaussian(1.0, 2.0), Uniform(-3.0, 4.0)])
    basis, plan = make_plan(space, 2)
    values = np.ones(plan.n_selected)
    sur = fit_wlsq(basis, plan.points, plan.w_sqrt, values)
    path = tmp_path / "surrogate.json"
    sur.save_json(path)
    saved = json.loads(path.read_text(encoding="utf-8"))["marginals"]
    assert saved == [
        {"kind": "gaussian", "mean": 1.0, "std": 2.0},
        {"kind": "uniform", "lower": -3.0, "upper": 4.0},
    ]
    assert [list(entry) for entry in saved] == [["kind", "mean", "std"],
                                                ["kind", "lower", "upper"]]
    # the saved entries are a config 'space'
    assert build_space(saved).marginals == space.marginals
    loaded = type(sur).load_json(path)
    assert loaded.space.marginals == space.marginals
    assert np.array_equal(loaded.coefficients, sur.coefficients)
    assert loaded.basis.families == sur.basis.families
    assert loaded.order == sur.order
    pts = np.array([[0.3, -0.4], [1.2, 0.9]])
    assert np.allclose(loaded.eval(pts), sur.eval(pts))
