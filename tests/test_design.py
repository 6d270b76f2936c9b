import math

import numpy as np
import pytest

from segpc import (
    ChaosBasis,
    Gaussian,
    StochasticSpace,
    Uniform,
    build_measurement,
    coherence_weights,
    qr_select,
)
from segpc.errors import RankDeficientError
from tests_support import reference_qr_ranking


@pytest.fixture(scope="module")
def gauss2():
    return StochasticSpace([Gaussian(), Gaussian()])


def test_coherence_weights_values(gauss2):
    assert coherence_weights(gauss2, np.zeros(2)) == pytest.approx(1.0)
    point = np.array([math.sqrt(2.0), math.sqrt(2.0)])  # ||xi||^2 = 4
    assert coherence_weights(gauss2, point) == pytest.approx(math.exp(-1.0))
    unif = StochasticSpace([Uniform()])
    assert coherence_weights(unif, np.zeros(1)) == pytest.approx(1.0)
    assert coherence_weights(unif, np.ones(1)) == 0.0
    with pytest.raises(ValueError):
        coherence_weights(unif, np.array([1.5]))


def test_coherence_weights_mixed_space():
    space = StochasticSpace([Gaussian(), Uniform()])
    point = np.array([2.0, 0.6])
    want = math.exp(-4.0 / 4.0) * (1 - 0.36) ** 0.25
    assert coherence_weights(space, point) == pytest.approx(want)


def test_coherence_weights_bounded():
    # pool weights lie in (0, 1] for both families
    space = StochasticSpace([Gaussian(), Uniform(), Gaussian()])
    pool = space.sample_pool(5000, seed=8)
    w = coherence_weights(space, pool.points)
    assert np.all(w > 0.0)
    assert np.all(w <= 1.0)


def test_build_measurement_shapes(gauss2):
    basis = ChaosBasis(gauss2, 4)
    pool = gauss2.sample_pool(10000, seed=0)
    w = coherence_weights(gauss2, pool.points)
    meas = build_measurement(basis, pool, w)
    assert meas.psi.shape == (10000, 15)
    assert np.allclose(meas.psi[:, 0], 1.0)
    single = gauss2.sample_pool(1, seed=1)
    meas1 = build_measurement(basis, single, coherence_weights(gauss2, single.points))
    assert np.allclose(meas1.psi[0], basis.eval(single.points[0]))


def test_build_measurement_validation(gauss2):
    basis = ChaosBasis(gauss2, 2)
    pool = gauss2.sample_pool(5, seed=0)
    with pytest.raises(ValueError):
        build_measurement(basis, pool, np.ones(4))
    other = StochasticSpace([Gaussian()]).sample_pool(5, seed=0)
    with pytest.raises(ValueError):
        build_measurement(basis, other, np.ones(5))


def test_qr_select_single_point_is_max_norm(gauss2):
    basis = ChaosBasis(gauss2, 2)
    pool = gauss2.sample_pool(500, seed=3)
    w = coherence_weights(gauss2, pool.points)
    meas = build_measurement(basis, pool, w)
    plan = qr_select(meas, 1)
    norms = np.linalg.norm(meas.weighted(), axis=1)
    assert plan.selected[0] == int(np.argmax(norms))


def test_qr_select_pivot_monotonicity_and_distinct(gauss2):
    basis = ChaosBasis(gauss2, 3)
    pool = gauss2.sample_pool(2000, seed=5)
    meas = build_measurement(basis, pool, coherence_weights(gauss2, pool.points))
    plan = qr_select(meas, basis.n_terms)
    assert len(set(plan.selected.tolist())) == basis.n_terms
    assert np.all(plan.r_diag[1:] <= plan.r_diag[:-1] * (1 + 1e-10))


def test_qr_select_validation(gauss2):
    basis = ChaosBasis(gauss2, 1)
    pool = gauss2.sample_pool(100, seed=0)
    meas = build_measurement(basis, pool, coherence_weights(gauss2, pool.points))
    with pytest.raises(ValueError):
        qr_select(meas, 0)
    with pytest.raises(ValueError):
        qr_select(meas, basis.n_terms + 1)


@pytest.mark.parametrize(
    "marginals, order, q",
    [
        ([Gaussian(), Gaussian()], 4, 3000),
        ([Uniform(), Uniform(), Uniform()], 5, 2000),
        # 165 terms: past LAPACK's crossover, geqp3 runs blocked and its bits
        # depend on the workspace size
        ([Gaussian(), Uniform(), Gaussian()], 8, 1000),
        ([Uniform(), Gaussian()], 4, 7),
    ],
    ids=["gaussian", "uniform", "mixed", "pool-below-terms"],
)
def test_qr_select_matches_scipy_qr(marginals, order, q):
    space = StochasticSpace(marginals)
    basis = ChaosBasis(space, order)
    pool = space.sample_pool(q, seed=q)
    meas = build_measurement(basis, pool, coherence_weights(space, pool.points))
    psi, w_sqrt = meas.psi.copy(), meas.w_sqrt.copy()
    n_sel = min(basis.n_terms, q)
    plan = qr_select(meas, n_sel)
    want_selected, want_r_diag = reference_qr_ranking(meas, n_sel)
    assert np.array_equal(plan.selected, want_selected)
    assert np.array_equal(plan.r_diag, want_r_diag)
    # the in-place factorization overwrites a temporary, never the measurement
    assert np.array_equal(meas.psi, psi)
    assert np.array_equal(meas.w_sqrt, w_sqrt)


def test_qr_select_rejects_non_finite_weights(gauss2):
    basis = ChaosBasis(gauss2, 2)
    pool = gauss2.sample_pool(50, seed=4)
    weights = coherence_weights(gauss2, pool.points)
    weights[7] = np.nan
    meas = build_measurement(basis, pool, weights)
    with pytest.raises(ValueError, match="infs or NaNs"):
        qr_select(meas, basis.n_terms)


def test_qr_select_rank_deficient_pool():
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis = ChaosBasis(space, 2)
    # all pool rows identical: rank-1 measurement
    from segpc.spaces import SamplePool

    pts = np.tile([0.5, -0.25], (50, 1))
    pool = SamplePool(points=pts, seed=0)
    meas = build_measurement(basis, pool, coherence_weights(space, pts))
    with pytest.raises(RankDeficientError):
        qr_select(meas, basis.n_terms)


def test_qr_geometry_p2(gauss2):
    # one center point plus a ~1.75 sigma ring
    basis = ChaosBasis(gauss2, 2)
    pool = gauss2.sample_pool(10000, seed=1)
    meas = build_measurement(basis, pool, coherence_weights(gauss2, pool.points))
    plan = qr_select(meas, basis.n_terms)
    radii = np.linalg.norm(plan.points, axis=1)
    assert radii[0] < 0.15
    assert np.all(radii[1:] > 1.40)
    assert np.all(radii[1:] < 2.10)


def test_qr_permutation_equivalence(gauss2):
    basis = ChaosBasis(gauss2, 1)
    pool = gauss2.sample_pool(200, seed=9)
    w = coherence_weights(gauss2, pool.points)
    meas = build_measurement(basis, pool, w)
    plan = qr_select(meas, 3)

    rng = np.random.default_rng(0)
    perm = rng.permutation(200)
    from segpc.spaces import SamplePool

    pool2 = SamplePool(points=pool.points[perm], seed=0)
    meas2 = build_measurement(basis, pool2, w[perm])
    plan2 = qr_select(meas2, 3)
    got = {tuple(np.round(p, 12)) for p in plan.points}
    want = {tuple(np.round(p, 12)) for p in plan2.points}
    assert got == want


def test_orthogonal_submatrix_condition_is_one():
    # hand-built measurement whose selected rows are orthonormal
    from segpc.spaces import SamplePool

    space = StochasticSpace([Gaussian(), Gaussian()])
    basis = ChaosBasis(space, 1)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # psi rows: [1, x, y] -> [[1,0,0],[1,1,0],[1,0,1]]; orthonormalize by trick:
    # use points making rows orthonormal directly is impossible here, so check
    # the definition on a synthetic measurement instead
    meas = build_measurement(basis, SamplePool(pts, seed=0), np.ones(3))
    object.__setattr__(meas, "psi", np.eye(3))
    plan = qr_select(meas, 3)
    assert plan.cond_number == pytest.approx(1.0)


def test_center_point_only_for_even_order(gauss2):
    # empirical observation tested at m=2, p in {2, 3}: even orders include
    # the PDF mode among the selected points, odd orders straddle it
    for order, seed in ((2, 1), (2, 2), (3, 1), (3, 2)):
        basis = ChaosBasis(gauss2, order)
        pool = gauss2.sample_pool(10000, seed=seed)
        meas = build_measurement(basis, pool, coherence_weights(gauss2, pool.points))
        plan = qr_select(meas, basis.n_terms)
        min_radius = np.linalg.norm(plan.points, axis=1).min()
        if order % 2 == 0:
            assert min_radius < 0.15
        else:
            assert min_radius > 0.5


def test_greedy_det_dominates_random_subsets(gauss2):
    # greedy selection beats the 99th percentile of 1000 random 3-subsets
    basis = ChaosBasis(gauss2, 1)
    pool = gauss2.sample_pool(60, seed=11)
    meas = build_measurement(basis, pool, coherence_weights(gauss2, pool.points))
    plan = qr_select(meas, basis.n_terms)
    greedy_logdet = float(np.sum(np.log(plan.r_diag)))
    rng = np.random.default_rng(17)
    weighted = meas.weighted()
    log_dets = []
    for _ in range(1000):
        idx = rng.choice(60, size=3, replace=False)
        _, logdet = np.linalg.slogdet(weighted[idx])
        log_dets.append(logdet)
    assert greedy_logdet >= np.quantile(log_dets, 0.99)
