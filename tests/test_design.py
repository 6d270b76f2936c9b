import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segpc import (
    ChaosBasis,
    Gaussian,
    StochasticSpace,
    Uniform,
    build_measurement,
    coherence_weights,
    ishigami_model,
    qr_select,
    rank_pool,
)
import segpc.design
from segpc.errors import RankDeficientError
from tests_support import BLAS_THREAD_VARIABLES, reference_qr_ranking, spy_rankings


@pytest.fixture(scope="module")
def gauss2():
    return StochasticSpace([Gaussian(), Gaussian()])


def test_coherence_weights_values(gauss2):
    points = np.array([[0.0, 0.0], [math.sqrt(2.0), math.sqrt(2.0)]])  # ||xi||^2 = 0, 4
    assert coherence_weights(gauss2, points) == pytest.approx([1.0, math.exp(-1.0)])
    unif = StochasticSpace([Uniform()])
    assert coherence_weights(unif, np.array([[0.0], [1.0]])).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError):
        coherence_weights(unif, np.array([[1.5]]))


def test_coherence_weights_mixed_space():
    space = StochasticSpace([Gaussian(), Uniform()])
    want = math.exp(-4.0 / 4.0) * (1 - 0.36) ** 0.25
    assert coherence_weights(space, np.array([[2.0, 0.6]])) == pytest.approx([want])


def test_coherence_weights_take_rows_only(gauss2):
    # a single point is a one-row batch
    for points in (np.zeros(2), np.zeros((4, 3)), np.zeros((1, 1, 2))):
        message = f"points have shape {points.shape}, expected (n, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            coherence_weights(gauss2, points)


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
    assert (meas.q, meas.n_terms) == (10000, 15)
    assert meas.points is pool.points and np.array_equal(meas.w_sqrt, w)
    weighted = meas.weighted()
    assert weighted.shape == (10000, 15)
    assert np.array_equal(weighted[:, 0], w)  # psi_0 is 1
    single = gauss2.sample_pool(1, seed=1)
    w1 = coherence_weights(gauss2, single.points)
    meas1 = build_measurement(basis, single, w1)
    assert np.allclose(meas1.weighted(), basis.eval(single.points) * w1[:, None])


def test_build_measurement_validation(gauss2):
    basis = ChaosBasis(gauss2, 2)
    pool = gauss2.sample_pool(5, seed=0)
    with pytest.raises(ValueError):
        build_measurement(basis, pool, np.ones(4))
    other = StochasticSpace([Gaussian()]).sample_pool(5, seed=0)
    with pytest.raises(ValueError):
        build_measurement(basis, other, np.ones(5))


def test_build_measurement_size_guard(gauss2, monkeypatch):
    # 8 points x 6 terms x 8 bytes = 384 bytes: refused, and the basis never evaluated
    basis = ChaosBasis(gauss2, 2)
    pool = gauss2.sample_pool(8, seed=0)
    monkeypatch.setattr(segpc.design, "MAX_MEASUREMENT_BYTES", 383)
    monkeypatch.setattr(basis, "eval", lambda points: pytest.fail("basis evaluated"))
    with pytest.raises(ValueError, match="8 points x 6 terms"):
        build_measurement(basis, pool, np.ones(8))
    monkeypatch.setattr(segpc.design, "MAX_MEASUREMENT_BYTES", 384)
    meas = build_measurement(basis, pool, np.ones(8))
    monkeypatch.undo()
    assert meas.weighted().shape == (8, 6)


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


def _measurement(marginals, order, q, seed):
    space = StochasticSpace(marginals)
    basis = ChaosBasis(space, order)
    pool = space.sample_pool(q, seed=seed)
    return build_measurement(basis, pool, coherence_weights(space, pool.points))


@pytest.mark.parametrize(
    "marginals, order, q",
    [
        ([Gaussian(), Gaussian()], 4, 3000),
        ([Uniform(), Uniform(), Uniform()], 5, 2000),
        # 165 terms: several blocks of picks, each closed by one deflation
        ([Gaussian(), Uniform(), Gaussian()], 8, 1000),
        ([Uniform(), Uniform(), Uniform()], 8, 3000),
        ([Uniform(), Gaussian()], 4, 7),
    ],
    ids=["gaussian", "uniform", "mixed", "ishigami-blocks", "pool-below-terms"],
)
def test_qr_select_matches_scipy_qr(marginals, order, q):
    meas = _measurement(marginals, order, q, seed=q)
    weighted, w_sqrt = meas.weighted(), meas.w_sqrt.copy()
    n_sel = min(meas.n_terms, q)
    plan = qr_select(meas, n_sel)
    want_selected, want_r_diag = reference_qr_ranking(meas, n_sel)
    assert np.array_equal(plan.selected, want_selected)
    # |R_ii| come from other sums than LAPACK's (at most 1.3e-14 apart here, measured)
    np.testing.assert_allclose(plan.r_diag, want_r_diag, rtol=1e-13, atol=0)
    # the ranking overwrites its working array, never the pool or its weights
    assert np.array_equal(meas.weighted(), weighted)
    assert np.array_equal(meas.w_sqrt, w_sqrt)


def gram_schmidt_ranking(weighted, n_sel):
    """Greedy ranking by explicit Gram-Schmidt, no LAPACK: at every step each
    candidate row is projected (twice) off the orthonormal span of the picks."""
    basis = np.zeros((0, weighted.shape[1]))
    selected, r_diag = [], []
    for _ in range(n_sel):
        resid = weighted - (weighted @ basis.T) @ basis
        resid -= (resid @ basis.T) @ basis
        norms = np.sqrt(np.einsum("ij,ij->i", resid, resid))
        norms[selected] = -1.0
        pick = int(np.argmax(norms))
        selected.append(pick)
        r_diag.append(norms[pick])
        basis = np.vstack([basis, resid[pick] / norms[pick]])
    return np.array(selected), np.array(r_diag)


@pytest.mark.parametrize(
    "marginals, order, q",
    [
        ([Gaussian(), Gaussian()], 3, 40),
        ([Uniform(), Uniform(), Uniform()], 3, 60),
        ([Gaussian(), Uniform(), Gaussian()], 4, 200),
        ([Uniform(), Gaussian()], 9, 120),  # 55 terms: more than one block
    ],
    ids=["gaussian", "uniform", "mixed", "two-blocks"],
)
def test_qr_select_matches_gram_schmidt_oracle(marginals, order, q):
    meas = _measurement(marginals, order, q, seed=order)
    n_sel = min(meas.n_terms, q)
    plan = qr_select(meas, n_sel)
    want_selected, want_r_diag = gram_schmidt_ranking(meas.weighted(), n_sel)
    assert np.array_equal(plan.selected, want_selected)
    # 1.3e-12 apart at 55 terms, where |R_ii| span 4e-4 and both lie within
    # 7.3e-13 of a long-double Gram-Schmidt (6e-16 at the others, measured)
    np.testing.assert_allclose(plan.r_diag, want_r_diag, rtol=1e-11, atol=0)


def test_qr_select_shorter_ranking_is_a_prefix():
    meas = _measurement([Uniform(), Uniform(), Uniform()], 8, 3000, seed=5)
    full = qr_select(meas, meas.n_terms)
    for n_sel in (1, 2, 31, 32, 33, 64, 100, meas.n_terms - 1):
        plan = qr_select(meas, n_sel)
        assert np.array_equal(plan.selected, full.selected[:n_sel])
        assert np.array_equal(plan.r_diag, full.r_diag[:n_sel])


def test_qr_select_takes_the_lower_of_tied_rows_first(gauss2):
    basis = ChaosBasis(gauss2, 3)
    points = gauss2.sample_pool(300, seed=6).points
    norms = np.linalg.norm(
        build_measurement(basis, points, coherence_weights(gauss2, points)).weighted(), axis=1
    )
    points[[10, np.argmax(norms)]] = points[[np.argmax(norms), 10]]  # max-norm point at 10
    for twin in (5, 20):  # a copy of it below, then above, row 10
        pts = points.copy()
        pts[twin] = pts[10]
        meas = build_measurement(basis, pts, coherence_weights(gauss2, pts))
        plan = qr_select(meas, basis.n_terms)
        assert plan.selected[0] == min(10, twin)
        assert max(10, twin) not in plan.selected  # its residual is zero
        assert np.array_equal(plan.selected, reference_qr_ranking(meas, basis.n_terms)[0])


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_qr_select_holds_one_working_copy(monkeypatch):
    # the 286-term Ishigami ranking of a 10^4 pool: one q x (P + 1) array plus
    # small temporaries, no second copy
    # (a plan ranks when read, so each traced call reads the whole ranking)
    meas = _measurement([Uniform(), Uniform(), Uniform()], 10, 10_000, seed=1)
    peak = _traced_peak(lambda: qr_select(meas, meas.n_terms).selected)
    assert peak <= 1.25 * meas.q * meas.n_terms * 8
    # the whole chain from pool draw to plan holds that one array too (a
    # second q x (P + 1) array, say the unweighted basis values, makes ~47.5 MB)
    basis = ChaosBasis(ishigami_model().space, 10)
    peak = _traced_peak(lambda: rank_pool(basis, 10_000, 1).selected)
    assert peak <= 1.5 * 10_000 * basis.n_terms * 8
    # a partial read ranks left-looking over the pool in float32: half that
    # array, its float64 row cache of at most q / CACHE_SHARE rows and the
    # small temporaries of a batch of rows or a block pass
    log = spy_rankings(monkeypatch)
    peak = _traced_peak(lambda: qr_select(meas, meas.n_terms).take(144))
    assert [entry[:2] for entry in log] == [["left", 144]]
    assert peak <= 1.5 * meas.q * meas.n_terms * 8
    assert peak <= 0.8 * meas.q * meas.n_terms * 8


#: rank_pool(Ishigami order-10 basis, 10_000, seed) at one BLAS thread, stored
#: from the ranking of a separately built weighted matrix: sha256 of the
#: pivots (int64) and of |R_ii|, and float.hex of cond_number
ISHIGAMI_P10_RANKINGS = {
    3: (
        "43bd4e7b0fd5a190732877af14edf6a21226de2d1e01130aca7963e8d9d29c74",
        "b7851899cc74082da5a7f0b86680867371f101dcf0fa27ee3aa5814faf6d1470",
        "0x1.15d380f161ecbp+4",
    ),
    11: (
        "a8ba7c3e46efea9724c5cd67f80612a9c39f95edd098a0a14e8f7c146c6d7c34",
        "cda258b62750fd032b0dabac4590ce5000a9558e03dc73d1f4bdb39b37138243",
        "0x1.05f280069a1dbp+4",
    ),
}

_PRINT_RANKINGS = """
import hashlib, json, sys
import numpy as np
from segpc import ChaosBasis, ishigami_model, rank_pool
basis = ChaosBasis(ishigami_model().space, 10)
digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
plans = {seed: rank_pool(basis, 10_000, seed) for seed in json.loads(sys.argv[1])}
print(json.dumps({seed: [digest(p.selected.astype(np.int64)), digest(p.r_diag),
                         p.cond_number.hex()] for seed, p in plans.items()}))
"""


def test_rank_pool_keeps_the_stored_bits():
    # at this size |R_ii| and cond_number move in the last bits with the BLAS
    # thread count, which is read when numpy loads: rank in a one-thread child
    env = dict(os.environ, PYTHONPATH=str(Path(segpc.__file__).parents[1]))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    seeds = sorted(ISHIGAMI_P10_RANKINGS)
    child = subprocess.run(
        [sys.executable, "-c", _PRINT_RANKINGS, json.dumps(seeds)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = {int(seed): tuple(bits) for seed, bits in json.loads(child.stdout).items()}
    assert got == ISHIGAMI_P10_RANKINGS


_PRINT_TAKEN_RANKINGS = """
import hashlib, json, sys
import numpy as np
from segpc import ChaosBasis, ishigami_model, rank_pool
basis = ChaosBasis(ishigami_model().space, 10)
digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
reads = json.loads(sys.argv[2])
got = {}
for seed in json.loads(sys.argv[1]):
    for name, order in (("ascending", sorted(reads)), ("descending", sorted(reads)[::-1])):
        plan = rank_pool(basis, 10_000, seed)
        taken = {n: plan.take(n) for n in order}
        selected = plan.selected
        rest = np.delete(np.arange(plan.pool.shape[0]), selected)
        idx = np.concatenate([selected, rest])
        slices = all(np.array_equal(points, plan.pool[idx[:n]])
                     and np.array_equal(w_sqrt, plan.pool_w_sqrt[idx[:n]])
                     for n, (points, w_sqrt) in taken.items())
        got[f"{seed} {name}"] = [digest(selected.astype(np.int64)), digest(plan.r_diag),
                                 plan.cond_number.hex(), slices]
print(json.dumps(got))
"""


def test_take_in_any_order_keeps_the_stored_bits():
    # reads below, at and past a 32-pick block and past the 286 pivots, longest
    # first or last: each re-ranking from scratch gives the stored ranking's bits
    env = dict(os.environ, PYTHONPATH=str(Path(segpc.__file__).parents[1]))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    seeds = sorted(ISHIGAMI_P10_RANKINGS)
    child = subprocess.run(
        [sys.executable, "-c", _PRINT_TAKEN_RANKINGS, json.dumps(seeds),
         json.dumps([1, 32, 33, 144, 286, 300])],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    want = {f"{seed} {name}": [*ISHIGAMI_P10_RANKINGS[seed], True]
            for seed in seeds for name in ("ascending", "descending")}
    assert json.loads(child.stdout) == want


def test_take_ranks_only_the_picks_it_returns(monkeypatch):
    log = spy_rankings(monkeypatch)
    ranked = lambda: [entry[:2] for entry in log]
    basis = ChaosBasis(ishigami_model().space, 3)  # 20 terms
    plan = rank_pool(basis, 500, 2)
    assert ranked() == []
    plan.take(5)
    assert ranked() == [["left", 5]]  # a partial read
    plan.take(3)
    plan.take(5)
    assert ranked() == [["left", 5]]  # a kept prefix serves shorter reads
    plan.take(40)
    assert ranked() == [["left", 5], ["right", 20]]  # past the pivots: all of them, once
    plan.selected, plan.r_diag, plan.points, plan.cond_number, plan.take(20)
    assert ranked() == [["left", 5], ["right", 20]]


@pytest.mark.parametrize(
    "marginals, order, q, share",
    [
        ([Uniform(), Uniform(), Uniform()], 5, 61, 0.1),  # q = P + 5
        ([Gaussian(), Gaussian()], 6, 2000, 0.5),
        ([Gaussian(), Uniform(), Gaussian()], 8, 1000, 0.75),
        ([Uniform(), Gaussian()], 9, 500, 0.3),
        ([Gaussian()] * 10, 2, 10_000, 0.17),  # the Burgers se-gPC read, 11 of 66
        ([Uniform(), Uniform(), Uniform()], 10, 10_000, 0.8),
    ],
    ids=["legendre-small-pool", "hermite", "mixed", "mixed-2d", "hermite-10d", "legendre-p10"],
)
def test_partial_reads_take_the_scipy_qr_pivots(monkeypatch, marginals, order, q, share):
    meas = _measurement(marginals, order, q, seed=order + q)
    n = int(share * meas.n_terms)
    log = spy_rankings(monkeypatch)
    points, w_sqrt = qr_select(meas, meas.n_terms).take(n)
    want_selected, want_r_diag = reference_qr_ranking(meas, n)
    [[path, n_sel, (selected, r_diag)]] = log
    assert (path, n_sel) == ("left", n)
    assert np.array_equal(selected, want_selected)
    assert np.array_equal(points, meas.points[want_selected])
    assert np.array_equal(w_sqrt, meas.w_sqrt[want_selected])
    np.testing.assert_allclose(r_diag, want_r_diag, rtol=1e-13, atol=0)


def _scaled_measurement(meas, factor):
    """``meas`` with every weight multiplied by ``factor``."""
    return build_measurement(meas.basis, meas.points, meas.w_sqrt * factor)


def test_partial_reads_keep_their_pivots_outside_the_float32_range(monkeypatch):
    # weights x 2^140 and x 2^-140 put every weighted entry past float32's
    # largest or below its least value; a far point's float32 factors
    # overflow (inf x 0 weight), and another's weight is a float32 subnormal
    meas = _measurement([Gaussian(), Gaussian()], 10, 2000, seed=12)
    points, w_sqrt = meas.points.copy(), meas.w_sqrt.copy()
    points[[7, 1500]] = [[1e5, 0.0], [0.0, 19.0]]
    w_sqrt[[7, 1500]] = coherence_weights(meas.basis.space, points[[7, 1500]])
    assert w_sqrt[7] == 0.0 and 0.0 < w_sqrt[1500] < 2.0**-126
    meas = build_measurement(meas.basis, points, w_sqrt)
    n = 40
    log = spy_rankings(monkeypatch)
    want_selected, want_r_diag = reference_qr_ranking(meas, n)
    plan = qr_select(meas, meas.n_terms)
    plan.take(n)
    [[path, _, (selected, r_diag)]] = log
    assert path == "left"
    assert np.array_equal(selected, want_selected)
    np.testing.assert_allclose(r_diag, want_r_diag, rtol=1e-13, atol=0)
    for exponent in (140, -140):
        scaled = _scaled_measurement(meas, 2.0**exponent)
        assert np.array_equal(qr_select(scaled, meas.n_terms).take(n)[0], meas.points[selected])
        [path, _, (got, got_r)] = log[-1]
        assert path == "left"
        assert np.array_equal(got, reference_qr_ranking(scaled, n)[0])
        # the scale is exact: the same |R_ii|, scaled bit for bit
        assert np.array_equal(got_r, np.ldexp(r_diag, exponent))


def test_partial_reads_take_the_lower_of_rows_tied_below_float32_resolution(monkeypatch):
    # copies of picked points: exact twins (the lower row comes first) and
    # near twins with weight x (1 + 2^-30), which float32 cannot tell apart
    base = _measurement([Uniform(), Uniform(), Uniform()], 5, 2000, seed=13)
    first, _ = reference_qr_ranking(base, 8)
    spare = np.setdiff1d(np.arange(2000), reference_qr_ranking(base, 44)[0])
    points, w_sqrt = base.points.copy(), base.w_sqrt.copy()
    twins = {}
    for s, row in enumerate(first):
        copy = spare[3 * s] if s % 2 else spare[-1 - 3 * s]  # below or above it
        points[copy], w_sqrt[copy] = points[row], w_sqrt[row]
        if s >= 4:
            w_sqrt[copy] *= 1.0 + 2.0**-30
        twins[int(row)] = int(copy)
    meas = build_measurement(base.basis, points, w_sqrt)
    n = 40
    log = spy_rankings(monkeypatch)
    taken, _ = qr_select(meas, meas.n_terms).take(n)
    [[path, _, (selected, r_diag)]] = log
    want_selected, want_r_diag = reference_qr_ranking(meas, n)
    assert path == "left"
    assert np.array_equal(selected, want_selected)
    np.testing.assert_allclose(r_diag, want_r_diag, rtol=1e-13, atol=0)
    picked = set(selected.tolist())
    for s, (row, copy) in enumerate(twins.items()):
        winner = min(row, copy) if s < 4 else copy
        assert winner in picked and ({row, copy} - {winner}).isdisjoint(picked)


@pytest.mark.parametrize("partial", [False, True], ids=["whole", "partial"])
def test_reads_name_the_first_row_whose_squares_overflow(gauss2, partial, monkeypatch):
    basis = ChaosBasis(gauss2, 4)
    pool = gauss2.sample_pool(200, seed=14)
    weights = coherence_weights(gauss2, pool.points)
    weights[[150, 61, 90]] = [1e160, 1e160, 1e150]  # rows 61 and 150 overflow
    log = spy_rankings(monkeypatch)
    plan = qr_select(build_measurement(basis, pool, weights), basis.n_terms)
    with pytest.raises(ValueError, match="weighted measurement row 61 holds"):
        plan.take(3) if partial else plan.selected
    assert [entry[:2] for entry in log] == [["left", 3] if partial else ["right", 15]]


def test_left_path_recomputes_residuals_of_a_near_degenerate_pool(monkeypatch):
    # rank-5 rows plus 1e-7 noise: after five picks every residual falls far
    # below sqrt(eps) of its start and must be recomputed from its row
    rng = np.random.default_rng(4)
    table = rng.standard_normal((400, 5)) @ rng.standard_normal((5, 55))
    table += 1e-7 * rng.standard_normal(table.shape)
    meas = build_measurement(TableBasis(table), np.arange(400.0)[:, None], np.ones(400))
    recomputed = []
    residual_sq = segpc.design._residual_sq
    monkeypatch.setattr(segpc.design, "_residual_sq",
                        lambda rows, dirs: recomputed.append(len(rows)) or residual_sq(rows, dirs))
    log = spy_rankings(monkeypatch)
    plan = qr_select(meas, 55)
    points, _ = plan.take(44)  # past one 32-pick block
    want_selected, want_r_diag = reference_qr_ranking(meas, 44)
    assert [entry[:2] for entry in log] == [["left", 44]]
    assert sum(recomputed) > 300
    assert np.array_equal(log[0][2][0], want_selected)
    assert np.array_equal(points[:, 0], want_selected)
    # past the fifth pick |R_ii| sit at the noise, 1e-7 of the leading
    # ones, where both paths keep about nine digits
    np.testing.assert_allclose(log[0][2][1], want_r_diag, rtol=1e-7, atol=0)


def test_left_path_raises_on_a_rank_deficient_pool(gauss2, monkeypatch):
    from segpc.spaces import SamplePool

    pts = np.tile([0.5, -0.25], (50, 1))
    meas = build_measurement(ChaosBasis(gauss2, 2), SamplePool(points=pts, seed=0),
                             coherence_weights(gauss2, pts))
    log = spy_rankings(monkeypatch)
    plan = qr_select(meas, 6)
    assert plan.take(1)[0].tolist() == [[0.5, -0.25]]
    with pytest.raises(RankDeficientError):
        plan.take(2)
    assert [entry[:2] for entry in log] == [["left", 1], ["left", 2]]
    assert len(log[1]) == 2  # the second ranking raised


_PRINT_CROSSING_RANKINGS = """
import hashlib, json, sys
import numpy as np
import segpc.design
from segpc import ChaosBasis, ishigami_model, rank_pool
paths = []
for path, name in (("left", "_left_rank"), ("right", "_greedy_rank")):
    rank = getattr(segpc.design, name)
    def spy(source, n_sel, rank=rank, path=path):
        paths.append([path, n_sel])
        return rank(source, n_sel)
    setattr(segpc.design, name, spy)
basis = ChaosBasis(ishigami_model().space, 10)
digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
reads = json.loads(sys.argv[2])
got = {}
for seed in json.loads(sys.argv[1]):
    for name, order in (("ascending", sorted(reads)), ("descending", sorted(reads)[::-1])):
        paths.clear()
        plan = rank_pool(basis, 10_000, seed)
        taken = {n: plan.take(n)[0] for n in order}
        selected = plan.selected
        prefixes = all(np.array_equal(points, plan.pool[selected[:n]]) for n, points in taken.items())
        got[f"{seed} {name}"] = [digest(selected.astype(np.int64)), digest(plan.r_diag),
                                 plan.cond_number.hex(), prefixes, paths[:]]
print(json.dumps(got))
"""


def test_reads_across_the_path_crossover_keep_the_stored_bits():
    # 0.8 x 286 = 228.8: reads of 228 picks or fewer rank left-looking, longer
    # ones right-looking; in either order the ranking keeps the stored bits
    env = dict(os.environ, PYTHONPATH=str(Path(segpc.__file__).parents[1]))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    seeds = sorted(ISHIGAMI_P10_RANKINGS)
    child = subprocess.run(
        [sys.executable, "-c", _PRINT_CROSSING_RANKINGS, json.dumps(seeds),
         json.dumps([144, 228, 229, 285])],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    paths = {
        "ascending": [["left", 144], ["left", 228], ["right", 229], ["right", 285],
                      ["right", 286]],
        "descending": [["right", 285], ["right", 286]],
    }
    want = {f"{seed} {name}": [*ISHIGAMI_P10_RANKINGS[seed], True, paths[name]]
            for seed in seeds for name in ("ascending", "descending")}
    assert json.loads(child.stdout) == want


def test_take_refuses_fewer_than_one_point():
    plan = rank_pool(ChaosBasis(ishigami_model().space, 2), 500, 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n = {n}"):
            plan.take(n)


def test_rank_deficient_past_the_points_read(gauss2):
    # points on the line xi_2 = 0 span only 1, xi_1 and xi_1^2 of the 6 terms
    basis = ChaosBasis(gauss2, 2)
    points = gauss2.sample_pool(50, seed=3).points
    points[:, 1] = 0.0
    meas = build_measurement(basis, points, coherence_weights(gauss2, points))
    plan = qr_select(meas, basis.n_terms)
    want, _ = reference_qr_ranking(meas, 3)
    taken, w_sqrt = plan.take(3)
    assert np.array_equal(taken, points[want]) and np.array_equal(w_sqrt, meas.w_sqrt[want])
    assert np.array_equal(qr_select(meas, 3).selected, want)
    with pytest.raises(RankDeficientError):
        plan.selected
    with pytest.raises(RankDeficientError):
        plan.take(4)


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
    plan = qr_select(meas, basis.n_terms)
    with pytest.raises(RankDeficientError):
        plan.selected


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


class TableBasis:
    """Stand-in basis on one coordinate: point (i,) has the row ``table[i]``."""

    m = 1

    def __init__(self, table):
        self.table = table
        self.n_terms = table.shape[1]

    def eval(self, points, out=None, scale=None):
        rows = self.table[np.asarray(points, dtype=int)[:, 0]]
        if scale is not None:
            rows = rows * scale[:, None]
        if out is None:
            return rows
        out[...] = rows
        return out


def test_orthogonal_submatrix_condition_is_one():
    # no polynomial basis has orthonormal rows at a few points, so a stand-in
    # does: the unit rows, plus a shorter row in their span that is never picked
    basis = TableBasis(np.vstack([np.eye(3), [0.5, 0.5, 0.0]]))
    pool = np.array([[3.0], [2.0], [0.0], [1.0]])
    plan = qr_select(build_measurement(basis, pool, np.ones(4)), 3)
    assert plan.selected.tolist() == [1, 2, 3]
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


def test_plan_take_continues_past_pivots_in_draw_order(gauss2):
    basis = ChaosBasis(gauss2, 1)
    pool = gauss2.sample_pool(40, seed=3)
    meas = build_measurement(basis, pool, coherence_weights(gauss2, pool.points))
    plan = qr_select(meas, basis.n_terms)
    # the plan keeps the measurement's pool arrays themselves, not copies
    assert plan.pool is meas.points and plan.pool_w_sqrt is meas.w_sqrt
    points, w_sqrt = plan.take(2)
    assert np.array_equal(points, plan.points[:2]) and np.array_equal(w_sqrt, plan.w_sqrt[:2])
    points, w_sqrt = plan.take(7)
    extra = [i for i in range(pool.q) if i not in set(plan.selected)][:4]
    idx = np.concatenate([plan.selected, extra])
    assert np.array_equal(points, pool.points[idx])
    assert np.array_equal(w_sqrt, meas.w_sqrt[idx])
    points, _ = plan.take(pool.q)
    assert sorted(map(tuple, points)) == sorted(map(tuple, pool.points))
    with pytest.raises(ValueError, match="pool of 40 cannot supply 41 sample points"):
        plan.take(pool.q + 1)


def test_rank_pool_is_the_selection_chain(gauss2):
    basis = ChaosBasis(gauss2, 2)
    plan = rank_pool(basis, 500, 8)
    pool = gauss2.sample_pool(500, 8)
    meas = build_measurement(basis, pool, coherence_weights(gauss2, pool.points))
    want = qr_select(meas, basis.n_terms)
    assert np.array_equal(plan.selected, want.selected)
    assert np.array_equal(plan.r_diag, want.r_diag)
    assert np.array_equal(plan.pool, pool.points)
    # a pool smaller than P + 1 is ranked in full
    assert rank_pool(basis, 4, 8).n_selected == 4
