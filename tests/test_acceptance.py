"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-criteria are expected to fail and are left red deliberately; the
numbers behind that call are in the repository notes:

- criterion 2: the p = 6 gradient-augmented fit of the Ishigami function
  cannot reach 0.01-absolute Sobol accuracy at any sampling budget (the
  estimator's own asymptotic bias is of the tolerance's size, and the
  minimum-point fit diverges);
- criterion 5 (p = 2 row): our selected designs condition far better than
  the reference range [8, 40] built from the literature value 16.5;
- criterion 8 (std clause): the exit-energy response is heavy-tailed
  (measured kurtosis 246); an order-2 expansion cannot represent ~40% of
  the variance, and the std of the n = 2000 reference itself has a standard
  error of about +-17.5%, sqrt((kurt - 1) / (4 n)).
"""

import math
import time

import numpy as np
import pytest

from segpc import (
    NOMINAL_INLET_COEFFS,
    ChaosBasis,
    Gaussian,
    StochasticSpace,
    build_measurement,
    burgers_adjoint,
    burgers_model,
    burgers_qoi,
    burgers_solve,
    coherence_weights,
    fit_segpc,
    fit_wlsq,
    higher_moments,
    ishigami_model,
    moments_from_coefficients,
    monte_carlo_moments,
    ode_mean,
    ode_model,
    ode_variance,
    predicted_cost,
    qr_select,
    sobol_total,
)
from segpc.cli import main as cli_main
from segpc.parallel import evaluate_values

ISHIGAMI_SOBOL_REF = np.array([0.5574, 0.4424, 0.2436])


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def make_plan(space, order, q, seed):
    basis = ChaosBasis(space, order)
    pool = space.sample_pool(q, seed)
    weights = coherence_weights(space, pool.points)
    meas = build_measurement(basis, pool, weights)
    return basis, meas, qr_select(meas, min(basis.n_terms, q))


def test_criterion_1_ishigami_moments_p10():
    # se-gPC at QR points, p=10, analytic gradients.  The criterion states
    # tolerances but no evaluation budget; the minimum-point fit (72 points)
    # diverges for every pool seed, so the spec's oversampling knob is set to
    # 2 (144 of the 286 ranked points, 576 equations, 288 evaluations).
    t0 = time.time()
    model = ishigami_model()
    basis, _, plan = make_plan(model.space, 10, q=10000, seed=1)
    n_points = 2 * ((basis.n_terms + 3) // 4)  # oversampling ratio 2
    surrogate = fit_segpc(basis, plan, model, n_points=n_points)
    moments = higher_moments(surrogate)
    elapsed = time.time() - t0
    err_mean = abs(moments.mean - 3.5) / 3.5
    err_std = abs(moments.std - 3.7208) / 3.7208
    err_kurt = abs(moments.kurtosis - 3.5072) / 3.5072
    ok = (
        err_mean < 0.01
        and err_std < 0.02
        and abs(moments.skewness) < 0.05
        and err_kurt < 0.05
        and elapsed < 10.0
    )
    report(
        "1 [ishigami moments p=10]",
        ok,
        f"mean={moments.mean:.4f} (err {err_mean:.2%}), "
        f"std={moments.std:.4f} (err {err_std:.2%}), "
        f"skew={moments.skewness:+.4f}, kurt={moments.kurtosis:.4f} "
        f"(err {err_kurt:.2%}), {surrogate.fit_report.evaluation_count} evals, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_ishigami_sobol_p6():
    # Spec-default se-gPC: top ceil((P+1)/(m+1)) = 21 QR points, 84 equations.
    # Expected red: see the module docstring.  The diagnostic line also prints
    # the exact degree-6 projection values, which DO meet the tolerance, to
    # show the gap is the estimator's, not the postprocessing's.
    t0 = time.time()
    model = ishigami_model()
    basis, _, plan = make_plan(model.space, 6, q=10000, seed=1)
    surrogate = fit_segpc(basis, plan, model)
    indices = sobol_total(surrogate).total_indices
    elapsed = time.time() - t0
    err = np.abs(indices - ISHIGAMI_SOBOL_REF).max()
    ok = err < 0.01 and elapsed < 10.0
    report(
        "2 [ishigami sobol p=6]",
        ok,
        f"total indices {np.round(indices, 4).tolist()} vs "
        f"{ISHIGAMI_SOBOL_REF.tolist()}, max abs err {err:.4f} (tol 0.01), "
        f"{surrogate.fit_report.evaluation_count} evals, {elapsed:.1f}s "
        "[expected red: unattainable at the specified budget; exact degree-6 "
        "projection gives (0.5580, 0.4420, 0.2383)]",
    )


def test_criterion_3_ode_segpc_p6_top4():
    # top 4 QR points, 8 evaluations, against the closed forms on t in [0, 3]
    t0 = time.time()
    space = ode_model(1.0).space
    basis, _, plan = make_plan(space, 6, q=10000, seed=42)
    worst_mean = 0.0
    worst_var = 0.0
    for t in np.linspace(0.0, 3.0, 31):
        model = ode_model(float(t))
        surrogate = fit_segpc(basis, plan, model)
        assert surrogate.fit_report.n_points == 4
        assert surrogate.fit_report.evaluation_count == 8
        mean, var = moments_from_coefficients(surrogate)
        ref_mean = ode_mean(float(t))
        ref_var = ode_variance(float(t))
        worst_mean = max(worst_mean, abs(mean - ref_mean) / abs(ref_mean))
        if ref_var > 1e-12:
            worst_var = max(worst_var, abs(var - ref_var) / ref_var)
        else:
            assert abs(var) < 1e-12
    elapsed = time.time() - t0
    ok = worst_mean < 1e-3 and worst_var < 1e-2
    report(
        "3 [ode segpc p=6, 4 points]",
        ok,
        f"max mean err {worst_mean:.2e} (tol 1e-3), "
        f"max var err {worst_var:.2e} (tol 1e-2), {elapsed:.1f}s",
    )


def test_criterion_4_cost_model():
    t0 = time.time()
    got = {
        "segpc": [predicted_cost("segpc", 40, p) for p in (1, 2, 3)],
        "wlsq": [predicted_cost("wlsq", 40, p) for p in (1, 2, 3)],
        "smolyak": [predicted_cost("smolyak", 40, p) for p in (1, 2, 3)],
    }
    want = {
        "segpc": [2, 42, 602],
        "wlsq": [41, 861, 12341],
        "smolyak": [81, 3321, 91881],
    }
    elapsed = time.time() - t0
    ok = got == want and elapsed < 1.0
    report("4 [cost model m=40]", ok, f"{got} vs {want}, {elapsed:.2f}s")


def _mean_condition_number(order, pool_size, n_seeds=100):
    space = StochasticSpace([Gaussian(), Gaussian()])
    conds = []
    for seed in range(n_seeds):
        basis, _, plan = make_plan(space, order, q=pool_size, seed=seed)
        conds.append(plan.cond_number)
    return float(np.mean(conds))


def test_criterion_5a_qr_conditioning_p1():
    t0 = time.time()
    mean_cond = _mean_condition_number(1, 1000)
    elapsed = time.time() - t0
    ok = 1.5 <= mean_cond <= 4.0 and elapsed < 30.0
    report(
        "5a [conditioning p=1 q=1000]",
        ok,
        f"mean CN {mean_cond:.2f} in [1.5, 4.0], {elapsed:.1f}s",
    )


def test_criterion_5b_qr_conditioning_p2():
    # Expected red: the implementation conditions better than the reference
    # value 16.5 the range was built from (measured ~2.2).
    t0 = time.time()
    mean_cond = _mean_condition_number(2, 50)
    elapsed = time.time() - t0
    ok = 8.0 <= mean_cond <= 40.0 and elapsed < 30.0
    report(
        "5b [conditioning p=2 q=50]",
        ok,
        f"mean CN {mean_cond:.2f} vs range [8, 40], {elapsed:.1f}s "
        "[expected red: selected designs condition better than the reference "
        "row; eight reconstructions of that experiment all land at 2-5]",
    )


def test_criterion_6_qr_geometry():
    space = StochasticSpace([Gaussian(), Gaussian()])

    _, _, plan2 = make_plan(space, 2, q=10000, seed=1)
    radii2 = np.linalg.norm(plan2.points, axis=1)
    ok2 = radii2[0] < 0.15 and np.all(np.abs(radii2[1:6] - 1.75) <= 0.35)

    _, _, plan4 = make_plan(space, 4, q=10000, seed=1)
    radii4 = np.linalg.norm(plan4.points, axis=1)
    ok4 = (
        radii4[0] < 0.15
        and np.all(np.abs(radii4[1:6] / 1.47 - 1.0) <= 0.25)
        and np.all(np.abs(radii4[6:15] / 2.77 - 1.0) <= 0.25)
    )
    report(
        "6 [qr geometry]",
        ok2 and ok4,
        f"p=2: center {radii2[0]:.3f}, ring {radii2[1:6].min():.2f}-"
        f"{radii2[1:6].max():.2f} (want 1.75±0.35); "
        f"p=4: rings {radii4[1:6].min():.2f}-{radii4[1:6].max():.2f} "
        f"(want 1.47±25%) and {radii4[6:15].min():.2f}-{radii4[6:15].max():.2f} "
        f"(want 2.77±25%)",
    )


@pytest.fixture(scope="module")
def burgers_n31_state():
    return burgers_solve(NOMINAL_INLET_COEFFS, re=250.0, n_grid=31)


def _fd_gradient(s0, n_grid, start):
    # each perturbed solve warm-starts from the nominal state ``start``
    grad = np.empty(s0.size)
    for i in range(s0.size):
        delta = 1e-4 * abs(s0[i])
        sp = s0.copy()
        sp[i] += delta
        sm = s0.copy()
        sm[i] -= delta
        grad[i] = (
            burgers_qoi(burgers_solve(sp, 250.0, n_grid, tol=1e-12, start=start))
            - burgers_qoi(burgers_solve(sm, 250.0, n_grid, tol=1e-12, start=start))
        ) / (2 * delta)
    return grad


def test_criterion_7_burgers_adjoint_vs_fd(burgers_n31_state):
    t0 = time.time()
    s0 = NOMINAL_INLET_COEFFS
    adj31 = burgers_adjoint(burgers_n31_state).gradient
    fd31 = _fd_gradient(s0, 31, start=burgers_n31_state)
    rel31 = np.abs(adj31 - fd31) / np.abs(fd31)

    state61 = burgers_solve(s0, re=250.0, n_grid=61)
    adj61 = burgers_adjoint(state61).gradient
    fd61 = _fd_gradient(s0, 61, start=state61)
    rel61 = np.abs(adj61 - fd61) / np.abs(fd61)
    elapsed = time.time() - t0
    ok = rel31.max() < 0.02 and rel61.max() < rel31.max() and elapsed < 300.0
    report(
        "7 [burgers adjoint vs FD]",
        ok,
        f"N=31 max rel err {rel31.max():.3%} (tol 2%), "
        f"N=61 max rel err {rel61.max():.3%} (must decrease), {elapsed:.0f}s",
    )


def test_criterion_8_burgers_uq_desk_scale():
    # Expected red on the std clause (heavy-tailed response, see docstring).
    # The se-gPC fit uses m+1 = 11 points (22 evaluations): the smallest
    # budget giving a full-rank order-2 block system (the points must span
    # the input space affinely).
    t0 = time.time()
    model = burgers_model(n_grid=21)
    space = model.space
    mc_report, _ = monte_carlo_moments(space, model, 2000, seed=1)

    basis, _, plan = make_plan(space, 2, q=10000, seed=1)
    surrogate = fit_segpc(basis, plan, model, n_points=space.m + 1)
    mean_g, var_g = moments_from_coefficients(surrogate)
    std_g = math.sqrt(var_g)
    segpc_evals = surrogate.fit_report.evaluation_count

    values = evaluate_values(model, plan.points)
    wlsq_surrogate = fit_wlsq(basis, plan.points, plan.w_sqrt, values)
    mean_w, var_w = moments_from_coefficients(wlsq_surrogate)
    wlsq_evals = wlsq_surrogate.fit_report.evaluation_count

    err_mean = abs(mean_g - mc_report.mean) / mc_report.mean
    err_std = abs(std_g - mc_report.std) / mc_report.std
    err_mean_w = abs(mean_w - mc_report.mean) / mc_report.mean
    err_std_w = abs(math.sqrt(var_w) - mc_report.std) / mc_report.std
    elapsed = time.time() - t0
    ok = (
        err_mean < 0.02
        and err_std < 0.08
        and segpc_evals < wlsq_evals
        and elapsed < 1800.0
    )
    report(
        "8 [burgers uq desk scale]",
        ok,
        f"MC(2000): mean={mc_report.mean:.4e} std={mc_report.std:.4e} "
        f"(kurt {mc_report.kurtosis:.0f}); segpc p=2 ({segpc_evals} evals): "
        f"mean err {err_mean:.2%} (tol 2%), std err {err_std:.2%} (tol 8%); "
        f"wlsq ({wlsq_evals} evals): mean err {err_mean_w:.2%}, std err "
        f"{err_std_w:.2%}; fewer evals: {segpc_evals} < {wlsq_evals}; "
        f"{elapsed:.0f}s [std clause expected red: an order-2 expansion "
        "cannot carry the heavy tail and the n=2000 reference's std has a ~17.5% "
        "standard error]",
    )


def test_criterion_9a_orthonormality_gram():
    from segpc import Uniform, tensor_rule

    worst = 0.0
    for m in (1, 2, 3):
        space = StochasticSpace(
            [Gaussian() if i % 2 == 0 else Uniform() for i in range(m)]
        )
        basis = ChaosBasis(space, 6)
        rule = tensor_rule(space, 7)
        psi = basis.eval(rule.nodes)
        gram = psi.T @ (rule.weights[:, None] * psi)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(basis.n_terms)))))
    ok = worst < 1e-12
    report("9a [orthonormality gram]", ok, f"worst deviation {worst:.2e} (tol 1e-12)")


def test_criterion_9b_basis_gradient_fd():
    from segpc import Uniform

    space = StochasticSpace([Gaussian(), Uniform(), Gaussian()])
    basis = ChaosBasis(space, 4)
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.standard_normal(100), rng.uniform(-0.98, 0.98, 100), rng.standard_normal(100)]
    )
    grads = basis.grad(pts)
    worst = 0.0
    for k in range(3):
        shift = np.zeros(3)
        shift[k] = 1e-6
        fd = (basis.eval(pts + shift) - basis.eval(pts - shift)) / 2e-6
        err = np.abs(grads[:, k, :] - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(err.max()))
    ok = worst < 1e-7
    report("9b [basis gradient FD]", ok, f"worst relative error {worst:.2e} (tol 1e-7)")


def test_criterion_9c_exact_polynomial_recovery():
    from segpc import Uniform
    from tests_support import PolyModel

    space = StochasticSpace([Gaussian(), Uniform()])
    basis, _, plan = make_plan(space, 3, q=2000, seed=0)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(basis.n_terms)
    model = PolyModel(space, basis, coeffs)
    sur_w = fit_wlsq(basis, plan.points, plan.w_sqrt, model.values(plan.points))
    sur_g = fit_segpc(basis, plan, model, n_points=basis.n_terms)
    err = max(
        float(np.max(np.abs(sur_w.coefficients - coeffs))),
        float(np.max(np.abs(sur_g.coefficients - coeffs))),
    )
    ok = err < 1e-9
    report("9c [exact recovery]", ok, f"worst coefficient error {err:.2e} (tol 1e-9)")


def test_criterion_9d_parseval_vs_surrogate_mc():
    from segpc import FitReport, PceSurrogate

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
    se = math.sqrt((np.mean(centered**4) - sample_var**2) / n)
    ok = abs(var - sample_var) < 3 * se
    report(
        "9d [parseval variance]",
        ok,
        f"coefficients {var:.6f} vs sampled {sample_var:.6f} "
        f"(3 s.e. = {3 * se:.6f})",
    )


def test_criterion_9e_greedy_determinant_dominance():
    space = StochasticSpace([Gaussian(), Gaussian()])
    basis, meas, plan = make_plan(space, 1, q=60, seed=11)
    greedy = float(np.sum(np.log(plan.r_diag)))
    rng = np.random.default_rng(17)
    weighted = meas.weighted()
    log_dets = []
    for _ in range(1000):
        idx = rng.choice(60, size=3, replace=False)
        _, logdet = np.linalg.slogdet(weighted[idx])
        log_dets.append(logdet)
    threshold = float(np.quantile(log_dets, 0.99))
    ok = greedy >= threshold
    report(
        "9e [greedy determinant]",
        ok,
        f"greedy log|det| {greedy:.3f} >= 99th percentile {threshold:.3f}",
    )


def test_criterion_9f_end_to_end_determinism(tmp_path):
    import json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"model": {"name": "ishigami"}, "method": "segpc", "order": 4,
             "pool": 3000}
        ),
        encoding="utf-8",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["fit", "--config", str(cfg), "--seed", "9", "--out", str(out_a)]) == 0
    assert cli_main(["fit", "--config", str(cfg), "--seed", "9", "--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("moments.csv", "surrogate.json")
    )
    report("9f [seeded determinism]", same, "byte-identical CSV and JSON outputs")
