import logging
import math
import pickle

import numpy as np
import pytest
from tests_support import discrete_qoi_gradient, run_blas_child

import segpc.burgers
from segpc import (
    NOMINAL_INLET_COEFFS,
    BurgersState,
    burgers_adjoint,
    burgers_model,
    burgers_qoi,
    burgers_solve,
)
from segpc.burgers import (
    CHORD_CONTRACTION,
    _direct_jacobian,
    _residual,
    full_inlet_coeffs,
    inlet_u_profile,
    inlet_v_profile,
)
from segpc.errors import SolverDivergenceError


@pytest.fixture(scope="module")
def nominal_state():
    return burgers_solve(NOMINAL_INLET_COEFFS, re=250.0, n_grid=21)


def test_corner_closure():
    s_full = full_inlet_coeffs(NOMINAL_INLET_COEFFS)
    assert s_full[0] == 0.0
    assert s_full[-1] == pytest.approx(-NOMINAL_INLET_COEFFS.sum())
    y = np.array([0.0, 1.0])
    assert inlet_u_profile(s_full, y) == pytest.approx([0.0, 0.0], abs=1e-14)
    assert inlet_v_profile(y) == pytest.approx([0.0, 0.0])


def test_solve_nominal_converges(nominal_state):
    state = nominal_state
    assert state.residual_norm <= 1e-10
    # Newton quadratic tail: the final residual drop is sharp
    assert state.residual_history[-1] / state.residual_history[-2] < 0.1
    # walls and inlet
    assert np.allclose(state.u[:, 0], 0.0)
    assert np.allclose(state.u[:, -1], 0.0)
    assert np.allclose(state.v[:, 0], 0.0)
    assert np.allclose(state.u[0], inlet_u_profile(state.s_full, state.y), rtol=0, atol=1e-12)
    assert np.allclose(state.v[0], inlet_v_profile(state.y), rtol=0, atol=1e-12)


def test_solve_zero_inlet_u():
    state = burgers_solve(np.zeros(10), re=250.0, n_grid=21)
    # u == 0 solves the u-momentum equation with homogeneous inlet
    assert np.max(np.abs(state.u)) < 1e-9
    assert np.max(state.v) > 0.01
    assert burgers_qoi(state) > 0.0


def test_solve_validation():
    with pytest.raises(ValueError):
        burgers_solve(NOMINAL_INLET_COEFFS, re=-1.0)
    with pytest.raises(ValueError):
        burgers_solve(NOMINAL_INLET_COEFFS, n_grid=3)
    with pytest.raises(SolverDivergenceError):
        burgers_solve(NOMINAL_INLET_COEFFS, n_grid=21, max_iter=1)


@pytest.mark.parametrize("n", [7, 21])
def test_residual_matches_closed_form_on_quadratic_fields(n):
    # central and one-sided differences are exact on quadratic fields, so
    # every row of the discrete residual equals its continuous expression
    nu, h = 1.0 / 250.0, 1.0 / (n - 1)
    rng = np.random.default_rng(n)
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), indexing="ij")

    def quadratic(a):
        # value, d/dx, d/dy and Laplacian of a0 + a1 x + a2 y + a3 x^2 + a4 xy + a5 y^2
        value = a[0] + a[1] * xs + a[2] * ys + a[3] * xs**2 + a[4] * xs * ys + a[5] * ys**2
        d_dx = a[1] + 2 * a[3] * xs + a[4] * ys
        d_dy = a[2] + a[4] * xs + 2 * a[5] * ys
        return value, d_dx, d_dy, 2 * (a[3] + a[5])

    for _ in range(3):
        u, u_x, u_y, lap_u = quadratic(rng.standard_normal(6))
        v, v_x, v_y, lap_v = quadratic(rng.standard_normal(6))
        u_in, v_in = rng.standard_normal((2, n))
        want = np.stack([u * u_x + v * u_y - nu * lap_u, u * v_x + v * v_y - nu * lap_v])
        for r, field, inlet, f_x in zip(want, (u, v), (u_in, v_in), (u_x, v_x)):
            r[:, [0, -1]] = field[:, [0, -1]]  # walls y = 0, 1
            r[0, 1:-1] = field[0, 1:-1] - inlet[1:-1]  # inlet x = 0
            r[-1, 1:-1] = f_x[-1, 1:-1]  # exit x = 1: du/dx
        x = np.concatenate([u.ravel(), v.ravel()])
        got = _residual(x, nu, h, np.stack([u_in[1:-1], v_in[1:-1]])).reshape(2, n, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [7, 21])
def test_linearizations_match_quadratic_residual(n):
    # the residual is quadratic in (u, v), so central differences of it are
    # exact for the Newton Jacobian; the Picard operator as a CSC matrix
    # reproduces the residual computed over the stencil-ordered entries
    nu, h = 1.0 / 250.0, 1.0 / (n - 1)
    rng = np.random.default_rng(n)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for _ in range(3):
        u, v, du, dv = rng.standard_normal((4, n, n))
        inlet = rng.standard_normal((2, n - 2))
        b = np.zeros((2, n, n))
        b[:, 0, 1:-1] = inlet
        b = b.ravel()

        def residual(u, v):
            return _residual(np.concatenate([u.ravel(), v.ravel()]), nu, h, inlet)

        newton = _direct_jacobian(u, v, nu, h, newton=True)
        d = np.concatenate([du.ravel(), dv.ravel()])
        assert_close(newton @ d, (residual(u + du, v + dv) - residual(u - du, v - dv)) / 2)

        picard = _direct_jacobian(u, v, nu, h, newton=False)
        x = np.concatenate([u.ravel(), v.ravel()])
        assert_close(picard @ x - b, residual(u, v))


def test_qoi_synthetic_states():
    n = 11
    zeros = np.zeros((n, n))
    state = BurgersState(
        u=zeros, v=zeros, re=250.0, s_full=np.zeros(12), n_grid=n,
        residual_norm=0.0, iterations=0, residual_history=np.zeros(1),
    )
    assert burgers_qoi(state) == 0.0
    state_one = BurgersState(
        u=np.ones((n, n)), v=zeros, re=250.0, s_full=np.zeros(12), n_grid=n,
        residual_norm=0.0, iterations=0, residual_history=np.zeros(1),
    )
    assert burgers_qoi(state_one) == pytest.approx(0.5)


def test_qoi_quadrature_refinement(nominal_state):
    # trapezoid on the piecewise-linear exit profile is refinement-invariant
    state = nominal_state
    energy = 0.5 * (state.u[-1, :] ** 2 + state.v[-1, :] ** 2)
    y = state.y
    fine_y = np.linspace(0.0, 1.0, 10 * (state.n_grid - 1) + 1)
    fine = np.interp(fine_y, y, energy)
    refined = np.trapezoid(fine, fine_y)
    assert burgers_qoi(state) == pytest.approx(refined, rel=1e-6)


def test_qoi_second_order_grid_convergence():
    values = {}
    for n in (21, 41, 81):
        state = burgers_solve(NOMINAL_INLET_COEFFS, re=250.0, n_grid=n)
        values[n] = burgers_qoi(state)
    order = math.log2(abs(values[21] - values[41]) / abs(values[41] - values[81]))
    assert order == pytest.approx(2.0, abs=0.3)


def test_adjoint_zero_state_gives_zero_gradient():
    n = 11
    zeros = np.zeros((n, n))
    state = BurgersState(
        u=zeros, v=zeros, re=250.0, s_full=np.zeros(12), n_grid=n,
        residual_norm=0.0, iterations=0, residual_history=np.zeros(1),
    )
    adj = burgers_adjoint(state)
    assert np.max(np.abs(adj.u_adj)) == 0.0
    assert np.max(np.abs(adj.v_adj)) == 0.0
    assert np.max(np.abs(adj.gradient)) == 0.0


def test_adjoint_matches_finite_differences_coarse(nominal_state):
    # cheap N=21 check; the full N=31/61 comparison runs in the acceptance suite
    state = nominal_state
    adj = burgers_adjoint(state)
    s0 = NOMINAL_INLET_COEFFS
    for i in (0, 4, 9):
        delta = 1e-4 * abs(s0[i])
        sp = s0.copy()
        sp[i] += delta
        sm = s0.copy()
        sm[i] -= delta
        fd = (
            burgers_qoi(burgers_solve(sp, 250.0, 21, tol=1e-12))
            - burgers_qoi(burgers_solve(sm, 250.0, 21, tol=1e-12))
        ) / (2 * delta)
        assert adj.gradient[i] == pytest.approx(fd, rel=0.03)


def test_model_space_and_chain_rule(nominal_state):
    model = burgers_model(n_grid=21)
    assert model.space.m == 10
    stds = np.array([marg.std for marg in model.space.marginals])
    assert stds == pytest.approx(np.abs(NOMINAL_INLET_COEFFS) / 5.0)

    ev = model.value_and_grad(np.zeros(10))
    assert ev.value == pytest.approx(burgers_qoi(nominal_state), rel=1e-12)
    adj = burgers_adjoint(nominal_state)
    assert ev.gradient == pytest.approx(adj.gradient * stds, rel=1e-12)


def test_warm_start_matches_cold():
    # a fresh start state, so the first warm solve factors its chord LU
    start = burgers_solve(NOMINAL_INLET_COEFFS, re=250.0, n_grid=21)
    model = burgers_model(n_grid=21)
    pool = model.space.sample_pool(20, seed=3).points
    far = 4.0 * (-1.0) ** np.arange(model.space.m)
    factorizations = []
    for coeffs in model.space.destandardize(np.vstack([pool, far, -far])):
        cold = burgers_solve(coeffs, re=250.0, n_grid=21)
        warm = burgers_solve(coeffs, re=250.0, n_grid=21, start=start)
        assert cold.residual_norm <= 1e-10
        assert warm.residual_norm <= 1e-10
        assert burgers_qoi(warm) == pytest.approx(burgers_qoi(cold), rel=1e-5)
        # chord steps only, each contracting, from the tangent's prediction;
        # the alternating +-4 sigma points take 25 and 30
        history = warm.residual_history
        assert np.all(history[1:] < CHORD_CONTRACTION * history[:-1])
        assert warm.iterations <= 40
        factorizations.append(warm.factorizations)
    assert factorizations == [1] + [0] * (len(factorizations) - 1)


def test_tangent_matches_finite_differences_of_warm_solves(nominal_state):
    # T = J0^{-1} E is the derivative of the state in its u inlet values, so
    # T times the inlet's derivative in s_i is the state's derivative in s_i
    s0, m, y = NOMINAL_INLET_COEFFS, NOMINAL_INLET_COEFFS.size, nominal_state.y[1:-1]
    for i in (0, 4):
        delta = 1e-4 * abs(s0[i])
        states = []
        for sign in (1.0, -1.0):
            s = s0.copy()
            s[i] += sign * delta
            state = burgers_solve(s, 250.0, 21, tol=1e-12, start=nominal_state)
            states.append(np.concatenate([state.u.ravel(), state.v.ravel()]))
        fd = (states[0] - states[1]) / (2 * delta)
        # dB/ds_i of the inlet u values, with the corner closure s_{m+1}
        tangent = (y ** (i + 1) - y ** (m + 1)) @ nominal_state._tangent
        assert np.max(np.abs(tangent - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_tangent_prediction_leaves_a_quadratic_residual(nominal_state):
    # the residual is quadratic in the state and the prediction exact to first
    # order, so halving the inlet change quarters the predicted state's residual
    space = burgers_model(n_grid=21).space
    [s] = space.destandardize(space.sample_pool(20, seed=3).points[:1])
    x0 = np.concatenate([nominal_state.u.ravel(), nominal_state.v.ravel()])
    y, first = nominal_state.y[1:-1], []
    for t in (1.0, 0.5, 0.25):
        coeffs = NOMINAL_INLET_COEFFS + t * (s - NOMINAL_INLET_COEFFS)
        warm = burgers_solve(coeffs, 250.0, 21, start=nominal_state)
        first.append(warm.residual_history[0])
        # the prediction, its products added from zero in inlet order
        inlet = np.stack([inlet_u_profile(full_inlet_coeffs(coeffs), y), inlet_v_profile(y)])
        delta = inlet[0] - inlet_u_profile(nominal_state.s_full, y)
        step = np.zeros_like(x0)
        for d, column in zip(delta, nominal_state._tangent):
            step += d * column
        predicted = _residual(x0 + step, 1.0 / 250.0, nominal_state.h, inlet)
        assert np.abs(predicted).max() == first[-1]
    assert first[0] > 1e-3
    for big, small in zip(first, first[1:]):
        assert big / small == pytest.approx(4.0, rel=1e-3)


def test_warm_start_falls_back_to_newton_where_chord_stalls(caplog):
    start = burgers_solve(NOMINAL_INLET_COEFFS, re=250.0, n_grid=21)
    model = burgers_model(n_grid=21)
    factorizations = []
    for sign in (1.0, -1.0):
        [coeffs] = model.space.destandardize(np.full((1, model.space.m), 4.0 * sign))
        cold = burgers_solve(coeffs, re=250.0, n_grid=21)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="segpc.burgers"):
            warm = burgers_solve(coeffs, re=250.0, n_grid=21, start=start)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert "damped Newton restarts" in record.getMessage()
        # logged: chord iteration, residual, contraction ratio
        iteration, _, ratio = record.args
        assert iteration >= 1 and ratio >= CHORD_CONTRACTION
        assert warm.residual_norm <= 1e-10
        assert burgers_qoi(warm) == pytest.approx(burgers_qoi(cold), rel=1e-5)
        # the history is the Newton path: one factorization per iteration,
        # plus the chord LU on the first warm solve
        factorizations.append(warm.factorizations - warm.iterations)
    assert factorizations == [1, 0]


def test_model_pickles_without_chord_factorization():
    model = burgers_model(n_grid=21)
    points = model.space.sample_pool(8, seed=4).points
    values = model.values(points)
    grad_values, grads = model.values_and_grads(points)
    assert model._nominal._chord_lu is not None
    assert model._nominal._adjoint_lu is not None
    payload = pickle.dumps(model)
    assert b"SuperLU" not in payload
    copy = pickle.loads(payload)
    assert copy._nominal._chord_lu is None
    assert copy._nominal._adjoint_lu is None
    assert np.array_equal(copy.values(points), values)
    copy_values, copy_grads = copy.values_and_grads(points)
    assert np.array_equal(copy_values, grad_values)
    assert np.array_equal(copy_grads, grads)


def test_model_gradient_matches_fresh_adjoint(monkeypatch):
    # values_and_grads refines each adjoint on the nominal operator's LU.  Its
    # distance from a fresh LU is set against the round-off floor: how far a
    # fresh LU under another column ordering lands from the same one
    model = burgers_model(n_grid=21)
    points = model.space.sample_pool(200, seed=9).points
    _, refined = model.values_and_grads(points)
    states = [
        burgers_solve(coeffs, re=250.0, n_grid=21, start=model._nominal)
        for coeffs in model.space.destandardize(points)
    ]
    fresh = np.array([burgers_adjoint(state).gradient for state in states])
    monkeypatch.setattr(segpc.burgers, "PERMC_SPEC", "COLAMD")
    reordered = np.array([burgers_adjoint(state).gradient for state in states])
    fresh *= model.space.scales
    reordered *= model.space.scales

    def worst(gradients):
        return np.max(np.abs(gradients - fresh).max(axis=1) / np.abs(fresh).max(axis=1))

    assert 0.0 < worst(reordered) < 1e-11
    assert worst(refined) < 10.0 * worst(reordered)


@pytest.mark.parametrize(
    "name, value", [("CHORD_CONTRACTION", 0.0), ("ADJOINT_MAX_SWEEPS", 1)]
)
def test_adjoint_falls_back_to_a_fresh_lu(monkeypatch, caplog, name, value):
    # a sweep that does not contract, or a sweep budget that falls short,
    # leaves the sample's own operator to be factored, as burgers_adjoint does
    model = burgers_model(n_grid=21)
    points = model.space.sample_pool(5, seed=2).points[:1]
    monkeypatch.setattr(segpc.burgers, name, value)
    with caplog.at_level(logging.DEBUG, logger="segpc.burgers"):
        _, [gradient] = model.values_and_grads(points)
    # a zero contraction bound also restarts the direct solve; only the
    # adjoint's line is read here
    [record] = [r for r in caplog.records if "factored afresh" in r.getMessage()]
    iteration, _, ratio = record.args
    assert iteration == 1
    assert ratio < CHORD_CONTRACTION
    [s0] = model.space.destandardize(points)
    state = burgers_solve(s0, re=250.0, n_grid=21, start=model._nominal)
    fresh = burgers_adjoint(state).gradient * model.space.scales
    assert np.array_equal(gradient.view(np.uint64), fresh.view(np.uint64))


@pytest.mark.parametrize("where", ["nominal", "warm-sample"])
def test_discrete_adjoint_matches_finite_differences(where):
    # the discrete adjoint is the exact gradient of the discrete QoI
    nominal = burgers_solve(NOMINAL_INLET_COEFFS, re=250.0, n_grid=21)
    if where == "nominal":
        s0, state = NOMINAL_INLET_COEFFS, nominal
    else:
        space = burgers_model(n_grid=21).space
        [s0] = space.destandardize(space.sample_pool(20, seed=3).points[:1])
        state = burgers_solve(s0, re=250.0, n_grid=21, start=nominal)
        # chord-solved: the chord LU is the solve's only factorization
        assert state.factorizations == 1
        assert state.iterations > 0
    gradient = discrete_qoi_gradient(state)
    for i, s_i in enumerate(s0):
        delta = 1e-4 * abs(s_i)
        sp = s0.copy()
        sp[i] += delta
        sm = s0.copy()
        sm[i] -= delta
        fd = (
            burgers_qoi(burgers_solve(sp, 250.0, 21, tol=1e-12))
            - burgers_qoi(burgers_solve(sm, 250.0, 21, tol=1e-12))
        ) / (2 * delta)
        assert gradient[i] == pytest.approx(fd, rel=1e-5)


def test_warm_start_rejects_other_problem(nominal_state):
    with pytest.raises(ValueError):
        burgers_solve(NOMINAL_INLET_COEFFS, re=250.0, n_grid=11, start=nominal_state)
    with pytest.raises(ValueError):
        burgers_solve(NOMINAL_INLET_COEFFS, re=100.0, n_grid=21, start=nominal_state)


def test_model_value_at_nominal(nominal_state):
    model = burgers_model(n_grid=21)
    assert model.values(np.zeros((1, 10))) == pytest.approx(
        [burgers_qoi(nominal_state)], rel=1e-12
    )


def test_model_failure_names_point():
    # at N = 11 the all-+6-sigma inlet stalls the chord steps and then
    # exhausts damped Newton; a one-point call is a one-row batch, so it
    # names the point as sample 0
    model = burgers_model(n_grid=11)
    xi = np.full(10, 6.0)
    calls = (model.values, model.values_and_grads, lambda rows: model.value_and_grad(rows[0]))
    for evaluate in calls:
        with pytest.raises(SolverDivergenceError, match=r"at sample 0, standardized point \[6, 6") as info:
            evaluate(xi[None])
        assert info.value.index == 0
        assert np.array_equal(info.value.point, xi)
        cause = info.value.__cause__
        assert isinstance(cause, SolverDivergenceError)
        assert cause.index is None and cause.point is None
        assert info.value.iterations == cause.iterations == 60
        assert info.value.residual == cause.residual


def test_values_do_not_depend_on_block_size(monkeypatch, caplog):
    # the +-4 sigma points stall and restart alone with damped Newton, each
    # with the per-point DEBUG line, whatever block they are solved in
    model = burgers_model(n_grid=21)
    far = 4.0 * (-1.0) ** np.arange(model.space.m)
    pool = model.space.sample_pool(20, seed=8).points
    points = np.vstack([pool[:10], np.full(10, 4.0), pool[10:], np.full(10, -4.0), far])
    results, restarts = [], []
    for block in (1, 5, 16, len(points)):
        monkeypatch.setattr(segpc.burgers, "VALUES_BLOCK", block)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="segpc.burgers"):
            values = model.values(points)
        restarts.append([record.args for record in caplog.records])
        results.append(np.column_stack([values, *model.values_and_grads(points)]))
    assert len(restarts[0]) == 2
    for got, lines in zip(results[1:], restarts[1:]):
        assert np.array_equal(got.view(np.uint64), results[0].view(np.uint64))
        assert lines == restarts[0]


def test_values_failure_names_sample(monkeypatch):
    # at N = 11 the all-+6-sigma inlet stalls the chord steps and then
    # exhausts damped Newton; the second block holds it at index 3
    monkeypatch.setattr(segpc.burgers, "VALUES_BLOCK", 2)
    model = burgers_model(n_grid=11)
    points = np.vstack([model.space.sample_pool(3, seed=1).points, np.full(10, 6.0)])
    where = r"at sample 3, standardized point \[6, 6"
    for evaluate in (model.values, model.values_and_grads):
        with pytest.raises(SolverDivergenceError, match=where) as info:
            evaluate(points)
        assert info.value.index == 3
        assert np.array_equal(info.value.point, points[3])
        cause = info.value.__cause__
        assert isinstance(cause, SolverDivergenceError)
        assert cause.index is None and cause.point is None
        assert info.value.iterations == cause.iterations == 60


def test_values_and_grads_match_value_and_grad_bit_for_bit(caplog):
    # chord steps and adjoint sweeps run as one block; the +-4 sigma points
    # restart alone, each with the DEBUG line it logs alone
    model = burgers_model(n_grid=21)
    far = 4.0 * (-1.0) ** np.arange(model.space.m)
    pool = model.space.sample_pool(24, seed=3).points
    points = np.vstack([pool[:10], np.full(10, 4.0), pool[10:], -np.full(10, 4.0), far])
    with caplog.at_level(logging.DEBUG, logger="segpc.burgers"):
        values, grads = model.values_and_grads(points)
        batched_lines = sorted((r.msg, r.args) for r in caplog.records)
        caplog.clear()
        single = [model.value_and_grad(xi) for xi in points]
        assert sorted((r.msg, r.args) for r in caplog.records) == batched_lines
    assert len(batched_lines) >= 2
    want_values = np.array([ev.value for ev in single])
    want_grads = np.array([ev.gradient for ev in single])
    assert np.array_equal(values.view(np.uint64), want_values.view(np.uint64))
    assert np.array_equal(grads.view(np.uint64), want_grads.view(np.uint64))
    assert np.array_equal(values, model.values(points))


@pytest.mark.parametrize(
    "name, value", [("CHORD_CONTRACTION", 0.0), ("ADJOINT_MAX_SWEEPS", 1)]
)
def test_values_and_grads_match_with_adjoint_fallback(monkeypatch, caplog, name, value):
    # every adjoint falls back to a fresh LU of its own operator, in a block
    # as alone
    model = burgers_model(n_grid=21)
    points = np.vstack([model.space.sample_pool(6, seed=2).points, np.full(10, 4.0)])
    monkeypatch.setattr(segpc.burgers, name, value)
    with caplog.at_level(logging.DEBUG, logger="segpc.burgers"):
        values, grads = model.values_and_grads(points)
    afresh = [r for r in caplog.records if "factored afresh" in r.getMessage()]
    assert len(afresh) == len(points)
    single = [model.value_and_grad(xi) for xi in points]
    assert np.array_equal(values, [ev.value for ev in single])
    assert np.array_equal(grads, [ev.gradient for ev in single])


#: sha256 of N = 21 Burgers outputs at any BLAS thread count: ``values`` of
#: 24 pool points and the all-+4-sigma point, which restarts with damped
#: Newton; ``values_and_grads`` of 11 pool points as columns (value,
#: gradient); the residual history of the first pool point's warm solve and
#: the warm ``iterations`` of all 24
BURGERS_BITS = {
    "values": "30d1bdb13af0d8eaf826670b334ff67569d9ec2ecd555a57365c6eb8ef23d8f5",
    "values_and_grads": "ad411e8b98f996b93b49d00bbdf759b8c0e75d512919ec6db58bc40704a8b41b",
    "residual_history": "354d72017d88e626b66b48ae1e401f5d6cb1a523fc862ae503db585c8d63ce2f",
    "restarts": 1,
    "iterations": [14, 16, 8, 7, 6, 3, 15, 5, 8, 20, 6, 5, 8, 6, 9, 6, 5, 5, 9, 5, 7, 13, 9, 7],
}

_PRINT_BURGERS_BITS = """
import hashlib, json, logging
import numpy as np
from segpc import burgers_model, burgers_solve
digest = lambda a: hashlib.sha256(np.asarray(a, dtype=float).tobytes()).hexdigest()
records = []
logger = logging.getLogger("segpc.burgers")
logger.setLevel(logging.DEBUG)
logger.addHandler(logging.Handler())
logger.handlers[0].emit = records.append
model = burgers_model(n_grid=21)
pool = model.space.sample_pool(24, seed=3).points
values = model.values(np.vstack([pool[:12], np.full(10, 4.0), pool[12:]]))
restarts = len(records)
grad_values, grads = model.values_and_grads(pool[:11])
warm = [burgers_solve(s, re=250.0, n_grid=21, start=model._nominal)
        for s in model.space.destandardize(pool)]
print(json.dumps({"values": digest(values),
                  "values_and_grads": digest(np.column_stack([grad_values, grads])),
                  "residual_history": digest(warm[0].residual_history),
                  "restarts": restarts,
                  "iterations": [state.iterations for state in warm]}))
"""


def test_burgers_keeps_the_stored_bits():
    # the block tests compare samples with each other; these digests pin the
    # bits themselves, and the same at 1 and 2 BLAS threads.  The thread
    # count is read when numpy loads, so each count solves in its own child
    for threads in (1, 2):
        assert run_blas_child(_PRINT_BURGERS_BITS, threads=threads) == BURGERS_BITS, threads


def test_model_validation():
    with pytest.raises(ValueError):
        burgers_model(s_mean=[0.1, -0.2], s_std=[0.1, 0.0])


@pytest.mark.parametrize(
    "s_mean, s_std",
    [
        ([-0.5, -0.1, 0.1], [0.1]),
        ([-0.5, -0.1, 0.1], [0.1, 0.1, 0.1, 0.1]),
        ([-0.5, -0.1, 0.1], 0.1),
        ([], None),
        (0.3, None),
        ([[-0.5, -0.1]], None),
    ],
    ids=["std-short", "std-long", "std-scalar", "mean-empty", "mean-scalar", "mean-2d"],
)
def test_model_rejects_inlet_shapes_before_solving(monkeypatch, s_mean, s_std):
    def no_solve(*args, **kwargs):
        raise AssertionError("nominal flow solved before the inlet shapes were checked")

    monkeypatch.setattr(segpc.burgers, "burgers_solve", no_solve)
    with pytest.raises(ValueError, match="s_mean|s_std"):
        burgers_model(s_mean=s_mean, s_std=s_std, n_grid=11)
