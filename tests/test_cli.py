import json
import math
import time

import numpy as np
import pytest

from segpc import ChaosBasis, build_measurement, coherence_weights, fit_segpc, fit_wlsq
from segpc import ode_model, predicted_cost, qr_select, rank_pool
import segpc.burgers
import segpc.cli
import segpc.models
from segpc.cli import main
from tests_support import spy_rankings


def write_config(path, data):
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_fit_ode_wlsq(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode", "t": 1.0}, "method": "wlsq", "order": 6,
         "pool": 2000, "reference": {"kind": "analytic"}},
    )
    out = tmp_path / "out"
    rc = main(["fit", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "moments.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["model"] == "ode"
    assert int(row["evaluation_count"]) == 7
    assert float(row["err_mean"]) < 1e-4
    assert (out / "surrogate.json").exists()


def test_fit_counts_match_cost_model(tmp_path):
    # evaluation_count equals predicted_cost at oversampling 1
    for method in ("segpc", "wlsq"):
        for order in (1, 2, 4):
            cfg = write_config(
                tmp_path / f"c_{method}_{order}.json",
                {"model": {"name": "ode", "t": 0.5}, "method": method,
                 "order": order, "pool": 500},
            )
            out = tmp_path / f"out_{method}_{order}"
            rc = main(["fit", "--config", cfg, "--seed", "3", "--out", str(out)])
            assert rc == 0
            row = read_rows(out / "moments.csv")[0]
            assert int(row["evaluation_count"]) == predicted_cost(method, 1, order)


def test_fit_rejects_bad_method(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode"}, "method": "bogus", "order": 2},
    )
    assert main(["fit", "--config", cfg, "--seed", "1"]) == 2


def test_fit_requires_seed(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode"}, "method": "wlsq", "order": 2},
    )
    assert main(["fit", "--config", cfg]) == 2


def test_config_json_error_reported(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["fit", "--config", str(bad), "--seed", "1"]) == 2


def test_select_points_csv(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"space": [{"kind": "gaussian"}, {"kind": "gaussian"}], "order": 2,
         "pool": 3000},
    )
    out = tmp_path / "out"
    rc = main(["select-points", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "points.csv")
    assert len(rows) == 6
    first = rows[0]
    assert int(first["rank"]) == 1
    radius = math.hypot(float(first["xi_1"]), float(first["xi_2"]))
    assert radius < 0.15
    r_values = [float(r["r_abs"]) for r in rows]
    assert all(a >= b for a, b in zip(r_values, r_values[1:]))


def test_select_points_pool_too_small(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"space": [{"kind": "gaussian"}, {"kind": "gaussian"}], "order": 4,
         "pool": 10},
    )
    assert main(["select-points", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2


def test_select_points_order_too_large_exits_2(tmp_path, capsys):
    # m=10 at order 40 would need an index set of ~10^10 terms
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "burgers", "n_grid": 11}, "order": 40, "pool": 100},
    )
    assert main(["select-points", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "chaos order 40" in err and "index set would hold" in err


@pytest.mark.parametrize("command", ["fit", "select-points"])
def test_model_and_space_together_exit_2(tmp_path, capsys, command):
    # a model brings its own space; a second one in the config would be ignored
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ishigami"}, "space": [{"kind": "uniform"}],
         "method": "wlsq", "order": 2, "pool": 500},
    )
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'model'" in err and "'space'" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["s_mean", "s_std"])
def test_fit_non_numeric_inlet_exits_2(tmp_path, capsys, field):
    # a JSON object where the inlet list belongs names the field, no traceback
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "burgers", "n_grid": 11, field: {"a": 1}},
         "method": "segpc", "order": 2, "pool": 500},
    )
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    assert f"configuration error: model: {field} must be a list of numbers" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_mc_trace_and_moments(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ishigami"}, "samples": 2000},
    )
    out = tmp_path / "out"
    rc = main(["mc", "--config", cfg, "--seed", "11", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "moments.csv")
    assert rows[0]["method"] == "mc"
    assert float(rows[0]["mean"]) == pytest.approx(3.5, abs=0.3)
    trace = read_rows(out / "trace.csv")
    assert len(trace) == 2000


def test_mc_solver_failure_exits_3_naming_the_sample(tmp_path, monkeypatch, capsys):
    # one chord step and one Newton step per sample cannot reach the tolerance
    monkeypatch.setattr(segpc.burgers, "MAX_ITER", 1)
    cfg = write_config(
        tmp_path / "cfg.json", {"model": {"name": "burgers", "n_grid": 11}, "samples": 4}
    )
    assert main(["mc", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 3
    assert "at sample 0, standardized point [" in capsys.readouterr().err


def test_fit_non_finite_gradient_exits_3_naming_the_sample(tmp_path, monkeypatch, capsys):
    # the gradient evaluation checks what the model returns, so a NaN in the
    # last point's gradient stops the fit before it is solved
    phys_grad = segpc.models.IshigamiModel._phys_grad

    def nan_in_last_row(self, x):
        grad = phys_grad(self, x)
        grad[-1, 0] = np.nan
        return grad

    monkeypatch.setattr(segpc.models.IshigamiModel, "_phys_grad", nan_in_last_row)
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ishigami"}, "method": "segpc", "order": 2, "pool": 500},
    )
    assert main(["fit", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "non-finite QoI value or gradient at sample 2, standardized point [" in err


def test_mc_single_sample_rejected(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", {"model": {"name": "ishigami"}, "samples": 1}
    )
    assert main(["mc", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2


def test_convergence_with_analytic_reference(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode", "t": 1.0}, "orders": [1, 2, 4],
         "methods": ["segpc", "wlsq", "smolyak"], "pool": 2000,
         "reference": {"kind": "analytic"}},
    )
    out = tmp_path / "out"
    rc = main(["convergence", "--config", cfg, "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "convergence.csv")
    assert len(rows) == 9
    segpc_rows = [r for r in rows if r["method"] == "segpc"]
    assert int(segpc_rows[0]["evaluation_count"]) == 2  # p=1 costs two evaluations
    # errors decrease with order for the mean
    errs = [float(r["err_mean"]) for r in segpc_rows]
    assert errs[-1] < errs[0]


def test_analytic_reference_of_a_constant_ode():
    # at t = 0 the QoI is 1 everywhere: no spread, undefined shape moments
    reference = segpc.cli.analytic_reference(ode_model(0.0))
    assert reference["mean"] == 1.0
    assert reference["std"] == 0.0
    assert math.isnan(reference["skewness"])
    assert math.isnan(reference["kurtosis"])


def test_convergence_needs_reference(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode"}, "orders": [1, 2]},
    )
    assert main(["convergence", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2


def test_convergence_with_mc_reference_file(tmp_path):
    mc_cfg = write_config(
        tmp_path / "mc.json", {"model": {"name": "ode", "t": 1.0}, "samples": 5000}
    )
    mc_out = tmp_path / "mc_out"
    assert main(["mc", "--config", mc_cfg, "--seed", "2", "--out", str(mc_out)]) == 0

    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode", "t": 1.0}, "orders": [2, 4],
         "methods": ["wlsq"], "pool": 1000,
         "reference": {"kind": "mc-file", "path": str(mc_out / "moments.csv")}},
    )
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    rows = read_rows(out / "convergence.csv")
    assert len(rows) == 2
    assert float(rows[1]["err_mean"]) < 0.01


def test_convergence_ranks_each_order_once(tmp_path, monkeypatch):
    # counts the rankings computed, not the plans made: a plan ranks when read
    log = spy_rankings(monkeypatch)
    bases = []
    monkeypatch.setattr(segpc.cli, "ChaosBasis",
                        lambda space, order: bases.append(order) or ChaosBasis(space, order))
    common = {"model": {"name": "ishigami"}, "pool": 2000, "oversample": 1.5,
              "reference": {"kind": "analytic"}}
    cfg = write_config(tmp_path / "conv.json",
                       {**common, "orders": [2, 3], "methods": ["segpc", "wlsq", "smolyak"]})
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--seed", "6", "--out", str(out)]) == 0
    # segpc and wlsq share one ranking per order, to the P + 1 wlsq reads;
    # smolyak needs none
    assert [entry[:2] for entry in log] == [["right", 10], ["right", 20]]
    assert bases == [2, 3]  # one basis per order, shared by all three methods
    rows = read_rows(out / "convergence.csv")
    assert [(r["method"], r["p"]) for r in rows] == [
        (method, p) for method in ("segpc", "wlsq", "smolyak") for p in ("2", "3")
    ]
    # each row equals a separate fit at the same seed, which ranks its own
    # pool as far as it reads: ceil(1.5 ceil((P + 1) / 4)) se-gPC points,
    # a partial read, or the whole plan for wlsq
    ranked = {"segpc": {"2": [["left", 5]], "3": [["left", 8]]},
              "wlsq": {"2": [["right", 10]], "3": [["right", 20]]},
              "smolyak": {"2": [], "3": []}}
    for row in rows:
        fit_cfg = write_config(tmp_path / "fit.json",
                               {**common, "method": row["method"], "order": int(row["p"])})
        fit_out = tmp_path / f"fit_{row['method']}_{row['p']}"
        log.clear()
        assert main(["fit", "--config", fit_cfg, "--seed", "6", "--out", str(fit_out)]) == 0
        assert [entry[:2] for entry in log] == ranked[row["method"]][row["p"]]
        assert read_rows(fit_out / "moments.csv") == [row]


def test_fit_notes_structural_rank_deficiency(tmp_path, capsys):
    # Ishigami order 2: 10 terms, ceil(10 / 4) = 3 se-gPC points < m + 1 = 4
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ishigami"}, "method": "segpc", "order": 2, "pool": 2000},
    )
    assert main(["fit", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "rank 9 of P+1 = 10 from 3 points" in err
    assert "fewer than m+1 = 4 points at order >= 2" in err
    saved = json.loads((tmp_path / "a" / "surrogate.json").read_text(encoding="utf-8"))
    assert saved["fit_report"]["rank"] == 9
    # order 3: 20 terms from 5 points, full rank, nothing on stderr
    assert main(["fit", "--config", cfg, "--seed", "3", "--order", "3",
                 "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""


def test_deterministic_outputs_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ishigami"}, "method": "segpc", "order": 3,
         "pool": 3000},
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["fit", "--config", cfg, "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["fit", "--config", cfg, "--seed", "7", "--out", str(out_b)]) == 0
    for name in ("moments.csv", "surrogate.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_burgers_mc_then_convergence(tmp_path):
    # end-to-end on a coarse grid: MC reference file feeds the convergence run
    mc_cfg = write_config(
        tmp_path / "mc.json",
        {"model": {"name": "burgers", "n_grid": 11}, "samples": 40},
    )
    mc_out = tmp_path / "mc_out"
    assert main(["mc", "--config", mc_cfg, "--seed", "1", "--out", str(mc_out)]) == 0

    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "burgers", "n_grid": 11}, "orders": [1],
         "methods": ["segpc", "wlsq"], "pool": 500,
         "reference": {"kind": "mc-file", "path": str(mc_out / "moments.csv")}},
    )
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    rows = read_rows(out / "convergence.csv")
    assert len(rows) == 2
    by_method = {r["method"]: r for r in rows}
    assert int(by_method["segpc"]["evaluation_count"]) == 2
    assert int(by_method["wlsq"]["evaluation_count"]) == 11
    assert float(by_method["segpc"]["err_mean"]) < 0.05


def test_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode", "t": 1.0}, "method": "wlsq", "order": 2,
         "pool": 500, "seed": 1},
    )
    out = tmp_path / "out"
    rc = main(["fit", "--config", cfg, "--order", "4", "--out", str(out)])
    assert rc == 0
    row = read_rows(out / "moments.csv")[0]
    assert row["p"] == "4"
    assert int(row["evaluation_count"]) == 5


def test_oversampled_segpc_fit_matches_library(tmp_path):
    # p=2, m=1: 2 se-gPC points at oversampling 1, 5 here, more than P+1 = 3
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ode", "t": 1.0}, "method": "segpc", "order": 2,
         "pool": 500, "oversample": 2.5},
    )
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
    assert int(read_rows(out / "moments.csv")[0]["evaluation_count"]) == 10
    saved = json.loads((out / "surrogate.json").read_text(encoding="utf-8"))
    assert saved["fit_report"]["n_points"] == 5

    # the QR-ranked 3 points, then the first 2 unselected pool points
    model = ode_model(1.0)
    basis = ChaosBasis(model.space, 2)
    pool = model.space.sample_pool(500, 4)
    weights = coherence_weights(model.space, pool.points)
    plan = qr_select(build_measurement(basis, pool, weights), 3)
    extra = [i for i in range(pool.q) if i not in set(plan.selected)][:2]
    idx = np.concatenate([plan.selected, extra])
    points = pool.points[idx]
    values, grads = model.values_and_grads(points)
    want = fit_wlsq(basis, points, weights[idx], values, grads)
    assert saved["coefficients"] == want.coefficients.tolist()
    # the library fit continues past the pivots the same way
    library = fit_segpc(basis, rank_pool(basis, 500, 4), model, n_points=5)
    assert saved["coefficients"] == library.coefficients.tolist()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"reference": {"kind": "mc-file", "path": "no-such-moments.csv"}}, "reference.path"),
        ({"reference": {"kind": "mc-file"}}, "reference.path"),
        ({"reference": "analytic"}, "reference"),
        ({"pool": "lots"}, "pool"),
        ({"reference": {"kind": "mc-file", "path": "points.csv"}}, "'mean' column"),
        ({"model": {"name": "ode", "t": "soon"}}, "model.t"),
        ({"model": {"name": "burgers", "n_grid": "fine"}}, "model.n_grid"),
        ({"model": {"name": "ode", "t": -1}}, "model: time"),
        ({"space": [{"kind": "gaussian", "std": 0}]}, "space[0]"),
        ({"model": {"name": "burgers", "n_grid": 11, "s_mean": [-0.5, -0.1, 0.1],
                    "s_std": [0.1]}}, "model: s_std"),
        ({"order": "two"}, "'order'"),
        ({"order": -1}, "'order' must be >= 0"),
        ({"samples": "many"}, "'samples'"),
        ({"orders": [1, "two"]}, "orders[1]"),
        ({"orders": [1, -2]}, "'orders[1]' must be >= 0"),
        ({"orders": 3}, "'orders' must be a list"),
        ({"methods": []}, "'methods'"),
        ({"methods": "wlsq"}, "'methods'"),
        ({"methods": ["wlsq", "krylov"]}, "methods[1]"),
        ({"model": {"name": "burgers", "n_grid": 11, "s_mean": [-0.5, -0.1, 0.1, 0.01]}},
         "analytic reference is only available"),
        ({"model": {"name": "burgers", "n_grid": 11, "s_mean": [-0.5, -0.1]}},
         "analytic reference is only available"),
        ({"space": [{"kind": "gaussian", "sd": 0.4}]}, "unknown config key 'space[0].sd'"),
        ({"model": {"name": "ode", "time": 5}}, "unknown config key 'model.time'"),
        ({"oversampel": 3}, "unknown config key 'oversampel'"),
        ({"reference": {"kind": "analytic", "file": "x.csv"}},
         "unknown config key 'reference.file'"),
    ],
    ids=["missing-file", "no-path", "not-an-object", "not-a-number",
         "no-moment-columns", "model-field", "model-grid", "model-range", "bad-marginal",
         "model-inlet-shapes",
         "order", "order-negative", "samples", "orders-entry", "orders-entry-negative",
         "orders-not-a-list",
         "methods-empty", "methods-not-a-list", "methods-entry", "analytic-too-large",
         "analytic-burgers", "space-key-unknown", "model-key-unknown", "key-unknown",
         "reference-key-unknown"],
)
def test_convergence_config_mistakes_exit_2(tmp_path, monkeypatch, capsys, overrides, field):
    # a points file is a readable CSV without the moment columns
    (tmp_path / "points.csv").write_text("# segpc points-csv v1\nrank,pool_index\n1,0\n")
    monkeypatch.chdir(tmp_path)
    data = {"model": {"name": "ode"}, "orders": [1], "methods": ["wlsq"],
            "reference": {"kind": "analytic"}}
    data.update(overrides)
    cfg = write_config(tmp_path / "cfg.json", data)
    rc = main(["convergence", "--config", cfg, "--seed", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert field in capsys.readouterr().err


#: the flags each subcommand reads; every other run-input flag is refused
COMMAND_FLAGS = {
    "fit": {"seed", "out", "method", "order", "pool", "oversample", "workers"},
    "convergence": {"seed", "out", "pool", "oversample", "workers"},
    "select-points": {"seed", "out", "order", "pool"},
    "mc": {"seed", "out", "samples", "workers"},
}
FLAG_VALUES = {"seed": "1", "out": "o", "method": "wlsq", "order": "2", "pool": "50",
               "oversample": "1.5", "workers": "1", "samples": "10"}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, command, flag):
    # an accepted flag gets as far as reading the (missing) config file
    argv = [command, "--config", str(tmp_path / "missing.json"), f"--{flag}", FLAG_VALUES[flag]]
    if flag in COMMAND_FLAGS[command]:
        assert main(argv) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("flag, key", [("0", 0), ("abc", "abc")])
def test_flag_and_config_values_share_one_check(tmp_path, capsys, flag, key):
    base = {"model": {"name": "ode"}, "method": "wlsq", "order": 2}
    flag_cfg = write_config(tmp_path / "flag.json", base)
    key_cfg = write_config(tmp_path / "key.json", {**base, "pool": key})
    out = str(tmp_path / "o")
    assert main(["fit", "--config", flag_cfg, "--seed", "1", "--out", out, "--pool", flag]) == 2
    from_flag = capsys.readouterr().err
    assert main(["fit", "--config", key_cfg, "--seed", "1", "--out", out]) == 2
    assert capsys.readouterr().err == from_flag
    assert "'pool'" in from_flag
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("order", 2.7), ("pool", 1.5), ("workers", 1e-3)])
def test_int_field_refuses_a_non_integral_number(tmp_path, capsys, field, value):
    base = {"model": {"name": "ode"}, "method": "wlsq", "order": 2, "pool": 50}
    flag_cfg = write_config(tmp_path / "flag.json", base)
    key_cfg = write_config(tmp_path / "key.json", {**base, field: value})
    out = str(tmp_path / "o")
    assert main(["fit", "--config", flag_cfg, "--seed", "1", "--out", out,
                 f"--{field}", str(value)]) == 2
    from_flag = capsys.readouterr().err
    assert main(["fit", "--config", key_cfg, "--seed", "1", "--out", out]) == 2
    assert capsys.readouterr().err == from_flag
    assert f"config field {field!r} must be an integer, got {value!r}" in from_flag
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, change, label",
    [
        ("fit", {"seed": True}, "'seed'"),
        ("fit", {"order": True}, "'order'"),
        ("fit", {"oversample": True}, "'oversample'"),
        ("fit", {"model": {"name": "ode", "t": False}}, "'model.t'"),
        ("fit", {"model": {"name": "burgers", "n_grid": 21.5}}, "'model.n_grid'"),
        ("convergence", {"orders": [2, 3.5], "reference": {"kind": "analytic"}}, "'orders[1]'"),
        ("select-points", {"space": [{"kind": "uniform", "lower": True}]}, "'space[0].lower'"),
    ],
    ids=["seed-bool", "order-bool", "oversample-bool", "model-float-bool", "burgers-n-grid",
         "orders-entry", "space-bound-bool"],
)
def test_number_fields_refuse_booleans_and_fractions(tmp_path, capsys, command, change, label):
    config = {"model": {"name": "ode"}, "method": "wlsq", "order": 2, "pool": 50, **change}
    if command == "select-points":
        config = {"order": 2, "pool": 50, **change}
    elif command == "convergence":
        del config["method"], config["order"]
    cfg = write_config(tmp_path / "cfg.json", config)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if "seed" not in change:
        argv += ["--seed", "1"]
    assert main(argv) == 2
    assert f"config field {label} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, change, flags, label",
    [
        ("fit", {"oversample": math.inf}, [], "config field 'oversample'"),
        ("fit", {}, ["--oversample", "inf"], "config field 'oversample'"),
        ("fit", {"order": math.nan}, [], "config field 'order'"),
        ("fit", {"model": {"name": "ode", "t": math.inf}}, [], "config field 'model.t'"),
        ("fit", {"model": {"name": "burgers", "n_grid": 11, "s_mean": [math.inf, 0.1]}}, [],
         "model: s_mean"),
        ("fit", {"model": {"name": "burgers", "n_grid": 11, "s_std": [math.inf, 0.02]}}, [],
         "model: s_std"),
        ("select-points", {"space": [{"kind": "gaussian", "std": -math.inf}]}, [],
         "config field 'space[0].std'"),
    ],
    ids=["oversample", "oversample-flag", "order", "ode-t", "burgers-s-mean", "burgers-s-std",
         "space-std"],
)
def test_non_finite_numbers_exit_2_naming_the_field(tmp_path, capsys, command, change, flags,
                                                    label):
    config = {"model": {"name": "ode"}, "method": "wlsq", "order": 2, "pool": 50, **change}
    if command == "select-points":
        config = {"order": 2, "pool": 50, **change}
    cfg = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--seed", "1", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {label} must be finite" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_int_field_takes_an_integral_float(tmp_path):
    base = {"model": {"name": "ode"}, "method": "wlsq", "order": 2, "pool": 50}
    for name, order in (("int", 2), ("float", 2.0), ("string", "2")):
        cfg = write_config(tmp_path / f"{name}.json", {**base, "order": order})
        assert main(["fit", "--config", cfg, "--seed", "1", "--out", str(tmp_path / name)]) == 0
    want = (tmp_path / "int" / "moments.csv").read_bytes()
    assert (tmp_path / "float" / "moments.csv").read_bytes() == want
    assert (tmp_path / "string" / "moments.csv").read_bytes() == want


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("fit", {"model": {"name": "ode"}, "order": 2}, "'method' or --method"),
        ("fit", {"model": {"name": "ode"}, "method": "wlsq"}, "'order' or --order"),
        ("fit", {"method": "wlsq", "order": 2}, "'model'"),
        ("convergence", {"model": {"name": "ode"}, "orders": [1]}, "'reference'"),
        ("convergence", {"model": {"name": "ode"}, "reference": {"kind": "analytic"}},
         "'orders'"),
        ("select-points", {"space": [{"kind": "uniform"}]}, "'order' or --order"),
        ("select-points", {"order": 2}, "'space'"),
        ("mc", {"model": {"name": "ode"}}, "'samples' or --samples"),
    ],
)
def test_missing_field_names_command_and_field(tmp_path, capsys, command, config, field):
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert f"{command} needs config field {field}" in capsys.readouterr().err


def test_fit_refuses_an_oversized_measurement(tmp_path, capsys):
    # 10^6 points x 286 terms would take 2.1 GiB before the first model call
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"name": "ishigami"}, "method": "wlsq", "order": 10, "pool": 1_000_000},
    )
    start = time.perf_counter()
    assert main(["fit", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "configuration error: pool of 1000000: measurement matrix of 1000000 points x " \
           "286 terms would take 2.1 GiB" in err


@pytest.mark.parametrize("command,config", [
    ("fit", {"method": "smolyak", "order": 26}),
    ("convergence", {"orders": [2, 26], "methods": ["smolyak"],
                     "reference": {"kind": "analytic"}}),
])
def test_sparse_rule_too_large_exits_2(tmp_path, capsys, command, config):
    # level 27 on Ishigami's three inputs would hold more than 2,000,000 nodes
    cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "ishigami"}, **config})
    assert main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: chaos order 26: sparse rule exceeds 2000000 nodes " \
           "(m=3, level=27)" in err
