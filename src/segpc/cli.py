"""Command-line front end.

Subcommands: ``fit``, ``convergence``, ``select-points``, ``mc``.  A run is
described by a JSON config document; every recognized command-line flag
overrides its config field.  The seed must be given explicitly (config or
``--seed``): there is no silent default, so identical config + seed yields
byte-identical output files.

Exit codes: 0 success, 2 configuration/validation error, 3 solver error.

CSV files carry a schema comment line starting with ``#``; all floats are
written with ``repr`` (shortest round-trip), undefined moments as ``nan``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .burgers import burgers_model
from .design import build_measurement, coherence_weights, qr_select
from .errors import SegpcError
from .models import ishigami_model, ode_model
from .orthopoly import ChaosBasis
from .parallel import evaluate_values, evaluate_with_gradients
from .postproc import higher_moments, sobol_total
from .quadrature import monte_carlo_moments, quadrature_fit, smolyak_rule, tensor_rule
from .regression import fit_wlsq, segpc_point_count
from .spaces import Gaussian, StochasticSpace, Uniform

METHODS = ("segpc", "wlsq", "smolyak")


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _number(kind, value, field):
    """``kind(value)``, or a ConfigError naming the config field."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config field {field!r} must be a number, got {value!r}") from None


def build_space(entries):
    """Construct a StochasticSpace from a config marginal list."""
    _require(isinstance(entries, list) and entries, "config field 'space' must be a non-empty list")
    marginals = []
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"space[{i}] must be an object")
        kind = entry.get("kind")
        if kind == "gaussian":
            marginal, defaults = Gaussian, {"mean": 0.0, "std": 1.0}
        elif kind == "uniform":
            marginal, defaults = Uniform, {"lower": -1.0, "upper": 1.0}
        else:
            raise ConfigError(f"space[{i}].kind must be 'gaussian' or 'uniform', got {kind!r}")
        params = {
            key: _number(float, entry.get(key, default), f"space[{i}].{key}")
            for key, default in defaults.items()
        }
        try:
            marginals.append(marginal(**params))
        except ValueError as exc:
            raise ConfigError(f"space[{i}]: {exc}") from None
    return StochasticSpace(marginals)


def build_model(entry):
    """Construct a built-in model from a config object."""
    _require(isinstance(entry, dict), "config field 'model' must be an object")
    name = entry.get("name")

    def number(kind, key, default):
        return _number(kind, entry.get(key, default), f"model.{key}")

    try:
        if name == "ode":
            return ode_model(number(float, "t", 1.0))
        if name == "ishigami":
            return ishigami_model(alpha=number(float, "alpha", 7.0),
                                  beta=number(float, "beta", 0.1))
        if name == "burgers":
            return burgers_model(
                s_mean=entry.get("s_mean"),
                s_std=entry.get("s_std"),
                re=number(float, "re", 250.0),
                n_grid=number(int, "n_grid", 31),
            )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    raise ConfigError(f"model.name must be one of 'ode', 'ishigami', 'burgers', got {name!r}")


class RunConfig:
    """Validated run configuration: config file fields with flag overrides."""

    def __init__(self, data, args):
        def pick(flag_name, key, default=None):
            value = getattr(args, flag_name, None)
            if value is not None:
                return value
            return data.get(key, default)

        def number(kind, flag_name, key, default=None):
            return _number(kind, pick(flag_name, key, default), key)

        def optional_int(key):
            value = pick(key, key)
            return None if value is None else _number(int, value, key)

        _require(pick("seed", "seed") is not None, "a seed is required (config 'seed' or --seed)")
        self.seed = number(int, "seed", "seed")
        self.order = optional_int("order")
        self.method = pick("method", "method")
        self.pool = number(int, "pool", "pool", 10000)
        self.oversample = number(float, "oversample", "oversample", 1.0)
        self.workers = number(int, "workers", "workers", 1)
        self.out = Path(pick("out", "out", "."))
        self.samples = optional_int("samples")
        orders = data.get("orders")
        _require(orders is None or isinstance(orders, list),
                 f"config field 'orders' must be a list, got {orders!r}")
        self.orders = None if orders is None else [
            _number(int, order, f"orders[{i}]") for i, order in enumerate(orders)
        ]
        self.methods = data.get("methods", list(METHODS))
        self.reference = data.get("reference")
        self.model = build_model(data["model"]) if "model" in data else None
        self.space = build_space(data["space"]) if "space" in data else (
            self.model.space if self.model is not None else None
        )
        _require(self.pool >= 1, f"pool size must be >= 1, got {self.pool}")
        _require(self.oversample >= 1.0, f"oversampling ratio must be >= 1, got {self.oversample}")
        _require(self.workers >= 1, f"worker count must be >= 1, got {self.workers}")


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    _require(isinstance(data, dict), "config root must be a JSON object")
    return data


def _fmt(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _write_csv(path, schema, header, rows, comments=()):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# segpc {schema} v1"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[key]) for key in header))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


MOMENT_COLUMNS = [
    "model", "method", "m", "p", "evaluation_count",
    "mean", "std", "variance", "skewness", "kurtosis",
    "err_mean", "err_std", "err_skewness", "err_kurtosis",
]


def _relative_or_abs(value, ref):
    """Relative error, falling back to absolute when the reference is ~0."""
    if math.isnan(value) or ref is None or math.isnan(ref):
        return float("nan")
    if abs(ref) < 1e-8:
        return abs(value - ref)
    return abs(value - ref) / abs(ref)


def moments_row(model_name, m, order, report, reference=None):
    row = {
        "model": model_name,
        "m": m,
        "p": order if order is not None else "",
        **report.as_row(),
    }
    ref = reference or {}
    row["err_mean"] = _relative_or_abs(report.mean, ref.get("mean"))
    row["err_std"] = _relative_or_abs(report.std, ref.get("std"))
    row["err_skewness"] = _relative_or_abs(report.skewness, ref.get("skewness"))
    row["err_kurtosis"] = _relative_or_abs(report.kurtosis, ref.get("kurtosis"))
    return row


def analytic_reference(model):
    """First-four-moment reference for the analytic models via dense quadrature."""
    if model.space.m > 4:
        raise ConfigError(
            "analytic reference is only available for low-dimensional built-in "
            "models; supply a Monte-Carlo reference file instead"
        )
    rule = tensor_rule(model.space, 60)
    values = model.values(rule.nodes)
    mean = float(rule.weights @ values)
    centered = values - mean
    var = float(rule.weights @ centered**2)
    skew = float(rule.weights @ centered**3) / var**1.5
    kurt = float(rule.weights @ centered**4) / var**2
    return {"mean": mean, "std": math.sqrt(var), "skewness": skew, "kurtosis": kurt}


def reference_from_file(path):
    """Read the first data row of a moments CSV as a reference."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read reference.path {path}: {exc}") from exc
    lines = [
        line for line in text.splitlines()
        if line and not line.startswith("#")
    ]
    _require(len(lines) >= 2, f"reference file {path} holds no data row")
    header = lines[0].split(",")
    values = lines[1].split(",")
    row = dict(zip(header, values))
    reference = {}
    for key in ("mean", "std", "skewness", "kurtosis"):
        _require(key in row, f"reference.path {path} has no {key!r} column")
        reference[key] = _number(float, row[key], f"reference.path column {key}")
    return reference


def resolve_reference(config):
    ref = config.reference
    if ref is None:
        return None
    _require(isinstance(ref, dict), f"config field 'reference' must be an object, got {ref!r}")
    kind = ref.get("kind")
    if kind == "analytic":
        _require(config.model is not None, "analytic reference needs a model")
        return analytic_reference(config.model)
    if kind == "mc-file":
        _require("path" in ref, "config field 'reference.path' is required for kind 'mc-file'")
        return reference_from_file(ref["path"])
    raise ConfigError(f"reference.kind must be 'analytic' or 'mc-file', got {kind!r}")


def rank_pool(space, basis, pool_size, seed):
    """Seeded candidate pool, its weights and its pivoted-QR ranking.

    Pool -> coherence weights -> measurement -> ``qr_select`` of up to P+1
    points.  The ranking depends only on (basis, pool size, seed), so one
    call serves every method fitted at an order.  Returns
    (pool, weights, plan).
    """
    pool = space.sample_pool(pool_size, seed)
    weights = coherence_weights(space, pool.points)
    meas = build_measurement(basis, pool, weights)
    return pool, weights, qr_select(meas, min(basis.n_terms, pool.q))


def build_plan(ranked, n_points):
    """The first ``n_points`` design points of a ``rank_pool`` ranking.

    The pivoted QR ranks at most P+1 points; oversampled fits draw the
    remainder from the seeded pool in draw order (an i.i.d. continuation).
    Every method at an order slices the same ranking.  Returns
    (points, w_sqrt).
    """
    pool, weights, plan = ranked
    if n_points <= plan.n_selected:
        return plan.points[:n_points], plan.w_sqrt[:n_points]
    extra_needed = n_points - plan.n_selected
    taken = np.zeros(pool.q, dtype=bool)
    taken[plan.selected] = True
    unselected = np.flatnonzero(~taken)
    if extra_needed > unselected.size:
        raise ConfigError(
            f"pool of {pool.q} cannot supply {n_points} sample points"
        )
    extra = unselected[:extra_needed]
    points = np.vstack([plan.points, pool.points[extra]])
    w_sqrt = np.concatenate([plan.w_sqrt, weights[extra]])
    return points, w_sqrt


def run_fit(config, method, order, ranked=None):
    """Fit a surrogate by ``method`` at chaos ``order``; returns (surrogate, report).

    ``ranked`` is a ``rank_pool`` result for this order, pool and seed, made
    here when not given; the sparse-grid method does not use it.
    """
    _require(config.model is not None, "fit needs a 'model' config entry")
    _require(order is not None, "fit needs a chaos order ('order' or --order)")
    _require(method in METHODS, f"method must be one of {METHODS}, got {method!r}")
    model = config.model
    space = model.space
    basis = ChaosBasis(space, order)
    if method == "smolyak":
        rule = smolyak_rule(space, order + 1)
        surrogate = quadrature_fit(basis, rule, model, workers=config.workers)
    else:
        base = basis.n_terms if method == "wlsq" else segpc_point_count(basis.n_terms, space.m)
        n_points = math.ceil(config.oversample * base)
        if ranked is None:
            ranked = rank_pool(space, basis, config.pool, config.seed)
        points, w_sqrt = build_plan(ranked, n_points)
        if method == "wlsq":
            values, gradients = evaluate_values(model, points, workers=config.workers), None
        else:
            values, gradients = evaluate_with_gradients(model, points, workers=config.workers)
        surrogate = fit_wlsq(basis, points, w_sqrt, values, gradients)
        _note_rank_deficiency(method, basis, surrogate.fit_report)
    report = higher_moments(surrogate)
    return surrogate, report


def _note_rank_deficiency(method, basis, fit_report):
    """One stderr line when a regression fit resolves fewer than P+1 directions."""
    n_points, m = fit_report.n_points, basis.m
    if fit_report.rank >= basis.n_terms:
        return
    note = (f"segpc: note: {method} fit at order {basis.order} has rank {fit_report.rank} "
            f"of P+1 = {basis.n_terms} from {n_points} points")
    if basis.order >= 2 and n_points < m + 1:
        note += (f": fewer than m+1 = {m + 1} points at order >= 2 leave the "
                 "directions orthogonal to their affine span unresolved")
    print(note, file=sys.stderr)


def cmd_fit(config):
    reference = resolve_reference(config)
    surrogate, report = run_fit(config, config.method, config.order)
    config.out.mkdir(parents=True, exist_ok=True)
    surrogate.save_json(config.out / "surrogate.json")
    row = moments_row(config.model.name, config.space.m, config.order, report, reference)
    if config.space.m >= 1 and report.variance > 0:
        sobol = sobol_total(surrogate)
        comments = ["sobol_total=" + ";".join(repr(float(x)) for x in sobol.total_indices)]
    else:
        comments = []
    _write_csv(config.out / "moments.csv", "moments-csv", MOMENT_COLUMNS, [row], comments)
    return 0


def cmd_convergence(config):
    _require(config.model is not None, "convergence needs a 'model' config entry")
    orders = config.orders
    _require(orders is not None and len(orders) >= 1, "convergence needs 'orders' (e.g. [1,2,3])")
    for method in config.methods:
        _require(method in METHODS, f"methods entries must be in {METHODS}, got {method!r}")
    reference = resolve_reference(config)
    _require(reference is not None, "convergence needs a 'reference' config entry")
    rows = []
    rankings = {}  # order -> rank_pool result, shared by segpc and wlsq
    for method in config.methods:
        for order in orders:
            if method != "smolyak" and order not in rankings:
                space = config.model.space
                rankings[order] = rank_pool(space, ChaosBasis(space, order),
                                            config.pool, config.seed)
            _, report = run_fit(config, method, order, rankings.get(order))
            rows.append(moments_row(config.model.name, config.space.m, order,
                                    report, reference))
    _write_csv(config.out / "convergence.csv", "convergence-csv", MOMENT_COLUMNS, rows)
    return 0


def cmd_select_points(config):
    _require(config.space is not None, "select-points needs a 'space' or 'model' config entry")
    _require(config.order is not None, "select-points needs a chaos order")
    basis = ChaosBasis(config.space, config.order)
    _require(
        config.pool >= basis.n_terms,
        f"pool of {config.pool} is smaller than the {basis.n_terms} unknowns",
    )
    _, _, plan = rank_pool(config.space, basis, config.pool, config.seed)
    header = ["rank", "pool_index"] + [f"xi_{k + 1}" for k in range(config.space.m)] + ["r_abs"]
    rows = []
    for rank, (idx, point, r_val) in enumerate(
        zip(plan.selected, plan.points, plan.r_diag), start=1
    ):
        row = {"rank": rank, "pool_index": int(idx), "r_abs": float(r_val)}
        for k in range(config.space.m):
            row[f"xi_{k + 1}"] = float(point[k])
        rows.append(row)
    _write_csv(
        config.out / "points.csv", "points-csv", header, rows,
        comments=[f"cond_number={plan.cond_number!r}"],
    )
    return 0


def cmd_mc(config):
    _require(config.model is not None, "mc needs a 'model' config entry")
    _require(config.samples is not None, "mc needs a sample count ('samples' or --samples)")
    n = config.samples
    _require(n >= 2, f"mc needs at least 2 samples, got {n}")
    reference = resolve_reference(config)
    report, trace = monte_carlo_moments(
        config.model.space, config.model, n, config.seed, workers=config.workers
    )
    row = moments_row(config.model.name, config.space.m, None, report, reference)
    _write_csv(config.out / "moments.csv", "moments-csv", MOMENT_COLUMNS, [row])
    trace_rows = [
        {"sample_index": i, "value": float(v)} for i, v in enumerate(trace)
    ]
    _write_csv(config.out / "trace.csv", "trace-csv", ["sample_index", "value"], trace_rows)
    return 0


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, help="RNG seed (required here or in the config)")
    parser.add_argument("--workers", type=int, help="worker processes for model evaluations")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--method", choices=METHODS, help="fit method")
    parser.add_argument("--order", type=int, help="chaos order p")
    parser.add_argument("--pool", type=int, help="candidate pool size")
    parser.add_argument("--oversample", type=float, help="equations / unknowns ratio (>= 1)")
    parser.add_argument("--samples", type=int, help="Monte-Carlo sample count (mc only)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="segpc",
        description="Sensitivity-enhanced polynomial chaos surrogates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in (
        ("fit", cmd_fit),
        ("convergence", cmd_convergence),
        ("select-points", cmd_select_points),
        ("mc", cmd_mc),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(runner=runner)
    args = parser.parse_args(argv)
    try:
        data = load_config(args.config)
        config = RunConfig(data, args)
        return args.runner(config)
    except ConfigError as exc:
        print(f"segpc: configuration error: {exc}", file=sys.stderr)
        return 2
    except SegpcError as exc:
        print(f"segpc: solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
