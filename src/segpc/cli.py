"""Command-line front end.

Subcommands: ``fit``, ``convergence``, ``select-points``, ``mc``.  A run is
described by a JSON config document.  :data:`FIELDS` states each run input
once (kind, default, least value, help); its config key and its flag share
one name, and the flag wins over the config.  :data:`COMMANDS` gives each
subcommand the flags it reads and the fields it needs: any other flag, and
any config key nothing reads, exits 2.  The seed must be given explicitly
(config or ``--seed``): there is no silent default, so identical config +
seed yields byte-identical output files.

Exit codes: 0 success, 2 configuration/validation error, 3 solver error.

Each command runs at one thread of numpy's and scipy's bundled OpenBLAS
(:func:`_one_blas_thread`), so its output bytes do not depend on the BLAS
thread count the process started with; both counts are restored on exit.

CSV files carry a schema comment line starting with ``#``; all floats are
written with ``repr`` (shortest round-trip), undefined moments as ``nan``.
Regression fits read ``DesignPlan.take`` of one ``rank_pool`` plan per order,
ranked once as far as the run's fits read it; se-gPC fits go through the
library's ``fit_segpc``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import scipy

from .burgers import BurgersModel
from .design import rank_pool
from .errors import SegpcError
from .models import ExponentialDecayModel, IshigamiModel
from .orthopoly import ChaosBasis
from .parallel import evaluate_values
from .postproc import higher_moments, sobol_total, square_keys_overflow, square_row_count
from .quadrature import monte_carlo_moments, quadrature_fit, smolyak_rule
from .regression import fit_segpc, fit_wlsq, segpc_point_count
from .spaces import MARGINALS, StochasticSpace

METHODS = ("segpc", "wlsq", "smolyak")


#: run input -> (kind, default or None, least value or None, help); each name
#: is both its config key and its ``--flag``
FIELDS = {
    "seed": (int, None, 0, "RNG seed (required here or in the config)"),
    "out": (Path, ".", None, "output directory"),
    "method": (str, None, None, "fit method: " + ", ".join(METHODS)),
    "order": (int, None, 0, "chaos order p"),
    "pool": (int, 10000, 1, "candidate pool size"),
    "oversample": (float, 1.0, 1.0, "equations / unknowns ratio (>= 1)"),
    "workers": (int, 1, 1, "worker processes for model evaluations"),
    "samples": (int, None, None, "Monte-Carlo sample count"),
}


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _number(kind, value, field, finite=True):
    """``value`` as ``kind``, or a ConfigError naming the config field.

    A string is read as its number, so a flag and a config entry get the
    same check.  No number is a boolean, an int field takes only an
    integral number, and NaN or an infinity is refused unless ``finite`` is
    false.
    """
    if kind not in (int, float):
        try:
            return kind(value)
        except TypeError:
            raise ConfigError(f"config field {field!r} must be a path, got {value!r}") from None
    number = value
    if isinstance(value, str):
        for read in (int, float):
            try:
                number = read(value)
                break
            except ValueError:
                pass
    if isinstance(number, bool) or not isinstance(number, (int, float)):
        raise ConfigError(f"config field {field!r} must be a number, got {value!r}")
    if finite and isinstance(number, float) and not math.isfinite(number):
        raise ConfigError(f"config field {field!r} must be finite, got {number!r}")
    if kind is int and isinstance(number, float) and not number.is_integer():
        raise ConfigError(f"config field {field!r} must be an integer, got {number!r}")
    return kind(number)


def _field(name, value, label):
    """``value`` as FIELDS[name]: its kind, at least its least value; errors name ``label``."""
    kind, _, least, _ = FIELDS[name]
    value = _number(kind, value, label)
    _require(least is None or value >= least,
             f"config field {label!r} must be >= {least}, got {value}")
    return value


def _method(value, label):
    _require(value in METHODS, f"config field {label!r} must be one of {METHODS}, got {value!r}")


def _known(entry, keys, prefix=""):
    """Refuse a config key that nothing reads, naming it."""
    for key in entry:
        _require(key in keys, f"unknown config key {prefix + key!r}; known here: {', '.join(keys)}")


def _checked(what, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or a ConfigError naming ``what`` when it refuses them."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def build_space(entries):
    """Construct a StochasticSpace from a config marginal list."""
    _require(isinstance(entries, list) and entries, "config field 'space' must be a non-empty list")
    marginals = []
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"space[{i}] must be an object")
        kind = entry.get("kind")
        kinds = " or ".join(map(repr, MARGINALS))
        _require(kind in list(MARGINALS), f"space[{i}].kind must be {kinds}, got {kind!r}")
        marginal = MARGINALS[kind]
        _known(entry, ["kind", *(f.name for f in fields(marginal))], f"space[{i}].")
        params = {
            f.name: _number(float, entry.get(f.name, f.default), f"space[{i}].{f.name}")
            for f in fields(marginal)
        }
        marginals.append(_checked(f"space[{i}]", marginal, **params))
    return StochasticSpace(marginals)


#: model name -> (class, {config field: its number kind, or None to pass it as given})
MODELS = {
    "ode": (ExponentialDecayModel, {"t": float}),
    "ishigami": (IshigamiModel, {"alpha": float, "beta": float}),
    "burgers": (BurgersModel, {"s_mean": None, "s_std": None, "re": float, "n_grid": int}),
}


def build_model(entry):
    """Construct a built-in model from a config object; absent fields take its defaults."""
    _require(isinstance(entry, dict), "config field 'model' must be an object")
    name = entry.get("name")
    _require(name in list(MODELS),
             f"model.name must be one of {', '.join(map(repr, MODELS))}, got {name!r}")
    cls, kinds = MODELS[name]
    _known(entry, ["name", *kinds], "model.")
    params = {
        key: entry[key] if kind is None else _number(kind, entry[key], f"model.{key}")
        for key, kind in kinds.items() if key in entry
    }
    return _checked("model", cls, **params)


class RunConfig:
    """Validated run configuration: each field from its flag, else the config, else its default."""

    def __init__(self, data, args):
        _known(data, [*FIELDS, "model", "space", "orders", "methods", "reference"])
        for name, (_, default, _, _) in FIELDS.items():
            given = (getattr(args, name, None), data.get(name), default)
            value = next((v for v in given if v is not None), None)
            setattr(self, name, None if value is None else _field(name, value, name))
        if self.method is not None:
            _method(self.method, "method")
        orders = data.get("orders")
        _require(orders is None or (isinstance(orders, list) and orders),
                 f"config field 'orders' must be a list of at least one order, got {orders!r}")
        self.orders = None if orders is None else [
            _field("order", order, f"orders[{i}]") for i, order in enumerate(orders)
        ]
        self.methods = data.get("methods", list(METHODS))
        _require(isinstance(self.methods, list) and self.methods,
                 f"config field 'methods' must be a non-empty list, got {self.methods!r}")
        for i, method in enumerate(self.methods):
            _method(method, f"methods[{i}]")
        self.reference = data.get("reference")
        _require(self.reference is None or isinstance(self.reference, dict),
                 f"config field 'reference' must be an object, got {self.reference!r}")
        _known(self.reference or {}, ["kind", "path"], "reference.")
        self.model = build_model(data["model"]) if "model" in data else None
        self.space = build_space(data["space"]) if "space" in data else (
            self.model.space if self.model is not None else None
        )
        _require(self.model is None or "space" not in data,
                 "config fields 'model' and 'space' exclude each other: "
                 "a model brings its own space")


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


def _write_csv(path, schema, header, rows, comments=()):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# segpc {schema} v1"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(row[key]) for key in header))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


MOMENTS = ("mean", "std", "skewness", "kurtosis")

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
        **asdict(report),
    }
    for key in MOMENTS:
        row[f"err_{key}"] = _relative_or_abs(row[key], (reference or {}).get(key))
    return row


def analytic_reference(model):
    """The model's exact first four moments, for the models that state them."""
    _require(hasattr(model, "exact_moments"),
             "analytic reference is only available for models with closed-form moments, "
             f"not {model.name!r}; supply a Monte-Carlo reference file instead "
             "(reference kind 'mc-file')")
    return model.exact_moments()


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
    for key in MOMENTS:
        _require(key in row, f"reference.path {path} has no {key!r} column")
        # a moments file writes an undefined moment as nan
        reference[key] = _number(float, row[key], f"reference.path column {key}", finite=False)
    return reference


def resolve_reference(config):
    ref = config.reference
    if ref is None:
        return None
    kind = ref.get("kind")
    if kind == "analytic":
        return analytic_reference(config.model)
    if kind == "mc-file":
        _require("path" in ref, "config field 'reference.path' is required for kind 'mc-file'")
        return reference_from_file(ref["path"])
    raise ConfigError(f"reference.kind must be 'analytic' or 'mc-file', got {kind!r}")


def _points_read(config, method, basis):
    """Sample points a ``wlsq`` or ``segpc`` fit reads at ``basis``'s order."""
    base = basis.n_terms if method == "wlsq" else segpc_point_count(basis.n_terms, basis.m)
    return math.ceil(config.oversample * base)


def _ranked(config, basis, reads):
    """The ``rank_pool`` plan of the configured pool and seed, ranked now up to ``reads`` points.

    Errors of the pool, and of the ranking that read computes, name the pool.
    """
    what = f"pool of {config.pool}"
    plan = _checked(what, rank_pool, basis, config.pool, config.seed)
    _checked(what, plan.take, min(reads, plan.n_selected))
    return plan


class Orders:
    """Each chaos order's basis, and its pool ranking once a regression fit needs it.

    An order's plan is ranked at once as far as the most points any of the
    run's ``methods`` reads there, so its later reads rank nothing and every
    fit of the run at that order shares one basis and one ranking.
    """

    def __init__(self, config, methods):
        self.config = config
        self.regressions = [method for method in methods if method != "smolyak"]
        self.bases, self.plans = {}, {}

    def basis(self, order):
        if order not in self.bases:
            self.bases[order] = _checked(f"chaos order {order}", ChaosBasis,
                                         self.config.model.space, order)
        return self.bases[order]

    def plan(self, order):
        if order not in self.plans:
            basis = self.basis(order)
            reads = max(_points_read(self.config, method, basis) for method in self.regressions)
            self.plans[order] = _ranked(self.config, basis, reads)
        return self.plans[order]


def run_fit(config, method, order, orders):
    """Fit a surrogate by ``method`` at chaos ``order``; returns (surrogate, report).

    ``orders`` (an :class:`Orders`) supplies the order's basis and, for a
    regression fit, its ranked pool.  The sparse-grid method ranks nothing.
    """
    model = config.model
    basis = orders.basis(order)
    if method == "smolyak":
        rule = _checked(f"chaos order {order}", smolyak_rule, model.space, order + 1)
        surrogate = quadrature_fit(basis, rule, model, workers=config.workers)
    else:
        n_points = _points_read(config, method, basis)
        _require(n_points <= config.pool,
                 f"pool of {config.pool} cannot supply {n_points} sample points")
        plan = orders.plan(order)
        if method == "segpc":
            surrogate = fit_segpc(basis, plan, model, n_points, workers=config.workers)
        else:
            points, w_sqrt = plan.take(n_points)
            values = evaluate_values(model, points, workers=config.workers)
            surrogate = fit_wlsq(basis, points, w_sqrt, values)
        _note_rank_deficiency(method, basis, surrogate.fit_report)
    report = higher_moments(surrogate)
    if math.isnan(report.kurtosis) and square_keys_overflow(basis.m, order):
        print(f"segpc: note: skewness and kurtosis at m = {basis.m}, order {order} are NaN: "
              f"the {square_row_count(basis.m, order):,} rows of the squared expansion "
              "would overflow its int64 merge keys", file=sys.stderr)
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
    surrogate, report = run_fit(config, config.method, config.order,
                                Orders(config, [config.method]))
    config.out.mkdir(parents=True, exist_ok=True)
    surrogate.save_json(config.out / "surrogate.json")
    row = moments_row(config.model.name, config.space.m, config.order, report, reference)
    if report.variance > 0:
        sobol = sobol_total(surrogate)
        comments = ["sobol_total=" + ";".join(repr(float(x)) for x in sobol.total_indices)]
    else:
        comments = []
    _write_csv(config.out / "moments.csv", "moments-csv", MOMENT_COLUMNS, [row], comments)
    return 0


def cmd_convergence(config):
    reference = resolve_reference(config)
    rows = []
    orders = Orders(config, config.methods)
    for method in config.methods:
        for order in config.orders:
            _, report = run_fit(config, method, order, orders)
            rows.append(moments_row(config.model.name, config.space.m, order,
                                    report, reference))
    _write_csv(config.out / "convergence.csv", "convergence-csv", MOMENT_COLUMNS, rows)
    return 0


def cmd_select_points(config):
    basis = _checked(f"chaos order {config.order}", ChaosBasis, config.space, config.order)
    _require(config.pool >= basis.n_terms,
             f"pool of {config.pool} is smaller than the {basis.n_terms} unknowns")
    plan = _ranked(config, basis, basis.n_terms)
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


#: subcommand -> (runner, the flags it reads besides --config/--seed/--out, the fields it needs)
COMMANDS = {
    "fit": (cmd_fit, ("method", "order", "pool", "oversample", "workers"),
            ("seed", "model", "method", "order")),
    "convergence": (cmd_convergence, ("pool", "oversample", "workers"),
                    ("seed", "model", "orders", "reference")),
    "select-points": (cmd_select_points, ("order", "pool"), ("seed", "space", "order")),
    "mc": (cmd_mc, ("samples", "workers"), ("seed", "model", "samples")),
}


@functools.lru_cache(maxsize=None)
def _openblas_thread_calls():
    """The (get, set) thread-count calls of the OpenBLAS numpy and scipy bundle.

    {"numpy": calls, "scipy": calls}, each read from ``<package>.libs``, or
    None where the library or its calls are not found.
    """
    calls = {}
    # numpy's OpenBLAS has the 64-bit-integer interface, named with a suffix
    for package, suffix in ((np, "64_"), (scipy, "")):
        name = package.__name__
        calls[name] = None
        for path in sorted(Path(package.__file__).parents[1].glob(f"{name}.libs/*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            calls[name] = (get, set_)
            break
    return calls


@contextmanager
def _one_blas_thread():
    """Run the body on one thread of numpy's and scipy's OpenBLAS, then restore their counts.

    Products and solves large enough for OpenBLAS to split over threads
    then give the same bits whatever thread count the caller set.  A
    package whose OpenBLAS thread calls are not found runs unpinned, with a
    note on stderr.
    """
    restore = []
    for name, calls in _openblas_thread_calls().items():
        if calls is None:
            print(f"segpc: note: no thread control found for {name}'s OpenBLAS; it runs "
                  "unpinned, so output bytes may follow the BLAS thread count", file=sys.stderr)
            continue
        get, set_ = calls
        restore.append((set_, get()))
        set_(1)
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="segpc",
        description="Sensitivity-enhanced polynomial chaos surrogates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in COMMANDS.items():
        command = sub.add_parser(name)
        command.add_argument("--config", required=True, help="path to the JSON run config")
        for flag in ("seed", "out", *flags):
            command.add_argument(f"--{flag}", help=FIELDS[flag][3])
    args = parser.parse_args(argv)
    runner, _, needs = COMMANDS[args.command]
    with _one_blas_thread():
        try:
            config = RunConfig(load_config(args.config), args)
            for name in needs:
                _require(getattr(config, name) is not None,
                         f"{args.command} needs config field {name!r}"
                         + (f" or --{name}" if name in FIELDS else ""))
            return runner(config)
        except ConfigError as exc:
            print(f"segpc: configuration error: {exc}", file=sys.stderr)
            return 2
        except SegpcError as exc:
            print(f"segpc: solver error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
