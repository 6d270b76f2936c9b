"""The benchmark's four workloads, each driving the public ``segpc`` API.

A workload builds its fixed inputs once (``setup``) and then runs units
(``unit``), each drawing its pool or samples from a seed: unit ``k`` of a
run uses ``unit_seed(seed, k, ...)``.  The warm-up unit and the first timed
unit share a seed, so every run repeats at least one unit and checks that
the two give bit-identical results.

A workload's ``resolution`` holds the relative standard errors of a
sampled reference (empty where the reference is exact).

``memory_share`` is the share of a unit's time spent evaluating a chaos
basis on arrays over 32 MB (``orthopoly.eval_s`` over the unit time in a
traced run, rounded): only ``burgers-segpc`` has such evaluations, in the
surrogate Monte Carlo of ``higher_moments`` (10^5 points a chunk).  The
host-speed gauge weighs its memory part by it (see calibrate.py).

A unit takes a ``pause`` callable; the se-gPC pipelines call it between
their stages and between the chunks of the surrogate Monte Carlo.  The
benchmark times the host there (see calibrate.py) and takes that time out
of the unit's.

Every unit returns a :class:`UnitResult`.  A unit fails on a ``SegpcError``,
a nonzero CLI exit, a non-finite output or a failed check; the caller counts
those failures.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import segpc
import segpc.cli
from calibrate import no_pause

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "burgers_reference.json"

BURGERS_GRID = 21
BURGERS_RE = 250.0
POOL = 10_000


def burgers():
    """The criterion-8 Burgers model: N=21, Re=250, 10 Gaussian inlet coefficients."""
    return segpc.burgers_model(re=BURGERS_RE, n_grid=BURGERS_GRID)


def burgers_reference():
    """Reference mean/std of the Burgers exit energy (see reference.py)."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_resolution(reference):
    """Relative standard errors of a Monte-Carlo reference's mean and std.

    An ``err_mean`` or ``err_std`` below these cannot be told from the
    reference's own sampling error.
    """
    return {
        "ref_mean_rel_stderr": reference["mean_stderr"] / abs(reference["mean"]),
        "ref_std_rel_stderr": reference["std_stderr"] / reference["std"],
    }


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


class CheckFailed(Exception):
    """A unit produced an output that fails the benchmark's correctness check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class CheckedModel:
    """Forwards to a model and checks every value and gradient it returns is finite."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def values(self, points):
        vals = self._model.values(points)
        _require(np.all(np.isfinite(vals)), f"{self._model.name}: non-finite QoI value")
        return vals

    def value_and_grad(self, xi):
        ev = self._model.value_and_grad(xi)
        _require(
            math.isfinite(ev.value) and np.all(np.isfinite(ev.gradient)),
            f"{self._model.name}: non-finite QoI value or gradient at {list(xi)}",
        )
        return ev


class PausingSurrogate:
    """Forwards to a surrogate and calls ``pause`` after each ``eval``.

    ``higher_moments`` evaluates the surrogate in chunks of 10^5 points for
    ~5 s; pausing between chunks lets the host-speed gauge sample the speed
    during that stage, not only around it.
    """

    def __init__(self, surrogate, pause):
        self._surrogate = surrogate
        self._pause = pause

    def __getattr__(self, name):
        return getattr(self._surrogate, name)

    def eval(self, points):
        values = self._surrogate.eval(points)
        self._pause()
        return values


@dataclass
class UnitResult:
    """What one unit produced.

    ``signature`` holds the output floats compared bit for bit across
    repeated units at one seed; ``model_evals`` is the counted model cost
    (direct + adjoint evaluations) and ``predicted`` the cost model's count
    for the same fits.
    """

    signature: tuple
    model_evals: int
    predicted: int | None
    errors: dict


def _moments_signature(moments, sobol=None):
    sig = (moments.mean, moments.std, moments.skewness, moments.kurtosis)
    if sobol is not None:
        sig += tuple(float(x) for x in sobol.total_indices)
    _require(all(math.isfinite(x) for x in sig), f"non-finite moments {sig}")
    return sig


def _segpc_pipeline(basis, model, seed, n_points, pause):
    """Pool -> weights -> measurement -> QR selection -> se-gPC fit -> moments -> Sobol."""
    space = model.space
    pool = space.sample_pool(POOL, seed)
    weights = segpc.coherence_weights(space, pool.points)
    meas = segpc.build_measurement(basis, pool, weights)
    pause()
    plan = segpc.qr_select(meas, basis.n_terms)
    pause()
    surrogate = segpc.fit_segpc(basis, plan, model, n_points=n_points, workers=1)
    _require(np.all(np.isfinite(surrogate.coefficients)), "non-finite chaos coefficients")
    pause()
    moments = segpc.higher_moments(PausingSurrogate(surrogate, pause))
    pause()
    sobol = segpc.sobol_total(surrogate)
    return surrogate, moments, sobol


class IshigamiP10:
    """Ishigami (m=3) se-gPC at order 10, 144 points (oversampling 2, criterion 1)."""

    name = "ishigami-p10"
    units_per_call = 1
    memory_share = 0.0
    resolution = {}
    distinct_units = False
    order = 10
    n_points = 144

    def setup(self, workdir):
        self.model = CheckedModel(segpc.ishigami_model())
        self.basis = segpc.ChaosBasis(self.model.space, self.order)

    def unit(self, seed, pause=no_pause):
        surrogate, moments, sobol = _segpc_pipeline(
            self.basis, self.model, seed, self.n_points, pause
        )
        errors = {
            "err_mean": _rel(moments.mean, segpc.ishigami_mean()),
            "err_std": _rel(moments.std, math.sqrt(segpc.ishigami_variance())),
            "err_sobol": float(
                np.max(np.abs(sobol.total_indices - segpc.ishigami_sobol_total()))
            ),
        }
        # the criterion-1 tolerances; Sobol held to the same 0.01 as the mean
        _require(errors["err_mean"] < 0.01, f"mean error {errors['err_mean']:.3e}")
        _require(errors["err_std"] < 0.02, f"std error {errors['err_std']:.3e}")
        _require(errors["err_sobol"] < 0.01, f"Sobol error {errors['err_sobol']:.3e}")
        return UnitResult(
            signature=_moments_signature(moments, sobol),
            model_evals=surrogate.fit_report.evaluation_count,
            predicted=segpc.predicted_cost("segpc", 3, self.order),
            errors=errors,
        )


class BurgersMC:
    """Monte-Carlo moments of the Burgers exit energy, ``units_per_call`` samples a call."""

    name = "burgers-mc"
    units_per_call = 16
    memory_share = 0.0
    distinct_units = True

    def setup(self, workdir):
        self.model = burgers()
        self.reference = burgers_reference()
        self.resolution = reference_resolution(self.reference)

    def unit(self, seed, pause=no_pause):
        report, samples = segpc.monte_carlo_moments(
            self.model.space, self.model, self.units_per_call, seed, workers=1
        )
        _require(np.all(np.isfinite(samples)), "non-finite Burgers QoI sample")
        _require(np.all(samples > 0.0), "non-positive exit kinetic energy")
        return UnitResult(
            signature=_moments_signature(report) + tuple(samples.tolist()),
            model_evals=report.evaluation_count,
            predicted=None,
            errors={
                "err_mean": _rel(report.mean, self.reference["mean"]),
                "err_std": _rel(report.std, self.reference["std"]),
            },
        )


class BurgersSegpc:
    """Burgers se-gPC at order 2 (66 terms), 11 points (criterion 8)."""

    name = "burgers-segpc"
    units_per_call = 1
    memory_share = 0.8
    distinct_units = False
    order = 2
    n_points = 11

    def setup(self, workdir):
        self.model = CheckedModel(burgers())
        self.basis = segpc.ChaosBasis(self.model.space, self.order)
        self.reference = burgers_reference()
        self.resolution = reference_resolution(self.reference)

    def unit(self, seed, pause=no_pause):
        surrogate, moments, sobol = _segpc_pipeline(
            self.basis, self.model, seed, self.n_points, pause
        )
        return UnitResult(
            signature=_moments_signature(moments, sobol),
            model_evals=surrogate.fit_report.evaluation_count,
            predicted=segpc.predicted_cost("segpc", self.model.dim, self.order),
            errors={
                "err_mean": _rel(moments.mean, self.reference["mean"]),
                "err_std": _rel(moments.std, self.reference["std"]),
            },
        )


class CliConvergence:
    """``segpc convergence`` in process: Ishigami, orders 2-8, three methods."""

    name = "cli-convergence"
    units_per_call = 1
    memory_share = 0.0
    resolution = {}
    distinct_units = False
    orders = [2, 4, 6, 8]
    methods = ["segpc", "wlsq", "smolyak"]

    def setup(self, workdir):
        self.config = workdir / "convergence.json"
        self.out = workdir / "out"
        config = {
            "model": {"name": "ishigami"},
            "orders": self.orders,
            "methods": self.methods,
            "pool": POOL,
            "oversample": 2,
            "reference": {"kind": "analytic"},
        }
        self.config.write_text(json.dumps(config), encoding="utf-8")
        self.reference = {
            "mean": segpc.ishigami_mean(),
            "std": math.sqrt(segpc.ishigami_variance()),
        }

    def unit(self, seed, pause=no_pause):
        argv = ["convergence", "--config", str(self.config), "--seed", str(seed),
                "--out", str(self.out), "--workers", "1"]
        rc = segpc.cli.main(argv)
        _require(rc == 0, f"segpc convergence exited {rc}")
        text = (self.out / "convergence.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(line for line in text.splitlines()
                                   if not line.startswith("#")))
        _require(len(rows) == len(self.orders) * len(self.methods),
                 f"convergence.csv holds {len(rows)} rows")
        for row in rows:
            for key in ("mean", "std", "variance", "skewness", "kurtosis", "err_mean", "err_std"):
                _require(math.isfinite(float(row[key])), f"non-finite {key} in {row}")
        model_evals = sum(int(row["evaluation_count"]) for row in rows)
        predicted = 0
        for row in rows:
            try:
                predicted += segpc.predicted_cost(row["method"], 3, int(row["p"]))
            except ValueError:
                # no closed form for sparse rules beyond p = 3; the cost model
                # defers to the node count of the rule actually built
                predicted += int(row["evaluation_count"])
        top = next(r for r in rows if r["method"] == "segpc" and int(r["p"]) == self.orders[-1])
        errors = {
            "err_mean": _rel(float(top["mean"]), self.reference["mean"]),
            "err_std": _rel(float(top["std"]), self.reference["std"]),
        }
        return UnitResult(
            signature=(text,),
            model_evals=model_evals,
            predicted=predicted,
            errors=errors,
        )


WORKLOADS = {cls.name: cls for cls in (IshigamiP10, BurgersMC, BurgersSegpc, CliConvergence)}


def unit_seed(seed, k, distinct):
    """Pool seed of unit ``k``: the run seed, or one per unit when ``distinct``.

    Unit 0 is both the warm-up and the first timed unit, so it always repeats.
    """
    if not distinct:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
