"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ishigami-p10 --seed 1 --seconds 20 --trace 0

Set-up (import, inputs from ``--seed``, one untimed warm-up unit) is timed
here and in two fresh child processes; ``setup_s`` is the median of the
three.  Then units run back to back, one process, one model worker, for
``--seconds``.  Before each unit, and between the stages of a unit, one
pass of a fixed mix of work gauges the host's speed (calibrate.py); the
end-to-end times are scaled to a host of the reference speed, and the time
of the passes is left out.  Each unit's outputs are checked; failures
count against ``ok_ratio``.  If the warm-up unit, or every timed unit of a kind the
metrics need, fails, the run prints the counts with ``correct: false`` and
exits 1.  With ``--trace 1`` every other unit runs with spans around the
library's layers (see spans.py) and the run reports per-layer metrics in
place of the end-to-end ones.

Human-readable metric lines and a ``detail`` JSON line (environment, errors
against the references, counted against predicted cost) come first; the
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The same record, and in
traced runs the spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 3
#: gauge passes before and after the warm-up unit of a set-up
SETUP_PASSES = 3
#: one BLAS thread: on a 2-core host it is as fast as two at these matrix
#: sizes, and two ran 10x slower whenever another process kept a core busy
BLAS_THREADS = 1
#: the keys of workloads.WORKLOADS, listed here because that module is only
#: imported inside the timed set-up
WORKLOADS = ["ishigami-p10", "burgers-mc", "burgers-segpc", "cli-convergence"]


def pin_blas_threads():
    """Fix the BLAS thread count before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def set_up(name, seed, workdir):
    """Import the library, build the workload's inputs and run the warm-up unit.

    Returns (workload, warm-up result, seconds taken at the reference speed,
    wall seconds taken); the warm-up result is None if that unit failed.  The
    time of the gauge's passes is left out of both.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import segpc
    from segpc.errors import SegpcError
    import workloads
    from calibrate import Gauge

    if not Path(segpc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"segpc was imported from {segpc.__file__}, not from this checkout")
    workload = workloads.WORKLOADS[name]()
    workload.setup(workdir)
    gauge = Gauge(workload.memory_share)
    gauge.pause(SETUP_PASSES)
    try:
        warm = workload.unit(workloads.unit_seed(seed, 0, workload.distinct_units), gauge.pause)
    except (SegpcError, workloads.CheckFailed) as exc:
        print(f"warm-up unit failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        warm = None
    gauge.pause(SETUP_PASSES)
    wall = time.perf_counter() - start - gauge.spent
    return workload, warm, wall * gauge.scale(), wall


def child_set_up(name, seed):
    """Time one set-up in a fresh interpreter (cold imports and first BLAS calls)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_wall_s"]


def git_commit():
    """The checkout's commit; None outside a git repository or without git."""
    # the ceiling keeps git from taking the commit of a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def run_units(workload, seed, seconds, warm, tracer):
    """Run units for ``seconds``; every other one traced when ``tracer`` is given.

    Returns per-unit records, the timed phase's wall time and the gauge of
    the host's speed; the gauge's passes are left out of both times.  A
    record's ``scale`` takes its wall time to the reference host speed, from
    the passes just before, during and just after the unit.
    """
    from segpc.errors import SegpcError
    import workloads
    from calibrate import Gauge, no_pause
    from spans import traced

    signatures = {workloads.unit_seed(seed, 0, workload.distinct_units): repr(warm.signature)}
    records = []
    gauge = Gauge(workload.memory_share)
    min_units = 2 if tracer else 1
    start = time.perf_counter()
    k = 0
    while k < min_units or time.perf_counter() - start < seconds:
        unit_seed = workloads.unit_seed(seed, k, workload.distinct_units)
        is_traced = tracer is not None and k % 2 == 1
        if is_traced:
            tracer.unit = k
        record = {"unit": k, "traced": is_traced, "ok": False}
        gauge.pause()
        record["first_pass"] = len(gauge.samples) - 1
        t0, paused = time.perf_counter(), gauge.spent
        try:
            with traced(tracer) if is_traced else nullcontext():
                # no passes inside traced units, so no span holds one
                result = workload.unit(unit_seed, no_pause if is_traced else gauge.pause)
            record["s"] = time.perf_counter() - t0 - (gauge.spent - paused)
            signature = repr(result.signature)
            if signatures.setdefault(unit_seed, signature) != signature:
                raise workloads.CheckFailed(f"unit {k}: outputs differ from an earlier unit at seed {unit_seed}")
            record.update(ok=True, model_evals=result.model_evals)
        except (SegpcError, workloads.CheckFailed) as exc:
            record.setdefault("s", time.perf_counter() - t0 - (gauge.spent - paused))
            print(f"unit {k} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        records.append(record)
        k += 1
    elapsed = time.perf_counter() - start - gauge.spent
    gauge.pause()
    ends = [r["first_pass"] for r in records[1:]] + [len(gauge.samples) - 1]
    for record, end in zip(records, ends):
        record["scale"] = gauge.scale(record.pop("first_pass"), end)
    return records, elapsed, gauge


def report_failure(attempted, passed):
    """Print the counts of a run with no passing unit to time; return exit code 1."""
    print(json.dumps({
        "correct": False,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {"ok_ratio": {"value": passed / attempted, "unit": "ratio"}},
    }))
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="segpc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        workload, warm, setup_s, setup_wall_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        if warm is None:
            return report_failure(attempted=1, passed=0)
        setup_runs = [(setup_s, setup_wall_s)]
        if not args.trace:
            setup_runs += [child_set_up(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]

        from spans import Tracer, layer_metrics

        tracer = Tracer() if args.trace else None
        records, elapsed, gauge = run_units(workload, args.seed, args.seconds, warm, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    upc = workload.units_per_call
    ok = [r for r in records if r["ok"]]
    failed = len(records) - len(ok)
    plain = [r["s"] for r in ok if not r["traced"]]
    traced_s = [r["s"] for r in ok if r["traced"]]
    if not plain or (args.trace and not traced_s):
        return report_failure(attempted=len(records), passed=len(ok))
    wall_unit_s_p50 = statistics.median(plain) / upc
    gauged_s = [r["s"] * r["scale"] for r in records]
    unit_s_p50 = statistics.median(g for g, r in zip(gauged_s, records) if r["ok"] and not r["traced"]) / upc
    model_evals = statistics.median(r["model_evals"] for r in ok) / upc
    errors = {"err_mean": 0.0, "err_std": 0.0, "err_sobol": 0.0, **warm.errors}
    if args.trace:
        layers = layer_metrics(tracer, [r["unit"] for r in ok if r["traced"]], upc)
        layers["bench.trace_overhead"] = (statistics.median(traced_s) / upc / wall_unit_s_p50, "ratio")
        for key, value in errors.items():
            layers[f"bench.{key}"] = (value, "1")
        metrics = layers
    else:
        metrics = {
            "throughput": (len(ok) * upc / sum(gauged_s), "1/s"),
            "unit_s_p50": (unit_s_p50, "s"),
            "model_evals": (model_evals, "count"),
            "ok_ratio": (len(ok) / len(records), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(s for s, _ in setup_runs), "s"),
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "units": len(records),
        "units_per_call": upc,
        "timed_s": elapsed,
        "unit_s": [r.get("s") for r in records],
        "setup_runs_s": [s for s, _ in setup_runs],
        "host": {
            "unit_scale": [r["scale"] for r in records],
            "memory_share": gauge.memory_share,
            "core_pass_s_median": statistics.median(c for c, _ in gauge.samples),
            "memory_pass_s_median": statistics.median(m for _, m in gauge.samples),
            "passes": len(gauge.samples),
            "paused_s": gauge.spent,
            "wall_throughput": len(ok) * upc / elapsed,
            "wall_unit_s_p50": wall_unit_s_p50,
            "wall_setup_runs_s": [w for _, w in setup_runs],
        },
        "errors": {**errors, **workload.resolution},
        "cost": {
            "model_evals": model_evals,
            "predicted_cost": warm.predicted / upc if warm.predicted else None,
            "adjoint_to_solve": metrics.get("burgers.adjoint_to_solve", (None,))[0],
        },
    }
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        (OUT / f"spans-{suffix}.json").write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:.6g} {unit}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
