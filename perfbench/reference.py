"""Compute the Burgers reference moments the benchmark scores against.

Runs ``segpc.monte_carlo_moments`` on the benchmark's Burgers configuration
(N=21 grid, Re=250, the 10 nominal Gaussian inlet coefficients) and writes
the moments with their provenance to ``perfbench/burgers_reference.json``.
The file is checked in; rerun this only when the configuration changes:

    python3 perfbench/reference.py

It draws ``SAMPLES`` samples from ``SEED``, about a minute per 1000 samples
on one core.
"""

import json
import math
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import segpc  # noqa: E402
from workloads import BURGERS_GRID, BURGERS_RE, burgers  # noqa: E402

REFERENCE_PATH = HERE / "burgers_reference.json"
SAMPLES = 8000
SEED = 20221


def main():
    model = burgers()
    t0 = time.perf_counter()
    report, samples = segpc.monte_carlo_moments(model.space, model, SAMPLES, SEED)
    elapsed = time.perf_counter() - t0
    n = SAMPLES
    # standard errors: mean std/sqrt(n); std ~ std * sqrt((kurt - 1) / (4 n))
    record = {
        "what": "Monte-Carlo moments of the Burgers exit kinetic energy",
        "function": "segpc.monte_carlo_moments",
        "samples": n,
        "seed": SEED,
        "grid": BURGERS_GRID,
        "re": BURGERS_RE,
        "inlet": "segpc.NOMINAL_INLET_COEFFS, std = |mean| / 5, Gaussian",
        "mean": report.mean,
        "std": report.std,
        "skewness": report.skewness,
        "kurtosis": report.kurtosis,
        "mean_stderr": report.std / math.sqrt(n),
        "std_stderr": report.std * math.sqrt((report.kurtosis - 1.0) / (4.0 * n)),
        "samples_finite": bool(np.all(np.isfinite(samples))),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "elapsed_s": round(elapsed, 1),
    }
    REFERENCE_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
