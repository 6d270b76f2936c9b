"""Run a fixed matrix of CLI runs and keep every output file, for byte diffs.

    python tools/cli_matrix.py OUT_DIR

Each run gets its own directory under OUT_DIR holding its ``config.json`` and
the files ``segpc`` wrote there.  The runs cover ``fit`` with every method on
the ODE, Ishigami and 10-input Burgers (N = 11) models plus one se-gPC fit
oversampled past P + 1 points, the order-10 Ishigami se-gPC fit at 108
points (286 terms) and order-3 and order-4 se-gPC fits of a 4-input Burgers
model, ``convergence`` against an analytic reference, ``select-points`` on a
mixed Gaussian/uniform space and on Ishigami at order 8 (165 terms), and
``mc`` on Ishigami and on Burgers at N = 11 and at N = 21, Re = 250 (100
samples).
Configs and seeds are fixed, so a refactor that keeps the numbers shows no
difference in

    diff -r OUT_DIR_BEFORE OUT_DIR_AFTER

between a run on the parent checkout and one on the change.  The ``segpc``
package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from segpc.cli import main  # noqa: E402

ODE = {"name": "ode", "t": 1.0}
ISHIGAMI = {"name": "ishigami"}
BURGERS = {"name": "burgers", "n_grid": 11}

#: run name -> (subcommand, seed, config)
RUNS = {
    "fit-ode-segpc": ("fit", 3, {"model": ODE, "method": "segpc", "order": 7, "pool": 2000}),
    # 5 se-gPC points for P+1 = 3: the plan continues past its pivots
    "fit-ode-segpc-oversampled": ("fit", 3, {"model": ODE, "method": "segpc", "order": 2,
                                             "pool": 500, "oversample": 2.5}),
    "fit-ode-wlsq": ("fit", 3, {"model": ODE, "method": "wlsq", "order": 4, "pool": 2000,
                                "oversample": 1.5}),
    "fit-ode-smolyak": ("fit", 3, {"model": ODE, "method": "smolyak", "order": 3}),
    "fit-ishigami-segpc": ("fit", 3, {"model": ISHIGAMI, "method": "segpc", "order": 6,
                                      "oversample": 2.0}),
    # 286 terms at 108 points: the largest basis gradient, and a 21^3 tensor rule;
    # at 144 points the 576 x 286 least-squares solve's bits follow the BLAS threads
    "fit-ishigami-segpc-p10": ("fit", 3, {"model": ISHIGAMI, "method": "segpc", "order": 10,
                                          "pool": 10_000, "oversample": 1.5}),
    "fit-ishigami-wlsq": ("fit", 3, {"model": ISHIGAMI, "method": "wlsq", "order": 4,
                                     "pool": 2000, "oversample": 1.5}),
    "fit-ishigami-smolyak": ("fit", 3, {"model": ISHIGAMI, "method": "smolyak", "order": 4}),
    "fit-burgers-segpc": ("fit", 3, {"model": BURGERS, "method": "segpc", "order": 2,
                                     "pool": 2000}),
    "fit-burgers-wlsq": ("fit", 3, {"model": BURGERS, "method": "wlsq", "order": 1,
                                    "pool": 2000, "oversample": 2.0}),
    "fit-burgers-smolyak": ("fit", 3, {"model": BURGERS, "method": "smolyak", "order": 2}),
    # 4 inputs at order 3: the tensor-grid higher moments at m = 4
    "fit-burgers4-segpc": ("fit", 3, {"model": {**BURGERS, "s_mean": [-0.5, -0.1, 0.1, 0.01]},
                                      "method": "segpc", "order": 3, "pool": 2000,
                                      "oversample": 2.0}),
    # order 4: suffixes of three factors in the basis gradient
    "fit-burgers4-segpc-p4": ("fit", 3, {"model": {**BURGERS, "s_mean": [-0.5, -0.1, 0.1, 0.01]},
                                         "method": "segpc", "order": 4, "pool": 2000,
                                         "oversample": 2.0}),
    "convergence-ishigami": ("convergence", 7, {"model": ISHIGAMI, "orders": [1, 2, 3],
                                                "pool": 2000,
                                                "reference": {"kind": "analytic"}}),
    "select-points-mixed": ("select-points", 2, {
        "space": [{"kind": "gaussian", "mean": 4.0, "std": 0.4},
                  {"kind": "uniform", "lower": -2.0, "upper": 5.0},
                  {"kind": "gaussian"}],
        "order": 3, "pool": 2000,
    }),
    # 165 terms: the ranking runs several blocks of picks (20 terms above fit in one)
    "select-points-ishigami": ("select-points", 4, {"model": ISHIGAMI, "order": 8,
                                                    "pool": 2000}),
    "mc-ishigami": ("mc", 1, {"model": ISHIGAMI, "samples": 2000}),
    "mc-burgers": ("mc", 5, {"model": BURGERS, "samples": 40}),
    # the burgers-mc benchmark's grid: several blocks of samples solved together
    "mc-burgers21": ("mc", 9, {"model": {"name": "burgers", "n_grid": 21, "re": 250.0},
                               "samples": 100}),
}


def run_matrix(out_dir):
    """Run every entry of ``RUNS`` into ``out_dir``; returns the sorted file list."""
    out_dir = Path(out_dir)
    for name, (command, seed, config) in RUNS.items():
        run_dir = out_dir / name
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg = run_dir / "config.json"
        cfg.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        rc = main([command, "--config", str(cfg), "--seed", str(seed), "--out", str(run_dir)])
        if rc != 0:
            raise RuntimeError(f"run {name!r} exited {rc}")
    return sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_matrix.py OUT_DIR")
    files = run_matrix(sys.argv[1])
    print(f"{len(RUNS)} runs, {len(files)} files in {sys.argv[1]}")
