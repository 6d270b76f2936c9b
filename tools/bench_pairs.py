"""Run alternating benchmark pairs of two checkouts and compare their end-to-end metrics.

    python tools/bench_pairs.py PARENT CHANGE --workload burgers-mc burgers-segpc \\
        --seeds 701 702 703 704 705 706 707 708 709 710 --seconds 20

PARENT and CHANGE are two checkouts of this repository (a ``git clone`` or
``git archive`` of each commit).  For each workload W in turn, and each seed
S, the script runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
both, the parent first on even-numbered pairs and the change first on odd
ones, and reads the result object on the last line of each run's output.
The metric names, their units, which direction is better and their
regression bounds come from ``BENCHMARK.json`` in PARENT.

For each workload it prints a table: for each end-to-end metric, both
sides' medians and quartiles, the pairs the change won (ties count for
neither side) and a verdict:

- ``gain``: the change won at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's quartile spread;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's quartile spread is wider than the bound and
  not every change run is better than every parent run;
- ``no regression`` otherwise.

A last line names every workload's metric judged ``worse`` (``worse:
none`` if there is none), and the script then exits 1 if there is one.  A
run that fails (no result line) aborts the script with its output.
Nothing under ``perfbench/`` is changed, but each run writes its record to
that checkout's ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: a gain needs the change to win at least this share of the pairs
MIN_WIN_SHARE = 0.9


def result_of(stdout):
    """The result object on the last line of a benchmark run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def metric_values(result):
    """{metric name: value} of one result object."""
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, end_to_end):
    """Compare each end-to-end metric over ``pairs`` of (parent, change) metric dicts.

    ``end_to_end`` lists the metrics as ``BENCHMARK.json`` does: dicts with
    ``name``, ``unit``, ``better`` ("higher" or "lower") and ``bound``.
    Returns one dict per metric present in every run.
    """
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in parent and name in change for parent, change in pairs):
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        spread = p_q3 - p_q1
        gain = sign * (c_med - p_med) + 0.0  # no -0.0 for equal medians
        # the relative change of the median, positive when the change is better
        relative = gain / abs(p_med) if p_med else (0.0 if gain == 0 else float("inf"))
        if wins >= MIN_WIN_SHARE * len(pairs) and gain > spread:
            verdict = "gain"
        elif -relative > spec["bound"]:
            verdict = "worse"
        elif spread > spec["bound"] * abs(p_med) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)
        ):
            verdict = "unresolved"
        else:
            verdict = "no regression"
        rows.append({
            "name": name, "unit": spec["unit"], "better": spec["better"],
            "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "relative": relative, "wins": wins, "losses": losses,
            "pairs": len(pairs), "verdict": verdict,
        })
    return rows


def format_rows(workload, rows):
    """The summary table, one line per metric."""
    lines = [f"{workload}: median [q1, q3] over {rows[0]['pairs'] if rows else 0} pairs"]
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        lines.append(
            f"  {row['name']:12s} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
            f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {row['unit']}  "
            f"{row['relative']:+.1%} ({row['better']} is better)  "
            f"won {row['wins']}/{row['pairs']}, lost {row['losses']}  {row['verdict']}"
        )
    return "\n".join(lines)


def worse_line(tables):
    """The last line: each (workload, rows) table's metrics judged worse, or none."""
    worse = [f"{workload} {row['name']}" for workload, rows in tables
             for row in rows if row["verdict"] == "worse"]
    return "worse: " + (", ".join(worse) if worse else "none")


def run_once(checkout, workload, seed, seconds):
    """Metric values of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"run in {checkout} (seed {seed}) exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    return metric_values(result_of(proc.stdout))


def run_pairs(parent, change, workload, seeds, seconds):
    """(parent, change) metric dicts of one alternating pair per seed, each printed."""
    checkouts = {"parent": parent, "change": change}
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_once(checkouts[side], workload, seed, seconds) for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"{workload} pair {i + 1} seed {seed} ({' then '.join(order)}): " + json.dumps(
            {side: {k: round(v, 6) for k, v in got[side].items()} for side in checkouts}
        ), flush=True)
    return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    tables = []
    for workload in args.workload:
        pairs = run_pairs(args.parent, args.change, workload, args.seeds, args.seconds)
        tables.append((workload, summarize(pairs, spec["end_to_end"])))
        print(format_rows(*tables[-1]), flush=True)
    line = worse_line(tables)
    print(line)
    return 0 if line == "worse: none" else 1


if __name__ == "__main__":
    sys.exit(main())
