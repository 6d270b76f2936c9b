"""The pair summary of tools/bench_pairs.py on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

END_TO_END = [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "unit_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "model_evals", "unit": "count", "better": "lower", "bound": 0.05},
]


def load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_PATH)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def result_line(throughput, unit_s, evals=1.0):
    """Benchmark output: a metric line, a detail line, then the result object."""
    metrics = {"throughput": {"value": throughput, "unit": "1/s"},
               "unit_s_p50": {"value": unit_s, "unit": "s"},
               "model_evals": {"value": evals, "unit": "count"}}
    return "\n".join([
        f"throughput {throughput} 1/s",
        "detail " + json.dumps({"workload": "burgers-mc"}),
        json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}),
    ])


def summary(pairs_module, parent, change):
    read = pairs_module.metric_values
    pairs = [(read(pairs_module.result_of(p)), read(pairs_module.result_of(c)))
             for p, c in zip(parent, change)]
    return {row["name"]: row for row in pairs_module.summarize(pairs, END_TO_END)}


def test_a_clear_gain_wins_nine_tenths_and_beats_the_spread():
    pairs = load_pairs()
    parent = [result_line(1900 + 10 * i, 1 / (1900 + 10 * i)) for i in range(10)]
    # the change wins nine pairs and loses the last one
    change = [result_line(2150 + 10 * i, 1 / (2150 + 10 * i)) for i in range(9)]
    change.append(result_line(1980, 1 / 1980))
    rows = summary(pairs, parent, change)
    throughput = rows["throughput"]
    assert (throughput["wins"], throughput["losses"], throughput["pairs"]) == (9, 1, 10)
    assert throughput["parent"] == pytest.approx((1922.5, 1945.0, 1967.5))
    assert throughput["verdict"] == "gain"
    # lower is better for the unit time
    assert rows["unit_s_p50"]["wins"] == 9
    assert rows["unit_s_p50"]["verdict"] == "gain"
    # equal counts: no wins, no losses, no regression
    evals = rows["model_evals"]
    assert (evals["wins"], evals["losses"], evals["verdict"]) == (0, 0, "no regression")
    assert evals["relative"] == 0.0


def test_eight_wins_are_no_gain_and_a_drop_past_the_bound_is_worse():
    pairs = load_pairs()
    parent = [result_line(2000 + i, 0.0005) for i in range(10)]
    change = [result_line(2100, 0.0005)] * 8 + [result_line(1000, 0.0005)] * 2
    rows = summary(pairs, parent, change)
    assert rows["throughput"]["wins"] == 8
    assert rows["throughput"]["verdict"] == "no regression"
    worse = summary(pairs, parent, [result_line(1400, 0.0007)] * 10)
    assert worse["throughput"]["verdict"] == "worse"
    assert worse["unit_s_p50"]["verdict"] == "worse"
    assert worse["throughput"]["relative"] == pytest.approx(1400 / 2004.5 - 1)


def test_a_spread_wider_than_the_bound_is_unresolved():
    pairs = load_pairs()
    parent = [result_line(t, 0.0005) for t in (1000, 1500, 2000, 2500, 3000)]
    change = [result_line(t, 0.0005) for t in (1100, 1400, 2000, 2400, 3100)]
    rows = summary(pairs, parent, change)
    assert rows["throughput"]["verdict"] == "unresolved"
    # unless every change run beats every parent run
    change = [result_line(t, 0.0005) for t in (3200, 3300, 3400, 3500, 3600)]
    assert summary(pairs, parent, change)["throughput"]["verdict"] == "gain"


def test_summary_table_names_each_metric_and_its_verdict():
    pairs = load_pairs()
    parent = [result_line(2000, 0.0005)] * 3
    change = [result_line(2200, 0.00045)] * 3
    read = pairs.metric_values
    rows = pairs.summarize(
        [(read(pairs.result_of(p)), read(pairs.result_of(c))) for p, c in zip(parent, change)],
        END_TO_END,
    )
    table = pairs.format_rows("burgers-mc", rows).splitlines()
    assert table[0] == "burgers-mc: median [q1, q3] over 3 pairs"
    assert table[1].split()[:2] == ["throughput", "parent"]
    assert "+10.0%" in table[1] and "won 3/3, lost 0" in table[1]
    assert table[1].endswith("gain")
    # equal counts print as no change, not as -0.0%
    assert "+0.0%" in table[3] and table[3].endswith("no regression")
    assert len(table) == 1 + len(END_TO_END)


def test_a_run_without_a_result_line_is_refused():
    pairs = load_pairs()
    with pytest.raises(ValueError):
        pairs.result_of("")


def test_several_workloads_print_a_table_each_and_name_what_is_worse(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    # canned runs: burgers-segpc gains on both sides; burgers-mc's change
    # is slower, with its unit time and evaluation count unchanged
    canned = {
        ("burgers-segpc", parent): result_line(30.0, 0.033, 22),
        ("burgers-segpc", change): result_line(36.0, 0.027, 22),
        ("burgers-mc", parent): result_line(2000.0, 0.0005, 16),
        ("burgers-mc", change): result_line(1400.0, 0.0005, 16),
    }
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((workload, checkout.name, seed))
        return pairs.metric_values(pairs.result_of(canned[workload, checkout]))

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "burgers-segpc", "burgers-mc",
            "--seeds", "1", "2", "--seconds", "1"]
    assert pairs.main(argv) == 1
    # one workload after the other, the parent first on even-numbered pairs
    assert runs == [
        ("burgers-segpc", "parent", 1), ("burgers-segpc", "change", 1),
        ("burgers-segpc", "change", 2), ("burgers-segpc", "parent", 2),
        ("burgers-mc", "parent", 1), ("burgers-mc", "change", 1),
        ("burgers-mc", "change", 2), ("burgers-mc", "parent", 2),
    ]
    lines = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(lines) if "median [q1, q3]" in line]
    assert [lines[i] for i in heads] == [
        "burgers-segpc: median [q1, q3] over 2 pairs",
        "burgers-mc: median [q1, q3] over 2 pairs",
    ]
    # each table follows its own workload's pair lines
    assert lines[heads[0] - 1].startswith("burgers-segpc pair 2 seed 2 (change then parent)")
    assert lines[heads[1] - 1].startswith("burgers-mc pair 2 seed 2 (change then parent)")
    segpc_rows = lines[heads[0] + 1 : heads[0] + 1 + len(END_TO_END)]
    verdicts = ("gain", "gain", "no regression")
    assert all(row.endswith(verdict) for row, verdict in zip(segpc_rows, verdicts))
    assert lines[-1] == "worse: burgers-mc throughput"


def test_the_last_line_reads_none_when_nothing_is_worse():
    pairs = load_pairs()
    read = pairs.metric_values
    even = [(read(pairs.result_of(result_line(2000, 0.0005))),) * 2] * 3
    tables = [("ishigami-p10", pairs.summarize(even, END_TO_END)),
              ("cli-convergence", pairs.summarize(even, END_TO_END))]
    assert pairs.worse_line(tables) == "worse: none"
    assert pairs.worse_line([]) == "worse: none"


def test_a_gain_line_names_each_metric_judged_gain_before_the_worse_line(
    tmp_path, monkeypatch, capsys
):
    pairs = load_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    canned = {
        ("ishigami-p10", parent): result_line(13.9, 0.072, 288),
        ("ishigami-p10", change): result_line(16.5, 0.061, 288),
        ("burgers-mc", parent): result_line(2000.0, 0.0005, 16),
        ("burgers-mc", change): result_line(2000.0, 0.0005, 16),
    }
    monkeypatch.setattr(pairs, "run_once", lambda checkout, workload, seed, seconds:
                        pairs.metric_values(pairs.result_of(canned[workload, checkout])))
    argv = [str(parent), str(change), "--workload", "ishigami-p10", "burgers-mc",
            "--seeds", "1", "2", "--seconds", "1"]
    assert pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["gain: ishigami-p10 throughput, ishigami-p10 unit_s_p50",
                          "worse: none"]
    even = [(pairs.metric_values(pairs.result_of(result_line(2000, 0.0005))),) * 2] * 3
    assert pairs.verdict_line([("burgers-mc", pairs.summarize(even, END_TO_END))],
                              "gain") == "gain: none"
