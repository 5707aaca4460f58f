"""The pair summary of tools/bench_pairs.py, on made-up runs."""

import argparse
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {"op_s.p50": "lower", "rows_per_s": "higher"}


def _run(op_s, rows_per_s, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"op_s.p50": {"value": op_s, "unit": "s"},
                        "rows_per_s": {"value": rows_per_s, "unit": "1/s"}}}


def test_summary_counts_the_pairs_the_change_wins():
    parent = [_run(t, 1.0 / t) for t in (2.0, 4.0, 3.0, 1.0, 5.0)]
    change = [_run(t, r) for t, r in ((1.0, 0.5), (4.0, 0.25), (2.0, 1.0), (2.0, 1.0), (4.0, 1.0))]
    entry = bench_pairs.summarize(parent, change, METRICS, [7, 8, 9, 10, 11])
    # ties count for neither side
    assert entry["change_better_pairs"] == {"op_s.p50": "3/5", "rows_per_s": "2/5"}
    op = entry["parent"]["op_s.p50"]
    assert op["values"] == [2.0, 4.0, 3.0, 1.0, 5.0]
    # the exclusive quartiles: positions 1.5 and 4.5 of the sorted five
    assert (op["median"], op["q1"], op["q3"]) == (3.0, 1.5, 4.5)
    assert entry["parent"]["attempted_ops"] == 500 and entry["parent"]["correct"]
    assert entry["seeds"] == [7, 8, 9, 10, 11]


def test_summary_reports_failed_operations():
    entry = bench_pairs.summarize([_run(1.0, 1.0)] * 2, [_run(1.0, 1.0), _run(1.0, 1.0, 3)],
                                  METRICS, [0, 1])
    assert (entry["change"]["failed_ops"], entry["change"]["correct"]) == (3, False)
    assert entry["parent"]["correct"]


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    order = []
    monkeypatch.setattr(bench_pairs, "archive", lambda rev, dest: None)

    def run_once(tree, workload, seed, seconds):
        order.append(Path(tree).name)
        return _run(1.0, 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = argparse.Namespace(parent="p", change="c", workload="verify", pairs=3,
                              first_seed=4, seconds=1.0)
    entry = bench_pairs.run_pairs(args, METRICS, "work")
    assert order == ["parent-4", "change-4", "change-5", "parent-5", "parent-6", "change-6"]
    assert entry["seeds"] == [4, 5, 6]


def test_metrics_are_the_benchmark_end_to_end_set():
    metrics, seconds = bench_pairs.end_to_end()
    assert metrics == {"op_s.p50": "lower", "rows_per_s": "higher", "setup_s": "lower",
                       "peak_rss_mb": "lower"}
    assert seconds > 0
