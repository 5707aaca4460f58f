"""The pair summary of tools/bench_pairs.py, on made-up runs."""

import argparse
import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", _ROOT / "tools" / "bench_pairs.py")

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


def test_one_pair_is_refused_before_any_run(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("ran %r" % (args,))

    monkeypatch.setattr(bench_pairs, "archive", never)
    monkeypatch.setattr(bench_pairs, "run_once", never)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--workload", "verify", "--pairs", "1",
                          "--name", "one_pair"])
    assert exc.value.code == 2
    assert "--pairs must be >= 2" in capsys.readouterr().err


def test_metrics_are_the_benchmark_end_to_end_set():
    metrics, bounds, seconds = bench_pairs.end_to_end()
    assert metrics == {"op_s.p50": "lower", "rows_per_s": "higher", "setup_s": "lower",
                       "peak_rss_mb": "lower"}
    assert bounds == {"op_s.p50": 0.25, "rows_per_s": 0.25, "setup_s": 0.25,
                      "peak_rss_mb": 0.1}
    assert seconds > 0


# ten parent values with median 10.0 and exclusive quartiles 9.8 and 10.2
PARENT = [9.8, 10.2, 9.7, 10.3, 10.0, 10.0, 9.9, 10.1, 9.8, 10.2]


def _side(values):
    return bench_pairs.side_summary(
        [{"failed": 0, "attempted": 1, "correct": True, "metrics": {"m": {"value": v}}}
         for v in values], ["m"])["m"]


def _verdict(change, better="lower", bound=0.1):
    return bench_pairs.verdict(_side(PARENT), _side(change), better, bound)


@pytest.mark.parametrize("change,better,want", [
    # better in all ten pairs by more than the quartile distance, 0.4
    ([v - 0.5 for v in PARENT], "lower", "gain"),
    ([v + 0.5 for v in PARENT], "higher", "gain"),
    # nine pairs of ten are enough; eight are not
    ([v - 0.5 for v in PARENT[:9]] + [PARENT[9] + 0.5], "lower", "gain"),
    ([v - 0.5 for v in PARENT[:8]] + [v + 0.5 for v in PARENT[8:]], "lower", "no change"),
    # ten wins, but the medians differ by less than the quartile distance
    ([v - 0.3 for v in PARENT], "lower", "no change"),
    # worse by 20% of the parent's median against a bound of 10%
    ([v + 2.0 for v in PARENT], "lower", "regression"),
    ([v - 2.0 for v in PARENT], "higher", "regression"),
    # worse by 5%: inside the bound
    ([v + 0.5 for v in PARENT], "lower", "no change"),
])
def test_verdict_on_made_up_pairs(change, better, want):
    assert _verdict(change, better) == want


def test_a_parent_spread_past_the_bound_is_unresolved():
    # quartile distance 0.4 on a median of 10: 4%, past a bound of 3%,
    # however far the change moves
    for change in ([v - 5.0 for v in PARENT], [v + 5.0 for v in PARENT], PARENT):
        assert _verdict(change, bound=0.03) == "unresolved"
    assert _verdict([v - 5.0 for v in PARENT], bound=0.05) == "gain"


def test_a_workload_run_prints_one_verdict_line_per_metric(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench_pairs, "archive", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
        {"name": "op_s.p50", "better": "lower", "bound": 0.25},
        {"name": "rows_per_s", "better": "higher", "bound": 0.25}]}))

    def run_once(tree, workload, seed, seconds):
        # op_s.p50 falls by 0.5 at the change in every pair; rows_per_s stays
        side = Path(tree).name.split("-")[0]
        return _run(PARENT[seed] - (0.5 if side == "change" else 0.0), 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: argparse.Namespace(stdout="abc1234\n"))
    assert bench_pairs.main(["--parent", "p", "--workload", "verify", "--pairs", "10",
                             "--name", "made_up"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "op_s.p50     gain       parent 10  change 9.5  change better 10/10",
        "rows_per_s   no change  parent 1  change 1  change better 0/10"]
    doc = json.loads((tmp_path / "BENCH_made_up.json").read_text())
    assert doc["workloads"]["verify"]["verdicts"] == {"op_s.p50": "gain",
                                                      "rows_per_s": "no change"}


def test_byte_diff_reports_a_one_byte_difference(monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "archive", lambda rev, dest: None)

    def run_side(tree, work, dest):
        Path(dest).mkdir()
        last = b"1.5\n" if Path(tree).name == "change" else b"1.0\n"
        for i, body in enumerate([b"a,b\n1.0\n", b"a,b\n" + last]):
            (Path(dest) / ("%d.stdout" % i)).write_bytes(body)
            (Path(dest) / ("%d.stderr" % i)).write_bytes(b"")
        return [{"op": "sweep-closed seed 0 cycle 0 op %d (pair)" % i, "exit": 0} for i in (0, 1)]

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(["--bytes", "--parent", "p", "--change", "c"]) == 1
    assert capsys.readouterr().out == (
        "sweep-closed seed 0 cycle 0 op 1 (pair): stdout differs from byte 6: "
        "b'0\\n' at the parent, b'5\\n' at the change\n"
        "1 differences, 2 operations at the parent\n")


def test_byte_diff_names_the_differing_columns_of_a_table(monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "archive", lambda rev, dest: None)
    parent = b"# units: reduced\nd,g_xx,g_zz\n1.0,2.0,8.0\n1.5,0.1,0.7023319615912209\n"
    tables = {
        "parent": [parent, parent, b"a,b\n1,2\n"],
        # one cell differs; two columns differ; the header differs
        "change": [parent.replace(b"0.7023319615912209", b"0.7023319615912208"),
                   parent.replace(b"2.0,8.0", b"2.5,8.5").replace(b"0.1,0.7", b"0.2,0.7"),
                   b"a,c\n1,2\n"],
    }

    def run_side(tree, work, dest):
        Path(dest).mkdir()
        for i, body in enumerate(tables[Path(tree).name]):
            (Path(dest) / ("%d.stdout" % i)).write_bytes(b"")
            (Path(dest) / ("%d.out" % i)).write_bytes(body)
        return [{"op": "oneshot seed 0 cycle 0 op %d (fields)" % i, "exit": 0} for i in range(3)]

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(["--bytes", "--parent", "p", "--change", "c"]) == 1
    assert capsys.readouterr().out == (
        "oneshot seed 0 cycle 0 op 0 (fields): out differs in g_zz (1 cells)\n"
        "oneshot seed 0 cycle 0 op 1 (fields): out differs in g_xx (2 cells), g_zz (1 cells)\n"
        "oneshot seed 0 cycle 0 op 2 (fields): out differs from byte 2: "
        "b'b\\n1,2\\n' at the parent, b'c\\n1,2\\n' at the change\n"
        "3 differences, 3 operations at the parent\n")


def test_byte_runs_cover_every_benchmark_workload():
    # verify's battery lines are compared as well as the commands' output
    workloads = _load("workloads", _ROOT / "perfbench" / "workloads.py")
    assert bench_pairs.BYTES_WORKLOADS == workloads.WORKLOADS
