"""Alternating parent/change pairs of the repository benchmark.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent REV [--change REV] --workload W \\
        --pairs N --first-seed S --name NAME

Pair k runs ``python3 perfbench/run.py --workload W --seed S+k --seconds T
--trace 0`` once on each commit, each run in a fresh ``git archive`` of its
commit, so that no run reuses the bytecode or files another left. The
side that runs first alternates from pair to pair: the parent on even k.
N is at least 2, the fewest runs that have quartiles.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

The pairs go into ``BENCH_NAME.json`` at the repository root, under
``workloads[W]``: each side's operation counts and, for every end-to-end
metric of ``BENCHMARK.json``, its per-pair values, median and quartiles
(``statistics.quantiles``, exclusive method); then the number of pairs in
which the change reads better, ties counting for neither, and the seeds.
The entries of other workloads already in the file are kept, so one file
gathers the runs of several invocations.

After the runs it prints one line per end-to-end metric with its verdict
(``verdict``), which the entry keeps under ``verdicts``: ``unresolved``
when the parent's quartile distance exceeds the metric's ``bound`` in
``BENCHMARK.json`` (both relative to the parent's median), else
``regression`` when the change's median is worse than the parent's by
more than that bound, else ``gain`` when the change reads better in at
least 9 of every 10 pairs and its median is better by more than the
parent's quartile distance, else ``no change``.

    python3 tools/bench_pairs.py --bytes --parent REV [--change REV]

compares output bytes instead of timing. In a fresh ``git archive`` of
each commit, one process runs every operation of ``perfbench/workloads.py``
(``cycle``) for the workloads of BYTES_WORKLOADS, seeds BYTES_SEEDS and
cycles BYTES_CYCLES through ``magfriction.cli.main``: every workload of
the benchmark, so the lines of ``verify --suite all`` are compared too. Both sides share one
directory for the spectrum files and the ``--out``/``--json`` files, so
that the paths the output echoes are the same. For each operation whose
exit code, stdout, stderr, ``--out`` or ``--json`` bytes differ, the first
difference is printed; for a CSV table whose comment lines, header and
row count are equal on both sides, the columns that differ instead, each
with its count of differing cells. The exit status is 1 if any operation
differs.
"""

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BYTES_WORKLOADS = ("oneshot", "sweep-closed", "sweep-numeric", "verify")
BYTES_SEEDS = (0, 1, 2)
BYTES_CYCLES = (0, 1)
OUTPUTS = ("stdout", "stderr", "out", "json")

# Run in a tree with its src and perfbench on the path, as
# ``python -c BYTES_PROGRAM WORK DEST PLAN``, PLAN the JSON list of the
# workloads, seeds and cycles to run: operation i leaves its exit code in
# DEST/index.json and its outputs in DEST/i.<output>, one file for each of
# OUTPUTS that it writes.
BYTES_PROGRAM = """\
import contextlib, io, json, os, shutil, sys
import workloads
from magfriction import cli
work, dest, plan = sys.argv[1:]
names, seeds, cycles = json.loads(plan)
index = []
for workload in names:
    for seed in seeds:
        spectra = workloads.write_spectra(seed, work)
        for k in cycles:
            for j, op in enumerate(workloads.cycle(workload, seed, k, work, spectra)):
                base = os.path.join(dest, str(len(index)))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(op.argv))
                for name, text in (("stdout", out), ("stderr", err)):
                    with open(base + "." + name, "wb") as fh:
                        fh.write(text.getvalue().encode())
                for name, path in (("out", op.out), ("json", op.json_out)):
                    if path and os.path.exists(path):
                        shutil.move(path, base + "." + name)
                index.append({"op": "%s seed %d cycle %d op %d (%s)" % (
                    workload, seed, k, j, op.kind), "exit": rc})
with open(os.path.join(dest, "index.json"), "w") as fh:
    json.dump(index, fh)
"""


def end_to_end():
    """BENCHMARK.json's end-to-end metrics as {name: better} and as
    {name: bound}, and its run length in seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    return ({m["name"]: m["better"] for m in metrics}, {m["name"]: m["bound"] for m in metrics},
            spec["run_seconds"])


def archive(rev, dest):
    """Extract the tree of commit rev into the new directory dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds):
    """The last stdout line of one benchmark run in tree, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=3 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side_summary(runs, metrics):
    """Operation counts and each metric's values, median and quartiles."""
    out = {"failed_ops": sum(r["failed"] for r in runs),
           "attempted_ops": sum(r["attempted"] for r in runs),
           "correct": all(r["correct"] for r in runs)}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}
    return out


def _wins(parent, change, better):
    """The pairs of one metric's values in which the change reads better."""
    pairs = zip(parent["values"], change["values"])
    return sum(c < p if better == "lower" else c > p for p, c in pairs)


def better_pairs(parent, change, metrics):
    """Per metric, "k/N": the pairs in which the change reads better."""
    return {name: "%d/%d" % (_wins(parent[name], change[name], better),
                             len(parent[name]["values"]))
            for name, better in metrics.items()}


def verdict(parent, change, better, bound):
    """The verdict on one metric from each side's summary (side_summary),
    whether lower or higher is ``better``, and its relative ``bound``: see
    the module docstring."""
    median = parent["median"]
    worse_by = change["median"] - median if better == "lower" else median - change["median"]
    spread = parent["q3"] - parent["q1"]
    if spread > bound * abs(median):
        return "unresolved"
    if worse_by > bound * abs(median):
        return "regression"
    if 10 * _wins(parent, change, better) >= 9 * len(parent["values"]) and -worse_by > spread:
        return "gain"
    return "no change"


def summarize(parent_runs, change_runs, metrics, seeds):
    """The workloads entry of one workload's pairs."""
    parent = side_summary(parent_runs, metrics)
    change = side_summary(change_runs, metrics)
    return {"parent": parent, "change": change,
            "change_better_pairs": better_pairs(parent, change, metrics), "seeds": seeds}


def run_pairs(args, metrics, work):
    runs = {"parent": [], "change": []}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            tree = os.path.join(work, "%s-%d" % (side, seed))
            archive(getattr(args, side), tree)
            res = run_once(tree, args.workload, seed, args.seconds)
            runs[side].append(res)
            print("pair %d seed %d %-6s %s" % (k, seed, side, " ".join(
                "%s=%.6g" % (name, res["metrics"][name]["value"]) for name in metrics)),
                flush=True)
    return summarize(runs["parent"], runs["change"], metrics, seeds)


def run_side(tree, work, dest):
    """Every operation of BYTES_PROGRAM run in tree, outputs in the new
    directory dest; returns its index."""
    os.makedirs(dest)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(tree, d) for d in ("src", "perfbench")))
    plan = json.dumps([BYTES_WORKLOADS, BYTES_SEEDS, BYTES_CYCLES])
    proc = subprocess.run([sys.executable, "-c", BYTES_PROGRAM, work, dest, plan], cwd=tree,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("byte run in %s exited %d:\n%s" % (tree, proc.returncode, proc.stderr))
    with open(os.path.join(dest, "index.json")) as fh:
        return json.load(fh)


def _output(dest, i, name):
    try:
        with open(os.path.join(dest, "%d.%s" % (i, name)), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _table(text):
    """(comment lines, rows) of CSV bytes whose every row has the header's
    two or more cells; None for any other output."""
    try:
        lines = text.decode().splitlines()
    except UnicodeDecodeError:
        return None
    rows = list(csv.reader(ln for ln in lines if ln and not ln.startswith("#")))
    if not rows or len(rows[0]) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    return [ln for ln in lines if ln.startswith("#")], rows


def cell_differences(a, b):
    """{column: differing cells} between two CSV tables with equal comment
    lines, header and row count, in header order; None if a or b is not
    such a table."""
    ta, tb = _table(a), _table(b)
    if ta is None or tb is None:
        return None
    (ca, (header, *ra)), (cb, (header_b, *rb)) = ta, tb
    if ca != cb or header != header_b or len(ra) != len(rb):
        return None
    counts = dict.fromkeys(header, 0)
    for x, y in zip(ra, rb):
        for name, p, c in zip(header, x, y):
            counts[name] += p != c
    return {name: n for name, n in counts.items() if n}


def differences(parent, change):
    """One line for each operation whose exit code or outputs differ between
    the (index, dest) of each side, naming its first difference, or the
    differing columns of a CSV table (cell_differences)."""
    (p_index, p_dest), (c_index, c_dest) = parent, change
    lines = []
    if len(p_index) != len(c_index):
        lines.append("the parent runs %d operations, the change %d"
                     % (len(p_index), len(c_index)))
    for i, (p, c) in enumerate(zip(p_index, c_index)):
        if p["op"] != c["op"]:
            lines.append("operation %d: %s at the parent, %s at the change"
                         % (i, p["op"], c["op"]))
            continue
        if p["exit"] != c["exit"]:
            lines.append("%s: exit %s at the parent, %s at the change"
                         % (p["op"], p["exit"], c["exit"]))
            continue
        for name in OUTPUTS:
            a, b = _output(p_dest, i, name), _output(c_dest, i, name)
            if a == b:
                continue
            if a is None or b is None:
                lines.append("%s: only the %s writes %s"
                             % (p["op"], "change" if a is None else "parent", name))
                break
            cells = cell_differences(a, b)
            if cells:
                lines.append("%s: %s differs in %s" % (p["op"], name, ", ".join(
                    "%s (%d cells)" % item for item in cells.items())))
            else:
                k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
                lines.append("%s: %s differs from byte %d: %r at the parent, %r at the change"
                             % (p["op"], name, k, a[k:k + 60], b[k:k + 60]))
            break
    return lines


def byte_diff(parent, change):
    """Print the operations whose output bytes differ; 1 if any, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "work")
        os.makedirs(work)
        sides = []
        for side, rev in (("parent", parent), ("change", change)):
            tree = os.path.join(tmp, side)
            archive(rev, tree)
            dest = os.path.join(tmp, side + "-outputs")
            sides.append((run_side(tree, work, dest), dest))
        lines = differences(*sides)
    for line in lines:
        print(line)
    print("%d differences, %d operations at the parent" % (len(lines), len(sides[0][0])))
    return 1 if lines else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", default="HEAD", help="commit of the change side")
    parser.add_argument("--bytes", action="store_true",
                        help="compare the output bytes of every workload operation")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length of each run")
    parser.add_argument("--name", help="writes BENCH_<name>.json")
    args = parser.parse_args(argv)
    if args.bytes:
        return byte_diff(args.parent, args.change)
    if args.workload is None or args.name is None:
        parser.error("--workload and --name are required without --bytes")
    metrics, bounds, run_seconds = end_to_end()
    if args.seconds is None:
        args.seconds = run_seconds
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be >= 2 and --seconds > 0")
    revs = {}
    for side in ("parent", "change"):
        revs[side] = subprocess.run(["git", "rev-parse", "--short", getattr(args, side)], cwd=ROOT,
                                    capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as work:
        entry = run_pairs(args, metrics, work)
    entry["verdicts"] = {name: verdict(entry["parent"][name], entry["change"][name], better,
                                       bounds[name]) for name, better in metrics.items()}
    path = os.path.join(ROOT, "BENCH_%s.json" % args.name)
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["what"] = (
        "End-to-end metrics of the parent (%s) and of the change (%s): per workload W, "
        "interleaved pairs of `python3 perfbench/run.py --workload W --seed S --seconds %g "
        "--trace 0`, each run from a fresh `git archive` of its commit; the side that runs "
        "first alternates from pair to pair. Made by tools/bench_pairs.py."
        % (revs["parent"], revs["change"], args.seconds))
    doc["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count()}
    doc["workloads"][args.workload] = entry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for name in metrics:
        print("%-12s %-10s parent %.6g  change %.6g  change better %s" % (
            name, entry["verdicts"][name], entry["parent"][name]["median"],
            entry["change"][name]["median"], entry["change_better_pairs"][name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
