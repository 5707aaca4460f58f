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
"""

import argparse
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


def end_to_end():
    """BENCHMARK.json's end-to-end metrics as {name: better}, and its run
    length in seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, spec["run_seconds"]


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


def better_pairs(parent, change, metrics):
    """Per metric, "k/N": the pairs in which the change reads better."""
    counts = {}
    for name, better in metrics.items():
        pairs = list(zip(parent[name]["values"], change[name]["values"]))
        wins = sum(c < p if better == "lower" else c > p for p, c in pairs)
        counts[name] = "%d/%d" % (wins, len(pairs))
    return counts


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", default="HEAD", help="commit of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length of each run")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = parser.parse_args(argv)
    metrics, run_seconds = end_to_end()
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
    for name, count in entry["change_better_pairs"].items():
        print("%-12s parent %.6g  change %.6g  change better %s" % (
            name, entry["parent"][name]["median"], entry["change"][name]["median"], count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
