"""Run-to-run spread of the end-to-end metrics over seeded runs.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads sweep-closed verify --seeds 10 --first-seed 1
    python3 perfbench/spread.py --seeds 10 --passes A B --out perfbench/baseline.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
in its own process, one after the other. Per workload and metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, their distance over the median, beside the metric's bound from
``BENCHMARK.json``. With several passes it also prints how far each pass's
median lies from the first pass's. ``--out`` writes all of it as JSON,
with the raw (not host-adjusted) wall-time medians and reference burst
times of every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    detail = dict(json.loads(lines[-2]), run_wall_s=time.perf_counter() - t0)
    return json.loads(lines[-1]), detail


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--passes", nargs="+", default=["A"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    passes = {}
    env = None
    for name in args.passes:
        passes[name] = {}
        for workload in args.workloads:
            values = {m: [] for m in bounds}
            raw = {"raw_op_s.p50": [], "reference_s": [], "run_wall_s": []}
            kinds = {}
            attempted = failed = 0
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                res, detail = one(workload, seed, args.seconds)
                env = env or {k: v for k, v in detail["env"].items() if k != "seed"}
                attempted += res["attempted"]
                failed += res["failed"]
                for m in bounds:
                    values[m].append(res["metrics"][m]["value"])
                raw["raw_op_s.p50"].append(detail["raw_op_s.p50"])
                raw["reference_s"].append(detail["reference_s"]["median"])
                raw["run_wall_s"].append(detail["run_wall_s"])
                for kind, sec in detail["kind_p50_s"].items():
                    kinds.setdefault(kind, []).append(sec)
            passes[name][workload] = {
                "attempted": attempted, "failed": failed,
                "metrics": {m: summary(v) for m, v in values.items()},
                "wall": {m: summary(v) for m, v in raw.items()},
                "kind_p50_s_range": {k: [min(v), max(v)] for k, v in sorted(kinds.items())},
            }
            for m, s in passes[name][workload]["metrics"].items():
                first = passes[args.passes[0]][workload]["metrics"][m]["median"]
                print("%s %-14s %-12s median %-10.5g spread %.3f (bound %.2f) vs first %+.3f" % (
                    name, workload, m, s["median"], s["spread"], bounds[m], s["median"] / first - 1.0),
                    flush=True)
            print("%s %-14s attempted %d failed %d" % (name, workload, attempted, failed), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"description": "Passes of %d seeded runs per workload (seeds %d..%d), --seconds %g "
                                      "--trace 0, one after the other on the machine described by env."
                                      % (args.seeds, args.first_seed, args.first_seed + args.seeds - 1,
                                         args.seconds),
                       "env": env, "passes": passes}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
