"""Repository benchmark for magfriction.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Workloads are described in ``workloads.py``. The program is treated as a
black box: operations go through ``magfriction.cli.main`` in this process
or through ``python -m magfriction.cli`` as a cold child process, always
with ``--workers 1``, and every output is checked by ``oracles.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``op_s.p50`` (wall time per operation), ``rows_per_s`` (result rows per
second of operation time), ``setup_s`` (fresh interpreter to first
completed warm-up operation, median of several interpreters) and
``peak_rss_mb`` (this process, or the largest cold child on ``oneshot``).

The host's speed drifts by up to 40% within a minute, so every timing is
host-adjusted: a fixed reference burst (``reference_s``) runs before and
after each timed operation, and the operation's wall time is scaled by
``REF_S`` over the mean of the two bursts. The timings are seconds on a
host where the reference takes ``REF_S``; the raw wall times are in the
detail line. ``op_s.p50`` and ``rows_per_s`` are medians over whole
cycles (every cycle is the same mix of operation kinds), so the median
never falls between two kinds of different cost. With ``--trace 1`` the first half of the time is
measured untraced, then one fixed cycle (cycle 0) runs under the layer
wrappers of ``layers.py`` and the last line carries the per-layer
metrics. The line before the last is a JSON record of the environment
and of details (tail percentile and sample counts, per-kind medians,
failures).

Operations run whole cycles of the workload's operation kinds, so every
run measures the same mix; a new cycle starts only while it is expected
to end within ``--seconds``.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers
import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("op_s.p50", "s"), ("rows_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 5
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
REF_S = 0.015  # nominal time of one reference burst; timings are scaled to it

# Child program for setup_s: fresh interpreter, import, one operation.
SETUP_PROBE = (
    "import contextlib, io, sys\n"
    "from magfriction import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = cli.main(sys.argv[1:])\n"
    "print('ready %d' % rc, flush=True)\n"
)


def _square(x):
    return x * x


def _burst():
    """Fixed interpreter work: arithmetic, calls and dict stores.

    Pure interpreter work tracked the host's speed swings on every workload
    better than bursts with numpy array work in them, even on the
    numpy-heavy free-energy sweep.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(50000):
        acc += (i * 0.5) % 7.0
    table = {}
    for i in range(25000):
        table[str(i)] = _square(i)
    return time.perf_counter() - t0


def reference_s():
    """Current host speed: median of three reference bursts, in seconds."""
    return statistics.median(_burst() for _ in range(3))


def adjusted(seconds, ref_before, ref_after):
    """Wall seconds scaled to a host where the reference takes REF_S."""
    return seconds * REF_S / (0.5 * (ref_before + ref_after))


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


# ------------------------------------------------------------ operations

@dataclasses.dataclass
class Outcome:
    """Result of one operation: exit code, wall seconds, outputs, child RSS."""

    rc: int
    seconds: float
    text: str
    json_text: str = None
    child_rss_mb: float = 0.0


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def run_inprocess(cli, op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception:  # an escaped traceback is a failed operation
            rc = -1
        dt = time.perf_counter() - t0
    text = _read(op.out) if op.out else out.getvalue()
    json_text = _read(op.json_out) if op.json_out else None
    for path in (op.out, op.json_out):
        if path:
            with contextlib.suppress(OSError):
                os.remove(path)
    return Outcome(rc, dt, text, json_text)


def run_cold(op, work):
    """``python -m magfriction.cli`` in a fresh process, reaped with wait4."""
    with open(os.path.join(work, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "magfriction.cli", *op.argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            text = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, dt, text, child_rss_mb=usage.ru_maxrss / 1024.0)


def setup_time(op):
    """Fresh interpreter to the end of its first (warm-up) operation, host-adjusted."""
    ref_before = reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, *op.argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        line = proc.stdout.readline().decode().strip()
        dt = time.perf_counter() - t0
        proc.wait(timeout=OP_TIMEOUT_S)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready 0":
        raise RuntimeError("setup probe failed: %r" % line)
    return adjusted(dt, ref_before, reference_s())


# ----------------------------------------------------------- measurement

class Tally:
    """Timed samples, attempted/failed counts and failure messages."""

    def __init__(self):
        self.samples = []  # (kind, wall seconds, rows, cycle, host-adjusted seconds)
        self.refs = []  # reference burst times
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.child_rss_mb = 0.0
        self.cycles = 0

    def record(self, op, outcome, cycle=None, refs=(REF_S, REF_S)):
        self.attempted += 1
        self.child_rss_mb = max(self.child_rss_mb, outcome.child_rss_mb)
        try:
            if outcome.rc == -9 and op.cold:
                raise oracles.OracleError("timeout after %.0f s" % OP_TIMEOUT_S)
            if outcome.seconds > OP_TIMEOUT_S:
                raise oracles.OracleError("took %.1f s, over the %.0f s limit" % (outcome.seconds, OP_TIMEOUT_S))
            rows = oracles.check(op, outcome.rc, outcome.text, outcome.json_text)
        except (oracles.OracleError, ValueError, KeyError) as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s: %s [%s]" % (op.kind, exc, " ".join(op.argv)))
            rows = 0
        if cycle is not None:
            self.samples.append((op.kind, outcome.seconds, rows, cycle, adjusted(outcome.seconds, *refs)))


def run_cycles(workload, seed, seconds, cli, work, spectra, short, tally, count=None):
    """Run whole cycles from cycle 0: ``count`` of them, or as many as fit."""
    t_start = time.perf_counter()
    k = 0
    ref = reference_s()
    tally.refs.append(ref)
    while True:
        c0 = time.perf_counter()
        for op in workloads.cycle(workload, seed, k, work, spectra, short):
            outcome = run_cold(op, work) if op.cold else run_inprocess(cli, op)
            ref_after = reference_s()
            tally.refs.append(ref_after)
            tally.record(op, outcome, k, (ref, ref_after))
            ref = ref_after
        tally.cycles += 1
        k += 1
        last = time.perf_counter() - c0
        if count is not None:
            if k >= count:
                return
        elif time.perf_counter() - t_start + last > seconds:
            return


def tail(times):
    """(value, percentile, samples beyond): the highest whole percentile
    with at least TAIL_BEYOND samples above it, never below the median."""
    n = len(times)
    pct = max(50, math.floor(100.0 * (n - TAIL_BEYOND) / n)) if n else 50
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1], pct, n - rank


def end_to_end(tally, setup_s, peak_rss_mb):
    """End-to-end metrics of the timed samples, and details behind them.

    ``op_s.p50`` is the median over cycles of the mean host-adjusted time
    per operation, ``rows_per_s`` the median over cycles of rows per
    host-adjusted second. The per-operation tail, which on these run
    lengths has too few samples beyond it to be steady, is a detail.
    """
    cycles = {}
    for _, _, rows, k, adj in tally.samples:
        c = cycles.setdefault(k, [0, 0, 0.0])
        c[0] += 1
        c[1] += rows
        c[2] += adj
    metrics = {
        "op_s.p50": statistics.median(t / n for n, _, t in cycles.values()),
        "rows_per_s": statistics.median(r / t for _, r, t in cycles.values()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    times = [adj for *_, adj in tally.samples]
    tail_value, pct, beyond = tail(times)
    detail = {
        "op_s.tail": {"value": tail_value, "percentile": pct, "samples_beyond": beyond,
                      "samples": len(times)},
        "raw_op_s.p50": statistics.median(s for _, s, *_ in tally.samples),
        "reference_s": {"median": statistics.median(tally.refs), "min": min(tally.refs),
                        "max": max(tally.refs), "nominal": REF_S},
    }
    return metrics, detail


def kind_medians(tally, column=1):
    """Median per operation kind of wall (column 1) or adjusted (4) seconds."""
    kinds = {}
    for sample in tally.samples:
        kinds.setdefault(sample[0], []).append(sample[column])
    return {k: statistics.median(v) for k, v in kinds.items()}


def pool_ratio(cli, work, spectra, short, seed):
    """Median of 3 wall times of one 10k-point slab sweep at --workers 2 over
    the median of 3 at --workers 1 (fewer threads if nproc is 1)."""
    op = workloads.cycle("sweep-closed", seed, 0, work, spectra, short)[0]
    threads = str(min(2, os.cpu_count() or 1))
    base = list(op.argv)
    i = base.index("--workers")
    times = {"1": [], threads: []}
    for _ in range(3):
        for w in ("1", threads):
            argv = base[:i + 1] + [w] + base[i + 2:]
            out = run_inprocess(cli, dataclasses.replace(op, argv=tuple(argv)))
            if out.rc != 0:
                raise RuntimeError("pool-ratio sweep failed with exit code %d" % out.rc)
            times[w].append(out.seconds)
    return statistics.median(times[threads]) / statistics.median(times["1"])


# ----------------------------------------------------------- environment

def environment(seed):
    import numpy
    import scipy

    import magfriction

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "magfriction")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_impl": magfriction.kernel_impl,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "note": "warm file cache, untuned shared machine (no pinning, no governor or cache control)",
    }


# ------------------------------------------------------------------ main

def layer_metrics(args, cli, work, spectra, untraced):
    """Per-layer values: import times, pool ratio, one traced cycle 0.

    The tracing overhead compares the traced cycle 0 with the untraced
    run's cycle 0, the same operations on the same inputs.
    """
    values = layers.import_times(ROOT)
    values["cli.sweep.pool_ratio"] = 0.0
    if args.workload == "sweep-closed":
        values["cli.sweep.pool_ratio"] = pool_ratio(cli, work, spectra, args.short, args.seed)
    traced = Tally()
    tracer = layers.Tracer()
    tracer.install(cli)
    try:
        run_cycles(args.workload, args.seed, 0, cli, work, spectra, args.short, traced, count=1)
    finally:
        tracer.uninstall()
    values.update(tracer.metrics())
    before = statistics.median(adj for _, _, _, k, adj in untraced.samples if k == 0)
    values["trace.overhead_frac"] = statistics.median(adj for *_, adj in traced.samples) / before - 1.0
    return values, traced


def run_workload(args):
    sys.path.insert(0, SRC)
    from magfriction import cli  # also compiles bytecode before any timing

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        spectra = workloads.write_spectra(args.seed, work)
        first = workloads.cycle(args.workload, args.seed, 0, work, spectra, args.short)[0]
        tally = Tally()
        setup_s = None
        if not args.trace:
            runs = 1 if args.short else SETUP_RUNS
            setup_s = statistics.median(setup_time(first) for _ in range(runs))
        if not first.cold:
            tally.record(first, run_inprocess(cli, first))  # warm-up, untimed
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        run_cycles(args.workload, args.seed, seconds, cli, work, spectra, args.short, tally,
                   count=1 if args.short else None)
        if first.cold:
            peak_rss_mb = tally.child_rss_mb
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, detail = end_to_end(tally, setup_s, peak_rss_mb)
        detail.update({"workload": args.workload, "cycles": tally.cycles, "operations": len(tally.samples),
                       "kind_p50_s": kind_medians(tally), "kind_adjusted_p50_s": kind_medians(tally, 4)})
        if args.trace:
            values, traced = layer_metrics(args, cli, work, spectra, tally)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.errors += traced.errors
            detail.update({"untraced": metrics, "traced_kind_p50_s": kind_medians(traced)})
            spec = layers.PER_LAYER
        else:
            values, spec = metrics, END_TO_END
        reported = {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update({"failed_frac": tally.failed / tally.attempted, "errors": tally.errors,
                   "env": environment(args.seed)})
    for name, m in reported.items():
        print("%-45s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


def run_all(args):
    """Each workload in its own process; prints one summary table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--short"] if args.short else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print("%s: attempted %d, failed %d" % (name, res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("  %-45s %.6g %s" % (metric, m["value"], m["unit"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="self-test mode: one small cycle per workload, one setup probe")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "magfriction", "cli.py")):
        sys.stderr.write("perfbench: no package source at %s\n" % os.path.join(SRC, "magfriction"))
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
