"""Self-tests for the benchmark: seeding, oracles, short runs, contract.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import oracles
import run
import workloads

sys.path.insert(0, run.SRC)
from magfriction import cli  # noqa: E402


def _cycles(workload, seed, work, spectra, n=3):
    return [op for k in range(n) for op in workloads.cycle(workload, seed, k, work, spectra, short=True)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    spectra = workloads.write_spectra(5, str(tmp_path))
    a = _cycles(workload, 5, str(tmp_path), spectra)
    b = _cycles(workload, 5, str(tmp_path), spectra)
    assert a == b
    if workload != "verify":  # verify takes no generated input
        assert [op.argv for op in a] != [op.argv for op in _cycles(workload, 6, str(tmp_path), spectra)]


def test_same_seed_same_spectrum_files(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    a = workloads.write_spectra(5, str(one))
    b = workloads.write_spectra(5, str(two))
    assert list(a.values()) == list(b.values())
    for pa, pb in zip(sorted(a), sorted(b)):
        assert open(pa).read() == open(pb).read()


def _corrupt(cell, position):
    """Change the ``position``-th significant mantissa digit of a number."""
    mantissa, sep, exponent = cell.partition("e")
    seen = 0
    for i, ch in enumerate(mantissa):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == position:
                new = str((int(ch) + 1) % 10)
                return mantissa[:i] + new + mantissa[i + 1:] + sep + exponent
    raise ValueError("no digit %d in %r" % (position, cell))


def _with_cell(text, column, row, transform):
    lines = text.splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    header = lines[body[0]].split(",")
    cells = lines[body[1 + row]].split(",")
    j = header.index(column)
    cells[j] = transform(cells[j])
    lines[body[1 + row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _real_outputs(tmp_path):
    spectra = workloads.write_spectra(7, str(tmp_path))
    for workload in workloads.WORKLOADS:
        for op in workloads.cycle(workload, 7, 0, str(tmp_path), spectra, short=True):
            yield op, run.run_inprocess(cli, op)


def test_oracles_accept_real_output_and_reject_one_corrupted_digit(tmp_path):
    kinds = set()
    for op, outcome in _real_outputs(tmp_path):
        oracles.check(op, outcome.rc, outcome.text, outcome.json_text)
        kinds.add(op.kind)
        if op.kind == "verify":
            bad = outcome.text.replace("PASS", "FAIL", 1)
            with pytest.raises(oracles.OracleError):
                oracles.check(op, 0, bad)
            continue
        header, _, n_rows = oracles.parse_csv(outcome.text)
        checked = [c for c in oracles.CHECKED[op.kind] if c in header]
        assert checked, op.kind
        for column in checked:
            for position in (1, 3):
                bad = _with_cell(outcome.text, column, n_rows - 1, lambda c: _corrupt(c, position))
                _, cols, rows = oracles.parse_csv(bad)
                with pytest.raises(oracles.OracleError):
                    oracles.check_rows(op, cols, rows)
        if op.json_out:
            doc = json.loads(outcome.json_text)
            j = header.index(checked[0])
            doc["rows"][0][j] *= 1.0 + 1e-6
            with pytest.raises(oracles.OracleError):
                oracles.check(op, 0, outcome.text, json.dumps(doc))
    assert kinds == set(oracles.CHECKED) | {"verify"}


def test_oracles_reject_wrong_exit_code_and_non_finite(tmp_path):
    op, outcome = next(_real_outputs(tmp_path))
    with pytest.raises(oracles.OracleError):
        oracles.check(op, 2, outcome.text)
    header = oracles.parse_csv(outcome.text)[0]
    bad = _with_cell(outcome.text, header[-1], 0, lambda c: "nan")
    with pytest.raises(oracles.OracleError):
        oracles.check(op, 0, bad)


def test_free_energy_closed_form_branches_agree():
    # series and direct forms meet at x = 1e-2 (beta = 2e-2); both must sit
    # far inside the 1e-9 absolute tolerance the oracle applies
    lo = oracles.free_energy_closed(1.0, 2e-2 * (1 - 1e-12))
    hi = oracles.free_energy_closed(1.0, 2e-2 * (1 + 1e-12))
    assert abs(lo - hi) <= 1e-3 * oracles.ATOL_FREE_ENERGY
    assert abs(oracles.free_energy_closed(0.5, 1e6) - 0.125) <= 1e-15


def test_tail_percentile():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (pct, beyond, value) == (90, 10, 90.0)
    assert run.tail([3.0, 1.0, 2.0])[1] == 50


def test_timings_are_host_adjusted_medians_over_cycles():
    # a host twice as slow (reference 2*REF_S) halves the reported times
    assert run.adjusted(2.0, 2 * run.REF_S, 2 * run.REF_S) == pytest.approx(1.0)
    tally = run.Tally()
    tally.refs = [run.REF_S]
    # two kinds per cycle, 1 s and 3 s: pooled median would sit between them
    for k, slow in enumerate((3.0, 3.0, 30.0)):
        tally.samples += [("a", 1.0, 10, k, 1.0), ("b", slow, 10, k, slow)]
    metrics, detail = run.end_to_end(tally, 1.0, 1.0)
    assert metrics["op_s.p50"] == pytest.approx(2.0)
    assert metrics["rows_per_s"] == pytest.approx(5.0)
    assert detail["op_s.tail"]["percentile"] == 50


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _bench(*args, cwd=run.ROOT, script=None):
    script = script or os.path.join(run.HERE, "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def test_short_mode_runs_every_workload_without_failures():
    proc = _bench("--workload", "all", "--seed", "2", "--seconds", "1", "--trace", "0", "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["workloads"]) == set(workloads.WORKLOADS)
    for name, res in result["workloads"].items():
        assert res["correct"] and res["failed"] == 0, name
        assert res["attempted"] >= 1
        assert set(res["metrics"]) == {name for name, _ in run.END_TO_END}


def test_short_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "verify", "--seed", "2", "--seconds", "1", "--trace", "1", "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in layers.PER_LAYER]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["verification.pass_ratio"] == 1.0
    assert metrics["kernels.rk4_batch.steps"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "oneshot", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
