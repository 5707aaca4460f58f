"""Whole-grid sweeps: recorded goldens and the pin to the one-shot commands.

The goldens in tests/golden were recorded with the per-point sweep that
ran one command per grid point; the grid pass must reproduce them byte for
byte. The d axis of the finite-temperature slab golden holds 0.7, where
numpy's vector d**4 and Python's float ** differ by one ulp.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import float_bits
from magfriction import _ieee, _kernels, cli as cli_module, materials_spectral

GOLDEN = Path(__file__).parent / "golden"

SLAB = ["--rho1", "1", "--rho2", "1.5", "--D1", "0.7", "--D2", "1.2"]

# golden name -> sweep arguments; {dir} holds the spectrum files
SWEEPS = {
    "eigen": ["--target", "eigen", "--axis", "alpha:0:3:9"],
    "free_energy": ["--target", "free-energy", "--axis", "alpha:0.1:1:3",
                    "--axis", "beta:0.001:100:7:log"],
    "free_energy_kelvin": ["--target", "free-energy", "--units", "gaussian",
                           "--axis", "alpha:0.1:0.9:3",
                           "--axis", "temperature-kelvin:0.001:1000:3:log"],
    "pair_tabulated": ["--target", "friction-pair", "--axis", "d:0.5:2:3",
                       "--axis", "beta:2:3:3", "--v", "1e-3",
                       "--spectrum-file-1", "{dir}/ramp.txt",
                       "--spectrum-file-2", "{dir}/steep.txt"],
    "pair_kelvin": ["--target", "friction-pair", "--units", "gaussian",
                    "--axis", "d:1e-7:1e-5:3:log", "--axis", "temperature-kelvin:50:500:3",
                    "--v", "1", "--D1", "1e-30", "--D2", "3e-30"],
    "plane_drude": ["--target", "friction-plane", "--axis", "rho1:0.5:3:3",
                    "--axis", "z0:0.5:2:3", "--beta", "2", "--v", "1e-3",
                    "--omega-p", "9", "--nu", "0.1", "--D1", "1"],
    # omega-p and nu are axes of every target that takes a Drude metal
    "plane_omega_p": ["--target", "friction-plane", "--axis", "omega-p:1:100:3:log",
                      "--axis", "rho1:0.5:3:3", "--z0", "1", "--beta", "2", "--v", "1e-3",
                      "--nu", "0.1", "--D1", "1"],
    "slabs_finite": ["--target", "friction-slabs-finite", "--axis", "d:0.7:1.9:3",
                     "--axis", "beta:0.5:50:3:log", *SLAB, "--v", "1e-3"],
    "slabs_finite_3d": ["--target", "friction-slabs-finite", "--axis", "d:0.7:1.9:3",
                        "--axis", "beta:0.5:50:3:log", "--axis", "v:-2e-3:2e-3:3", *SLAB],
    "slabs_zero_gaussian": ["--target", "friction-slabs-zero", "--units", "gaussian",
                            "--axis", "d:1e-7:1e-5:3:log", "--axis", "v:1:1000:3:log",
                            "--rho1", "1e22", "--rho2", "1e22",
                            "--D1", "1e-30", "--D2", "1e-30"],
}

def _sweep_args(name, directory):
    _write_spectra(directory)
    return [a.replace("{dir}", str(directory)) for a in SWEEPS[name]]


def _write_spectra(directory):
    m = np.linspace(0.0, 40.0, 400)
    (directory / "ramp.txt").write_text("".join("%.17g %.17g\n" % (w, 0.25 * w) for w in m))
    m = np.linspace(0.0, 60.0, 301)
    (directory / "steep.txt").write_text("".join("%.17g %.17g\n" % (w, 1.3 * w) for w in m))


def _data_rows(text):
    return [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_golden(cli, tmp_path, name):
    code, out = cli("sweep", *_sweep_args(name, tmp_path))
    assert code == 0
    golden = (GOLDEN / ("sweep_%s.csv" % name)).read_text()
    assert out.replace(str(tmp_path), "{dir}") == golden


# sweep target -> the one-shot command words that compute it
ONE_SHOT = {
    "eigen": ["eigen"],
    "free-energy": ["free-energy"],
    "friction-pair": ["friction", "pair"],
    "friction-plane": ["friction", "plane"],
    "friction-slabs-finite": ["friction", "slabs", "--temperature", "finite"],
    "friction-slabs-zero": ["friction", "slabs", "--temperature", "zero"],
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_rows_match_one_shot_commands(cli, tmp_path, name):
    """Every cell of every row is, to the last bit, what the one-shot
    command prints at that point: the numpy grid and the Python-float
    point give the same bytes."""
    args = _sweep_args(name, tmp_path)
    code, out = cli("sweep", *args)
    assert code == 0
    fixed, axes, target = {}, [], None
    flags = iter(args)
    for flag in flags:
        value = next(flags)
        if flag == "--target":
            target = value
        elif flag == "--axis":
            axes.append(value.split(":")[0])
        else:
            fixed[flag] = value
    header, *rows = _data_rows(out)
    assert len(rows) >= 9
    for row in rows:
        point = {**fixed, **{"--" + axis: value for axis, value in zip(axes, row)}}
        code, one_shot = cli(*ONE_SHOT[target], *(x for pair in point.items() for x in pair))
        assert code == 0
        assert _data_rows(one_shot) == [header[len(axes):], row[len(axes):]]


def test_json_mirror_is_the_json_dump_of_its_rows(cli, tmp_path):
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    # D1 = 0 gives forces of both signed zeros, which must stay apart
    code, _ = cli("sweep", "--target", "friction-pair", "--axis", "v:-1:1:3",
                  "--axis", "D1:0:1:2", "--d", 1, "--beta", 2, "--D2", 1,
                  "--out", csv_path, "--json", json_path)
    assert code == 0
    text = json_path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header, *rows = _data_rows(csv_path.read_text())
    assert doc["columns"] == header
    assert [[c if isinstance(c, str) else repr(c) for c in r] for r in doc["rows"]] == rows
    force = [row[header.index("force")] for row in rows]
    assert {"0.0", "-0.0"} <= set(force)


def test_tabulated_sweep_loads_each_spectrum_file_once(cli, tmp_path, monkeypatch):
    args = _sweep_args("pair_tabulated", tmp_path)
    loaded = []
    load = materials_spectral.TabulatedSpectralDensity.from_text

    def counting(cls, path):
        loaded.append(path)
        return load(path)

    monkeypatch.setattr(materials_spectral.TabulatedSpectralDensity, "from_text",
                        classmethod(counting))
    code, out = cli("sweep", *args)
    assert code == 0 and len(_data_rows(out)) == 1 + 9
    assert loaded == [str(tmp_path / "ramp.txt"), str(tmp_path / "steep.txt")]


def test_sweep_bytes_independent_of_workers(cli, tmp_path):
    outputs = []
    for workers in (1, 4):
        csv_path, json_path = tmp_path / ("%d.csv" % workers), tmp_path / ("%d.json" % workers)
        code, _ = cli("sweep", *SWEEPS["plane_drude"], "--workers", workers,
                      "--out", csv_path, "--json", json_path)
        assert code == 0
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("axes,message", [
    # d fails at the first point, where the earlier slope check still passes
    (["--axis", "d:-1:1:3", "--axis", "D1:1:-1:2"], "invalid input: d must be positive\n"),
    (["--axis", "D1:-1:1:3", "--axis", "d:-1:1:3"], "invalid input: D must be finite and >= 0\n"),
    # only the innermost of three axes fails, first at the third point
    (["--axis", "d:1:2:2", "--axis", "v:1:2:2", "--axis", "D1:1:-1:3"],
     "invalid input: D must be finite and >= 0\n"),
])
def test_failing_sweep_reports_its_first_failing_point(cli, capsys, axes, message):
    v = [] if "v:1:2:2" in axes else ["--v", 1]
    code, out = cli("sweep", "--target", "friction-pair", *axes, "--D2", 1, *v, "--beta", 1)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == message


def test_grid_failure_is_the_first_failing_point_in_product_order():
    grid = cli_module._Grid(cli_module.RunConfig(), (2, 3, 4), [])
    a, b, c = np.ix_([0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
    # first at point (0, 1, 0), index 4; then (0, 0, 3), index 3, which wins
    grid.fail(b == 1.0, ValueError("b"))
    grid.fail(c == 3.0, ValueError("c"))
    grid.fail(a + c == 3.0, ValueError("same point, registered later"))
    with pytest.raises(ValueError, match=r"^c$"):
        grid.raise_first()


def test_map_calls_fn_once_per_distinct_bit_pattern():
    calls = []

    def fn(*args):
        calls.append(args)
        return sum(args)

    a = np.array([[0.0], [-0.0], [0.0], [1.5]])
    b = np.array([[2.0, 2.0, 3.0]])
    c = np.array([[-1.0]])
    out = _ieee.ArrayOps((4, 3)).map(fn, a, b, c)
    assert out.shape == (4, 3)
    # 0.0 and -0.0 are two patterns; b's repeated 2.0 adds none
    assert [tuple(float_bits(x) for x in t) for t in calls] == [
        tuple(float_bits(x) for x in t) for t in
        [(0.0, 2.0, -1.0), (0.0, 3.0, -1.0), (-0.0, 2.0, -1.0), (-0.0, 3.0, -1.0),
         (1.5, 2.0, -1.0), (1.5, 3.0, -1.0)]]
    assert out.tolist() == [[1.0, 1.0, 2.0]] * 3 + [[2.5, 2.5, 3.5]]


def test_map_fails_the_points_of_a_raising_tuple():
    def fn(x, y):
        if x > 1.0:
            raise ValueError("x=%r" % x)
        if y > 1.0:
            raise ArithmeticError("y=%r" % y)
        return x + y

    x, y = np.ix_([0.5, 3.0, 0.5], [0.0, 5.0])
    ops = _ieee.ArrayOps((3, 2))
    # a check registered earlier, at the last point
    ops.fail(np.array([[False, False], [False, False], [False, True]]), KeyError("last"))
    out = ops.map(fn, x, y)
    assert np.isnan(out).tolist() == [[False, True], [True, True], [False, True]]
    # (0.5, 5.0) fails points 1 and 5, before (3.0, 0.0) at point 2
    with pytest.raises(ArithmeticError, match=r"^y=5\.0$"):
        ops.raise_first()


def _eigen_sweep_rows(cli, tmp_path, n):
    """The header and rows of an n-point eigen sweep, after checking that
    its --out bytes are its stdout and its --json text holds the same rows
    as json.dump writes them."""
    args = ["sweep", "--target", "eigen", "--axis", "alpha:0:3:%d" % n]
    code, out = cli(*args)
    assert code == 0
    csv_path, json_path = tmp_path / "e.csv", tmp_path / "e.json"
    code, _ = cli(*args, "--out", csv_path, "--json", json_path)
    assert code == 0
    assert csv_path.read_bytes() == out.encode()
    text = json_path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header, *rows = _data_rows(out)
    assert len(rows) == n and header == doc["columns"]
    # parse_float keeps each JSON number's text
    assert json.loads(text, parse_float=str)["rows"] == rows
    return header, rows


def test_sweep_past_one_output_chunk(cli, tmp_path):
    # rows are written _CHUNK_ROWS at a time; 5000 rows take several chunks
    # and end partway through one
    assert 5000 > cli_module._CHUNK_ROWS and 5000 % cli_module._CHUNK_ROWS
    header, rows = _eigen_sweep_rows(cli, tmp_path, 5000)
    axis, alpha = header.index("sweep_alpha"), header.index("alpha")
    assert [row[axis] for row in rows] == [row[alpha] for row in rows]


# (chunks, extra rows): a table of chunks * _CHUNK_ROWS + extra rows
CHUNK_EDGES = {"one chunk": (1, 0), "one chunk and a row": (1, 1), "two chunks": (2, 0)}


@pytest.mark.parametrize("edge", sorted(CHUNK_EDGES))
def test_sweep_bytes_at_output_chunk_boundaries(cli, tmp_path, edge):
    chunks, extra = CHUNK_EDGES[edge]
    _eigen_sweep_rows(cli, tmp_path, chunks * cli_module._CHUNK_ROWS + extra)


_RNG = np.random.default_rng(7)
_SIGNED_ZEROS = np.where(_RNG.permutation(50) < 25, -0.0, 0.0)
FLOAT_COLUMNS = {
    "all-distinct": _RNG.standard_normal(1000) * 10.0 ** _RNG.integers(-300, 300, 1000),
    "100-distinct-tiled": np.tile(_RNG.uniform(-1.0, 1.0, 100), 100),
    "signed-zeros": np.concatenate([_SIGNED_ZEROS, _RNG.choice([1.5, -2.0], 50)]),
    "subnormals": _RNG.choice([5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1e-310, 0.0], 200),
    "one-row": np.array([0.1]),
    # past one block of _kernels.float_reprs, and ending in part of one
    "past-one-block": np.concatenate([
        _RNG.uniform(1e-5, 1e17, _kernels.TEXT_BLOCK) * _RNG.choice([-1.0, 1.0]),
        _RNG.standard_normal(_kernels.TEXT_BLOCK) * 10.0 ** _RNG.integers(-300, 300),
        [0.0, -0.0, 5e-324, 1e-4, 1e16, 1e23, 2.0**-60, 0.5, 2.5, 1250.0, 1e-200, 1e200] * 9]),
}


@pytest.mark.parametrize("name", sorted(FLOAT_COLUMNS))
def test_float_text_is_repr_of_every_value(name):
    col = FLOAT_COLUMNS[name]
    assert cli_module._float_text(col) == [repr(x) for x in col.tolist()]
    # the same column on the middle axis of a 3-axis grid: every row gets
    # the text of its own point
    col = col.reshape(1, -1, 1)
    shape = (3, col.size, 2)
    (cells,) = cli_module._row_cells([(col.shape, cli_module._float_text(col))], shape, ",", str)
    assert cells == [repr(x) for x in np.broadcast_to(col, shape).ravel().tolist()]


def test_float_text_is_repr_across_small_blocks(monkeypatch):
    # passes of 37 values: every column that the kernel takes crosses
    # pass boundaries and ends partway through a pass
    monkeypatch.setattr(_kernels, "TEXT_BLOCK", 37)
    for col in FLOAT_COLUMNS.values():
        assert cli_module._float_text(col) == [repr(x) for x in col.tolist()]


def _float_reprs_calls(monkeypatch, n):
    """The sizes of the float_reprs calls that the text of an n-value
    column makes, in order."""
    calls = []
    kernel = _kernels.float_reprs
    monkeypatch.setattr(_kernels, "float_reprs",
                        lambda block: calls.append(block.size) or kernel(block))
    col = np.linspace(0.07, 0.56, n)
    assert cli_module._float_text(col) == [repr(x) for x in col.tolist()]
    return calls


def _block_passes(monkeypatch):
    """The sizes of the _block_reprs passes made from here on, in order."""
    passes = []
    one_block = _kernels._block_reprs
    monkeypatch.setattr(_kernels, "_block_reprs",
                        lambda values: passes.append(values.size) or one_block(values))
    return passes


def test_a_sweep_column_is_one_kernel_call(monkeypatch):
    # and one numpy pass: TEXT_BLOCK is sized so that a column of a sweep
    # at the default --max-points takes one
    assert _kernels.TEXT_BLOCK >= cli_module._DEFAULTS["max_points"]
    passes = _block_passes(monkeypatch)
    assert _float_reprs_calls(monkeypatch, 10_000) == [10_000]
    assert passes == [10_000]


def test_a_longer_column_goes_a_block_at_a_time(monkeypatch):
    # one call still, worked in passes of TEXT_BLOCK values, so that its
    # temporaries stay bounded
    block = _kernels.TEXT_BLOCK
    passes = _block_passes(monkeypatch)
    assert _float_reprs_calls(monkeypatch, 2 * block + 17) == [2 * block + 17]
    assert passes == [block, block, 17]


# the four targets of the benchmark's closed-form workload, 100 x 100
_CLOSED_SLAB = ["--rho1", 1.3, "--rho2", 2.1, "--D1", 0.4, "--D2", 1.7]
CLOSED_SWEEPS = {
    "slabs-finite": ["--target", "friction-slabs-finite", "--axis", "beta:0.7:14:100:log",
                     "--axis", "d:0.8:3.2:100", *_CLOSED_SLAB, "--v", 3e-3],
    "slabs-zero": ["--target", "friction-slabs-zero", "--axis", "v:1.5e-3:7.5e-2:100:log",
                   "--axis", "d:0.8:3.2:100", *_CLOSED_SLAB],
    "pair": ["--target", "friction-pair", "--axis", "d:0.9:3.6:100",
             "--axis", "v:1.2e-4:6e-3:100:log", "--beta", 7.5, "--D1", 0.4, "--D2", 1.7],
    "eigen": ["--target", "eigen", "--axis", "alpha:0.07:0.56:10000"],
}


@pytest.mark.parametrize("name", sorted(CLOSED_SWEEPS))
def test_closed_sweep_cells_are_float_reprs(cli, tmp_path, name):
    """Every float cell of a 10k-point sweep's CSV and --json is the repr of
    its float, and the two files hold the same text."""
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    code, _ = cli("sweep", *CLOSED_SWEEPS[name], "--out", csv_path, "--json", json_path)
    assert code == 0
    header, *rows = _data_rows(csv_path.read_text())
    assert len(rows) == 10_000
    strings = {header.index("regime"), header.index("units")} if "regime" in header else set()
    cells = [c for row in rows for i, c in enumerate(row) if i not in strings]
    assert all(repr(float(c)) == c for c in cells)
    # parse_float keeps each JSON number's text
    doc = json.loads(json_path.read_text(), parse_float=str)
    assert [c for row in doc["rows"] for i, c in enumerate(row) if i not in strings] == cells


def test_closed_sweep_bytes_match_their_recorded_sha256(cli, tmp_path):
    """The CSV and --json bytes of each closed-form sweep hash to the
    SHA-256 recorded in tests/golden/closed_sweeps.sha256."""
    recorded = {}
    for line in (GOLDEN / "closed_sweeps.sha256").read_text().splitlines():
        digest, name = line.split()
        recorded[name] = digest
    got = {}
    for name in sorted(CLOSED_SWEEPS):
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        code, _ = cli("sweep", *CLOSED_SWEEPS[name], "--out", csv_path, "--json", json_path)
        assert code == 0
        got[name + ".csv"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        got[name + ".json"] = hashlib.sha256(json_path.read_bytes()).hexdigest()
    assert got == recorded
