"""Whole-grid sweeps: recorded goldens and the pin to the one-shot commands.

The goldens in tests/golden were recorded with the per-point sweep that
ran one command per grid point; the grid pass must reproduce them byte for
byte. The d axis of the finite-temperature slab golden holds 0.7, where
numpy's vector d**4 and Python's float ** differ by one ulp.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    # d of both signs, not through 0
    "fields": ["--target", "fields", "--axis", "d:-2.5:2.5:4", "--axis", "z0:0.5:2:3",
               "--rho1", "1.5"],
    # across the bands where the battery tensors' r^8 underflows (|d| < 3.9e-41)
    # or overflows (|d| > 3.4e38), while d^6 is a normal float
    "fields_tiny_d": ["--target", "fields", "--axis", "d:1e-45:1e-40:11:log"],
    "fields_huge_d": ["--target", "fields", "--axis", "d:1e38:1e41:10:log"],
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
ONE_SHOT = {route.target: route.name.split() for route in cli_module._ONE_SHOT}


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


_PAIR = ["--D2", 1, "--beta", 1]
# both slabs Drude metals, their slopes from --omega-p and --nu
_DRUDE_SLABS = ["--d", 1, "--rho1", 1, "--rho2", 1, "--v", 1e-3, "--beta", 2, "--nu", 0.1]
# target, arguments, exit code, stderr
FAILING_SWEEPS = [
    # d fails at the first point, where the earlier slope check still passes
    ("friction-pair", ["--axis", "d:-1:1:3", "--axis", "D1:1:-1:2", "--v", 1, *_PAIR],
     1, "invalid input: d must be positive\n"),
    ("friction-pair", ["--axis", "D1:-1:1:3", "--axis", "d:-1:1:3", "--v", 1, *_PAIR],
     1, "invalid input: D must be finite and >= 0\n"),
    # only the innermost of three axes fails, first at the third point
    ("friction-pair", ["--axis", "d:1:2:2", "--axis", "v:1:2:2", "--axis", "D1:1:-1:3", *_PAIR],
     1, "invalid input: D must be finite and >= 0\n"),
    # the second point is outside the Drude domain, and its (pi omega_p)^2
    # overflows too: the domain check comes first
    ("friction-slabs-finite", ["--axis", "omega-p:1:-1e200:2", *_DRUDE_SLABS],
     1, "invalid input: omega_p, rho must be positive and nu >= 0\n"),
    # an overflow at the first point, before the domain error at the second
    ("friction-slabs-finite", ["--axis", "omega-p:1e200:-1:2", *_DRUDE_SLABS],
     2, "numerical failure: sweep: a computed value overflows the float range\n"),
    # rho*(pi omega_p)^2 underflows to zero at the second point
    ("friction-slabs-finite", ["--axis", "omega-p:1:1e-170:2", *_DRUDE_SLABS],
     2, "numerical failure: sweep: a divisor underflows to zero\n"),
    # (pi omega_p)^2 is subnormal at the second point
    ("friction-slabs-finite", ["--axis", "omega-p:1:1e-160:2", *_DRUDE_SLABS],
     2, "numerical failure: sweep: a computed value is subnormal"
        " (0 < |x| < 2.2250738585072014e-308) and has lost precision\n"),
    # a Gaussian slope axis that turns negative at its third point
    ("friction-slabs-finite", ["--units", "gaussian", "--axis", "D1:1e-30:-1e-30:3",
                               "--temperature-kelvin", 300, "--d", 1e-6, "--rho1", 1e22,
                               "--rho2", 1e22, "--D2", 1e-30, "--v", 1],
     1, "invalid input: D must be finite and >= 0\n"),
    # the rules of the fields command; an axis of z0 stands for --z0 (sweep_fields.csv)
    ("fields", ["--units", "gaussian", "--axis", "d:1:2:3"],
     3, "error: fields reports reduced units only\n"),
    ("fields", ["--axis", "d:1:2:3", "--rho1", 2],
     3, "error: fields takes --rho1 only with --z0\n"),
    ("fields", ["--axis", "rho1:1:2:3", "--d", 1],
     3, "error: fields takes --rho1 only with --z0\n"),
    ("fields", ["--axis", "d:-1:1:3", "--z0", 1], 1, "invalid input: zero separation\n"),
    # z0 fails at the second point, d at the third
    ("fields", ["--axis", "d:-1:1:3", "--axis", "z0:1:-1:2", "--rho1", 2],
     1, "invalid input: z0 and rho must be positive\n"),
]


# each case is named by its sweep arguments, as RANGE_EDGES in test_cli.py
# are by their command lines
FAILING_SWEEP_IDS = [" ".join(map(str, ["--target", target, *args]))
                     for target, args, _, _ in FAILING_SWEEPS]
assert len(set(FAILING_SWEEP_IDS)) == len(FAILING_SWEEP_IDS)


@pytest.mark.parametrize("target,args,code,message", FAILING_SWEEPS, ids=FAILING_SWEEP_IDS)
def test_failing_sweep_reports_its_first_failing_point(cli, capsys, target, args, code, message):
    assert cli("sweep", "--target", target, *args) == (code, "")
    assert capsys.readouterr().err == message


def test_a_subnormal_slope_is_echoed_as_given(cli):
    # the slope column is the input itself, so a sweep prints the row that
    # the one-shot command prints at that point
    args = ["--d", 1, "--rho1", 1, "--rho2", 1, "--v", 1e-3, "--D2", 1e300, "--beta", 1]
    code, out = cli("sweep", "--target", "friction-slabs-finite", *args,
                    "--axis", "D1:1e-310:1e-300:2:log")
    assert code == 0
    header, *rows = _data_rows(out)
    assert rows[0][header.index("D1")] == "1e-310"
    code, one_shot = cli(*ONE_SHOT["friction-slabs-finite"], *args, "--D1", 1e-310)
    assert code == 0
    assert _data_rows(one_shot) == [header[1:], rows[0][1:]]


# Gaussian inputs of each target; in reduced units and back, v = 1000 comes
# back as 999.9999999999999, and each slope as a neighbouring float
_CGS = {"alpha": 0.3, "d": 1e-6, "z0": 2e-6, "rho1": 1e22, "rho2": 3e22, "v": 1000.0,
        "D1": 1.0824390223160173e-32, "D2": 1.0834365445564264e-32,
        "temperature-kelvin": 300.0}
_CGS_INPUTS = {
    "free-energy": ("alpha", "temperature-kelvin"),
    "friction-pair": ("d", "v", "D1", "D2", "temperature-kelvin"),
    "friction-plane": ("z0", "rho1", "v", "D1", "D2", "temperature-kelvin"),
    "friction-slabs-finite": ("d", "rho1", "rho2", "v", "D1", "D2", "temperature-kelvin"),
    "friction-slabs-zero": ("d", "rho1", "rho2", "v", "D1", "D2"),
}


def _echo_flags(header):
    """(column index, input flag) of each cell that echoes a Gaussian input:
    <name>_cgs but beta_cgs, the plane's rho_cgs echoing --rho1, and
    temperature_kelvin."""
    flags = {"rho": "rho1", "temperature_kelvin": "temperature-kelvin"}
    return [(i, flags.get(name[:-4], name[:-4]) if name.endswith("_cgs") else flags[name])
            for i, name in enumerate(header)
            if name == "temperature_kelvin" or name.endswith("_cgs") and name != "beta_cgs"]


@pytest.mark.parametrize("target", sorted(_CGS_INPUTS))
def test_gaussian_inputs_are_echoed_as_given(cli, target):
    inputs = _CGS_INPUTS[target]
    given = ["--units", "gaussian", *(x for flag in inputs for x in ("--" + flag, _CGS[flag]))]
    code, out = cli(*ONE_SHOT[target], *given)
    assert code == 0
    header, row = _data_rows(out)
    echoes = _echo_flags(header)
    assert echoes and {flag for _, flag in echoes} <= set(inputs)
    assert [row[i] for i, _ in echoes] == [repr(_CGS[flag]) for _, flag in echoes]
    # an axis replaces one input: its echoes are the axis column's text
    axis = "v" if "v" in inputs else "temperature-kelvin"
    at = given.index("--" + axis)
    code, out = cli("sweep", "--target", target, *given[:at], *given[at + 2:],
                    "--axis", axis + ":1:1000:7:log")
    assert code == 0
    header, *rows = _data_rows(out)
    sweep = header.index("sweep_" + axis.replace("-", "_"))
    assert _echo_flags(header) == [(i + 1, flag) for i, flag in echoes]
    for row in rows:
        assert [row[i + 1] for i, _ in echoes] == [
            row[sweep] if flag == axis else repr(_CGS[flag]) for _, flag in echoes]


def test_grid_failure_is_the_first_failing_point_in_product_order():
    grid = cli_module._Grid(cli_module.RunConfig(), (2, 3, 4), [])
    a, b, c = np.ix_([0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
    # first at point (0, 1, 0), index 4; then (0, 0, 3), index 3, which wins
    grid.fail(b == 1.0, ValueError("b"))
    grid.fail(c == 3.0, ValueError("c"))
    grid.fail(a + c == 3.0, ValueError("same point, registered later"))
    with pytest.raises(ValueError, match=r"^c$"):
        grid.raise_first()


def test_map_calls_fn_at_every_point_in_c_order():
    calls = []

    def fn(*args):
        calls.append(args)
        return sum(args)

    a = np.array([[0.0], [-0.0], [0.0], [1.5]])
    b = np.array([[2.0, 2.0, 3.0]])
    c = np.array([[-1.0]])
    out = _ieee.ArrayOps((4, 3)).map(fn, a, b, c)
    assert out.shape == (4, 3)
    # one call per point, repeated tuples, 0.0 and -0.0 included
    assert [tuple(float_bits(x) for x in t) for t in calls] == [
        tuple(float_bits(x) for x in (ai, bj, -1.0))
        for ai in (0.0, -0.0, 0.0, 1.5) for bj in (2.0, 2.0, 3.0)]
    assert out.tolist() == [[1.0, 1.0, 2.0]] * 3 + [[2.5, 2.5, 3.5]]


def test_map_stops_at_the_first_raising_point():
    calls = []

    def fn(x, y):
        calls.append((x, y))
        if x > 1.0:
            raise ValueError("x=%r" % x)
        if y > 1.0:
            raise ArithmeticError("y=%r" % y)
        return x / 3.0 + y

    x, y = np.ix_([0.5, 3.0, 0.5], [0.0, 5.0])
    ops = _ieee.ArrayOps((3, 2))
    # a check registered earlier, at the last point
    ops.fail(np.array([[False, False], [False, False], [False, True]]), KeyError("last"))
    out = ops.map(fn, x, y)
    # (0.5, 5.0) at point 1 raises: no later point is called, and each is nan
    assert calls == [(0.5, 0.0), (0.5, 5.0)]
    assert float_bits(out[0, 0]) == float_bits(0.5 / 3.0)
    assert np.isnan(out).tolist() == [[False, True], [True, True], [True, True]]
    with pytest.raises(ArithmeticError, match=r"^y=5\.0$"):
        ops.raise_first()


def test_pow_overflow_in_mid_column_fails_that_point():
    x = np.array([[2.0, 1e200, 3.0, 1e300]])
    ops = _ieee.ArrayOps((2, 4))
    out = ops.pow(x, 2)
    # every point holds Python's float power, inf past the float range;
    # raise_first stops the sweep before any of it prints
    assert out.shape == (1, 4)
    assert out.tolist() == [[4.0, math.inf, 9.0, math.inf]]
    with pytest.raises(OverflowError):
        ops.raise_first()
    # the point is (0, 1): a later check at (0, 0) still wins
    ops.fail(np.array([[True], [False]]), KeyError("earlier point"))
    with pytest.raises(KeyError):
        ops.raise_first()


# any float (nan, signed infinities and zeros, subnormals), the float
# range's edges, moderate values, where numpy's power differs from Python's
# in the last bit for some x, and magnitudes of both signs from the
# subnormals to past where x**2 overflows, so that each power in IEEE_N
# crosses its edge
_IEEE_FLOATS = st.one_of(
    st.floats(),
    st.floats(-100.0, 100.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from([1.0, -1.0]), st.floats(-323.0, 160.0)),
)
IEEE_N = [2, 3, 6, 8]


# zero divisors of both signs drawn often, against nan and inf numerators
_DIVISORS = st.one_of(_IEEE_FLOATS, st.sampled_from([0.0, -0.0]))


def _assert_array_op_is_the_float_op(op, points):
    # on a column, each point the float op returns at holds its bits; the
    # grid fails at the first point where it raises, with its exception
    want = []
    for args in points:
        try:
            want.append(float_bits(getattr(_ieee.FloatOps, op)(*args)))
        except ArithmeticError as exc:
            want.append(type(exc))
    ops = _ieee.ArrayOps((len(points),))
    a, b = map(np.array, zip(*points))
    with np.errstate(all="ignore"):
        out = ops.pow(a, points[0][1]) if op == "pow" else ops.div(a, b)
    assert [float_bits(x) for x, w in zip(out.tolist(), want) if not isinstance(w, type)] == [
        w for w in want if not isinstance(w, type)]
    raising = [k for k, w in enumerate(want) if isinstance(w, type)]
    if not raising:
        ops.raise_first()
        return
    # a check registered later at that point loses, one a point earlier wins
    at = np.arange(len(points)) == raising[0]
    ops.fail(at, KeyError("same point"))
    with pytest.raises(want[raising[0]]):
        ops.raise_first()
    if raising[0] > 0:
        ops.fail(np.roll(at, -1), KeyError("a point earlier"))
        with pytest.raises(KeyError, match="a point earlier"):
            ops.raise_first()


@given(xs=st.lists(_IEEE_FLOATS, min_size=1, max_size=12), n=st.sampled_from(IEEE_N))
def test_array_pow_is_the_float_pow_at_every_point(xs, n):
    _assert_array_op_is_the_float_op("pow", [(x, n) for x in xs])


@given(pairs=st.lists(st.tuples(_IEEE_FLOATS, _DIVISORS), min_size=1, max_size=12))
def test_array_div_is_the_float_div_at_every_point(pairs):
    _assert_array_op_is_the_float_op("div", pairs)


def _float_pow_or_error(x, n):
    """x ** n on FloatOps, or the exception it raises: OverflowError past
    the float range, FloatingPointError where the power is subnormal."""
    try:
        return _ieee.FloatOps.pow(x, n)
    except (OverflowError, FloatingPointError) as exc:
        return exc


@given(xs=st.lists(_IEEE_FLOATS, min_size=1, max_size=12), n=st.sampled_from(IEEE_N))
def test_array_pow_fails_the_first_point_where_float_pow_raises(xs, n):
    # a column of x along the grid's first axis: its element k is first at
    # grid point 2k, so the first raising element is the first failing point
    raising = [(k, y) for k, y in enumerate(_float_pow_or_error(x, n) for x in xs)
               if isinstance(y, Exception)]
    column = np.array(xs).reshape(-1, 1)
    ops = _ieee.ArrayOps((len(xs), 2))
    ops.pow(column, n)
    if not raising:
        ops.raise_first()
        return
    # a check registered later at that point loses, one a point earlier wins
    first, error = raising[0]
    at = np.zeros((len(xs), 2), dtype=bool)
    at.flat[2 * first] = True
    ops.fail(at, KeyError("same point"))
    with pytest.raises(ArithmeticError) as raised:
        ops.raise_first()
    assert type(raised.value) is type(error)
    if first > 0:
        ops.fail(np.roll(at, -1), KeyError("a point earlier"))
        with pytest.raises(KeyError, match="a point earlier"):
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


# the four targets of the benchmark's closed-form workload, 100 x 100,
# three sweeps whose slopes come from an axis of their inputs, a pair sweep
# over 10k distinct d, and a fields sweep over 10k d of both signs
_CLOSED_SLAB = ["--rho1", 1.3, "--rho2", 2.1, "--D1", 0.4, "--D2", 1.7]
_GAUSSIAN = ["--units", "gaussian", "--temperature-kelvin", 300, "--v", 1, "--rho1", 1e22]
CLOSED_SWEEPS = {
    "slabs-finite": ["--target", "friction-slabs-finite", "--axis", "beta:0.7:14:100:log",
                     "--axis", "d:0.8:3.2:100", *_CLOSED_SLAB, "--v", 3e-3],
    "slabs-zero": ["--target", "friction-slabs-zero", "--axis", "v:1.5e-3:7.5e-2:100:log",
                   "--axis", "d:0.8:3.2:100", *_CLOSED_SLAB],
    "pair": ["--target", "friction-pair", "--axis", "d:0.9:3.6:100",
             "--axis", "v:1.2e-4:6e-3:100:log", "--beta", 7.5, "--D1", 0.4, "--D2", 1.7],
    "pair-d-10k": ["--target", "friction-pair", "--axis", "d:0.9:3.6:10000", "--beta", 7.5,
                   "--v", 1e-3, "--D1", 0.4, "--D2", 1.7],
    "fields-d-10k": ["--target", "fields", "--axis", "d:-3.6:3.6:10000", "--z0", 1.5,
                     "--rho1", 2],
    "eigen": ["--target", "eigen", "--axis", "alpha:0.07:0.56:10000"],
    # x = beta/2 from 0.01 to 10: across the switch of the bracket's two forms
    "free-energy-beta-10k": ["--target", "free-energy", "--axis", "beta:0.02:20:10000:log",
                             "--alpha", 0.3],
    "slabs-finite-drude": ["--target", "friction-slabs-finite", "--axis", "omega-p:1:100:100:log",
                           "--axis", "rho1:0.5:3:100", "--rho2", 2.1, "--d", 1.5, "--v", 3e-3,
                           "--beta", 2, "--nu", 0.1],
    "slabs-finite-D1-gaussian": ["--target", "friction-slabs-finite",
                                 "--axis", "D1:1e-32:1e-28:10000:log", *_GAUSSIAN,
                                 "--d", 1e-6, "--rho2", 1e22, "--D2", 1e-30],
    "plane-omega-p-gaussian": ["--target", "friction-plane",
                               "--axis", "omega-p:1e14:1e17:10000:log", *_GAUSSIAN,
                               "--z0", 1e-6, "--nu", 1e13, "--D1", 1e-30],
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


def test_slope_sweeps_make_no_map_call(cli, tmp_path, monkeypatch):
    """A 10k-point slab sweep over a Drude omega_p axis and one over a --D1
    axis take their slopes as column closed forms: no ArrayOps.map call."""
    calls = []
    original_map = _ieee.ArrayOps.map

    def counting(self, fn, *cols):
        calls.append(fn)
        return original_map(self, fn, *cols)

    monkeypatch.setattr(_ieee.ArrayOps, "map", counting)
    for name in ("slabs-finite-drude", "slabs-finite-D1-gaussian"):
        assert cli("sweep", *CLOSED_SWEEPS[name], "--out", tmp_path / "s.csv") == (0, "")
    assert calls == []
