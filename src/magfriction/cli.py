"""Command line front end.

Subcommands: eigen, free-energy, fields, friction (pair/plane/slabs),
sweep, verify. Output is CSV with '#' metadata lines (optionally mirrored
to JSON), deterministic byte-for-byte for a fixed configuration and
independent of the worker count. Exit codes: 0 success, 1 validation
failure, 2 numerical failure, 3 configuration error.

Parameters resolve with precedence command line > config file > defaults.
The config file is flat key=value text, '#' comments, keys named like the
long flags without dashes in front (e.g. ``omega-p=9.0``). Temperatures
enter either as --beta (reduced) or --temperature-kelvin (Gaussian runs
only); giving both is a configuration error. Spectrum files are
two-column text (m, density) in reduced units regardless of --units.
Each route declares the inputs it reads (_ROUTES); a flag on the command
line that the route does not read is a configuration error. _resolve
raises every configuration error before any value is checked; the
column functions then check values only, point by point.
"""

import argparse
import contextlib
import functools
import itertools
import math
import os
import stat
import sys
from collections import namedtuple

from magfriction import __version__, lazy_import

# every library module is bound here and executed on first use, so that a
# command loads only what it computes with (eigen runs none of them); json
# loads only for --json, the oracle battery only for verify, and numpy only
# for sweeps and spectrum files
json = lazy_import("json")
np = lazy_import("numpy")
_ieee = lazy_import("magfriction._ieee")
numerics = lazy_import("magfriction.numerics")
_kernels = lazy_import("magfriction._kernels")
dipole_fields = lazy_import("magfriction.dipole_fields")
friction_forces = lazy_import("magfriction.friction_forces")
geometry_coupling = lazy_import("magfriction.geometry_coupling")
materials_spectral = lazy_import("magfriction.materials_spectral")
matsubara = lazy_import("magfriction.matsubara")
oscillator_pair = lazy_import("magfriction.oscillator_pair")
response_kinetics = lazy_import("magfriction.response_kinetics")
units = lazy_import("magfriction.units")
verification = lazy_import("magfriction.verification")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_CONFIG = 3


_UNITS = ("reduced", "gaussian")


def _unit_system(text):
    """A config file's units value: one of _UNITS, else ValueError."""
    if text not in _UNITS:
        raise ValueError("units must be one of %s" % ", ".join(_UNITS))
    return text


# long-flag name and parser for everything settable from a config file
_PARAMS = (
    ("alpha", float), ("beta", float), ("temperature-kelvin", float),
    ("d", float), ("z0", float), ("rho1", float), ("rho2", float),
    ("omega-p", float), ("nu", float), ("D1", float), ("D2", float),
    ("v", float),
    ("spectrum-file-1", str), ("spectrum-file-2", str),
)
_SETTINGS = (
    ("units", _unit_system), ("seed", int), ("workers", int), ("max-points", int),
)
_DEFAULTS = {"units": "reduced", "seed": 0, "workers": 1, "max_points": 10000}
# the inputs a route may refuse: the physical flags, then the two settings
# that every route but verify reads
_INPUTS = tuple(flag for flag, _ in _PARAMS) + ("units", "seed")
# sorted(verification.SUITES) and "all", named here so that building the
# parser does not load the battery
_SUITES = ("fields", "forces", "geometry", "materials", "matsubara", "numerics",
           "oscillator", "response", "all")


class CliError(Exception):
    """Carries the process exit code for a user-facing failure."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _FloatText:
    """argparse's test for a negative number, widened to every text that
    float() reads, so that -1e-05, -inf or -1_0 is a value, not a flag."""

    @staticmethod
    def match(text):
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("action", "parsers", _Subcommands)
        self._negative_number_matcher = _FloatText

    # argparse wants to exit(2) on bad flags; route that to exit code 3
    def error(self, message):
        raise CliError(EXIT_CONFIG, message)


class _Subcommands(argparse._SubParsersAction):
    """Subcommands whose parsers are built when argparse first dispatches
    to them, so that a call builds the parser of its own command only; the
    names are choices from the start, for help, usage and errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = {}

    def add_parser(self, name, fill):
        """Subcommand ``name``; ``fill(parser)`` adds its arguments."""
        self.choices[name] = None
        self._fill[name] = fill

    def fill(self, name):
        """The parser of subcommand ``name``, built on the first call."""
        if name in self._fill:
            # as add_parser builds it, which would refuse the name as taken
            parser = _Parser(prog="%s %s" % (self._prog_prefix, name))
            self._fill.pop(name)(parser)
            self.choices[name] = parser
        return self.choices[name]

    def __call__(self, parser, namespace, values, option_string=None):
        self.fill(values[0])  # argparse has refused an unknown name
        super().__call__(parser, namespace, values, option_string)


def _attr(flag):
    return flag.replace("-", "_")


class RunConfig:
    """Fully resolved invocation: its _Route, every parameter, and the
    spectrum files that the route reads, loaded (``spectra``, by side).
    A new one holds the settings of _DEFAULTS, no axes, no spectra and
    None for everything else; _resolve fills it in."""

    __slots__ = ("route", "suite", "axes", "units", "seed", "workers", "max_points", "out",
                 "json_out", "spectra", *(_attr(flag) for flag, _ in _PARAMS))

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, _DEFAULTS.get(name))
        self.axes, self.spectra = (), {}


class SweepAxis(namedtuple("SweepAxis", "name lo hi steps log spec")):
    """One sweep dimension: parameter flag name and the grid it spans."""

    __slots__ = ()

    def values(self):
        """The grid's points; a sweep builds them only after _check_axes
        has checked the grid's size."""
        if self.steps == 1:
            return np.array([self.lo])
        return (np.geomspace if self.log else np.linspace)(self.lo, self.hi, self.steps)


def _fill(words, parser):
    """Add the arguments of the command ``words`` (a tuple of command words)
    to ``parser``. The names of the routes under the command give either
    its subcommands or the option that picks among its routes. Every
    command takes all the input flags, so that an abbreviation reads the
    same on each, but its help shows only those one of its routes reads."""
    depth = len(words)
    names = [name.split() for name in _ROUTES if name.split()[:depth] == list(words)]
    following = dict.fromkeys(name[depth] for name in names if len(name) > depth)
    if following and not next(iter(following)).startswith("--"):
        # the command word, then friction's geometry
        sub = parser.add_subparsers(dest=("command", "geometry")[depth], required=True)
        for word in following:
            sub.add_parser(word, functools.partial(_fill, words + (word,)))
        return
    reads = set().union(*(_ROUTES[" ".join(name)].reads for name in names))
    hide = {flag: {} if flag in reads else {"help": argparse.SUPPRESS} for flag in _INPUTS}
    for flag, typ in _PARAMS:
        parser.add_argument("--" + flag, type=typ, default=None, **hide[flag])
    parser.add_argument("--units", choices=_UNITS, default=None, **hide["units"])
    parser.add_argument("--seed", type=int, default=None, **hide["seed"])
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--json", dest="json_out", type=str, default=None)
    parser.add_argument("--config", type=str, default=None)
    for option in following:  # --temperature of the slabs, --target of a sweep
        parser.add_argument(option, choices=[name[depth + 1] for name in names], required=True)
    if words == ("sweep",):
        parser.add_argument("--axis", action="append", default=[], required=True)
        parser.add_argument("--max-points", type=int, default=None)
    if words == ("verify",):
        parser.add_argument("--suite", choices=_SUITES, default="all")


@functools.cache
def _build_parser():
    """The argument parser, built once per process from the route table;
    _Subcommands builds a subcommand's parser when a call first reaches
    it. Otherwise parse_args leaves the parser as it was (argparse copies
    the --axis append default before appending)."""
    parser = _Parser(prog="magfriction")
    _fill((), parser)
    return parser


def _load_config_file(path):
    known = {flag: typ for flag, typ in _PARAMS + _SETTINGS}
    out, lines_of = {}, {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_CONFIG, "cannot read config file: %s" % exc)
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(EXIT_CONFIG, "config line %d is not key=value" % ln)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise CliError(EXIT_CONFIG, "unknown config key %r" % key)
        if key in lines_of:
            raise CliError(EXIT_CONFIG, "config key %r given twice (lines %d and %d)"
                           % (key, lines_of[key], ln))
        lines_of[key] = ln
        try:
            out[key] = known[key](value)
        except ValueError:
            raise CliError(EXIT_CONFIG, "bad value for config key %r" % key)
    return out


def _resolve(args):
    """Merge CLI > config file > defaults into a RunConfig, check it
    against the route it selects, and load the route's spectrum files.

    Every configuration error (exit 3) is raised here, before the first
    value check: an input that is not finite, then bad data in a spectrum
    file (exit 1). The column functions check values only, point by point.
    """
    file_values = _load_config_file(args.config) if args.config else {}
    route = _route_of(args)
    _refuse_unread(route, args, file_values)
    cfg = RunConfig()
    cfg.route, cfg.suite = route, getattr(args, "suite", None)
    cfg.out, cfg.json_out = args.out, args.json_out
    # a message names a value by its flag, or by the config key it came from
    names = {}
    for flag, _ in _PARAMS + _SETTINGS:
        attr = _attr(flag)
        value = getattr(args, attr, None)
        names[flag] = "--" + flag
        if value is None and flag in file_values:
            value, names[flag] = file_values[flag], "config key %r" % flag
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "axis", None):
        cfg.axes = tuple(_parse_axis(spec) for spec in args.axis)
    if cfg.workers < 1:
        raise CliError(EXIT_CONFIG, "%s must be at least 1" % names["workers"])
    if cfg.axes:
        _check_axes(cfg, route, args, names["max-points"])
    # the inputs given anywhere, and those the command line gives; a sweep
    # axis is both
    axes = {ax.name for ax in cfg.axes}
    given = axes.union(f for f in _INPUTS if getattr(cfg, _attr(f)) is not None)
    flags = axes.union(f for f in _INPUTS if getattr(args, _attr(f)) is not None)
    if route.target == "fields" and "rho1" in flags and "z0" not in given:
        raise CliError(EXIT_CONFIG, "fields takes --rho1 only with --z0")
    missing = [f for f in route.required if f not in given]
    if missing:
        raise CliError(EXIT_CONFIG, "missing required parameter(s): "
                       + ", ".join("--" + flag for flag in missing))
    bad = []
    for side, path in _check_sources(route, cfg, given, flags).items():
        try:
            cfg.spectra[side] = materials_spectral.TabulatedSpectralDensity.from_text(path)
        except materials_spectral.SpectrumFileError as exc:
            raise CliError(EXIT_CONFIG, str(exc))
        except ValueError as exc:  # bad data: a value error, raised below
            bad.append(exc)
    # float() takes 'nan' and 'inf'; no input, from flag, file or axis, may be either
    for flag, typ in _PARAMS:
        if typ is float and getattr(cfg, _attr(flag)) is not None:
            _finite(names[flag], getattr(cfg, _attr(flag)))
    for ax in cfg.axes:
        _finite("axis %r bounds" % ax.spec, ax.lo)
        _finite("axis %r bounds" % ax.spec, ax.hi)
    if bad:
        raise bad[0]
    return cfg


def _route_of(args):
    """The route that parsed arguments select: the command words, then the
    option that picks among the command's routes."""
    name = " ".join(filter(None, (args.command, getattr(args, "geometry", None))))
    for option in ("temperature", "target"):
        if getattr(args, option, None) is not None:
            name += " --%s %s" % (option, getattr(args, option))
    return _ROUTES[name]


def _refuse_unread(route, args, file_values):
    """CliError naming the first input, in _INPUTS order, that the route
    does not read and the command line gives. Only verify refuses config
    keys too: its checks fix their own parameters and seeds, while one
    file may serve several of the other commands."""
    for flag in _INPUTS:
        if flag in route.reads:
            continue
        if getattr(args, _attr(flag)) is not None:
            raise CliError(EXIT_CONFIG, "%s takes no --%s" % (route.name, flag))
        if route.name == "verify" and flag in file_values:
            raise CliError(EXIT_CONFIG, "verify takes no config key %r" % flag)


# the sides on which a route's grid puts a Drude metal (_grid_friction_plane,
# _grid_slabs) when the side has no spectrum file and no --D
_DRUDE_SIDES = {"friction-plane": (2,), "friction-slabs-finite": (1, 2),
                "friction-slabs-zero": (1, 2)}


def _check_sources(route, cfg, given, flags):
    """CliError unless the inputs ``given`` (anywhere, with the axes) are
    those the route computes from: one temperature where it takes one,
    units it reports in, and a spectrum on each side it reads. Returns the
    sides' spectrum files, by side.

    A side's spectrum comes from the first of its sources given: a
    spectrum file, --DN, then a Drude metal (--omega-p/--nu) where the
    route puts one. The command line (``flags``, with the axes) may not
    give a source below another one that it gives for the side. A config
    key keeps its precedence unrefused, since one file may serve several
    commands, except where the route cannot compute with it: a spectrum
    file on a slab route, or a temperature on the zero-temperature one.
    """
    temperatures = given.intersection(_TEMPERATURE)
    if "beta" in route.reads:
        if len(temperatures) == 2:
            raise CliError(EXIT_CONFIG, "give either --beta or --temperature-kelvin, not both")
        if "temperature-kelvin" in given and cfg.units != "gaussian":
            raise CliError(EXIT_CONFIG, "--temperature-kelvin requires --units gaussian")
        if not temperatures:
            raise CliError(EXIT_CONFIG,
                           "a temperature is required: --beta or --temperature-kelvin")
    elif temperatures and route.target == "friction-slabs-zero":
        raise CliError(EXIT_CONFIG, "zero-temperature slabs take no temperature input")
    if route.target == "fields" and cfg.units == "gaussian":
        raise CliError(EXIT_CONFIG, "fields reports reduced units only")
    if route.name == "verify" and cfg.json_out:
        raise CliError(EXIT_CONFIG, "verify has no --json mirror; --out FILE writes its lines")
    drude_sides = _DRUDE_SIDES.get(route.target, ())
    shadows, paths = [], {}
    for side in (1, 2) if "D1" in route.reads else ():
        file, slope = "spectrum-file-%d" % side, "D%d" % side
        if {file, slope} <= flags:
            raise CliError(EXIT_CONFIG, "%s takes no --%s with --%s" % (route.name, slope, file))
        if side in drude_sides:
            shadows += [f for f in (file, slope) if f in flags]
        if file in given and file not in route.reads:
            raise CliError(EXIT_CONFIG, "slab commands need linear spectral slopes on side %d "
                           "(use --D%d or Drude parameters, not a spectrum file)" % (side, side))
        if file in given:
            paths[side] = getattr(cfg, _attr(file))
        elif slope not in given and not (side in drude_sides and "omega-p" in given):
            raise CliError(EXIT_CONFIG, "no spectrum for side %d: give %s%s" % (
                side, ", ".join("--" + f for f in (file, slope) if f in route.reads),
                ", or --omega-p/--nu" if side in drude_sides else ""))
    drude = [f for f in ("omega-p", "nu") if f in flags]
    if drude and shadows and len(shadows) == len(drude_sides):
        raise CliError(EXIT_CONFIG, "%s takes no --%s with %s"
                       % (route.name, drude[0], " and ".join("--" + f for f in shadows)))
    return paths


def _check_axes(cfg, route, args, max_points_name):
    """The sweep's axes are inputs of its route (argparse requires one), a
    temperature axis meets no fixed temperature, no parameter has two axes
    or an axis and its flag on the command line (a config key stays below
    an axis), and the grid's size is checked before any point is built;
    a message names the bound on the size by ``max_points_name``."""
    for ax in cfg.axes:
        if ax.name not in route.reads:
            raise CliError(EXIT_CONFIG, "axis %r does not apply to target %s"
                           % (ax.name, route.target))
    if any(ax.name in _TEMPERATURE for ax in cfg.axes) and (
            cfg.beta is not None or cfg.temperature_kelvin is not None):
        raise CliError(EXIT_CONFIG,
                       "temperature axis conflicts with a fixed temperature parameter")
    names = [ax.name for ax in cfg.axes]
    for name in names:
        if names.count(name) > 1:
            raise CliError(EXIT_CONFIG, "sweep takes one axis per parameter: %s has %d"
                           % (name, names.count(name)))
        if getattr(args, _attr(name)) is not None:
            raise CliError(EXIT_CONFIG, "sweep takes no --%s with an axis of %s" % (name, name))
    total = math.prod(ax.steps for ax in cfg.axes)
    if total > cfg.max_points:
        raise CliError(EXIT_CONFIG, "sweep of %d points exceeds %s %d"
                       % (total, max_points_name, cfg.max_points))


def _finite(name, value):
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))


def _parse_axis(spec):
    """The SweepAxis of ``spec``; _resolve checks that its bounds are finite."""
    parts = spec.split(":")
    if len(parts) not in (4, 5) or (len(parts) == 5 and parts[4] != "log"):
        raise CliError(
            EXIT_CONFIG, "axis %r is not param:min:max:steps[:log]" % spec
        )
    name = parts[0]
    numeric = {flag for flag, typ in _PARAMS if typ is float}
    if name not in numeric:
        raise CliError(EXIT_CONFIG, "unknown sweep parameter %r" % name)
    try:
        lo, hi = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError:
        raise CliError(EXIT_CONFIG, "axis %r has non-numeric fields" % spec)
    if steps < 1:
        raise CliError(EXIT_CONFIG, "axis %r needs at least one step" % spec)
    # not lo != hi: a nan bound is left to the check that bounds are finite
    if steps == 1 and (lo < hi or hi < lo):
        raise CliError(EXIT_CONFIG, "single-step axis %r needs min == max" % spec)
    log = len(parts) == 5
    if log and steps > 1 and (lo <= 0.0 or hi <= 0.0):
        raise CliError(EXIT_CONFIG, "log axis %r needs positive bounds" % spec)
    return SweepAxis(name, lo, hi, steps, log, spec)


# --- whole-grid evaluation ------------------------------------------------
#
# A sweep target is evaluated once over an open grid, the np.ix_ layout:
# sweep axis j has the shape (1, ..., n_j, ..., 1), the first axis
# outermost, so the grid's C order is itertools.product order, and a fixed
# parameter has the shape (1, ..., 1). The closed forms are the library's
# column functions (dipole_fields, friction_forces, geometry_coupling,
# materials_spectral, matsubara, units), each called once per grid with
# the grid as their ``ops``; broadcasting keeps each quantity at the shape
# of the axes it depends on, never tiled to the whole grid. Array
# arithmetic keeps to the correctly rounded operations (+ - * / sqrt),
# and every power goes through Python's float **. Only the free-energy
# bracket and a tabulated H0 go through their scalar functions, once per
# point of their columns (ops.map). Checks are masks that broadcast over the grid, and a failing
# grid reports the failure of its first failing point.
#
# A one-shot command runs the same evaluators on a _Point, whose ops are
# _ieee.FloatOps: its columns are Python floats, on which the same
# operations give the same bits, a check that fails raises at once, and
# no numpy is loaded. Python floats part from numpy only at the edges of
# the float range, where Python raises and numpy gives inf or nan; so
# every power goes through pow, and every divisor that earlier checks do
# not keep nonzero through div. On both, a power or a quotient past the
# float range fails its point with OverflowError, a subnormal power with
# FloatingPointError and a zero divisor with ZeroDivisionError, in every
# closed form alike.


class _Grid(_ieee.ArrayOps):
    """Parameter columns of a grid and the first failure among its points:
    ``given``, the float inputs as given, and ``columns``, the same in
    reduced units."""

    def __init__(self, cfg, shape, axis_columns):
        super().__init__(shape)
        self.cfg = cfg
        self.ctx = units.UnitContext(1.0) if cfg.units == "gaussian" else None
        self.given = {}
        for flag, typ in _PARAMS:
            value = getattr(cfg, _attr(flag))
            if typ is float and value is not None:
                self.given[_attr(flag)] = self.constant(value)
        # an axis replaces the fixed value of its parameter, from a config key
        for ax, col in zip(cfg.axes, axis_columns):
            self.given[_attr(ax.name)] = col
        # a Gaussian run converts each input it takes in Gaussian units, once
        self.columns = dict(self.given)
        if self.ctx is not None:
            for name in self.given.keys() & units.INPUT_DIM.keys():
                self.columns[name] = self.given[name] / self.ctx.factor(units.INPUT_DIM[name])


class _Point(_ieee.FloatOps, _Grid):
    """The grid of a one-shot command, shape (): its columns are Python
    floats, and the point fails at the first check it reaches."""

    def __init__(self, cfg):
        super().__init__(cfg, (), [])


def _grid_beta(grid):
    """Reduced inverse temperature column, from the one temperature input
    (_resolve has checked that there is one), each temperature positive."""
    kelvin = grid.columns.get("temperature_kelvin")
    if kelvin is not None:
        return units.kelvin_to_beta(grid.ctx, kelvin, grid)
    beta = grid.columns["beta"]
    grid.fail(beta <= 0.0, ValueError("beta must be positive"))
    return beta


def _grid_spectrum(grid, side, drude_rho=None):
    """One side's spectrum, from the source that _resolve has found: the
    tabulated density it has loaded, or a column of linear slopes D (from
    --D or the Drude parameters)."""
    if side in grid.cfg.spectra:
        return grid.cfg.spectra[side]
    slope = grid.columns.get("D%d" % side)
    if slope is not None:
        return materials_spectral.linear_slope(slope, grid)
    nu = grid.columns.get("nu")
    if nu is None:
        nu = grid.constant(0.0)
    return materials_spectral.drude_D(grid.columns["omega_p"], nu, drude_rho, grid)


def _grid_report(grid, regime, force, intermediates, inputs):
    """Report columns: regime, units and force, then the intermediates and
    the inputs, each sorted by name; Gaussian runs convert through
    units.gaussian_report, which echoes the inputs as given."""
    if grid.ctx is not None:
        force, intermediates, inputs = units.gaussian_report(
            grid.ctx, regime, force, intermediates, inputs, grid.given, grid)
    system = "reduced" if grid.ctx is None else "gaussian"
    return (
        [("regime", regime), ("units", system), ("force", force)]
        + sorted(intermediates.items())
        + sorted(inputs.items())
    )


def _grid_eigen(grid):
    alpha = grid.columns["alpha"]
    omega_plus, omega_minus, e0 = oscillator_pair.normal_modes(alpha, grid)
    return [("alpha", alpha), ("omega_plus", omega_plus),
            ("omega_minus", omega_minus), ("e0", e0)]


def _grid_free_energy(grid):
    alpha = grid.columns["alpha"]
    beta = _grid_beta(grid)
    f = matsubara.free_energy(alpha, beta, grid)
    cols = [("alpha", alpha), ("beta", beta), ("free_energy", f)]
    ctx = grid.ctx
    if ctx is not None:
        erg, kelvin = units.gaussian_free_energy(ctx, f, beta, grid.given, grid)
        cols += [("free_energy_erg", erg), ("temperature_kelvin", kelvin)]
    return cols


def _grid_fields(grid):
    """The fields and couplings on the axis r = (0, 0, d), and with z0 the
    half-space factor, of density rho1 or 1."""
    d = grid.columns["d"]
    alpha, b_y, e_x = dipole_fields.axial_fields(d, grid)
    psi_xy, g_xx, g_zz = geometry_coupling.axial_coupling(d, grid)
    cols = [("d", d), ("coupling_alpha", alpha), ("psi_xy", psi_xy), ("g_xx", g_xx),
            ("g_zz", g_zz), ("b_y_unit_pdot", b_y), ("e_x_unit_mdot", e_x)]
    z0, rho = grid.columns.get("z0"), grid.columns.get("rho1", grid.constant(1.0))
    if z0 is not None:
        grid.fail((z0 <= 0.0) | (rho <= 0.0), ValueError("z0 and rho must be positive"))
        g_h = geometry_coupling.G_halfspace(z0, rho, grid)
        cols += [("z0", z0), ("rho1", rho), ("g_halfspace", g_h)]
    return cols


def _grid_friction_pair(grid):
    beta = _grid_beta(grid)
    d, v = grid.columns["d"], grid.columns["v"]
    s1 = _grid_spectrum(grid, 1)
    s2 = _grid_spectrum(grid, 2)
    grid.fail(d <= 0.0, ValueError("d must be positive"))
    force, inter = friction_forces.pair_force(d, v, s1, s2, beta, grid)
    return _grid_report(grid, "pair-smoothed", force, inter, {"v": v, "d": d, "beta": beta})


def _grid_friction_plane(grid):
    beta = _grid_beta(grid)
    z0, rho = grid.columns["z0"], grid.columns["rho1"]
    grid.fail((z0 <= 0.0) | (rho <= 0.0), ValueError("z0 and rho must be positive"))
    s1 = _grid_spectrum(grid, 1)
    s2 = _grid_spectrum(grid, 2, drude_rho=rho)
    v = grid.columns["v"]
    force, inter = friction_forces.plane_force(z0, rho, v, s1, s2, beta, grid)
    return _grid_report(grid, "plane", force, inter, {"z0": z0, "rho": rho, "v": v, "beta": beta})


def _grid_slabs(grid):
    """Geometry, linear slopes and speed of both slab targets."""
    d, rho1, rho2 = grid.columns["d"], grid.columns["rho1"], grid.columns["rho2"]
    grid.fail((d <= 0.0) | (rho1 <= 0.0) | (rho2 <= 0.0),
              ValueError("d, rho1, rho2 must be positive"))
    return {"d": d, "rho1": rho1, "rho2": rho2, "D1": _grid_spectrum(grid, 1, drude_rho=rho1),
            "D2": _grid_spectrum(grid, 2, drude_rho=rho2), "v": grid.columns["v"]}


def _grid_slabs_finite(grid):
    inputs = _grid_slabs(grid)
    inputs["beta"] = _grid_beta(grid)
    force, inter = friction_forces.slabs_finite_force(**inputs, ops=grid)
    return _grid_report(grid, "slabs-finite-T", force, inter, inputs)


def _grid_slabs_zero(grid):
    inputs = _grid_slabs(grid)
    force, inter = friction_forces.slabs_zero_force(**inputs, ops=grid)
    return _grid_report(grid, "slabs-zero-T", force, inter, inputs)


def _run_point(cfg):
    """A one-shot command: its target's column function on a _Point."""
    grid = _Point(cfg)
    return _Table(_TARGET_RUNNERS[cfg.route.target](grid), (), grid.given.values())


def _run_sweep(cfg):
    shape = tuple(ax.steps for ax in cfg.axes)
    columns = np.ix_(*(ax.values() for ax in cfg.axes))
    grid = _Grid(cfg, shape, columns)
    cells = _TARGET_RUNNERS[cfg.route.target](grid)
    grid.raise_first()
    # axis echo gets its own columns; runners echo inputs under bare names
    sweep = [("sweep_" + _attr(ax.name), col) for ax, col in zip(cfg.axes, columns)]
    return _Table(sweep + cells, shape, grid.given.values())


# --- the route table --------------------------------------------------------
#
# A row is a route: its name, which is the command line that selects it;
# the sweep target that computes it (verify has none); the inputs it
# reads; the required ones among them; and its column function, which
# takes a grid. The parsers and their help, the sweep targets and their
# axes (a target's float inputs), the required-input check, the refusal of
# a flag the route does not read, _TARGET_RUNNERS and _RUNNERS all come
# from this table.

_Route = namedtuple("_Route", "name target reads required columns")


def _reads(*flags):
    """The inputs of a route that prints a table: the flags, --units and --seed."""
    return frozenset(flags + ("units", "seed"))


_TEMPERATURE = ("beta", "temperature-kelvin")
_SPECTRA = ("D1", "D2", "spectrum-file-1", "spectrum-file-2")
# linear slopes only: --D or a Drude metal's, whose rho is the slab's
_SLABS = ("d", "rho1", "rho2", "v", "omega-p", "nu", "D1", "D2")
_SLAB_REQUIRED = ("d", "rho1", "rho2", "v")
_ONE_SHOT = (
    _Route("eigen", "eigen", _reads("alpha"), ("alpha",), _grid_eigen),
    _Route("free-energy", "free-energy", _reads("alpha", *_TEMPERATURE), ("alpha",),
           _grid_free_energy),
    _Route("fields", "fields", _reads("d", "z0", "rho1"), ("d",), _grid_fields),
    _Route("friction pair", "friction-pair", _reads("d", "v", *_TEMPERATURE, *_SPECTRA),
           ("d", "v"), _grid_friction_pair),
    # a Drude metal stands on side 2, the half-space
    _Route("friction plane", "friction-plane",
           _reads("z0", "rho1", "v", *_TEMPERATURE, "omega-p", "nu", *_SPECTRA),
           ("z0", "rho1", "v"), _grid_friction_plane),
    _Route("friction slabs --temperature finite", "friction-slabs-finite",
           _reads(*_SLABS, *_TEMPERATURE), _SLAB_REQUIRED, _grid_slabs_finite),
    _Route("friction slabs --temperature zero", "friction-slabs-zero",
           _reads(*_SLABS), _SLAB_REQUIRED, _grid_slabs_zero),
)
_ROUTES = {route.name: route for route in (
    *_ONE_SHOT,
    *(route._replace(name="sweep --target " + route.target) for route in _ONE_SHOT),
    # its checks fix their own parameters and seeds
    _Route("verify", None, frozenset(), (), None),
)}
_TARGET_RUNNERS = {route.target: route.columns for route in _ONE_SHOT}
_RUNNERS = {route.name: _run_point for route in _ONE_SHOT}


def _config_echo(cfg):
    pairs = []
    for flag, _ in _PARAMS:
        value = getattr(cfg, _attr(flag))
        if value is not None:
            pairs.append((flag, value))
    pairs.append(("units", cfg.units))
    pairs.append(("seed", cfg.seed))
    # the option that picks the route: the slabs' temperature, a sweep's target
    pairs += [tuple(option.split()) for option in cfg.route.name.split(" --")[1:]]
    echo = ["%s=%s" % (k, _fmt(v)) for k, v in sorted(pairs)]
    echo += ["axis=%s" % ax.spec for ax in cfg.axes]
    return " ".join(echo)


def _fmt(value):
    return repr(float(value)) if isinstance(value, float) else str(value)


def _command_name(cfg):
    """The command words of the route's name."""
    return cfg.route.name.split(" --")[0]


class _Table:
    """Output columns over a grid of the given shape, one row per point in
    C order: (name, cells) pairs, the cells a string shared by every row or
    a float array of a shape that broadcasts to the grid's. A table of
    shape () is one row, its cells strings and Python floats. ``given``
    holds the input columns, the objects a cell echoes unchanged."""

    def __init__(self, columns, shape, given):
        self.columns = columns
        self.shape = shape
        self.given = tuple(given)

    def __len__(self):
        return math.prod(self.shape)


# a column of fewer values takes repr itself, and loads no _kernels
FLOAT_BLOCK = 2048


def _float_text(col):
    """repr of every value, a list over the column in C order; a column of
    at least FLOAT_BLOCK values gets it from one _kernels.float_reprs call."""
    flat = col.ravel()
    if flat.size < FLOAT_BLOCK:
        return list(map(repr, flat.tolist()))
    return _kernels.float_reprs(flat)


def _row_cells(texts, shape, sep, string_cell):
    """The cells of the rows of a grid of ``shape``, in column order, each a
    list over the rows. ``texts`` holds a column's string, put through
    ``string_cell``, or its float texts as (column shape, ``_float_text``).

    Adjacent cells that together vary over fewer than all the points (a
    string varies over none) are joined by ``sep`` at their own shape,
    before the texts are broadcast to the grid. A column over every point
    is its rows' cells as it is.
    """
    n = math.prod(shape)
    cells = []
    for text in texts:
        if isinstance(text, str):
            text = np.full((1,) * len(shape), string_cell(text), dtype=object)
        elif len(text[1]) == n:
            cells.append(text[1])
            continue
        else:
            text = np.array(text[1], dtype=object).reshape(text[0])
        # on an open grid each axis of a shape is 1 or the grid's
        if cells and not isinstance(cells[-1], list) and (
                math.prod(map(max, cells[-1].shape, text.shape)) < n):
            cells[-1] = cells[-1] + sep + text
        else:
            cells.append(text)
    return [
        text if isinstance(text, list) else np.broadcast_to(text, shape).ravel().tolist()
        for text in cells
    ]


# rows per write of _write_rows: each chunk string stays under ~200 KiB (a
# row of a 10k-point table takes ~95-375 bytes of CSV or JSON text), not
# the ~1.5 MB of 4096 rows; a closed-form sweep operation read ~3% faster
# than with 4096-row chunks in the median of 4 benchmark pairs, though
# only 2 of the 4 pairs read faster
_CHUNK_ROWS = 512


def _write_rows(fh, head, rows, sep, tail):
    """head, the rows joined by sep, then tail, a chunk of rows per write."""
    fh.write(head)
    chunk = list(itertools.islice(rows, _CHUNK_ROWS))
    while chunk:
        fh.write(sep.join(chunk))
        chunk = list(itertools.islice(rows, _CHUNK_ROWS))
        if chunk:
            fh.write(sep)
    fh.write(tail)


def _open_keeping(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _output_file(path):
    """The file at path, open for writing but not yet emptied (_empty does
    that once every output is open, so that an output that cannot be
    opened leaves the bytes of the others as they were); CliError if it
    cannot be opened or closed. Write to it under _writing."""
    try:
        with open(path, "w", opener=_open_keeping) as fh:
            yield fh
    except OSError as exc:
        raise CliError(EXIT_CONFIG, "cannot write %s: %s" % (path, exc))


def _empty(*files):
    """Truncate each regular file among the open outputs to 0 bytes; a
    device or a pipe, such as /dev/null, holds none and refuses it."""
    for fh in files:
        if fh and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            os.ftruncate(fh.fileno(), 0)


def _same_regular_file(a, b):
    """Whether two open files are one regular file, under any path or link
    (each would overwrite the other's bytes; a device or pipe keeps both).
    A stdout with no descriptor, such as a StringIO, is none."""
    try:
        sa = os.fstat(a.fileno())
    except (OSError, ValueError):
        return False
    sb = os.fstat(b.fileno())
    return stat.S_ISREG(sa.st_mode) and (sa.st_dev, sa.st_ino) == (sb.st_dev, sb.st_ino)


@contextlib.contextmanager
def _writing(fh):
    """Flush fh after the block; CliError if fh cannot be written. A
    stdout that cannot be written (its reader closed the pipe) is pointed
    at os.devnull, so that the flush at exit does not fail on it again."""
    try:
        yield
        fh.flush()
    except OSError as exc:
        if fh is sys.stdout:
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), fh.fileno())
        raise CliError(EXIT_CONFIG, "cannot write %s: %s" % (fh.name, exc))


def _check_printable(x, computed, point):
    """FloatingPointError unless every value of the float column x (a
    Python float if ``point``) is finite and, for a computed column,
    normal or zero: a subnormal has lost precision."""
    if not (math.isfinite(x) if point else np.isfinite(x).all()):
        raise FloatingPointError("a computed value is not finite")
    if computed and (0.0 < abs(x) < sys.float_info.min if point
                     else ((x != 0.0) & (np.abs(x) < sys.float_info.min)).any()):
        raise FloatingPointError(_ieee.SUBNORMAL)


def _text_rows(table):
    """A function of (sep, string_cell) giving the table's rows, each row's
    cells joined by sep, a string cell put through string_cell and a float
    cell as its repr; FloatingPointError if a float is not finite, or if
    a computed one is subnormal: an input echoed as given may be."""
    values = [cells for _, cells in table.columns]
    point = not table.shape
    # no NaN, inf or computed subnormal goes out with exit 0; checked
    # before any text exists. One vectorised pass over every float cell
    # clears the common table, whose magnitudes are all normal; a zero or
    # a failing value takes the exact test, column by column
    floats = [x for x in values if not isinstance(x, str)]
    if point:
        normal = all(sys.float_info.min <= abs(x) <= sys.float_info.max for x in floats)
    else:
        mags = np.abs(np.concatenate([x.ravel() for x in floats]))
        normal = mags.min() >= sys.float_info.min and mags.max() <= sys.float_info.max
    if not normal:
        given = {id(x) for x in table.given}
        for x in floats:
            _check_printable(x, id(x) not in given, point)
    if point:
        return lambda sep, string_cell: iter([sep.join(
            string_cell(x) if isinstance(x, str) else repr(float(x)) for x in values)])
    # one text array per column object: an axis column and an input that
    # echoes it unchanged are one array, and every array outlives this
    # call, so no id is reused
    by_id = {}
    texts = []
    for cells in values:
        if not isinstance(cells, str):
            if id(cells) not in by_id:
                by_id[id(cells)] = (cells.shape, _float_text(cells))
            cells = by_id[id(cells)]
        texts.append(cells)
    return lambda sep, string_cell: map(
        sep.join, zip(*_row_cells(texts, table.shape, sep, string_cell)))


def _emit(cfg, table):
    rows = _text_rows(table)
    names = [name for name, _ in table.columns]
    meta = [
        "# magfriction %s" % __version__,
        "# command: %s" % _command_name(cfg),
        "# units: %s" % cfg.units,
        "# config: %s" % _config_echo(cfg),
        ",".join(names),
    ]
    head = "\n".join(meta) + "\n"
    # every file is open before the first byte goes out, so that a file
    # that cannot be opened leaves stdout empty
    with contextlib.ExitStack() as files:
        csv_fh = files.enter_context(_output_file(cfg.out)) if cfg.out else sys.stdout
        json_fh = cfg.json_out and files.enter_context(_output_file(cfg.json_out))
        if json_fh and _same_regular_file(csv_fh, json_fh):
            raise CliError(EXIT_CONFIG, "--json names the file that takes the CSV: %s"
                           % cfg.json_out)
        _empty(cfg.out and csv_fh, json_fh)
        with _writing(csv_fh):
            _write_rows(csv_fh, head, rows(",", str), "\n", "\n")
        if not json_fh:
            return
        # the text of json.dump(doc, sort_keys=True, indent=2), its rows
        # streamed: JSON numbers are float.__repr__, as the CSV cells
        doc = {
            "version": __version__,
            "command": _command_name(cfg),
            "units": cfg.units,
            "config": _config_echo(cfg),
            "columns": names,
            "rows": "\0",
        }
        head, tail = json.dumps(doc, sort_keys=True, indent=2).rsplit('"\\u0000"', 1)
        with _writing(json_fh):
            # each row is "    [\n      <cells>\n    ]", the rows joined by ",\n"
            _write_rows(json_fh, head + "[\n    [\n      ", rows(",\n      ", json.dumps),
                        "\n    ],\n    [\n      ", "\n    ]\n  ]" + tail + "\n")


def _run_verify(cfg):
    lines = []

    def sink(line):
        lines.append(line)
        with _writing(sys.stdout):
            sys.stdout.write(line + "\n")

    # --out is open before the first check runs
    with _output_file(cfg.out) if cfg.out else contextlib.nullcontext() as fh:
        _empty(fh)
        ok = verification.run_suite(cfg.suite, out=sink)
        if fh:
            with _writing(fh):
                fh.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_NUMERIC


def main(argv=None):
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        cfg = _resolve(args)
        if cfg.route.name == "verify":
            return _run_verify(cfg)
        # numpy warnings stay off stderr (_emit refuses a value that is not
        # finite); a one-shot command that loaded no spectrum file computes
        # on Python floats and loads no numpy
        arrays = cfg.axes or cfg.spectra
        with np.errstate(all="ignore") if arrays else contextlib.nullcontext():
            table = _run_sweep(cfg) if cfg.axes else _RUNNERS[cfg.route.name](cfg)
        _emit(cfg, table)
        return EXIT_OK
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except (ArithmeticError, _ieee.QuadratureError) as exc:  # none of them a ValueError
        if isinstance(exc, OverflowError):
            # Python-float arithmetic says only "(34, 'Numerical result out of range')"
            reason = "a computed value overflows the float range"
        elif isinstance(exc, ZeroDivisionError):
            # a Python-float power underflowed to zero and then divided
            reason = "a divisor underflows to zero"
        else:
            reason = exc
        sys.stderr.write("numerical failure: %s: %s\n" % (_command_name(cfg), reason))
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return EXIT_VALIDATION


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
