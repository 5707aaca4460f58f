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
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from magfriction import __version__, dipole_fields, geometry_coupling, materials_spectral, matsubara
from magfriction import friction_forces, numerics, oscillator_pair, verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_CONFIG = 3

_NUMERIC_ERRORS = (
    numerics.QuadratureError,
    numerics.McSamplingError,
    numerics.SeriesError,
    numerics.FitError,
    materials_spectral.ExtractionError,
    AssertionError,
    FloatingPointError,
)

# long-flag name and parser for everything settable from a config file
_PARAMS = (
    ("alpha", float), ("beta", float), ("temperature-kelvin", float),
    ("d", float), ("z0", float), ("rho1", float), ("rho2", float),
    ("omega-p", float), ("nu", float), ("D1", float), ("D2", float),
    ("v", float),
    ("spectrum-file-1", str), ("spectrum-file-2", str),
)
_SETTINGS = (
    ("units", str), ("seed", int), ("workers", int), ("max-points", int),
)
_DEFAULTS = {"units": "reduced", "seed": 0, "workers": 1, "max_points": 10000}

_SWEEP_AXES = {
    "eigen": ("alpha",),
    "free-energy": ("alpha", "beta", "temperature-kelvin"),
    "friction-pair": ("d", "v", "beta", "temperature-kelvin", "D1", "D2"),
    "friction-plane": ("z0", "rho1", "v", "beta", "temperature-kelvin", "D1", "D2"),
    "friction-slabs-finite": (
        "d", "rho1", "rho2", "v", "beta", "temperature-kelvin", "D1", "D2",
    ),
    "friction-slabs-zero": ("d", "rho1", "rho2", "v", "D1", "D2"),
}


class CliError(Exception):
    """Carries the process exit code for a user-facing failure."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit(2) on bad flags; route that to exit code 3
    def error(self, message):
        raise CliError(EXIT_CONFIG, message)


@dataclass
class RunConfig:
    """Fully resolved invocation: the command and every parameter."""

    command: str
    geometry: str = None
    temperature_mode: str = None
    suite: str = None
    target: str = None
    axes: tuple = ()
    units: str = "reduced"
    seed: int = 0
    workers: int = 1
    max_points: int = 10000
    out: str = None
    json_out: str = None
    alpha: float = None
    beta: float = None
    temperature_kelvin: float = None
    d: float = None
    z0: float = None
    rho1: float = None
    rho2: float = None
    omega_p: float = None
    nu: float = None
    D1: float = None
    D2: float = None
    v: float = None
    spectrum_file_1: str = None
    spectrum_file_2: str = None


@dataclass(frozen=True)
class ResultRow:
    """One output record: parallel column-name and value tuples."""

    columns: tuple
    values: tuple


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: parameter flag name and its grid."""

    name: str
    values: tuple
    spec: str


def _attr(flag):
    return flag.replace("-", "_")


def _add_common(parser):
    for flag, typ in _PARAMS:
        parser.add_argument("--" + flag, type=typ, default=None)
    parser.add_argument("--units", choices=["reduced", "gaussian"], default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--json", dest="json_out", type=str, default=None)
    parser.add_argument("--config", type=str, default=None)


def _build_parser():
    parser = _Parser(prog="magfriction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eigen", "free-energy", "fields"):
        _add_common(sub.add_parser(name))
    fr = sub.add_parser("friction")
    geo = fr.add_subparsers(dest="geometry", required=True)
    _add_common(geo.add_parser("pair"))
    _add_common(geo.add_parser("plane"))
    slabs = geo.add_parser("slabs")
    _add_common(slabs)
    slabs.add_argument("--temperature", choices=["finite", "zero"], required=True)
    sw = sub.add_parser("sweep")
    _add_common(sw)
    sw.add_argument("--target", choices=sorted(_SWEEP_AXES), required=True)
    sw.add_argument("--axis", action="append", default=[], required=True)
    sw.add_argument("--max-points", type=int, default=None)
    vf = sub.add_parser("verify")
    _add_common(vf)
    vf.add_argument(
        "--suite", choices=sorted(verification.SUITES) + ["all"], default="all"
    )
    return parser


def _load_config_file(path):
    known = {flag: typ for flag, typ in _PARAMS + _SETTINGS}
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
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
        try:
            out[key] = known[key](value)
        except ValueError:
            raise CliError(EXIT_CONFIG, "bad value for config key %r" % key)
    return out


def _resolve(args):
    """Merge CLI > config file > defaults into a RunConfig."""
    file_values = _load_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=args.command)
    for flag, typ in _PARAMS + _SETTINGS:
        attr = _attr(flag)
        value = getattr(args, attr, None)
        if value is None:
            value = file_values.get(flag)
        if value is None:
            value = _DEFAULTS.get(attr)
        elif typ is float:
            _finite("--" + flag, value)
        setattr(cfg, attr, value)
    cfg.out = args.out
    cfg.json_out = args.json_out
    cfg.geometry = getattr(args, "geometry", None)
    cfg.temperature_mode = getattr(args, "temperature", None)
    cfg.suite = getattr(args, "suite", None)
    cfg.target = getattr(args, "target", None)
    if getattr(args, "axis", None):
        cfg.axes = tuple(_parse_axis(spec) for spec in args.axis)
    if cfg.workers < 1:
        raise CliError(EXIT_CONFIG, "--workers must be at least 1")
    return cfg


def _finite(name, value):
    # float() takes 'nan' and 'inf'; no input, from flag, file or axis, may be either
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))


def _parse_axis(spec):
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
    _finite("axis %r bounds" % spec, lo)
    _finite("axis %r bounds" % spec, hi)
    if steps < 1:
        raise CliError(EXIT_CONFIG, "axis %r needs at least one step" % spec)
    if steps == 1:
        if lo != hi:
            raise CliError(EXIT_CONFIG, "single-step axis %r needs min == max" % spec)
        values = (lo,)
    elif len(parts) == 5:
        if lo <= 0.0 or hi <= 0.0:
            raise CliError(EXIT_CONFIG, "log axis %r needs positive bounds" % spec)
        values = tuple(float(x) for x in np.geomspace(lo, hi, steps))
    else:
        values = tuple(float(x) for x in np.linspace(lo, hi, steps))
    return SweepAxis(name, values, spec)


def _units_ctx(cfg):
    if cfg.units == "gaussian":
        return friction_forces.UnitContext.gaussian_cgs(length_scale=1.0)
    return None


def _to_reduced(cfg, name, ctx):
    """One input parameter in reduced units, or None if unset."""
    value = getattr(cfg, name)
    if value is None or ctx is None:
        return value
    return value / ctx.factor(friction_forces.INPUT_DIM[name])


def _resolve_beta(cfg, ctx, required=True):
    has_beta = cfg.beta is not None
    has_kelvin = cfg.temperature_kelvin is not None
    if has_beta and has_kelvin:
        raise CliError(
            EXIT_CONFIG, "give either --beta or --temperature-kelvin, not both"
        )
    if has_kelvin:
        if ctx is None:
            raise CliError(
                EXIT_CONFIG, "--temperature-kelvin requires --units gaussian"
            )
        return ctx.beta_from_kelvin(cfg.temperature_kelvin)
    if has_beta:
        if cfg.beta <= 0.0:
            raise ValueError("beta must be positive")
        return cfg.beta
    if required:
        raise CliError(
            EXIT_CONFIG, "a temperature is required: --beta or --temperature-kelvin"
        )
    return None


def _need(cfg, *names):
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise CliError(
            EXIT_CONFIG,
            "missing required parameter(s): "
            + ", ".join("--" + n.replace("_", "-") for n in missing),
        )


def _spectrum(cfg, side, ctx, drude_rho=None):
    """Spectral density for side 1 or 2: file > slope > Drude parameters."""
    path = getattr(cfg, "spectrum_file_%d" % side)
    if path is not None:
        try:
            return materials_spectral.TabulatedSpectralDensity.from_text(path)
        except materials_spectral.SpectrumFileError as exc:
            raise CliError(EXIT_CONFIG, str(exc))
    slope = _to_reduced(cfg, "D%d" % side, ctx)
    if slope is not None:
        return materials_spectral.LinearSpectralDensity(slope)
    if cfg.omega_p is not None and drude_rho is not None:
        params = materials_spectral.DrudeParams(
            _to_reduced(cfg, "omega_p", ctx),
            _to_reduced(cfg, "nu", ctx) if cfg.nu is not None else 0.0,
            drude_rho,
        )
        return materials_spectral.drude_D(params)
    raise CliError(
        EXIT_CONFIG,
        "no spectrum for side %d: give --spectrum-file-%d, --D%d%s"
        % (side, side, side, "" if drude_rho is None else ", or --omega-p/--nu"),
    )


def _linear_slope(spec, side):
    if spec.is_linear:
        return spec.D
    raise CliError(
        EXIT_CONFIG,
        "slab commands need linear spectral slopes on side %d "
        "(use --D%d or Drude parameters, not a spectrum file)" % (side, side),
    )


def _finalize_report(rep, ctx):
    return rep if ctx is None else friction_forces.to_physical_units(rep, ctx)


def _report_row(rep):
    cols = ["regime", "units", "force"]
    vals = [rep.regime, rep.units, rep.force]
    for name in sorted(rep.intermediates):
        cols.append(name)
        vals.append(rep.intermediates[name])
    for name in sorted(rep.inputs):
        cols.append(name)
        vals.append(rep.inputs[name])
    return ResultRow(tuple(cols), tuple(vals))


def _run_eigen(cfg):
    _need(cfg, "alpha")
    if cfg.alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    wp, wm = oscillator_pair.eigenfrequencies(cfg.alpha)
    e0 = oscillator_pair.ground_state_energy(cfg.alpha)
    return ResultRow(
        ("alpha", "omega_plus", "omega_minus", "e0"), (cfg.alpha, wp, wm, e0)
    )


def _run_free_energy(cfg):
    _need(cfg, "alpha")
    ctx = _units_ctx(cfg)
    beta = _resolve_beta(cfg, ctx)
    f = matsubara.free_energy(cfg.alpha, beta)
    cols = ["alpha", "beta", "free_energy"]
    vals = [cfg.alpha, beta, f]
    if ctx is not None:
        cols += ["free_energy_erg", "temperature_kelvin"]
        vals += [f * ctx.energy_scale, ctx.kelvin_from_beta(beta)]
    return ResultRow(tuple(cols), tuple(vals))


def _run_fields(cfg):
    _need(cfg, "d")
    if _units_ctx(cfg) is not None:
        raise CliError(EXIT_CONFIG, "fields reports reduced units only")
    d = cfg.d
    rvec = [0.0, 0.0, d]
    psi = geometry_coupling.coupling_psi(rvec)
    G = geometry_coupling.G_tensor(rvec)
    b = dipole_fields.magnetic_field_quasistatic([1.0, 0.0, 0.0], rvec)
    e = dipole_fields.electric_field_quasistatic([0.0, 1.0, 0.0], rvec)
    cols = ["d", "coupling_alpha", "psi_xy", "g_xx", "g_zz", "b_y_unit_pdot",
            "e_x_unit_mdot"]
    vals = [d, dipole_fields.coupling_alpha(rvec), float(psi[0, 1]),
            float(G[0, 0]), float(G[2, 2]), float(b[1]), float(e[0])]
    if cfg.z0 is not None:
        rho = cfg.rho1 if cfg.rho1 is not None else 1.0
        cols += ["z0", "rho1", "g_halfspace"]
        vals += [cfg.z0, rho,
                 geometry_coupling.G_halfspace(geometry_coupling.PlaneGeometry(cfg.z0, rho))]
    return ResultRow(tuple(cols), tuple(vals))


def _run_friction_pair(cfg):
    _need(cfg, "d", "v")
    ctx = _units_ctx(cfg)
    beta = _resolve_beta(cfg, ctx)
    d = _to_reduced(cfg, "d", ctx)
    v = _to_reduced(cfg, "v", ctx)
    s1 = _spectrum(cfg, 1, ctx)
    s2 = _spectrum(cfg, 2, ctx)
    if d is None or d <= 0.0:
        raise ValueError("d must be positive")
    g_xx = float(geometry_coupling.G_tensor([0.0, 0.0, d])[0, 0])
    h0 = materials_spectral.smoothed_H0(s1, s2, beta)
    rep = friction_forces.smoothed_forces(g_xx, v, h0, "pair-smoothed")
    rep = replace(rep, inputs={**rep.inputs, "d": d, "beta": beta})
    return _report_row(_finalize_report(rep, ctx))


def _run_friction_plane(cfg):
    _need(cfg, "z0", "rho1", "v")
    ctx = _units_ctx(cfg)
    beta = _resolve_beta(cfg, ctx)
    geom = geometry_coupling.PlaneGeometry(
        _to_reduced(cfg, "z0", ctx), _to_reduced(cfg, "rho1", ctx)
    )
    s1 = _spectrum(cfg, 1, ctx)
    s2 = _spectrum(cfg, 2, ctx, drude_rho=geom.rho)
    rep = friction_forces.plane_force(geom, _to_reduced(cfg, "v", ctx), s1, s2, beta)
    return _report_row(_finalize_report(rep, ctx))


def _run_friction_slabs(cfg):
    _need(cfg, "d", "rho1", "rho2", "v")
    ctx = _units_ctx(cfg)
    geom = geometry_coupling.SlabGeometry(
        _to_reduced(cfg, "d", ctx),
        _to_reduced(cfg, "rho1", ctx),
        _to_reduced(cfg, "rho2", ctx),
    )
    d1 = _linear_slope(_spectrum(cfg, 1, ctx, drude_rho=geom.rho1), 1)
    d2 = _linear_slope(_spectrum(cfg, 2, ctx, drude_rho=geom.rho2), 2)
    v = _to_reduced(cfg, "v", ctx)
    if cfg.temperature_mode == "finite":
        beta = _resolve_beta(cfg, ctx)
        rep = friction_forces.finite_T_slab_force(geom, v, d1, d2, beta)
    else:
        if cfg.beta is not None or cfg.temperature_kelvin is not None:
            raise CliError(
                EXIT_CONFIG, "zero-temperature slabs take no temperature input"
            )
        rep = friction_forces.zero_T_slab_force(geom, v, d1, d2)
    return _report_row(_finalize_report(rep, ctx))


_RUNNERS = {
    "eigen": _run_eigen,
    "free-energy": _run_free_energy,
    "fields": _run_fields,
    ("friction", "pair"): _run_friction_pair,
    ("friction", "plane"): _run_friction_plane,
    ("friction", "slabs"): _run_friction_slabs,
}

_TARGET_RUNNERS = {
    "eigen": _run_eigen,
    "free-energy": _run_free_energy,
    "friction-pair": _run_friction_pair,
    "friction-plane": _run_friction_plane,
    "friction-slabs-finite": _run_friction_slabs,
    "friction-slabs-zero": _run_friction_slabs,
}


def _sweep_points(cfg):
    axes = cfg.axes
    if not axes:
        raise CliError(EXIT_CONFIG, "sweep needs at least one --axis")
    allowed = _SWEEP_AXES[cfg.target]
    for ax in axes:
        if ax.name not in allowed:
            raise CliError(
                EXIT_CONFIG,
                "axis %r does not apply to target %s" % (ax.name, cfg.target),
            )
    temp_axes = {"beta", "temperature-kelvin"}
    if any(ax.name in temp_axes for ax in axes):
        if cfg.beta is not None or cfg.temperature_kelvin is not None:
            raise CliError(
                EXIT_CONFIG,
                "temperature axis conflicts with a fixed temperature parameter",
            )
    total = math.prod(len(ax.values) for ax in axes)
    if total > cfg.max_points:
        raise CliError(
            EXIT_CONFIG,
            "sweep of %d points exceeds --max-points %d" % (total, cfg.max_points),
        )
    # axis-major: first --axis is the outermost loop
    return list(itertools.product(*(ax.values for ax in axes)))


def _run_sweep(cfg):
    base = replace(cfg)
    base.temperature_mode = "zero" if cfg.target == "friction-slabs-zero" else "finite"
    runner = _TARGET_RUNNERS[cfg.target]
    points = _sweep_points(cfg)
    names = [ax.name for ax in cfg.axes]
    # axis echo gets its own columns; runners echo inputs under bare names
    axis_cols = tuple("sweep_" + _attr(name) for name in names)
    rows = []
    for point in points:
        sub = replace(base)
        for name, value in zip(names, point):
            setattr(sub, _attr(name), value)
        row = runner(sub)
        rows.append(ResultRow(axis_cols + row.columns, tuple(point) + row.values))
    return rows


def _config_echo(cfg):
    pairs = []
    for flag, _ in _PARAMS:
        value = getattr(cfg, _attr(flag))
        if value is not None:
            pairs.append((flag, value))
    pairs.append(("units", cfg.units))
    pairs.append(("seed", cfg.seed))
    if cfg.temperature_mode is not None and cfg.command == "friction":
        pairs.append(("temperature", cfg.temperature_mode))
    if cfg.target is not None:
        pairs.append(("target", cfg.target))
    echo = ["%s=%s" % (k, _fmt(v)) for k, v in sorted(pairs)]
    echo += ["axis=%s" % ax.spec for ax in cfg.axes]
    return " ".join(echo)


def _fmt(value):
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _command_name(cfg):
    if cfg.command == "friction":
        return "friction %s" % cfg.geometry
    return cfg.command


_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _emit(cfg, rows):
    columns = rows[0].columns
    for row in rows[1:]:
        if row.columns != columns:
            raise AssertionError("inconsistent sweep columns")
    meta = [
        "# magfriction %s" % __version__,
        "# command: %s" % _command_name(cfg),
        "# units: %s" % cfg.units,
        "# config: %s" % _config_echo(cfg),
    ]
    lines = meta + [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row.values))
    text = "\n".join(lines) + "\n"
    # no NaN or inf goes out with exit 0; two substring scans keep the
    # per-cell test off the path of finite output
    if ("nan" in text or "inf" in text) and not _NON_FINITE.isdisjoint(
        text.replace("\n", ",").split(",")
    ):
        raise FloatingPointError("a computed value is not finite")
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_CONFIG, "cannot write %s: %s" % (cfg.out, exc))
    else:
        sys.stdout.write(text)
    if cfg.json_out:
        doc = {
            "version": __version__,
            "command": _command_name(cfg),
            "units": cfg.units,
            "config": _config_echo(cfg),
            "columns": list(columns),
            "rows": [
                [v if isinstance(v, str) else float(v) for v in row.values]
                for row in rows
            ],
        }
        try:
            with open(cfg.json_out, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise CliError(EXIT_CONFIG, "cannot write %s: %s" % (cfg.json_out, exc))


def _run_verify(cfg):
    lines = []

    def sink(line):
        lines.append(line)
        sys.stdout.write(line + "\n")

    ok = verification.run_suite(cfg.suite, out=sink)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise CliError(EXIT_CONFIG, "cannot write %s: %s" % (cfg.out, exc))
    return EXIT_OK if ok else EXIT_NUMERIC


def main(argv=None):
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        cfg = _resolve(args)
        if cfg.command == "verify":
            return _run_verify(cfg)
        if cfg.command == "sweep":
            rows = _run_sweep(cfg)
        else:
            key = (cfg.command, cfg.geometry) if cfg.command == "friction" else cfg.command
            rows = [_RUNNERS[key](cfg)]
        _emit(cfg, rows)
        return EXIT_OK
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except OverflowError:
        # Python-float arithmetic says only "(34, 'Numerical result out of range')"
        sys.stderr.write(
            "numerical failure: %s: a computed value overflows the float range\n"
            % _command_name(args)
        )
        return EXIT_NUMERIC
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return EXIT_VALIDATION


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
