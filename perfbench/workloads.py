"""Seeded operation generators for the benchmark workloads.

Every workload is a fixed cycle of operation kinds; cycle ``k`` of a run
draws its inputs from ``numpy.random.default_rng([seed, k])``, so the same
seed gives the same operations whatever the run length. An
operation is one ``magfriction`` command line plus the inputs its oracle
needs (see ``oracles.py``). The program only ever sees the command line.

Why these workloads (all closed loop, one caller that waits for each
result, as a command-line user does):

- ``oneshot``: cold ``python -m magfriction.cli`` processes over the seven
  documented commands. Import and start-up dominate; compute is tiny.
- ``sweep-closed``: in-process 10k-point sweeps over closed-form targets.
  Per-point configuration/report plumbing and CSV/JSON emission dominate.
- ``sweep-numeric``: in-process sweeps whose points take the numeric
  routes (Matsubara mode sums, tabulated-spectrum quadrature). Same sweep
  layer as ``sweep-closed``, different per-point work.
- ``verify``: in-process ``verify --suite all``; the only workload that
  runs the RK4 trajectory and Monte Carlo routes.
"""

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("oneshot", "sweep-closed", "sweep-numeric", "verify")

# Spectrum files: linear densities s(m) = D*m sampled on [0, M_MAX]. Linear
# interpolation of a linear function is exact, and beta*M_MAX >= 120 for
# every beta drawn below, so the dropped tail is below 1e-40 relative and
# the quadrature route must reproduce the linear-D closed form.
M_MAX = 60.0
M_POINTS = 301
N_SPECTRA = 4

# free-energy sweeps: the CLI picks n_max ~ alpha^(2/3)*beta per point, so
# holding alpha^(2/3)*beta_max fixed keeps the mode-sum work per operation
# the same for every seed (top point ~4e6 terms).
FE_WORK = 1.18e4


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its oracle needs to check it.

    ``kind`` names the oracle; ``params`` holds the scalar inputs as
    passed; ``axes`` holds sweep axes as (name, lo, hi, steps, log);
    ``units`` is the CLI unit system; ``out``/``json_out`` are the files
    the command writes instead of (or besides) stdout.
    """

    kind: str
    argv: tuple
    params: dict
    axes: tuple = ()
    units: str = "reduced"
    out: str = None
    json_out: str = None
    rows: int = 1
    cold: bool = False
    spectra: dict = field(default_factory=dict)


def _num(x):
    return repr(float(x))


def _argv(command, params, axes=(), extra=()):
    argv = list(command)
    for name, value in params.items():
        argv += ["--" + name, value if isinstance(value, str) else _num(value)]
    for name, lo, hi, steps, log in axes:
        argv += ["--axis", "%s:%s:%s:%d%s" % (name, _num(lo), _num(hi), steps, ":log" if log else "")]
    return tuple(argv) + tuple(extra) + ("--workers", "1")


def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def write_spectra(seed, directory):
    """Write the seeded spectrum files; returns {path: slope}."""
    slopes = np.random.default_rng([seed, 1 << 20]).uniform(0.2, 2.0, N_SPECTRA)
    m = np.linspace(0.0, M_MAX, M_POINTS)
    files = {}
    for i, slope in enumerate(float(x) for x in slopes):
        path = os.path.join(directory, "spectrum_%d.txt" % i)
        with open(path, "w") as fh:
            fh.write("# linear density s(m) = %r * m\n" % slope)
            for mi in m:
                fh.write("%r %r\n" % (float(mi), float(slope * mi)))
        files[path] = slope
    return files


# --------------------------------------------------------------- oneshot

def _oneshot_cycle(rng, k, work, spectra):
    ops = []

    def add(kind, command, params, units="reduced"):
        if units == "gaussian":
            argv = _argv(command, params, extra=("--units", "gaussian"))
        else:
            argv = _argv(command, params)
        ops.append(Op(kind, argv, params, units=units, cold=True))

    add("eigen", ["eigen"], {"alpha": rng.uniform(0.05, 4.0)})
    # odd cycles give the temperature in kelvin (tiny beta, series branch)
    if k % 2:
        add("free-energy", ["free-energy"],
            {"alpha": rng.uniform(0.05, 1.0), "temperature-kelvin": rng.uniform(50.0, 500.0)},
            units="gaussian")
    else:
        add("free-energy", ["free-energy"],
            {"alpha": rng.uniform(0.05, 1.0), "beta": _loguniform(rng, 0.1, 100.0)})
    add("fields", ["fields"],
        {"d": rng.uniform(0.5, 5.0), "z0": rng.uniform(0.5, 5.0), "rho1": rng.uniform(0.5, 3.0)})
    add("pair", ["friction", "pair"],
        {"d": _loguniform(rng, 1e-7, 1e-5), "temperature-kelvin": rng.uniform(50.0, 500.0),
         "v": _loguniform(rng, 1.0, 1e4), "D1": _loguniform(rng, 1e-31, 1e-29),
         "D2": _loguniform(rng, 1e-31, 1e-29)},
        units="gaussian")
    add("plane", ["friction", "plane"],
        {"z0": rng.uniform(0.5, 5.0), "rho1": rng.uniform(0.5, 3.0),
         "beta": _loguniform(rng, 0.5, 50.0), "v": _loguniform(rng, 1e-4, 1e-2),
         "D1": rng.uniform(0.1, 2.0), "D2": rng.uniform(0.1, 2.0)})
    add("slabs-finite", ["friction", "slabs", "--temperature", "finite"],
        {"d": _loguniform(rng, 1e-7, 1e-5), "rho1": _loguniform(rng, 1e21, 1e23),
         "rho2": _loguniform(rng, 1e21, 1e23), "D1": _loguniform(rng, 1e-31, 1e-29),
         "D2": _loguniform(rng, 1e-31, 1e-29), "v": _loguniform(rng, 1.0, 1e4),
         "temperature-kelvin": rng.uniform(50.0, 500.0)},
        units="gaussian")
    add("slabs-zero", ["friction", "slabs", "--temperature", "zero"],
        {"d": rng.uniform(0.5, 5.0), "rho1": rng.uniform(0.5, 3.0), "rho2": rng.uniform(0.5, 3.0),
         "D1": rng.uniform(0.1, 2.0), "D2": rng.uniform(0.1, 2.0),
         "v": _loguniform(rng, 1e-3, 1e-1)})
    return ops


# ---------------------------------------------------------- sweep-closed

def _span(rng, lo, hi, ratio):
    """Seeded [a, a*ratio] inside [lo, hi*ratio]."""
    a = rng.uniform(lo, hi)
    return a, a * ratio


def _sweep_op(kind, target, params, axes, work, tag, to_files, spectra=None):
    rows = int(np.prod([ax[3] for ax in axes]))
    out = json_out = None
    extra = ()
    if to_files:
        out = os.path.join(work, "%s.csv" % tag)
        json_out = os.path.join(work, "%s.json" % tag)
        extra = ("--out", out, "--json", json_out)
    argv = _argv(["sweep", "--target", target], params, axes, extra)
    return Op(kind, argv, params, axes=tuple(axes), out=out, json_out=json_out, rows=rows,
              spectra=spectra or {})


def _sweep_closed_cycle(rng, k, work, spectra, n=100):
    b_lo, b_hi = _span(rng, 0.5, 2.0, 20.0)
    d_lo, d_hi = _span(rng, 0.5, 1.5, 4.0)
    slabs_finite = _sweep_op(
        "slabs-finite", "friction-slabs-finite",
        {"rho1": rng.uniform(0.5, 3.0), "rho2": rng.uniform(0.5, 3.0),
         "D1": rng.uniform(0.1, 2.0), "D2": rng.uniform(0.1, 2.0),
         "v": _loguniform(rng, 1e-4, 1e-2)},
        [("beta", b_lo, b_hi, n, True), ("d", d_lo, d_hi, n, False)],
        work, "c%d_slabs_finite" % k, to_files=False,
    )
    v_lo, v_hi = _span(rng, 1e-3, 2e-3, 50.0)
    d_lo, d_hi = _span(rng, 0.5, 1.5, 4.0)
    slabs_zero = _sweep_op(
        "slabs-zero", "friction-slabs-zero",
        {"rho1": rng.uniform(0.5, 3.0), "rho2": rng.uniform(0.5, 3.0),
         "D1": rng.uniform(0.1, 2.0), "D2": rng.uniform(0.1, 2.0)},
        [("v", v_lo, v_hi, n, True), ("d", d_lo, d_hi, n, False)],
        work, "c%d_slabs_zero" % k, to_files=True,
    )
    d_lo, d_hi = _span(rng, 0.5, 1.5, 4.0)
    v_lo, v_hi = _span(rng, 1e-4, 2e-4, 50.0)
    pair = _sweep_op(
        "pair", "friction-pair",
        {"beta": _loguniform(rng, 0.5, 50.0), "D1": rng.uniform(0.1, 2.0),
         "D2": rng.uniform(0.1, 2.0)},
        [("d", d_lo, d_hi, n, False), ("v", v_lo, v_hi, n, True)],
        work, "c%d_pair" % k, to_files=True,
    )
    a_lo, a_hi = _span(rng, 0.05, 0.5, 8.0)
    eigen = _sweep_op(
        "eigen", "eigen", {}, [("alpha", a_lo, a_hi, n * n, False)],
        work, "c%d_eigen" % k, to_files=False,
    )
    return [slabs_finite, slabs_zero, pair, eigen]


# --------------------------------------------------------- sweep-numeric

def _sweep_numeric_cycle(rng, k, work, spectra, n_beta=40, n_grid=8):
    paths = sorted(spectra)
    alpha = rng.uniform(0.04, 0.06)
    beta_max = FE_WORK / alpha ** (2.0 / 3.0)
    free_energy = _sweep_op(
        "free-energy", "free-energy", {"alpha": alpha},
        [("beta", 1.0, beta_max, n_beta, True)],
        work, "n%d_free_energy" % k, to_files=False,
    )
    s1, s2, s3, s4 = (paths[i] for i in rng.permutation(len(paths)))
    d_lo, d_hi = _span(rng, 0.5, 1.5, 4.0)
    v_lo, v_hi = _span(rng, 1e-4, 2e-4, 50.0)
    pair = _sweep_op(
        "pair-tabulated", "friction-pair",
        {"beta": rng.uniform(2.0, 4.0), "spectrum-file-1": s1, "spectrum-file-2": s2},
        [("d", d_lo, d_hi, n_grid, False), ("v", v_lo, v_hi, n_grid, True)],
        work, "n%d_pair" % k, to_files=False, spectra=spectra,
    )
    z_lo, z_hi = _span(rng, 0.5, 1.5, 4.0)
    v_lo, v_hi = _span(rng, 1e-4, 2e-4, 50.0)
    plane = _sweep_op(
        "plane-tabulated", "friction-plane",
        {"rho1": rng.uniform(0.5, 3.0), "beta": rng.uniform(2.0, 4.0),
         "spectrum-file-1": s3, "spectrum-file-2": s4},
        [("z0", z_lo, z_hi, n_grid, False), ("v", v_lo, v_hi, n_grid, True)],
        work, "n%d_plane" % k, to_files=True, spectra=spectra,
    )
    return [free_energy, pair, plane]


# ---------------------------------------------------------------- verify

def _verify_cycle(rng, k, work, spectra):
    return [Op("verify", ("verify", "--suite", "all", "--workers", "1"), {}, rows=0)]


_CYCLES = {
    "oneshot": _oneshot_cycle,
    "sweep-closed": _sweep_closed_cycle,
    "sweep-numeric": _sweep_numeric_cycle,
    "verify": _verify_cycle,
}

# reduced sizes for the self-test mode: same kinds, small grids
_SHORT = {
    "sweep-closed": {"n": 10},
    "sweep-numeric": {"n_beta": 6, "n_grid": 2},
}


def cycle(workload, seed, k, work, spectra, short=False):
    """Operations of cycle ``k`` of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, k])
    kwargs = _SHORT.get(workload, {}) if short else {}
    return _CYCLES[workload](rng, k, work, spectra, **kwargs)
