"""Value-based output oracles, one per operation kind.

Each oracle recomputes the expected numbers from the inputs the benchmark
generated, by the paper's closed forms written out here independently of
the package, and compares them with the CLI output at a stated tolerance.
They never compare bytes, so output format changes that keep the numbers
(a dropped column, reordered intermediates) still pass.

Tolerances:
- closed forms: 1e-12 relative (the CLI evaluates the same formulas in a
  different operation order, a few ulp apart);
- tabulated linear spectra: 1e-8 relative (the CLI integrates by adaptive
  quadrature at 1e-12 absolute);
- free energy: 1e-9 absolute, the tail bound the CLI certifies, plus
  1e-12 relative for the rounding of the summed modes.
"""

import json
import math

import numpy as np

RTOL_CLOSED = 1e-12
RTOL_QUAD = 1e-8
ATOL_FREE_ENERGY = 1e-9

# Gaussian CGS constants; one reduced length unit is 1 cm.
CGS_HBAR = 1.0545718e-27  # erg s
CGS_C = 2.99792458e10  # cm/s
CGS_KB = 1.380649e-16  # erg/K
ENERGY_SCALE = CGS_HBAR * CGS_C  # erg per reduced energy unit

UNIVERSAL_I = 4.0 * math.pi**4 / 15.0

TEXT_COLUMNS = ("regime", "units")

# value columns each oracle checks (the self-test corrupts these)
CHECKED = {
    "eigen": ("omega_plus", "omega_minus", "e0"),
    "free-energy": ("free_energy",),
    "fields": ("coupling_alpha", "psi_xy", "g_xx", "g_zz", "b_y_unit_pdot",
               "e_x_unit_mdot", "g_halfspace"),
    "pair": ("force",),
    "plane": ("force", "G_h"),
    "slabs-finite": ("force",),
    "slabs-zero": ("force",),
    "pair-tabulated": ("force",),
    "plane-tabulated": ("force", "G_h"),
}


class OracleError(Exception):
    """Output that does not match its oracle."""


def parse_csv(text):
    """CLI CSV text -> (columns, {name: float array or list of str}, n_rows)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise OracleError("no CSV header")
    header = lines[0].split(",")
    cells = [ln.split(",") for ln in lines[1:]]
    if any(len(row) != len(header) for row in cells):
        raise OracleError("ragged CSV rows")
    cols = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in cells]
        if name in TEXT_COLUMNS:
            cols[name] = raw
            continue
        try:
            cols[name] = np.array(raw, dtype=np.float64)
        except ValueError:
            raise OracleError("non-numeric value in column %s" % name)
    return header, cols, len(cells)


def axis_values(lo, hi, steps, log):
    """The grid the CLI builds for one sweep axis."""
    if steps == 1:
        return np.array([lo])
    if log:
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def grid(axes):
    """{axis name: value per row}, first axis outermost as the CLI orders rows."""
    if not axes:
        return {}
    mesh = np.meshgrid(*(axis_values(*ax[1:]) for ax in axes), indexing="ij")
    return {ax[0]: m.ravel() for ax, m in zip(axes, mesh)}


def _close(name, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.argmax(np.broadcast_to(bad, np.broadcast(got, want).shape)))
        g = np.broadcast_to(got, bad.shape)[i]
        w = np.broadcast_to(want, bad.shape)[i]
        raise OracleError("%s row %d: got %r, want %r" % (name, i, float(g), float(w)))


def _to_reduced(p, units):
    """Reduced-unit inputs from the CLI inputs (cm, cm/s, K, cgs slopes)."""
    q = {k.replace("-", "_"): v for k, v in p.items() if not isinstance(v, str)}
    if units == "gaussian":
        if "v" in q:
            q["v"] = q["v"] / CGS_C
        for k in ("D1", "D2"):
            if k in q:
                q[k] = q[k] * ENERGY_SCALE
    if "temperature_kelvin" in q:
        q["beta"] = ENERGY_SCALE / (CGS_KB * q.pop("temperature_kelvin"))
    return q


def free_energy_closed(alpha, beta):
    """(alpha^2/2)(coth x - x/sinh^2 x), x = beta/2; series below x = 1e-2."""
    x = np.asarray(beta, dtype=np.float64) / 2.0
    small = x < 1e-2
    xs = np.where(small, x, 1.0)
    series = 2.0 * xs / 3.0 - 4.0 * xs**3 / 45.0 + 4.0 * xs**5 / 315.0
    xl = np.where(small, 1.0, x)
    em1 = np.expm1(-2.0 * xl)  # e^{-2x} - 1, stable for large x
    e = em1 + 1.0
    direct = (1.0 + e) / -em1 - 4.0 * xl * e / (em1 * em1)
    return 0.5 * np.asarray(alpha) ** 2 * np.where(small, series, direct)


def H0_linear(D1, D2, beta):
    return (2.0 * math.pi / beta**4) * D1 * D2 * UNIVERSAL_I


def _expected_forces(kind, q):
    if kind == "slabs-finite":
        return -(2.0 * math.pi**6 / 15.0) * q["rho1"] * q["rho2"] * q["D1"] * q["D2"] * q["v"] / (
            q["beta"] ** 4 * q["d"] ** 2
        )
    if kind == "slabs-zero":
        return -(5.0 * math.pi**2 / 512.0) * q["rho1"] * q["rho2"] * q["D1"] * q["D2"] * q["v"] ** 5 / q[
            "d"
        ] ** 6
    if kind in ("pair", "pair-tabulated"):
        return -(2.0 / q["d"] ** 6) * q["v"] * H0_linear(q["D1"], q["D2"], q["beta"])
    # plane, plane-tabulated
    return -(math.pi * q["rho1"] / (2.0 * q["z0"] ** 3)) * q["v"] * H0_linear(q["D1"], q["D2"], q["beta"])


def check_rows(op, cols, n_rows):
    """Raise OracleError unless the parsed rows match the oracle for op."""
    if n_rows != op.rows:
        raise OracleError("expected %d rows, got %d" % (op.rows, n_rows))
    for name, values in cols.items():
        if name not in TEXT_COLUMNS and not np.all(np.isfinite(values)):
            raise OracleError("non-finite value in column %s" % name)
    swept = grid(op.axes)
    for name, values in swept.items():
        col = "sweep_" + name.replace("-", "_")
        if col not in cols or not np.array_equal(cols[col], values):
            raise OracleError("axis column %s does not match the requested grid" % col)
    inputs = dict(op.params)
    inputs.update(swept)
    for side in (1, 2):
        path = inputs.pop("spectrum-file-%d" % side, None)
        if path is not None:
            inputs["D%d" % side] = op.spectra[path]
    q = _to_reduced(inputs, op.units)
    kind = op.kind
    if kind == "eigen":
        a = q["alpha"]
        wp, wm = cols["omega_plus"], cols["omega_minus"]
        _close("alpha", cols["alpha"], a, 0.0)
        _close("omega_plus*omega_minus", wp * wm, 1.0, RTOL_CLOSED)
        _close("omega_plus-omega_minus", wp - wm, 2.0 * a, RTOL_CLOSED)
        _close("e0", cols["e0"], np.sqrt(1.0 + a * a), RTOL_CLOSED)
    elif kind == "free-energy":
        want = free_energy_closed(q["alpha"], q["beta"])
        _close("free_energy", cols["free_energy"], want, 1e-12, ATOL_FREE_ENERGY)
        if op.units == "gaussian":
            _close("free_energy_erg", cols["free_energy_erg"] / ENERGY_SCALE, want, 1e-12, ATOL_FREE_ENERGY)
    elif kind == "fields":
        d = q["d"]
        _close("coupling_alpha", cols["coupling_alpha"], 1.0 / (2.0 * d * d), RTOL_CLOSED)
        _close("psi_xy", cols["psi_xy"], 1.0 / d**2, RTOL_CLOSED)
        _close("g_xx", cols["g_xx"], 2.0 / d**6, RTOL_CLOSED)
        _close("g_zz", cols["g_zz"], 8.0 / d**6, RTOL_CLOSED)
        _close("b_y_unit_pdot", cols["b_y_unit_pdot"], -1.0 / d**2, RTOL_CLOSED)
        _close("e_x_unit_mdot", cols["e_x_unit_mdot"], 1.0 / d**2, RTOL_CLOSED)
        if "z0" in q:
            _close("g_halfspace", cols["g_halfspace"], math.pi * q["rho1"] / (2.0 * q["z0"] ** 3), RTOL_CLOSED)
    else:
        rtol = RTOL_QUAD if kind.endswith("-tabulated") else RTOL_CLOSED
        scale = ENERGY_SCALE if op.units == "gaussian" else 1.0
        _close("force", cols["force"], _expected_forces(kind, q) * scale, rtol)
        if kind.startswith("plane") and op.units == "reduced":
            _close("G_h", cols["G_h"], math.pi * q["rho1"] / (2.0 * q["z0"] ** 3), RTOL_CLOSED)


def check_verify(text):
    """verify output: at least one check line, every line PASS."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise OracleError("verify printed nothing")
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    if bad:
        raise OracleError("verify line not PASS: %s" % bad[0])
    return len(lines)


def check(op, rc, text, json_text=None):
    """Check one operation; returns its row count or raises OracleError.

    ``text`` is the CSV (stdout, or the --out file); ``json_text`` the
    --json mirror, whose rows must carry the same numbers.
    """
    if rc != 0:
        raise OracleError("exit code %d" % rc)
    if op.kind == "verify":
        return check_verify(text)
    header, cols, n_rows = parse_csv(text)
    try:
        check_rows(op, cols, n_rows)
    except KeyError as exc:
        raise OracleError("missing column %s" % exc)
    if op.json_out is not None:
        doc = json.loads(json_text)
        if doc["columns"] != header or len(doc["rows"]) != n_rows:
            raise OracleError("JSON mirror columns or row count differ from the CSV")
        for name in CHECKED[op.kind]:
            if name in cols:
                j = header.index(name)
                mirror = np.array([row[j] for row in doc["rows"]], dtype=np.float64)
                if not np.array_equal(mirror, cols[name]):
                    raise OracleError("JSON mirror column %s differs from the CSV" % name)
    return n_rows
