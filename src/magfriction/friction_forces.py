"""Assembled friction forces and their reports in reduced or Gaussian units.

Everything upstream works in reduced units (hbar = c = kB = 1, lengths in
a chosen scale). This module assembles the exported forces for each
geometry regime, carries every intermediate factor in the report so the
result can be recomputed by hand, and converts whole reports between
reduced and Gaussian CGS units through the dimension exponents of
magfriction.units, whose names it re-exports.
"""

import math
import numbers
from dataclasses import dataclass, replace

from magfriction import geometry_coupling, lazy_import, materials_spectral, response_kinetics
from magfriction.units import (  # noqa: F401 (re-exported)
    CGS_C,
    CGS_HBAR,
    CGS_KB,
    FORCE_DIM,
    G_FACTOR_DIM,
    INPUT_DIM,
    UnitContext,
    intermediate_dim,
)

np = lazy_import("numpy")

REGIMES = ("pair-sharp", "pair-smoothed", "plane", "plane-sharp", "slabs-finite-T", "slabs-zero-T")


@dataclass(frozen=True)
class FrictionReport:
    """One assembled force: regime tag, force value (real, or
    DeltaCoefficient for sharp pairs, or a tuple of them componentwise),
    the named intermediate factors, the input echo, and the unit system
    the numbers are in."""

    regime: str
    force: object
    intermediates: dict
    inputs: dict
    units: str = "reduced"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError("unknown regime %r" % self.regime)
        if self.units not in ("reduced", "gaussian"):
            raise ValueError("units must be 'reduced' or 'gaussian'")


def _convert_report(report, units, direction):
    def conv(value, dim):
        f = units.factor(dim)
        return value * f if direction > 0 else value / f

    fdim = FORCE_DIM[report.regime]
    force = report.force
    delta = response_kinetics.DeltaCoefficient
    if isinstance(force, delta):
        force = delta(conv(force.amplitude, fdim), conv(force.at_frequency, (0, 0, -1)))
    elif isinstance(force, tuple):
        force = tuple(
            delta(conv(c.amplitude, fdim), conv(c.at_frequency, (0, 0, -1))) for c in force
        )
    else:
        force = conv(force, fdim)
    inter = {
        name: conv(value, intermediate_dim(name, report.regime))
        for name, value in report.intermediates.items()
    }
    return replace(
        report,
        force=force,
        intermediates=inter,
        units="gaussian" if direction > 0 else "reduced",
    )


def to_physical_units(report, units):
    """Convert a reduced-unit report to Gaussian physical units.

    The input echo keeps its reduced values and gains ``<name>_cgs`` for
    every input in INPUT_DIM, plus ``temperature_kelvin`` when it has a
    beta.
    """
    if report.units == "gaussian":
        return report
    inputs = dict(report.inputs)
    for name, value in report.inputs.items():
        dim = INPUT_DIM.get(name)
        if dim is not None:
            inputs[name + "_cgs"] = value * units.factor(dim)
    if "beta" in report.inputs:
        inputs["temperature_kelvin"] = units.kelvin_from_beta(report.inputs["beta"])
    return _convert_report(replace(report, inputs=inputs), units, +1)


def to_reduced_units(report, units):
    """Convert a physical-unit report back to reduced units."""
    if report.units == "reduced":
        return report
    return _convert_report(report, units, -1)


def pair_force_sharp(geom, v, osc1, osc2, beta):
    r"""Sharp-oscillator pair force as componentwise delta amplitudes.

    Component l carries amplitude -G_lq v_q H (pi beta w1^2/2) against
    delta(w1 - w2), with H the thermal pair factor at polarizabilities
    1/(m_i w_i^2). Consistent with the closed-form single-amplitude route.

    Returns
    -------
    FrictionReport
        force is a tuple of three DeltaCoefficient records.
    """
    G = geometry_coupling.G_tensor(geom.r)
    v = np.asarray(v, dtype=np.float64)
    a1 = 1.0 / (osc1.mass * osc1.omega**2)
    a2 = 1.0 / (osc2.mass * osc2.omega**2)
    H = materials_spectral.thermal_H(osc1.omega, osc2.omega, a1, a2, beta)
    pref = math.pi * beta * osc1.omega**2 / 2.0
    gv = G @ v
    force = tuple(
        response_kinetics.DeltaCoefficient(float(-gv[l] * H * pref), osc1.omega) for l in range(3)
    )
    inter = {"H": H, "delta_prefactor": pref}
    for (i, j), name in zip(
        ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
        ("G_xx", "G_xy", "G_xz", "G_yy", "G_yz", "G_zz"),
    ):
        inter[name] = float(G[i, j])
    inputs = {
        "r_x": geom.r[0], "r_y": geom.r[1], "r_z": geom.r[2],
        "v_x": v[0], "v_y": v[1], "v_z": v[2],
        "omega1": osc1.omega, "omega2": osc2.omega,
        "mass1": osc1.mass, "mass2": osc2.mass, "beta": beta,
    }
    return FrictionReport("pair-sharp", force, inter, inputs)


def smoothed_forces(G_factor, v, H0, regime):
    """Generic smoothed force -G_factor*v*H0 for a precomputed geometric
    factor and thermal factor."""
    if regime not in G_FACTOR_DIM:
        raise ValueError("regime %r is not a smoothed regime" % regime)
    force = -G_factor * v * H0
    return FrictionReport(
        regime,
        float(force),
        {"G_factor": G_factor, "H0": H0},
        {"v": v},
    )


def plane_force(g, v, spec1, spec2, beta):
    r"""Force on a particle moving parallel to a half-space surface.

    Smoothed spectra give F_h = -G_h v H0. A pair of sharp oscillator
    records instead gives the delta-amplitude form with prefactor
    pi beta w1^2/2 against the half-space factor.
    """
    G_h = geometry_coupling.G_halfspace(g)
    inputs = {"z0": g.z0, "rho": g.rho, "v": v, "beta": beta}
    osc = response_kinetics.OscState
    if isinstance(spec1, osc) and isinstance(spec2, osc):
        a1 = 1.0 / (spec1.mass * spec1.omega**2)
        a2 = 1.0 / (spec2.mass * spec2.omega**2)
        H = materials_spectral.thermal_H(spec1.omega, spec2.omega, a1, a2, beta)
        pref = math.pi * beta * spec1.omega**2 / 2.0
        amp = -G_h * v * H * pref
        inputs.update({"omega1": spec1.omega, "omega2": spec2.omega})
        return FrictionReport(
            "plane-sharp",
            response_kinetics.DeltaCoefficient(float(amp), spec1.omega),
            {"G_h": G_h, "H": H, "delta_prefactor": pref},
            inputs,
        )
    H0 = materials_spectral.smoothed_H0(spec1, spec2, beta)
    return FrictionReport(
        "plane", float(-G_h * v * H0), {"G_h": G_h, "H0": H0}, inputs
    )


def _slope(D):
    # the slab closed forms hold only for s(m) = D*m without cutoff
    if isinstance(D, materials_spectral.LinearSpectralDensity):
        if D.is_linear:
            return D.D
    elif isinstance(D, numbers.Real):
        return float(D)
    raise ValueError("slab forces need a slope D or a linear density without cutoff, "
                     "got %r" % (D,))


def finite_T_slab_force(g, v, D1, D2, beta):
    r"""Finite-temperature friction per unit area between two slabs with
    linear spectral densities (each a slope D or an untruncated
    LinearSpectralDensity).

    Computed as suppression * reference with suppression = (d/(beta c))^2
    and reference the same expression with that factor removed:

        F = -(2 pi^6/15) (d/(beta c))^2 rho1 rho2 D1 D2 v/(beta^2 d^4)

    The slab factor G and the smoothed thermal factor H0 are reported
    with it; the oracle battery checks the assembly -G v H0 against it.
    """
    d1, d2 = _slope(D1), _slope(D2)
    suppression = (g.d / beta) ** 2  # c = 1 internally
    reference = -(2.0 * math.pi**6 / 15.0) * g.rho1 * g.rho2 * d1 * d2 * v / (
        beta**2 * g.d**4
    )
    force = suppression * reference
    G = geometry_coupling.G_slabs_realspace(g)
    H0 = materials_spectral.smoothed_H0(
        materials_spectral.LinearSpectralDensity(d1),
        materials_spectral.LinearSpectralDensity(d2),
        beta,
    )
    inter = {
        "G": G,
        "H0": H0,
        "I": materials_spectral.universal_I(),
        "suppression": suppression,
        "reference_force": reference,
    }
    inputs = {"d": g.d, "rho1": g.rho1, "rho2": g.rho2, "D1": d1, "D2": d2,
              "beta": beta, "v": v}
    return FrictionReport("slabs-finite-T", float(force), inter, inputs)


def zero_T_slab_force(g, v, D1, D2):
    r"""Zero-temperature friction per unit area between two slabs.

    Computed as suppression * reference with suppression = (v/c)^2:

        F_P = -(5 pi^2/(512 d^6)) (v/c)^2 rho1 rho2 D1 D2 v^3

    H_P and G_P are reported with it; the oracle battery checks the
    dissipated-energy route -Delta E_P/(2 tau v), with
    Delta E_P = 2 tau H_P v^6 G_P, against it.
    """
    if v < 0.0:
        raise ValueError("v must be >= 0 in this regime")
    d1, d2 = _slope(D1), _slope(D2)
    suppression = v * v  # (v/c)^2 at c = 1
    reference = -(5.0 * math.pi**2 / (512.0 * g.d**6)) * g.rho1 * g.rho2 * d1 * d2 * v**3
    force = suppression * reference
    H_P = (math.pi / 120.0) * d1 * d2
    G_P = geometry_coupling.G_P_slabs(g)
    inter = {
        "G_P": G_P,
        "H_P": H_P,
        "suppression": suppression,
        "reference_force": reference,
    }
    inputs = {"d": g.d, "rho1": g.rho1, "rho2": g.rho2, "D1": d1, "D2": d2, "v": v}
    return FrictionReport("slabs-zero-T", float(force), inter, inputs)
