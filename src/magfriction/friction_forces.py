"""The friction forces, one closed form per regime, over parameter columns.

Every closed form that the CLI prints takes its parameters as columns in
reduced units (hbar = c = k_B = 1): numpy arrays that broadcast over a
grid, or Python floats for one point. It takes ``ops`` too, the
arithmetic that can fail a point: ``fail``, ``pow``, ``div``, ``sqrt``,
``map`` and ``constant``. A power or a quotient past the float range, or
a zero divisor, fails its point. ``_ieee.ArrayOps`` implements them for
arrays, and ``_ieee.FloatOps`` for floats. On the columns themselves
only + - * / run, so a float and an array give the same bits at a point.

Each force returns (force, intermediates): the intermediates are the
named columns the report prints beside it. units.gaussian_report turns
a report into Gaussian CGS.
"""

import math

from magfriction import geometry_coupling, materials_spectral


def pair_force(d, v, side1, side2, beta, ops):
    """Smoothed force on a particle pair at r = (0, 0, d), moving along x:
    -G_xx v H0. Each side is a spectrum as materials_spectral.H0_columns
    takes it."""
    g_xx = geometry_coupling.pair_coupling(d, ops)
    h0 = materials_spectral.H0_columns(side1, side2, beta, ops)
    return -g_xx * v * h0, {"G_factor": g_xx, "H0": h0}


def plane_force(z0, rho, v, side1, side2, beta, ops):
    """Force on a particle at height z0 moving parallel to a half-space of
    density rho: -G_h v H0."""
    g_h = geometry_coupling.G_halfspace(z0, rho, ops)
    h0 = materials_spectral.H0_columns(side1, side2, beta, ops)
    return -g_h * v * h0, {"G_h": g_h, "H0": h0}


def slabs_finite_force(d, rho1, rho2, D1, D2, beta, v, ops):
    r"""Finite-temperature friction per unit area between two half-spaces
    with linear spectral slopes D1, D2, as suppression * reference with
    suppression = (d/(beta c))^2:

        F = -(2 pi^6/15) (d/(beta c))^2 rho1 rho2 D1 D2 v/(beta^2 d^4)

    G and H0 are reported with it; the oracle battery checks -G v H0,
    each factor by quadrature, against it.
    """
    suppression = ops.pow(d / beta, 2)  # c = 1 internally
    reference = ops.div(
        -(2.0 * math.pi**6 / 15.0) * rho1 * rho2 * D1 * D2 * v,
        ops.pow(beta, 2) * ops.pow(d, 4),
    )
    inter = {
        "G": geometry_coupling.G_slabs_realspace(d, rho1, rho2, ops),
        "H0": materials_spectral.H0_linear(D1, D2, beta, ops),
        "I": ops.constant(materials_spectral.universal_I()),
        "suppression": suppression,
        "reference_force": reference,
    }
    return suppression * reference, inter


def slabs_zero_force(d, rho1, rho2, D1, D2, v, ops):
    r"""Zero-temperature friction per unit area between two half-spaces,
    for v >= 0, as suppression * reference with suppression = (v/c)^2:

        F_P = -(5 pi^2/(512 d^6)) (v/c)^2 rho1 rho2 D1 D2 v^3

    H_P and G_P are reported with it; the oracle battery checks the
    dissipated-energy route -Delta E_P/(2 tau v), with
    Delta E_P = 2 tau H_P v^6 G_P, against it.
    """
    ops.fail(v < 0.0, ValueError("v must be >= 0 in this regime"))
    suppression = v * v  # (v/c)^2 at c = 1
    reference = (-ops.div(5.0 * math.pi**2, 512.0 * ops.pow(d, 6))
                 * rho1 * rho2 * D1 * D2 * ops.pow(v, 3))
    inter = {
        "G_P": geometry_coupling.G_P_slabs(d, rho1, rho2, ops),
        "H_P": (math.pi / 120.0) * D1 * D2,
        "suppression": suppression,
        "reference_force": reference,
    }
    return suppression * reference, inter
