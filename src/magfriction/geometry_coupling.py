"""Geometric coupling factors on the axis and their half-space/slab
reductions.

The magnetodielectric coupling between volume elements is carried by an
antisymmetric kernel psi_ij ~ x_k eps_kij/r^3; its gradient T and the
contraction G = T.T control the friction. Here are the closed forms the
CLI prints: the particle pair on the axis, the particle/half-space and
parallel-slab factors, and the zero-temperature slab factor. The
general-r tensors, the Fourier-route kernels and the Monte-Carlo volume
integral that check them live in the oracle battery
(magfriction.verification). Internal c = 1.
"""

import math


def axial_coupling(d, ops):
    """(psi_xy, G_xx, G_zz) at r = (0, 0, d), over a column of d (``ops``
    as in friction_forces): d/|d|^3, 2/d^6 and 8/d^6, the values of the
    battery's general-r tensors, verification.coupling_psi and
    verification.G_tensor, there (G_zz = 2(1/r^6 + 3 d^2/r^8) with r = |d|).
    """
    ops.fail(d == 0.0, ValueError("zero separation"))
    r6 = ops.pow(d, 6)
    return ops.div(d, ops.pow(abs(d), 3)), ops.div(2.0, r6), ops.div(8.0, r6)


def G_halfspace(z0, rho, ops):
    """Half-space reduction of G_xx: pi rho/(2 z0^3), the volume integral
    of G_xx weighted by the density over z > z0; columns and ``ops`` as
    in friction_forces."""
    return ops.div(math.pi * rho, 2.0 * ops.pow(z0, 3))


def G_slabs_realspace(d, rho1, rho2, ops):
    """Slab pair factor pi rho1 rho2/(4 d^2): the half-space factor
    integrated once more across the gap."""
    return ops.div(math.pi * rho1 * rho2, 4.0 * ops.pow(d, 2))


def G_P_slabs(d, rho1, rho2, ops):
    """Zero-temperature slab factor 75 pi rho1 rho2/(64 d^6): the
    sixth-moment weighted Fourier integral in closed form."""
    return ops.div(75.0 * math.pi * rho1 * rho2, 64.0 * ops.pow(d, 6))
