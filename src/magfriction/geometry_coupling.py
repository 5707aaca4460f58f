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

from magfriction import _ieee


def axial_coupling(d):
    """(psi_xy, G_xx, G_zz) at r = (0, 0, d), in Python floats:
    d/r^3, 2/r^6 and 2(1/r^6 + 3 d^2/r^8) with r = |d|.

    Each is the value the battery's general-r tensors,
    verification.coupling_psi and verification.G_tensor, give there, at
    the edges of the float range too: a power past it is inf and a zero
    divisor gives inf, or nan for 0/0 (G_xx once r^8 underflows).
    """
    if d == 0.0:
        raise ValueError("zero separation")
    rn = abs(d)
    inv6 = _ieee.ieee_div(1.0, _ieee.ieee_pow(rn, 6))
    r8 = _ieee.ieee_pow(rn, 8)
    psi_xy = _ieee.ieee_div(d, _ieee.ieee_pow(rn, 3))
    return (psi_xy, 2.0 * (inv6 + _ieee.ieee_div(0.0, r8)),
            2.0 * (inv6 + _ieee.ieee_div(3.0 * (d * d), r8)))


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
