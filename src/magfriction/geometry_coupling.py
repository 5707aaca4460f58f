"""Geometric coupling tensors and their half-space/slab reductions.

The magnetodielectric coupling between volume elements is carried by an
antisymmetric kernel psi_ij ~ x_k eps_kij/r^3; its gradient T and the
contraction G = T.T control the friction. Closed forms for the particle
pair, particle/half-space, and parallel-slab geometries, the Fourier-route
duplicates used as consistency oracles, and the zero-temperature
sixth-moment factor. Internal c = 1.
"""

import functools
import math
from collections import namedtuple

from magfriction import _ieee, _kernels, lazy_import

np = lazy_import("numpy")
numerics = lazy_import("magfriction.numerics")


@functools.cache
def _levi_civita():
    # eps_ijk, built on first use so that importing the module runs no numpy
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    eps.flags.writeable = False
    return eps


class PairGeometry(namedtuple("PairGeometry", "r")):
    """Two point particles separated by r."""

    __slots__ = ()

    def __new__(cls, r):
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (3,) or math.hypot(*r) == 0.0:
            raise ValueError("r must be a nonzero 3-vector")
        return super().__new__(cls, r)


class PlaneGeometry(namedtuple("PlaneGeometry", "z0 rho")):
    """Particle at height z0 above a half-space of density rho."""

    __slots__ = ()

    def __new__(cls, z0, rho):
        if z0 <= 0.0 or rho <= 0.0:
            raise ValueError("z0 and rho must be positive")
        return super().__new__(cls, z0, rho)


class SlabGeometry(namedtuple("SlabGeometry", "d rho1 rho2")):
    """Two half-spaces with gap d and densities rho1, rho2."""

    __slots__ = ()

    def __new__(cls, d, rho1, rho2):
        if d <= 0.0 or rho1 <= 0.0 or rho2 <= 0.0:
            raise ValueError("d, rho1, rho2 must be positive")
        return super().__new__(cls, d, rho1, rho2)


def _norm(r):
    # math.hypot scales its arguments, so a tiny separation does not
    # underflow to zero as sqrt(r.r) does; a numpy float, so that a power
    # of it leaves the float range as inf, not as OverflowError
    rn = math.hypot(*r)
    if rn == 0.0:
        raise ValueError("zero separation")
    return np.float64(rn)


def coupling_psi(r):
    """Coupling kernel psi_ij = x_k eps_kij/r^3, antisymmetric and
    traceless; equal to -grad_p(1/r) eps_pij."""
    r = np.asarray(r, dtype=np.float64)
    rn = _norm(r)
    return np.einsum("k,kij->ij", r, _levi_civita()) / rn**3


def coupling_gradient_T(r):
    """Gradient of the coupling kernel:
    T_lij = (delta_lk/r^3 - 3 x_l x_k/r^5) eps_kij; scales as 1/r^3."""
    r = np.asarray(r, dtype=np.float64)
    rn = _norm(r)
    m = np.eye(3) / rn**3 - 3.0 * np.outer(r, r) / rn**5
    return np.einsum("lk,kij->lij", m, _levi_civita())


def G_tensor(r):
    """Contraction G_lq = T_lij T_qij = 2(delta_lq/r^6 + 3 x_l x_q/r^8),
    symmetric positive definite."""
    r = np.asarray(r, dtype=np.float64)
    rn = _norm(r)
    return 2.0 * (np.eye(3) / rn**6 + 3.0 * np.outer(r, r) / rn**8)


def axial_coupling(d):
    """(psi_xy, G_xx, G_zz) at r = (0, 0, d), in Python floats:
    d/r^3, 2/r^6 and 2(1/r^6 + 3 d^2/r^8) with r = |d|.

    Each is the value coupling_psi and G_tensor give there, at the edges
    of the float range too: a power past it is inf and a zero divisor
    gives inf, or nan for 0/0 (G_xx once r^8 underflows).
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


def psi_hat(z0, q):
    """Transverse Fourier transform of the Coulomb kernel at height z0:
    2 pi exp(-q|z0|)/q."""
    if q <= 0.0:
        raise ValueError("q must be positive")
    return 2.0 * math.pi * np.exp(-q * abs(z0)) / q


def G_hat_q(d, q):
    """Fourier-space slab kernel (2 pi)^2 exp(-2 q d)/q^2: the double
    z-integral of 4 q^2 psi_hat^2 across a gap of width d; q may be an
    array."""
    if d <= 0.0 or np.min(q) <= 0.0:
        raise ValueError("d and q must be positive")
    return (2.0 * math.pi) ** 2 * np.exp(-2.0 * q * d) / q**2


def G_slabs_fourier(g):
    r"""Slab pair factor assembled in Fourier space.

    (rho1 rho2/(2 pi)^2) Int q^2/2 * G_hat(q) 2 pi q dq over q > 0, with
    the q^2/2 from the in-plane average <k_x^2>. Equals the real-space
    route, pi rho1 rho2/(4 d^2), exactly.
    """
    q = numerics.quad_semi_infinite(
        lambda k: 0.5 * k**2 * G_hat_q(g.d, k) * 2.0 * math.pi * k,
        0.0,
        tol=1e-12,
        panel_scale=1.0 / g.d,
    )
    return g.rho1 * g.rho2 / (2.0 * math.pi) ** 2 * q.value


def angular_moment6():
    """Sixth angular moment: integral of cos^6 over a full turn, 5 pi/8."""
    return 5.0 * math.pi / 8.0


def G_P_slabs(d, rho1, rho2, ops):
    """Zero-temperature slab factor 75 pi rho1 rho2/(64 d^6): the
    sixth-moment weighted Fourier integral in closed form."""
    return ops.div(75.0 * math.pi * rho1 * rho2, 64.0 * ops.pow(d, 6))


def mc_halfspace_Gxx(z0, n, seed, chunk_size=1 << 20):
    r"""Monte-Carlo volume integral of G_xx over the half-space z > z0.

    Importance-sampled (z density ~ z^-4, radial density matched to the
    r^-6 envelope); deterministic per (seed, n, chunk partition). The
    closed-form target is pi/(2 z0^3) per unit density.

    Returns
    -------
    McResult
    """
    if n <= 0:
        raise ValueError("n must be positive")
    sw = 0.0
    sw2 = 0.0
    done = 0
    j = 0
    while done < n:
        m = min(chunk_size, n - done)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(j))
        u = rng.random((3, m))
        a, b = _kernels.halfspace_chunk(z0, u, 1)
        sw += a
        sw2 += b
        done += m
        j += 1
    mean = sw / n
    var = max(sw2 / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1.0)
    return numerics.McResult(mean, float(np.sqrt(var / n)), n, seed)
