"""Numpy kernels behind the trajectory, mode-sum and Monte Carlo routes.

Callers reach these through the module (``_kernels.rk4_batch(...)``), so
a wrapper installed on the module attribute sees every call.

The trajectory, mode-sum and Monte Carlo routes work in fixed blocks, so
that their arrays stay in cache and their Python-level calls are few:
``rk4_batch`` advances ``RK4_BLOCK`` records per batched matmul,
``mode_sum`` sums ``MODE_BLOCK`` modes per block, and
``numerics.mc_integrate`` hands ``halfspace_chunk`` ``MC_BLOCK`` points
of one shift of its lattice rule per call. ``mode_sum`` and
``halfspace_chunk`` compute with ``out=`` into a few buffers that each
call allocates once, not one temporary per operation. A block size
changes only the order of floating-point operations (the summation order
of a sum, the grouping of a matrix product), never the terms or points:
an estimate stays deterministic per (seed, shifts).

``halfspace_chunk`` holds the only copy of the half-space importance
sampler (the map from the unit cube to z and s, and its density). It
serves the three half-space checks of the oracle battery: the G_xx volume
integral behind G_h = pi/(2 z0^3) (mode 1), the r^-6 integral
pi/(6 z0^3) (mode 0) and the r^-8 integral pi/(15 z0^5) (mode 2), each a
block function of ``numerics.mc_integrate``. Only the r^-8 weight
depends on z, so only that check sees the z map.
"""

import math

from magfriction import lazy_import

np = lazy_import("numpy")

TWO_PI = 2.0 * math.pi

# records advanced from one state by one batched matmul of matrix powers
RK4_BLOCK = 64
# modes per block of mode_sum: its three float64 arrays (128 KiB each) stay
# in cache, whatever n_max is
MODE_BLOCK = 16384
# points per block function call of numerics.mc_integrate: the six float64
# buffers of halfspace_chunk (64 KiB each) stay in cache
MC_BLOCK = 8192


def rk4_batch(A, init, dt, n_steps, stride):
    r"""Fixed-step RK4 for a linear system s' = A s, batched over columns.

    Integrates each column's 4-component state for ``n_steps`` steps of
    per-column size ``dt`` under its own constant matrix, recording every
    ``stride``-th state.

    One classical RK4 step of a linear system is exactly s <- R(dt*A) s
    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the RK4 stability
    polynomial. Each column's ``stride`` steps are folded into the single
    4x4 matrix P = R^stride, and the recorded samples are its successive
    images; the result is the stage-by-stage RK4 trajectory up to
    rounding. The powers P^1..P^K (K = ``RK4_BLOCK``) are formed once, and
    each block of K records is one batched product s[k+i] = P^i s[k] from
    the block's first state; this regroups the products of the plain
    recurrence s[k+1] = P s[k] and agrees with it to rounding.

    Parameters
    ----------
    A : array_like, shape (B, 4, 4)
        System matrix per column.
    init : array_like, shape (4, B)
        Initial state per column.
    dt : array_like, shape (B,)
        Step size per column.
    n_steps : int
        Number of steps; must be a multiple of ``stride`` so the final state
        is recorded.
    stride : int
        Sampling stride in steps.

    Returns
    -------
    ndarray, shape (n_steps//stride + 1, 4, B)
        Sampled states, sample k taken at step k*stride.
    """
    A = np.asarray(A, dtype=np.float64)
    init = np.asarray(init, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    if n_steps % stride != 0:
        raise ValueError("n_steps must be a multiple of stride")
    B = init.shape[1]
    Z = dt[:, None, None] * A
    eye = np.eye(4)
    R = eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)
    P = np.linalg.matrix_power(R, stride)
    # samples held as (k, column, component, 1), powers as (i-1, column, 4, 4)
    n_rec = n_steps // stride
    s = np.empty((n_rec + 1, B, 4, 1))
    s[0, :, :, 0] = init.T
    powers = np.empty((min(RK4_BLOCK, n_rec), B, 4, 4))
    powers[:1] = P
    for i in range(1, powers.shape[0]):
        np.matmul(P, powers[i - 1], out=powers[i])
    for k in range(0, n_rec, RK4_BLOCK):
        n = min(RK4_BLOCK, n_rec - k)
        np.matmul(powers[:n], s[k], out=s[k + 1 : k + 1 + n])
    return np.ascontiguousarray(s[:, :, :, 0].transpose(0, 2, 1))


def mode_sum(alpha, beta, n_max):
    r"""Brute-force symmetric sum of per-mode free energies.

    Sum of (2*alpha^2/beta) * u^2/(u^2+1)^2 over modes n = -n_max..n_max with
    u = 2*pi*n/beta; the n = 0 term vanishes. Each term is computed as in a
    whole-array pass; the terms are summed per ``MODE_BLOCK`` block and the
    block sums added with ``math.fsum``.

    Returns
    -------
    float
    """
    if n_max <= 0:
        return 0.0
    modes = np.arange(1.0, min(n_max, MODE_BLOCK) + 1.0)
    u2 = np.empty_like(modes)
    den = np.empty_like(modes)
    block_sums = []
    for start in range(0, n_max, MODE_BLOCK):
        m = min(MODE_BLOCK, n_max - start)
        u, d = u2[:m], den[:m]
        np.add(modes[:m], start, out=u)
        u *= TWO_PI
        u /= beta
        np.square(u, out=u)
        np.add(u, 1.0, out=d)
        np.square(d, out=d)
        u /= d
        block_sums.append(float(np.sum(u)))
    return 2.0 * (2.0 * alpha**2 / beta) * math.fsum(block_sums)


def halfspace_chunk(z0, u, mode):
    r"""Importance-sampled integrand weights over the half-space z > z0.

    Maps a block of uniforms to sample points with density
    p(z) = 3*z0^3/z^4, p(s|z) = 4*z^4*s/(s^2+z^2)^3, phi uniform, and
    evaluates f/pdf for f = 1/r^6 (``mode`` 0), f = G_xx = 2*(1/r^6 +
    3*x^2/r^8) (``mode`` 1) or f = 1/r^8 (``mode`` 2), c = 1.

    Parameters
    ----------
    z0 : float
        Distance from the dipole at the origin to the half-space surface.
    u : ndarray, shape (3, m)
        Points of the unit cube, each coordinate below 1 (u[0] = 1 or
        u[1] = 1 maps to infinity).
    mode : int
        0 for the r^-6 battery integrand, 1 for G_xx, 2 for r^-8.

    Returns
    -------
    (float, float)
        Sum of weights and sum of squared weights over the block.
    """
    # z = z0/cbrt(1 - u0), s2 = z^2 (1/sqrt(1 - u1) - 1), r2 = s2 + z^2,
    # r6 = r2^3 and the rest, one operation per line in six block-sized
    # buffers, in the order the expressions give, so the sums keep their bits
    z, s2, r2, r6, pdf, t = np.empty((6, u.shape[1]))
    np.subtract(1.0, u[0], out=z)
    np.cbrt(z, out=z)
    np.divide(z0, z, out=z)
    z2 = np.multiply(z, z, out=z)
    np.subtract(1.0, u[1], out=s2)
    np.sqrt(s2, out=s2)
    np.divide(1.0, s2, out=s2)
    s2 -= 1.0
    np.multiply(z2, s2, out=s2)
    np.add(s2, z2, out=r2)
    z4 = np.multiply(z2, z2, out=z2)
    np.multiply(r2, r2, out=r6)
    r6 *= r2
    # p(s|z)/(2*pi*s) with the s cancelled analytically; no 0/0 at s = 0
    np.divide(3.0 * z0**3, z4, out=pdf)
    np.multiply(4.0, z4, out=z4)
    np.divide(z4, np.multiply(TWO_PI, r6, out=t), out=z4)
    pdf *= z4
    # f, then the weight f/pdf
    w = z4
    if mode == 0:
        np.divide(1.0, r6, out=w)
    elif mode == 1:
        x2 = np.multiply(TWO_PI, u[2], out=t)
        np.cos(x2, out=x2)
        np.square(x2, out=x2)
        np.multiply(s2, x2, out=x2)
        np.multiply(3.0, x2, out=x2)
        np.divide(x2, np.multiply(r6, r2, out=s2), out=x2)
        np.divide(1.0, r6, out=w)
        w += x2
        np.multiply(2.0, w, out=w)
    else:
        np.multiply(r6, r2, out=w)
        np.divide(1.0, w, out=w)
    w /= pdf
    sw = float(np.sum(w))
    np.square(w, out=w)
    return sw, float(np.sum(w))
