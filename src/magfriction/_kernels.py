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

``float_reprs`` is the CLI's float text: the strings ``repr`` gives, made
for a block at a time. It finds the shortest digits by the rule of
``float.__repr__`` (Gay 1990) from each value scaled to 17 digits by a
double-double product, and hands every value it cannot certify to
``repr`` itself, as Grisu3 does (Loitsch 2010); see its docstring for the
error bound behind that.
"""

import functools
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


# ---------------------------------------------------------------- float text

# scales s = 16 - floor(log10|x|) of the values float_reprs computes, with
# one to spare at each end for a log10 that rounds across a power of ten
_SCALE_MIN, _SCALE_MAX = -185, 218
# a decision of float_reprs this close to its threshold goes to repr: the
# quantities it compares are within 1e-14 of their true values
FLOAT_MARGIN = 1e-12
# columns of the exponent suffixes: exponent k at k + _EXP_OFFSET, then none
_EXP_OFFSET = 300
_NO_EXPONENT = 2 * _EXP_OFFSET + 1
# the exponent bits of a float64
_EXPONENT = 0x7FF << 52


@functools.cache
def _scale_table():
    """10^s for s in [_SCALE_MIN, _SCALE_MAX] as the double-double hi + lo,
    built once from Python ints, with hi split into 26-bit halves hh + hl
    (Veltkamp): (hi, hh, hl, lo)."""
    hi, lo = [], []
    for s in range(_SCALE_MIN, _SCALE_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den  # correctly rounded
        m, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - m * den) / (den * q))
    hi = np.array(hi)
    c = 134217729.0 * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo)


@functools.cache
def _text_table():
    """The byte columns of a text's prefix (sign, "0." and up to three
    zeros) and suffix (exponent and separator), and the row numbers 0..18
    as a uint8 column: (prefix, suffix, rows)."""
    # prefix k = 5*sign + z: z = 1 - decpt for 0.ddd (decpt in -3..0), else 0
    prefix = np.zeros((10, 6), np.uint8)
    for z in range(1, 5):
        prefix[[z, 5 + z], 1:2 + z] = list(b"0." + b"0" * (z - 1))
    prefix[5:, 0] = ord("-")
    suffix = np.zeros((_NO_EXPONENT + 1, 6), np.uint8)
    for k in range(-_EXP_OFFSET, _EXP_OFFSET + 1):
        text = b"e%+03d" % k
        suffix[k + _EXP_OFFSET, 5 - len(text):5] = list(text)
    suffix[:, 5] = ord(" ")
    return prefix.T.copy(), suffix.T.copy(), np.arange(19, dtype=np.uint8)[:, None]


def float_reprs(block):
    """``[repr(v) for v in block.tolist()]`` for a 1-D float64 array, made
    for the whole block by numpy.

    A value a = |x| in [1e-200, 1e200] that is not a power of two is
    scaled by 10^s, s = 16 - floor(log10 a), to X = a 10^s in [1e16, 1e17]
    (a value whose X falls outside, from a log10 rounded across a power
    of ten, goes to repr). X is computed as N + f, N an int64 and f in
    [0, 1]: a*hi = p + err exactly by Dekker's product, with 10^s = hi + lo
    from the table, and r = err + a*lo. The rounding interval of x,
    scaled, is (X - H, X + H) with H = 2^(E-53) hi, E the binary exponent
    of a. ``float.__repr__`` prints the shortest digit string in it, and of
    those the nearest to x. So with a' and b the floors of X - H and X + H
    (b - a' < 24, since H < 11.2): if a multiple of 100 lies in (a', b],
    it is the only one, and its digits without trailing zeros are the
    text; else the nearest multiple of 10 to X, if one lies there; else the
    nearest integer, since H > 0.55. A result of 10^17 is 10^16 with the
    decimal point one place on. The digits are laid out as repr lays them
    out: fixed for a decimal point position decpt in (-4, 16], else
    d.ddde+XX.

    Error bound. With X < 1e17 + 1, |a lo| <= 2^-53 X < 11.2 and
    |err| <= 8, so rounding a*lo and the sum costs at most 2^-50 + 2^-49;
    lo is itself within 2^-53 |lo| of 10^s - hi, which costs at most
    2^-106 X < 1.3e-15. So N + f is within 4e-15 of X. H is within
    2^-53 H < 1.3e-15 of the true half-gap, and forming f, f - H, f + H,
    (N mod 10) + f and the fractional parts adds at most 2^-50 each.
    Every quantity compared is within 1e-14 of its true value. A floor of
    X - H or X + H within ``FLOAT_MARGIN`` of an integer, and an X within it
    of a tie between two nearest candidates, goes to repr, as do 0,
    subnormals, powers of two, values outside [1e-200, 1e200], inf and
    nan. From ~1e12 up a value keeps few fractional bits once scaled, so
    more of them land exactly on a tie or an interval end and go to repr.
    """
    ok, C, decpt = _shortest(block)
    text = _layout(block, C, decpt).T.tobytes().translate(None, b"\0").decode("ascii").split()
    if not ok.all():
        for k in np.flatnonzero(~ok).tolist():
            text[k] = repr(float(block[k]))
    return text


def _scaled(a, pow2):
    """(e, N, f, H) for the lanes a = |x| and their powers of two
    pow2 = 2^E <= a: s = 16 - e scales a to X = a 10^s, N + f is X to within
    4e-15 (N an int64, f in [0, 1]), and H is the half-gap of a, scaled."""
    hi_t, hh_t, hl_t, lo_t = _scale_table()
    e = np.floor(np.log10(a)).astype(np.intp)
    i = 16 - _SCALE_MIN - e
    hi = hi_t[i]
    # X = p + r: p + err = a hi exactly, r = err + a lo
    p = a * hi
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    hh, hl = hh_t[i], hl_t[i]
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo_t[i]
    whole = np.floor(r)
    H = pow2 * 2.0**-53 * hi
    return e, p.astype(np.int64) + whole.astype(np.int64), r - whole, H


def _shortest(x):
    """(ok, C, decpt): where ok, x prints as the digits of the 17-digit
    int64 C without its trailing zeros, the decimal point decpt places
    from their start; elsewhere C is 10^16 and x goes to repr."""
    a = np.abs(x)
    # a lane that goes to repr computes on 1.5
    ok = (a >= 1e-200) & (a <= 1e200)
    a = np.where(ok, a, 1.5)
    pow2 = (a.view(np.uint64) & _EXPONENT).view(np.float64)
    # a power of two has a gap below it half the gap above
    ok &= a != pow2
    e, N, f, H = _scaled(a, pow2)
    # the floors of X - H and X + H, each certain only away from an integer
    ends = np.empty((2, x.size))
    np.subtract(f, H, out=ends[0])
    np.add(f, H, out=ends[1])
    floors = np.floor(ends)
    ends -= floors
    ends -= 0.5
    sure = np.abs(ends) <= 0.5 - FLOAT_MARGIN
    ok &= sure[0] & sure[1] & (N >= 10**16) & (N < 10**17)
    low, high = N + floors.astype(np.int64)
    m100 = high // 100 * 100
    m10 = high // 10 * 10
    N10 = N // 10 * 10
    r10 = (N - N10) + f
    has100 = m100 > low
    has10 = m10 > low
    C = np.where(has100, m100, np.where(has10, N10 + 10 * (r10 >= 5.0), N + (f >= 0.5)))
    ok &= has100 | (np.abs(np.where(has10, r10 - 5.0, f - 0.5)) >= FLOAT_MARGIN)
    C = np.where(ok, C, 10**16)
    carry = C == 10**17
    C -= carry * (9 * 10**16)
    return ok, C, e + 1 + carry


def _layout(x, C, decpt):
    """The texts as byte columns, (30, n): each lane's sign and "0." prefix,
    its digits with the point, and its exponent suffix and separator, NUL
    where a column holds nothing."""
    prefix_t, suffix_t, columns = _text_table()
    n = x.size
    # the 17 digits of C as ASCII in rows 1..17, NUL in rows 0 and 18
    top = C // 10**8
    bottom = (C - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    quads = np.empty((4, n), np.uint32)
    np.floor_divide(top, 10**4, out=quads[0])
    quads[0] %= 10**4
    np.remainder(top, 10**4, out=quads[1])
    np.floor_divide(bottom, 10**4, out=quads[2])
    np.remainder(bottom, 10**4, out=quads[3])
    digits = np.zeros((19, n), np.uint8)
    digits[1] = top // 10**8
    digits[2:18:4] = quads // 1000
    digits[3:18:4] = quads // 100 % 10
    digits[4:18:4] = quads // 10 % 10
    digits[5:18:4] = quads % 10
    digits[1:18] += 48
    nd = ((digits[1:18] != 48) * columns[1:18]).max(axis=0)
    # body: the digits with the point in column q (18: none) and the columns
    # from lim on deleted
    fixed = (decpt > -4) & (decpt <= 16)
    inner = fixed & (decpt >= 1)
    q = np.where(inner, decpt, np.where(fixed | (nd == 1), 18, 1))
    keep = np.where(inner & (nd <= decpt), decpt + 1, nd)
    lim = (keep + (q < 18)).astype(np.uint8)
    rows = np.empty((30, n), np.uint8)
    np.take(prefix_t, np.signbit(x) * 5 + np.where(fixed & (decpt <= 0), 1 - decpt, 0),
            axis=1, out=rows[:6])
    # column j holds digit j before the point and digit j - 1 after it:
    # d ^ ((d ^ shifted) * (j >= q))
    body = rows[6:24]
    unshifted = digits[1:]
    np.bitwise_xor(unshifted, digits[:-1], out=body)
    body *= columns[:18] >= q.astype(np.uint8)
    body ^= unshifted
    point = np.flatnonzero(q < 18)
    body.reshape(-1)[q[point] * n + point] = ord(".")
    body *= columns[:18] < lim
    np.take(suffix_t, np.where(fixed, _NO_EXPONENT, decpt - 1 + _EXP_OFFSET), axis=1,
            out=rows[24:])
    return rows
