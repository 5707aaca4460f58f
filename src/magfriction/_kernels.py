"""Numpy kernels behind the trajectory, mode-sum, Monte Carlo and float text.

Callers reach these through the module (``_kernels.rk4_batch(...)``), so
a wrapper installed on the module attribute sees every call.

The trajectory, mode-sum and Monte Carlo routes and the float text work
in fixed blocks, so that their arrays stay bounded (in cache, for all
but the float text) and their Python-level calls are few: ``rk4_batch``
advances ``RK4_BLOCK`` records per batched matmul, ``mode_sum`` sums
``MODE_BLOCK`` modes per block, ``numerics.mc_integrate`` hands
``halfspace_chunk`` ``MC_BLOCK`` points of one shift of its lattice rule
per call, and ``float_reprs`` makes the text of ``TEXT_BLOCK`` values
per pass. ``mode_sum`` and ``halfspace_chunk`` compute with ``out=``
into a few buffers that each call allocates once, not one temporary per
operation; ``float_reprs`` writes into a buffer it no longer needs where
it can. A block size changes only the order of floating-point operations
(the summation order of a sum, the grouping of a matrix product), never
the terms or points: an estimate stays deterministic per (seed, shifts),
and a text is the same in any block.

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
import sys

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
# values per numpy pass of float_reprs: a column of a default-size sweep
# (--max-points 10000) is one pass, since each pass pays numpy's per-call
# cost once per array operation (one pass read ~3% off a closed-form sweep
# operation against 4096-value passes, 4 of 4 benchmark pairs), and a
# longer column's temporaries stay bounded (128 KiB per float64 array,
# 512 KiB of text words)
TEXT_BLOCK = 16384


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
# decimal point positions decpt = 17 - s (18 - s after a carry) of those
_DECPT_MIN, _DECPT_MAX = 17 - _SCALE_MAX, 18 - _SCALE_MIN
# a decision of float_reprs this close to its threshold goes to repr: the
# quantities it compares are within 1e-14 of their true values
FLOAT_MARGIN = 1e-12
# the exponent bits of a float64
_EXPONENT = 0x7FF << 52
_WORD = (1 << 64) - 1


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


def _words(text, at, n):
    """text from byte ``at`` of n little-endian 8-byte words, as their ints."""
    v = int.from_bytes(bytes(at) + text, "little")
    return [v >> 64 * k & _WORD for k in range(n)]


@functools.cache
def _text_tables():
    """The tables of _layout, built once, each a numpy array:

    - ``digits``: the ASCII of 0000..9999, a uint32 word each;
    - ``zeros``: the trailing zeros of each, 4 for 0000;
    - ``head``: at 10 k + d, the word of the sign and "0." prefix k
      (5 sign + z, z = 1 - decpt for 0.ddd, else 0) and the first digit d;
    - ``lead``: 10 z, over decpt in [_DECPT_MIN, _DECPT_MAX];
    - ``by_decpt``, uint64 rows over decpt: the two tail words' masks of
      the bytes at and after the point's position p (16: no point), the
      point's byte in each, and the suffix word, the exponent and the
      separator from byte 1 on;
    - ``keep``, uint64 rows over 18 (decpt - _DECPT_MIN) + nd, nd the
      significant digits: the masks of the tail bytes that the text keeps
      in each of the three tail words.
    """
    g = np.arange(10**4)
    digits = sum((g // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4)).astype(np.uint32)
    zeros = sum(g % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    head = [_words(b"-" * (k >= 5) + (b"0." + b"0" * (k % 5 - 1) if k % 5 else b"")
                   + b"%d" % d, 0, 1)[0] for k in range(10) for d in range(10)]
    lead, point, suffix, keep = [], [], [], []
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        fixed = -4 < decpt <= 16
        lead.append(10 * (1 - decpt) if fixed and decpt < 1 else 0)
        suffix.append((b"\0" + (b"" if fixed else b"e%+03d" % (decpt - 1)) + b" ").ljust(8, b"\0"))
        # the point's place in the tail and the tail bytes kept, the point
        # among them: fixed d.dd keeps a digit after the point, fixed
        # 0.0dd has no point in the tail, scientific d has none at all
        if fixed and decpt >= 1:
            point.append(decpt - 1)
            keep += [max(nd, decpt + 1) for nd in range(18)]
        elif fixed:
            point.append(16)
            keep += [max(nd - 1, 0) for nd in range(18)]
        else:
            point.append(0)
            keep += [nd if nd > 1 else 0 for nd in range(18)]
    by_point = np.array([_words(b"\xff" * (16 - p), p, 2) + _words(b"." * (p < 16), p, 2)
                         for p in range(17)], np.uint64)
    masks = np.array([_words(b"\xff" * L, 0, 3) for L in range(18)], np.uint64)
    by_decpt = np.vstack([by_point[point].T, np.frombuffer(b"".join(suffix), "<u8")])
    return (digits, zeros, np.array(head, np.uint64), np.array(lead, np.intp), by_decpt,
            masks[keep].T.copy())


def float_reprs(values):
    """``[repr(v) for v in values.tolist()]`` for a 1-D float64 array, made
    by numpy ``TEXT_BLOCK`` values at a time.

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
    d.ddde+XX. Each lane's text is built as four little-endian 8-byte
    words from tables (``_layout``), and the NUL bytes between its parts
    are dropped from the whole block's bytes at once.

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
    # the tables hold little-endian words
    if sys.byteorder != "little":
        return list(map(repr, values.tolist()))
    text = []
    for k in range(0, values.size, TEXT_BLOCK):
        text += _block_reprs(values[k : k + TEXT_BLOCK])
    return text


def _block_reprs(block):
    """float_reprs of one block."""
    ok, C, decpt = _shortest(block)
    text = _layout(block, C, decpt).T.tobytes().translate(None, b"\0").decode("ascii").split(" ")
    # the separator after the last text
    del text[-1]
    if not ok.all():
        for k in np.flatnonzero(~ok).tolist():
            text[k] = repr(float(block[k]))
    return text


def _scaled(a, pow2):
    """(e, N, f, H) for the lanes a = |x| and their powers of two
    pow2 = 2^E <= a: s = 16 - e scales a to X = a 10^s, N + f is X to within
    4e-15 (N an int64, f in [0, 1]), and H is the half-gap of a, scaled.
    H is computed in pow2's buffer, and a is overwritten by a lo (below)."""
    hi_t, hh_t, hl_t, lo_t = _scale_table()
    e = np.floor(np.log10(a)).astype(np.intp)
    i = np.subtract(16 - _SCALE_MIN, e)
    hi = np.take(hi_t, i)
    H = np.multiply(pow2, 2.0**-53, out=pow2)
    H *= hi
    # X = p + r: p + err = a hi exactly, r = err + a lo, with a = ah + al
    # (Veltkamp: ah = c - (c - a), c = 134217729 a). One operation per
    # line, in the order of ((ah hh - p) + ah hl + al hh) + al hl + a lo,
    # so that r keeps its bits
    p = np.multiply(a, hi, out=hi)
    ah = np.multiply(134217729.0, a)
    al = np.subtract(ah, a)
    ah -= al
    np.subtract(a, ah, out=al)
    alo = np.multiply(a, np.take(lo_t, i), out=a)
    hh = np.take(hh_t, i)
    r = np.multiply(ah, hh)
    r -= p
    hl = np.take(hl_t, i)
    del i
    r += np.multiply(ah, hl, out=ah)
    r += np.multiply(al, hh, out=hh)
    r += np.multiply(al, hl, out=hl)
    r += alo
    # N = p + floor(r), f = r - floor(r)
    whole = np.floor(r, out=al)
    r -= whole
    N = p.astype(np.int64)
    N += whole.astype(np.int64)
    return e, N, r, H


def _shortest(x):
    """(ok, C, decpt): where ok, x prints as the digits of the 17-digit
    int64 C without its trailing zeros, the decimal point decpt places
    from their start; elsewhere C is 10^16 and x goes to repr."""
    a = np.abs(x)
    ok = a >= 1e-200
    ok &= a <= 1e200
    # a lane that goes to repr computes on 1.5
    np.copyto(a, 1.5, where=~ok)
    pow2 = (a.view(np.uint64) & _EXPONENT).view(np.float64)
    # a power of two has a gap below it half the gap above
    ok &= a != pow2
    e, N, f, H = _scaled(a, pow2)
    del a
    # the floors of X - H and X + H, each certain only away from an integer
    ends = np.empty((2, x.size))
    np.subtract(f, H, out=ends[0])
    np.add(f, H, out=ends[1])
    del H, pow2
    floors = np.floor(ends)
    ends -= floors
    ends -= 0.5
    sure = np.abs(ends, out=ends) <= 0.5 - FLOAT_MARGIN
    ok &= sure[0]
    ok &= sure[1]
    ok &= N >= 10**16
    ok &= N < 10**17
    del ends, sure
    low, high = floors = floors.astype(np.int64)
    floors += N
    m100 = high // 100
    m100 *= 100
    has100 = m100 > low
    m10 = np.floor_divide(high, 10, out=high)
    m10 *= 10
    has10 = m10 > low
    N10 = np.floor_divide(N, 10, out=m10)
    N10 *= 10
    r10 = np.subtract(N, N10, out=low) + f
    del floors, low
    # the candidate: the multiple of 100, else the nearest multiple of 10,
    # else the nearest integer; certain only away from a tie
    N10 += 10 * (r10 >= 5.0)
    # N is not needed past here
    C = N
    C += f >= 0.5
    np.copyto(C, N10, where=has10)
    np.copyto(C, m100, where=has100)
    r10 -= 5.0
    np.subtract(f, 0.5, out=r10, where=~has10)
    ok &= has100 | (np.abs(r10, out=r10) >= FLOAT_MARGIN)
    np.copyto(C, 10**16, where=~ok)
    carry = C == 10**17
    C -= carry * (9 * 10**16)
    return ok, C, e + 1 + carry


def _layout(x, C, decpt):
    """The texts as little-endian words, (4, n) uint64, lane by lane: word
    0 the sign, "0." prefix and first digit; words 1, 2 and the low byte
    of word 3 the other 16 digits, the point put in at its place and the
    digits past the last one kept cut off; the rest of word 3 the exponent
    suffix and the separator " ". A byte that holds nothing is NUL."""
    digits_t, zeros_t, head_t, lead_t, by_decpt, keep_t = _text_tables()
    n = x.size
    # C = d 10^16 + h 10^8 + l; each half h, l is a high and a low group of
    # four digits, interleaved so that a half's two ASCII words are a uint64
    half = np.empty((2, n), np.intp)
    np.floor_divide(C, 10**8, out=half[0])
    np.multiply(half[0], -10**8, out=half[1])
    half[1] += C
    lead = half[0] // 10**8
    half[0] -= lead * 10**8
    high = half // 10**4
    half -= high * 10**4
    tail = np.empty((2, n, 2), np.uint32)
    tail[..., 0] = np.take(digits_t, high)
    tail[..., 1] = np.take(digits_t, half)
    t0, t1 = tail.view(np.uint64)[..., 0]
    # the trailing zeros of each half: its low group's, and its high
    # group's too where the low one is 0000; then nd = 17 - the zeros of
    # l, and of h too where l is 0
    tz = np.take(zeros_t, half)
    zh = np.take(zeros_t, high)
    del half, high
    zh *= tz == 4
    tz += zh
    tz[0] *= tz[1] == 8
    i = decpt - _DECPT_MIN
    kept = 18 * i + 17
    kept -= tz[0]
    kept -= tz[1]
    words = np.empty((4, n), np.uint64)
    w0, w1, w2, w3 = words
    lead += np.take(lead_t, i)
    lead += np.signbit(x) * 50
    np.take(head_t, lead, out=w0)
    del lead
    # the tail words: the bytes at and after the point's position move up
    # a byte, and the point goes in the byte they leave. The bytes that
    # move are held in w3, then in t0 once it is read, until word 3 is made
    after = np.take(by_decpt[0], i, out=w3)
    after &= t0
    np.bitwise_xor(t0, after, out=w1)
    w1 |= np.take(by_decpt[2], i)
    w1 |= np.left_shift(after, 8, out=t0)
    carried = np.right_shift(after, 56, out=w3)
    after = np.take(by_decpt[1], i, out=t0)
    after &= t1
    np.bitwise_xor(t1, after, out=w2)
    w2 |= np.take(by_decpt[3], i)
    w2 |= np.left_shift(after, 8, out=t1)
    w2 |= carried
    np.right_shift(after, 56, out=w3)
    w1 &= np.take(keep_t[0], kept)
    w2 &= np.take(keep_t[1], kept)
    w3 &= np.take(keep_t[2], kept)
    w3 |= np.take(by_decpt[4], i)
    return words
