"""Shared verified numerical engines.

Adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals,
deterministic seeded Monte-Carlo integration by a randomized lattice rule,
series summation with certified tails, central finite differences,
multi-sinusoid spectral fitting, a circulant solve and the special
functions the oracles need (polygamma, the Bessel functions J0 and J1 and
the zeros of J0). Everything here is generic plumbing on numpy and the
math module; the physics modules supply the integrands. Only the oracle battery and
response_kinetics call these engines; the CLI routes do not.
"""

import functools
import heapq
import math
import sys
from dataclasses import dataclass

from magfriction import _kernels, lazy_import
from magfriction._ieee import QuadratureError

np = lazy_import("numpy")


class McSamplingError(RuntimeError):
    """A block of Monte-Carlo weights has a sum of squares that is not finite."""


class SeriesError(RuntimeError):
    """A supplied tail bound was violated or the term budget ran out."""


class FitError(RuntimeError):
    """Spectral fit is ill-conditioned; .condition holds the diagnostic."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature's value, error estimate and integrand evaluations; for
    a batch, arrays of the values and estimates and the int total of the
    evaluations."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class McResult:
    """A randomized lattice-rule estimate: the mean over the shifts, the
    standard error from their spread and the integrand evaluations (points
    times shifts)."""

    value: float
    std_error: float
    samples: int


# G10K21 on [-1, 1], QUADPACK's qk21 (Piessens et al., Springer 1983):
# the positive Kronrod nodes from the outside in, and their weights with
# the centre's last; every second node is a 10-point Gauss node, with _WG
# its weight
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525397346, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_QUAD_PANELS = 200
# dyadic panels quad_semi_infinite sweeps before it gives up on the tail
_SWEEP_PANELS = 64
# QUADPACK's floor on a panel's error estimate, 50 eps resabs, applies
# where resabs exceeds the smallest normal float over 50 eps
_EPS50 = 50.0 * sys.float_info.epsilon
_RESABS_FLOOR = sys.float_info.min / _EPS50


@functools.cache
def _gauss_kronrod21():
    """G10K21 on [-1, 1]: the nodes, ascending; the Kronrod and Gauss
    weights of the node pairs +-x_j and of the centre, last (a 2 x 11
    matrix; a Gauss weight is 0 at a Kronrod-only node); and the Kronrod
    weights of the nodes. All read-only."""
    x = np.array(_XGK)
    wk = np.array(_WGK[:10])
    wg = np.zeros(11)
    wg[1:10:2] = _WG
    nodes = np.concatenate([-x, [0.0], x[::-1]])
    pair_weights = np.stack([_WGK, wg])
    kronrod = np.concatenate([wk, [_WGK[10]], wk[::-1]])
    out = nodes, pair_weights, kronrod
    for a in out:
        a.flags.writeable = False
    return out


def _gk21(f, lo, hi, cols):
    """G10K21 values and QUADPACK error estimates of f on the m panels
    [lo_i, hi_i] (lists of floats), from one call of f on the (m, 21) array
    of their nodes and the (m, 1) parameter columns ``cols``. As in qk21,
    the rules sum f(c - h x_j) + f(c + h x_j) pair by pair, and each
    panel's sums are products of its own, so a panel's bits do not depend
    on the other panels of the call. Returns two lists of floats."""
    nodes, pair_weights, wk = _gauss_kronrod21()
    centre_half = np.array([(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(lo, hi)])
    x = centre_half[:, 1:] * nodes
    x += centre_half[:, :1]
    fx = np.asarray(f(x, *cols), dtype=np.float64)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    pairs = fx[:, :11].copy()
    pairs[:, :10] += fx[:, :10:-1]
    # per panel: (K21, G10) as one 2 x 11 product, then |f| and
    # |f - K21/2| against the Kronrod weights as two 21-term dots
    rules = np.matmul(pair_weights, pairs[:, :, None])
    magnitudes = np.empty((len(lo), 2, 1, 21))
    np.abs(fx, out=magnitudes[:, 0, 0])
    shifted = magnitudes[:, 1, 0]
    np.subtract(fx, 0.5 * rules[:, 0], out=shifted)
    np.abs(shifted, out=shifted)
    spread = np.matmul(magnitudes, wk[:, None])
    values, errs = [], []
    for (resk, resg), (resabs, resasc), (_, h) in zip(
        rules.reshape(-1, 2).tolist(), spread.reshape(-1, 2).tolist(), centre_half.tolist()
    ):
        err = abs((resk - resg) * h)
        resasc *= abs(h)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        resabs *= abs(h)
        if resabs > _RESABS_FLOOR:
            err = max(_EPS50 * resabs, err)
        values.append(resk * h)
        errs.append(err)
    return values, errs


def _qag(f, a, b, tol, args):
    """QUADPACK QAG on the k intervals [a_i, b_i] (lists of floats), the
    integrand's parameters ``args`` being float arrays of length k. Per
    integral, the panel with the largest estimate is bisected until the
    summed estimate is at most tol*max(1, |value|) or 200 panels exist.
    Each round bisects the worst panel of every integral still open, and
    the children of all of them go through one call of f. Returns, per
    integral, the value, the error estimate, the evaluation count and
    whether the panel budget ran out; then value and estimate are the
    running sums."""
    k = len(a)
    if k == 0:
        return [], [], [], []
    value, err = _gk21(f, a, b, [p[:, None] for p in args])
    evals = [21] * k
    failed = [False] * k
    open_ = [i for i in range(k) if err[i] > tol * max(1.0, abs(value[i]))]
    panels = {i: [(-err[i], a[i], b[i], value[i])] for i in open_}
    while open_:
        for i in open_:
            failed[i] = len(panels[i]) == _QUAD_PANELS
        open_ = [i for i in open_ if not failed[i]]
        if not open_:
            break
        worst = [heapq.heappop(panels[i]) for i in open_]
        mids = [0.5 * (p[1] + p[2]) for p in worst]
        rows = np.array(open_ + open_) if args else None
        vs, es = _gk21(
            f, [p[1] for p in worst] + mids, mids + [p[2] for p in worst],
            [p[rows, None] for p in args],
        )
        n = len(open_)
        still = []
        for j, i in enumerate(open_):
            neg_err, x0, x1, part = worst[j]
            mid = mids[j]
            for c0, c1, v, e in ((x0, mid, vs[j], es[j]), (mid, x1, vs[n + j], es[n + j])):
                heapq.heappush(panels[i], (-e, c0, c1, v))
                value[i] += v
                err[i] += e
            value[i] -= part
            err[i] += neg_err
            evals[i] += 42
            if err[i] > tol * max(1.0, abs(value[i])):
                still.append(i)
        open_ = still
    for i, heap in panels.items():
        if not failed[i] and len(heap) > 1:
            value[i] = math.fsum(p[3] for p in heap)
            err[i] = math.fsum(-p[0] for p in heap)
    return value, err, evals, failed


def _batch(*xs):
    """The k-long float arrays that a batch's endpoints, panel scales and
    parameters broadcast to, and whether any of them is an array."""
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    batched = any(x.ndim for x in xs)
    if batched:
        xs = np.broadcast_arrays(*xs)
    return [x.reshape(-1) for x in xs], batched


def _result(values, errs, evals, batched):
    if batched:
        return QuadratureResult(np.array(values), np.array(errs), sum(evals))
    return QuadratureResult(values[0], errs[0], evals[0])


def quad_finite(f, a, b, tol=1e-10, args=()):
    r"""Adaptive Gauss-Kronrod quadrature of f on [a, b] (QUADPACK QAG).

    Each panel takes the G10K21 rule and QUADPACK's error estimate: the
    |K21 - G10| difference, scaled as resasc*min(1, (200|K - G|/resasc)^1.5)
    and floored at 50 eps resabs. The panel with the largest estimate is
    bisected until the summed estimate is at most tol*max(1, |value|), or
    200 panels exist.

    A batch of k integrals is one call: a, b and the parameters in ``args``
    broadcast to 1-D arrays of length k. Each round bisects the worst panel
    of every integral not yet converged and evaluates all their children in
    one call of f. Every integral keeps its own panel heap, so its value,
    error estimate and evaluation count are bit for bit those of a call on
    it alone.

    Parameters
    ----------
    f : callable
        Integrand, called as f(x, *p): x is the float64 (m, 21) array of
        the nodes of m panels, one row each, and each p is the (m, 1)
        column of one parameter's value for the integral of that row. A
        result that is not (m, 21) is broadcast to it.
    a, b : float or 1-D array
        Interval endpoints, a <= b.
    tol : float
        Absolute and relative tolerance target, shared by the batch.
    args : tuple of float or 1-D array
        Parameters of the integrand, one value per integral.

    Returns
    -------
    QuadratureResult
        For a batch, ``value`` and ``error_estimate`` are arrays of length
        k and ``evaluations`` is the int total over the batch.

    Raises
    ------
    QuadratureError
        When any integral does not converge; the best estimates, the
        running sums for the integrals that failed, ride on the exception.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    (a, b, *args), batched = _batch(a, b, *args)
    value, err, evals, failed = _qag(f, a.tolist(), b.tolist(), tol, args)
    if any(failed):
        raise QuadratureError(
            "finite quadrature did not converge in %d panels" % _QUAD_PANELS,
            best=_result(value, err, evals, batched),
        )
    return _result(value, err, evals, batched)


def quad_semi_infinite(f, a, tol=1e-10, panel_scale=1.0, args=()):
    r"""Integrate f over [a, inf) by a dyadic panel sweep.

    Panels [a + s*(2^j - 1), a + s*(2^j+1 - 1)] grow geometrically (the
    discrete form of an exponential change of variables); each is handled by
    the `quad_finite` engine. The sweep stops once the panel contributions
    decay geometrically and the certified remaining-tail bound
    |I_j| * r/(1 - r) (r the observed panel ratio) drops below tol.

    A batch of k integrals is one call, as in `quad_finite`: a, panel_scale
    and the parameters in ``args`` broadcast to 1-D arrays of length k.
    Sweep j integrates panel j of every integral whose sweep has not
    stopped in one `quad_finite` batch; each integral stops on its own.

    Parameters
    ----------
    f : callable
        Integrand as in `quad_finite`, must decay integrably.
    a : float or 1-D array
        Lower endpoint.
    tol : float
        Absolute tolerance for the certified tail bound.
    panel_scale : float or 1-D array
        Width of the first panel.
    args : tuple of float or 1-D array
        Parameters of the integrand, one value per integral.

    Returns
    -------
    QuadratureResult
        For a batch, as in `quad_finite`.

    Raises
    ------
    QuadratureError
        When the panel contributions of an integral do not decay
        (non-integrable tail) or its sweep of _SWEEP_PANELS panels runs
        out.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    (a, scale, *args), batched = _batch(a, panel_scale, *args)
    a, scale = a.tolist(), scale.tolist()
    k = len(a)
    total = [0.0] * k
    err_total = [0.0] * k
    evals = [0] * k
    prev_mag = [None] * k
    peak = [0.0] * k
    tiny_run = [0] * k
    lo = list(a)
    open_ = list(range(k))
    for j in range(_SWEEP_PANELS):
        reach = 2.0 ** (j + 1) - 1.0
        hi = [a[i] + scale[i] * reach for i in open_]
        rows = np.array(open_) if args else None
        parts = _qag(
            f, [lo[i] for i in open_], hi, min(tol / 16.0, 1e-12), [p[rows] for p in args]
        )
        still = []
        for i, hi_i, v, e, n, bad in zip(open_, hi, *parts):
            if bad and abs(v) > tol:
                raise QuadratureError(
                    "panel [%g, %g] did not converge" % (lo[i], hi_i),
                    best=_result(total, err_total, evals, batched),
                )
            total[i] += v
            err_total[i] += e
            evals[i] += n
            mag = abs(v)
            peak[i] = max(peak[i], mag)
            lo[i] = hi_i
            # a run of panels at the floor means the mass is fully inside
            if mag <= max(tol * 1e-3, peak[i] * 1e-16):
                tiny_run[i] += 1
                if tiny_run[i] >= 2:
                    err_total[i] += tol * 1e-3
                    continue
            else:
                tiny_run[i] = 0
            prev = prev_mag[i]
            if prev is not None and prev > 0.0 and mag < prev:
                r = mag / prev
                if r < 0.75:
                    tail = mag * r / (1.0 - r)
                    if tail < tol:
                        err_total[i] += tail
                        continue
            prev_mag[i] = mag
            still.append(i)
        open_ = still
        if not open_:
            return _result(total, err_total, evals, batched)
    raise QuadratureError(
        "tail decay not certified after %d panels" % _SWEEP_PANELS,
        best=_result(total, err_total, evals, batched),
    )


# The randomized rank-1 lattice rule of mc_integrate (Sloan & Joe, Lattice
# Methods for Multiple Integration, OUP 1994): the points k z/N mod 1,
# k = 0..N-1, of the Korobov generator z = (1, a, a^2 mod N). The multiplier
# a = 15003 was picked once by a search of the P_2 criterion, the sum of
# prod_j max(1, |h_j|)^-2 over the nonzero points h of the dual lattice
# (h.z = 0 mod N), over a coarse grid of multipliers; nothing is searched
# at import or at run time. Among all odd multipliers it ranks 18th, its
# P_2 = 5.77e-5 within 5% of the least, 5.53e-5 at a = 1951.
_LATTICE_BITS = 14
LATTICE_N = 1 << _LATTICE_BITS
LATTICE_Z = (1, 15003, 15003**2 % LATTICE_N)
# random shifts per estimate; their spread gives the standard error
LATTICE_SHIFTS = 8
# the lattice points and shifts are held as integer multiples of 2^-52
_GRID_BITS = 52


@functools.cache
def _lattice_base(dim):
    """The rule's points k z/N mod 1, k = 0..N-1, in the first ``dim``
    coordinates, in units of 2^-52: a read-only (dim, N) uint64 array."""
    k = np.arange(LATTICE_N, dtype=np.uint64)
    z = np.array(LATTICE_Z[:dim], dtype=np.uint64)[:, None]
    base = (k * z % np.uint64(LATTICE_N)) << np.uint64(_GRID_BITS - _LATTICE_BITS)
    base.flags.writeable = False
    return base


def mc_integrate(block, dim, seed, shifts=LATTICE_SHIFTS):
    r"""Deterministic seeded integral over the unit cube by a randomized
    rank-1 lattice rule.

    Each of ``shifts`` Cranley-Patterson shifts (Cranley & Patterson, SIAM
    J. Numer. Anal. 13, 904 (1976)) moves the ``LATTICE_N`` points of the
    rule by one uniform vector drawn from Philox(key=seed), modulo 1, and
    the tent (baker's) transform u = 1 - |2x - 1| maps each point into the
    cube (Hickernell, MCQMC 2000, Springer 2002): the rule's error then
    falls near N^-2 for a smooth integrand that is not periodic. The value
    is the mean over the shifts of each shift's rule, and the standard
    error comes from the spread of those means.

    The points and shifts are exact multiples of 2^-52, each shifted
    point an odd multiple of 2^-53, so a block never receives an exact 0
    or 1. The unshifted points are built once per ``dim`` and kept
    (read-only); each shift's points are formed in place in one buffer
    and passed to ``block`` in slices of ``_kernels.MC_BLOCK`` samples.
    The block size changes only the order of the summation, not the
    points, and the estimate is bit-reproducible per (seed, shifts).

    Parameters
    ----------
    block : callable
        Takes a (dim, b) slice of points in (0, 1) and returns the sum of
        its sample weights and the sum of their squares, (sum w, sum w^2).
        An importance sampler maps the points and divides by its density
        inside ``block``. The slice is a view of the shift's buffer, which
        the next shift overwrites: a block may read it only during its
        call, and must copy what it keeps.
    dim : int
        Number of coordinates per point, at most len(LATTICE_Z).
    seed : int
        Philox key of the shifts.
    shifts : int
        Number of random shifts, at least 2.

    Returns
    -------
    McResult
        Its ``samples`` is LATTICE_N * shifts.

    Raises
    ------
    McSamplingError
        If a block's sum of squared weights is not finite.
    """
    if not 1 <= dim <= len(LATTICE_Z):
        raise ValueError("dim must be between 1 and %d" % len(LATTICE_Z))
    if shifts < 2:
        raise ValueError("shifts must be at least 2")
    n = LATTICE_N
    base = _lattice_base(dim)
    delta = np.random.Generator(np.random.Philox(key=seed)).integers(
        0, 1 << _GRID_BITS, size=(shifts, dim, 1), dtype=np.uint64)
    t = np.empty_like(base)
    reflected = np.empty_like(base)
    u = np.empty(base.shape)
    mask = np.uint64((1 << _GRID_BITS) - 1)
    top = np.uint64(1 << (_GRID_BITS + 1))
    means = []
    for s in range(shifts):
        # x = (2m + 1) 2^-53 with m = base + delta mod 2^52; the tent is
        # min(2x, 2 - 2x), exact in integers
        np.add(base, delta[s], out=t)
        t &= mask
        t *= np.uint64(2)
        t += np.uint64(1)
        np.subtract(top, t, out=reflected)
        np.minimum(t, reflected, out=t)
        np.multiply(t, 2.0**-_GRID_BITS, out=u)
        total = 0.0
        for a in range(0, n, _kernels.MC_BLOCK):
            sw, sw2 = block(u[:, a : a + _kernels.MC_BLOCK])
            if not math.isfinite(sw2):
                raise McSamplingError(
                    "weights not finite in the block at shift %d sample %d" % (s, a)
                )
            total += sw
        means.append(total / n)
    mean = math.fsum(means) / shifts
    var = math.fsum((q - mean) ** 2 for q in means) / (shifts - 1)
    return McResult(mean, math.sqrt(var / shifts), n * shifts)


# indices per call of series_sum's term and tail bound
SERIES_BLOCK = 4096


def series_sum(term, tail_bound, tol, max_terms=10_000_000):
    r"""Sum term(1) + term(2) + ... with a supplied certified tail bound.

    ``tail_bound(n)`` must bound |sum of all terms past n| and be
    nonincreasing. Summation stops at the first N with tail_bound(N) < tol,
    once |term(N + 1)| <= tail_bound(N) is confirmed; the returned partial
    sum is then within tol of the full series.

    Both callables take an int64 array of consecutive indices n, up to
    ``SERIES_BLOCK`` of them (``term`` one more, through the index after
    the block), and return a float array of the same shape or a scalar.
    The partial sum is the strict left fold
    ((term(1) + term(2)) + term(3)) + ...: each block's running sum is
    added into its first term and the block is summed by ``np.cumsum``,
    in order, so the result has the bits of the term-by-term loop.

    Returns
    -------
    float

    Raises
    ------
    SeriesError
        If the bound is violated (|term(n+1)| exceeds tail_bound(n), or the
        bound increases) or max_terms is reached first.
    """
    acc = 0.0
    prev_bound = np.inf
    for first in range(1, max_terms + 1, SERIES_BLOCK):
        n = np.arange(first, min(first + SERIES_BLOCK, max_terms + 1) + 1, dtype=np.int64)
        t = np.array(np.broadcast_to(term(n), n.shape), dtype=np.float64)
        b = np.broadcast_to(np.asarray(tail_bound(n[:-1]), dtype=np.float64), t[:-1].shape)
        prev = np.concatenate(([prev_bound], b[:-1]))
        t[0] += acc
        partial = np.cumsum(t[:-1])
        bad = (b < 0.0) | (b > prev)
        stop = bad | (b < tol)
        if stop.any():
            i = int(np.argmax(stop))
            if bad[i]:
                raise SeriesError("tail bound not nonincreasing at n=%d" % n[i])
            if abs(t[i + 1]) > b[i]:
                raise SeriesError("term %d exceeds the certified bound" % n[i + 1])
            return float(partial[i])
        acc = float(partial[-1])
        prev_bound = b[-1]
    raise SeriesError("no certified tail below tol within %d terms" % max_terms)


def gradient_central(f, x, step):
    r"""Central finite-difference gradient of an array-valued f at x.

    Returns an array of shape (len(x),) + shape(f(x)); component l holds
    the partial derivative along x[l], error O(step^2).
    """
    x = np.asarray(x, dtype=np.float64)
    f0 = np.asarray(f(x))
    out = np.empty((x.size,) + f0.shape)
    for l in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[l] += step
        xm[l] -= step
        out[l] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * step)
    return out


def linear_extrapolate_zero(xs, ys):
    """Linear extrapolation to x = 0 through the two smallest-x points."""
    order = np.argsort(xs)
    x1, x2 = float(xs[order[0]]), float(xs[order[1]])
    y1, y2 = float(ys[order[0]]), float(ys[order[1]])
    return (y1 * x2 - y2 * x1) / (x2 - x1)


def circulant_solve(c, b):
    """Solve C x = b for the circulant matrix C with first column c.

    The discrete Fourier basis diagonalises C, with eigenvalues fft(c), so
    the solve is one FFT pair, O(N log N). Returns a complex array.
    """
    return np.fft.ifft(np.fft.fft(b) / np.fft.fft(c))


# Bernoulli numbers B_2, B_4, ..., B_24 for the polygamma asymptotic series
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0,
    7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0, -174611.0 / 330.0,
    854513.0 / 138.0, -236364091.0 / 2730.0,
)


def polygamma(n, x):
    r"""The polygamma function psi^(n)(x) for an order n >= 1 and x > 0.

    The recurrence psi^(n)(x) = psi^(n)(x + 1) + (-1)^(n+1) n!/x^(n+1)
    carries x up to 10, where the asymptotic series (Abramowitz & Stegun
    6.4.11) through B_24 leaves a remainder below 1e-16 relative for
    n <= 3. The terms are summed exactly (math.fsum).
    """
    if n < 1 or not x > 0.0:
        raise ValueError("need order n >= 1 and x > 0")
    n_fact = math.factorial(n)
    terms = []
    while x < 10.0:
        terms.append(n_fact / x ** (n + 1))
        x += 1.0
    z = 1.0 / x
    terms += [math.factorial(n - 1) * z**n, 0.5 * n_fact * z ** (n + 1)]
    terms += [
        b * math.factorial(2 * k + n - 1) / math.factorial(2 * k) * z ** (2 * k + n)
        for k, b in enumerate(_BERNOULLI, start=1)
    ]
    return (-1.0) ** (n + 1) * math.fsum(terms)


# J_nu(x) takes the trapezoid rule below _BESSEL_SWITCH and the Hankel
# series above it; at the switch each truncates below 1e-18
_BESSEL_SWITCH = 25.0
_BESSEL_NODES = 32
_HANKEL_TERMS = 24


@functools.cache
def _bessel_tables(nu):
    """sin t at the trapezoid nodes t_j = j pi/32, and the coefficients of
    P and Q in powers of 1/x: (-1)^(k/2) a_k(nu) at the even powers k and
    (-1)^((k-1)/2) a_k(nu) at the odd ones, a_k(nu) = prod_{i<=k}
    (4 nu^2 - (2i - 1)^2)/(8i)."""
    mu = 4.0 * nu * nu
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    signed = [ak if k % 4 in (0, 1) else -ak for k, ak in enumerate(a)]
    p = [c if k % 2 == 0 else 0.0 for k, c in enumerate(signed)]
    q = [c if k % 2 == 1 else 0.0 for k, c in enumerate(signed)]
    out = (
        np.sin(np.arange(_BESSEL_NODES) * (math.pi / _BESSEL_NODES)),
        np.array(p),
        np.array(q),
        np.arange(_HANKEL_TERMS, dtype=np.float64),
    )
    for t in out:
        t.flags.writeable = False
    return out


def _bessel_trapezoid(nu, x):
    sin_t = _bessel_tables(nu)[0]
    arg = np.multiply.outer(x, sin_t)
    f = np.cos(arg) if nu == 0 else np.sin(arg) * sin_t
    return f @ np.full(_BESSEL_NODES, 1.0 / _BESSEL_NODES)


def _bessel_hankel(nu, x):
    _, cp, cq, powers = _bessel_tables(nu)
    z = np.power.outer(1.0 / x, powers)
    p, q = z @ cp, z @ cq
    c, s = np.cos(x), np.sin(x)
    if nu == 0:
        # cos(x - pi/4) = (c + s)/sqrt 2, sin(x - pi/4) = (s - c)/sqrt 2
        return (p * (c + s) - q * (s - c)) / np.sqrt(math.pi * x)
    # cos(x - 3 pi/4) = (s - c)/sqrt 2, sin(x - 3 pi/4) = -(s + c)/sqrt 2
    return (p * (s - c) + q * (s + c)) / np.sqrt(math.pi * x)


def bessel_j(nu, x):
    r"""Bessel function J_nu(x) of order 0 or 1, elementwise over x.

    Below |x| = 25 by the trapezoid rule on the period-pi integrands of
    J0(x) = (1/pi) Int_0^pi cos(x sin t) dt and
    J1(x) = (1/pi) Int_0^pi sin(x sin t) sin t dt, which converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); 32
    nodes leave an aliasing error of order J_64(25) ~ 1e-20. Above, by the
    Hankel asymptotic series P and Q (Abramowitz & Stegun 9.2.5), cut
    after 24 terms, whose first omitted term is ~1e-19 at x = 25. The
    phase x - (2 nu + 1) pi/4 is expanded into cos x and sin x, so no
    rounding of it grows with x.
    """
    if nu not in (0, 1):
        raise ValueError("order must be 0 or 1")
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    small = ax < _BESSEL_SWITCH
    if small.all():
        out = _bessel_trapezoid(nu, ax)
    elif not small.any():
        out = _bessel_hankel(nu, ax)
    else:
        out = np.empty_like(ax)
        out[small] = _bessel_trapezoid(nu, ax[small])
        out[~small] = _bessel_hankel(nu, ax[~small])
    return np.where(x < 0.0, -out, out) if nu == 1 else out


def bessel_j0_zeros(count):
    r"""The first ``count`` positive zeros of J0, ascending.

    McMahon's expansion in b = (m - 1/4) pi (Abramowitz & Stegun 9.5.12)
    starts each zero within 2e-3; four Newton steps x += J0(x)/J1(x) take it
    to round-off.
    """
    b = (np.arange(1, count + 1) - 0.25) * math.pi
    e = 1.0 / (8.0 * b)
    x = b + e - (124.0 / 3.0) * e**3 + (120928.0 / 15.0) * e**5
    for _ in range(4):
        x = x + bessel_j(0, x) / bessel_j(1, x)
    return x


class SinusoidModes(list):
    """Fit result: list of (frequency, amplitude, phase), frequency
    descending, with .residual and .condition diagnostics attached."""

    def __init__(self, modes, residual, condition):
        super().__init__(modes)
        self.residual = residual
        self.condition = condition


def _design(t, freqs):
    cols = []
    for w in freqs:
        cols.append(np.cos(w * t))
        cols.append(np.sin(w * t))
    return np.stack(cols, axis=1)


def _projection(t, x, w):
    """Variable-projection residual r(w) = M a - x, a = M^+ x, at the
    frequencies w, and its Jacobian in w (Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413 (1973)): column j is P_perp dM_j a - (M^+)^T dM_j^T r,
    with M = QR and P_perp = 1 - Q Q^T."""
    M = _design(t, w)
    Q, R = np.linalg.qr(M)
    a = np.linalg.solve(R, Q.T @ x)
    r = M @ a - x
    J = np.empty((t.size, w.size))
    for j in range(w.size):
        # only columns 2j, 2j + 1 of M, cos(w_j t) and sin(w_j t), move with w_j
        c, s = M[:, 2 * j], M[:, 2 * j + 1]
        dMa = t * (c * a[2 * j + 1] - s * a[2 * j])
        g = np.zeros(M.shape[1])
        g[2 * j : 2 * j + 2] = (-(t * s) @ r, (t * c) @ r)
        J[:, j] = dMa - Q @ (Q.T @ dMa) - Q @ np.linalg.solve(R.T, g)
    return r, J


def _refine_frequencies(t, x, w):
    """Gauss-Newton on the variable-projection residual from the seed w; a
    step that does not lower |r|^2 is halved, down to 2^-30. Stops when a
    step or the relative fall of |r|^2 is at most 1e-15, when no halving
    lowers |r|^2, or after 100 steps."""
    try:
        r, J = _projection(t, x, w)
        cost = float(r @ r)
        for _ in range(100):
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
            lam = 1.0
            while lam >= 2.0**-30:
                w_new = w + lam * step
                r_new, J_new = _projection(t, x, w_new)
                cost_new = float(r_new @ r_new)
                if cost_new <= cost:
                    break
                lam /= 2.0
            else:
                return w
            small_step = np.max(np.abs(w_new - w)) <= 1e-15 * np.max(np.abs(w))
            small_fall = cost - cost_new <= 1e-15 * cost
            w, r, J, cost = w_new, r_new, J_new, cost_new
            if small_step or small_fall:
                break
    except np.linalg.LinAlgError as exc:
        raise FitError("mode design matrix singular: %s" % exc)
    return w


def sinusoid_fit(t, x, k):
    r"""Least-squares fit of k undamped sinusoids to a uniformly sampled signal.

    Frequencies are seeded by linear prediction (model order 2k, root
    angles), then refined by variable projection: the nonlinear solve runs
    over frequencies only, with amplitudes eliminated linearly.

    Parameters
    ----------
    t : array_like
        Sample times, uniform spacing.
    x : array_like
        Signal samples.
    k : int
        Number of modes, >= 1.

    Returns
    -------
    SinusoidModes
        (frequency, amplitude, phase) per mode for amplitude*cos(w*t+phase),
        sorted by frequency descending; .residual is the rms misfit.

    Raises
    ------
    FitError
        Ill-conditioned prediction or design stage.
    """
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if t.size < 8 * k:
        raise FitError("too few samples for %d modes" % k)
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise FitError("sampling must be uniform")

    p = 2 * k
    # Hankel prediction matrix: row i is x[i + p - 1], ..., x[i]
    A = np.lib.stride_tricks.sliding_window_view(x, p)[: x.size - p, ::-1]
    b = x[p:]
    coef, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if rank < p or cond > 1e14:
        raise FitError("linear prediction ill-conditioned", condition=cond)
    roots = np.roots(np.concatenate([[1.0], -coef]))
    cand = [r for r in roots if r.imag >= 0.0 and abs(abs(r) - 1.0) < 0.2]
    freqs = sorted({round(float(np.angle(r)) / dt, 12) for r in cand if np.angle(r) > 0.0})
    if len(freqs) < k:
        raise FitError("found %d distinct modes, need %d" % (len(freqs), k), condition=cond)
    freqs = np.asarray(freqs[-k:] if len(freqs) > k else freqs)

    freqs = np.abs(_refine_frequencies(t, x, freqs))
    M = _design(t, freqs)
    sv = np.linalg.svd(M, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if cond > 1e12:
        raise FitError("mode design matrix ill-conditioned", condition=cond)
    amp, *_ = np.linalg.lstsq(M, x, rcond=None)
    residual = float(np.sqrt(np.mean((M @ amp - x) ** 2)))
    modes = []
    for i, w in enumerate(freqs):
        ac, as_ = amp[2 * i], amp[2 * i + 1]
        modes.append((float(w), float(np.hypot(ac, as_)), float(np.arctan2(-as_, ac))))
    modes.sort(key=lambda m: -m[0])
    return SinusoidModes(modes, residual, cond)
