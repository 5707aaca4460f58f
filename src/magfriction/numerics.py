"""Shared verified numerical engines.

Adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals
(the semi-infinite sweep integrates as many dyadic panels ahead per engine
call as the decay it has seen allows, with the bits of a sweep of one
panel at a time), deterministic seeded Monte-Carlo integration by a
randomized lattice rule, central finite differences, a linear
extrapolation to zero, a circulant solve and the polygamma function, the
one engine for zeta values. Everything here is generic plumbing on numpy
and the math module; the physics modules supply the integrands. Only the
oracle battery and response_kinetics call these engines; the CLI routes do
not.
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
# dyadic panels quad_semi_infinite sweeps before it gives up on the tail,
# and the right edge of panel j - 1 over the first panel's width, 2^j - 1
_SWEEP_PANELS = 64
_REACH = tuple(2.0**j - 1.0 for j in range(_SWEEP_PANELS + 1))
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
    integral, the worst panel is bisected until the value is finite and the
    summed estimate is at most tol*max(1, |value|), or 200 panels exist.
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
    open_ = [i for i in range(k) if not _converged(value[i], err[i], tol)]
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
            if not _converged(value[i], err[i], tol):
                still.append(i)
        open_ = still
    for i, heap in panels.items():
        if not failed[i] and len(heap) > 1:
            value[i] = math.fsum(p[3] for p in heap)
            err[i] = math.fsum(-p[0] for p in heap)
    return value, err, evals, failed


def _converged(value, err, tol):
    return math.isfinite(value) and err <= tol * max(1.0, abs(value))


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
    bisected until the value is finite and the summed estimate is at most
    tol*max(1, |value|), or 200 panels exist.

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
    |I_j| * r/(1 - r) (r the observed panel ratio) drops below tol, or after
    a run of two panels at the floor max(tol/1000, 1e-16 times the largest
    panel).

    The sweep looks ahead by the decay it has seen. Each round integrates
    the next n panels of an integral in one `quad_finite` batch: n is 1
    until a panel ratio r < 0.75 has been seen, then the number of panels
    after which |I_j| r^n r/(1 - r), with I_j the last panel and r the last
    such ratio, falls below tol, clamped to at most 8, to the panels
    consumed so far and to those left of the _SWEEP_PANELS. The panels are
    then consumed in order through the stop rules, and those past the stop
    are discarded: the value, the error estimate and a QuadratureError's
    message and running sums are those of a sweep of one panel at a time
    (for a batch, see Raises). So f may be evaluated on any panel of the
    _SWEEP_PANELS-panel sweep, past the one where it stops.

    A batch of k integrals is one call, as in `quad_finite`: a, panel_scale
    and the parameters in ``args`` broadcast to 1-D arrays of length k.
    Each integral keeps its own sweep position and look-ahead, and each
    round integrates the next panels of every integral whose sweep has not
    stopped in one `quad_finite` batch, so each integral's value, error
    estimate and evaluation count are those of a call on it alone.

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
        For a batch, as in `quad_finite`. ``evaluations`` counts every
        node evaluated, on the discarded look-ahead panels too.

    Raises
    ------
    QuadratureError
        When a panel does not converge, or the panel contributions of an
        integral do not decay (non-integrable tail) and its sweep of
        _SWEEP_PANELS panels runs out. In a batch, a panel that does not
        converge raises when its round is consumed, and the running sums
        of the other integrals are those of their own sweeps so far.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    (a, scale, *args), batched = _batch(a, panel_scale, *args)
    a, scale = a.tolist(), scale.tolist()
    k = len(a)
    floor = tol * 1e-3
    total = [0.0] * k
    err_total = [0.0] * k
    evals = [0] * k
    prev_mag = [None] * k
    peak = [0.0] * k
    tiny_run = [0] * k
    lo = list(a)
    # panels consumed, the last panel ratio below 0.75, and the panels the
    # next round integrates
    done = [0] * k
    ratio = [None] * k
    ahead = [1] * k
    open_ = list(range(k))
    exhausted = False
    while open_:
        owner, los, his = [], [], []
        for i in open_:
            left = lo[i]
            for j in range(done[i] + 1, done[i] + ahead[i] + 1):
                right = a[i] + scale[i] * _REACH[j]
                owner.append(i)
                los.append(left)
                his.append(right)
                left = right
        rows = np.array(owner) if args else None
        values, errs, counts, bad = _qag(
            f, los, his, min(tol / 16.0, 1e-12), [p[rows] for p in args]
        )
        for i, n in zip(owner, counts):
            evals[i] += n
        stopped = set()
        for i, x0, x1, v, e, failed in zip(owner, los, his, values, errs, bad):
            if i in stopped:
                continue  # past the stop
            if failed and not abs(v) <= tol:  # a nan value fails too
                raise QuadratureError(
                    "panel [%g, %g] did not converge" % (x0, x1),
                    best=_result(total, err_total, evals, batched),
                )
            total[i] += v
            err_total[i] += e
            done[i] += 1
            lo[i] = x1
            mag = abs(v)
            if mag > peak[i]:
                peak[i] = mag
            # a run of panels at the floor means the mass is fully inside
            if mag <= floor or mag <= peak[i] * 1e-16:
                tiny_run[i] += 1
                if tiny_run[i] >= 2:
                    err_total[i] += floor
                    stopped.add(i)
                    continue
            else:
                tiny_run[i] = 0
            prev = prev_mag[i]
            if prev is not None and prev > 0.0 and mag < prev:
                r = mag / prev
                if r < 0.75:
                    ratio[i] = r
                    tail = mag * r / (1.0 - r)
                    if tail < tol:
                        err_total[i] += tail
                        stopped.add(i)
                        continue
            prev_mag[i] = mag
        still = []
        for i in open_:
            if i in stopped:
                continue
            # look ahead by the decay seen so far
            cap = min(8, done[i], _SWEEP_PANELS - done[i])
            if cap == 0:
                exhausted = True
                continue
            n, r = 1, ratio[i]
            if r is not None:
                while n < cap and prev_mag[i] * r**n * r / (1.0 - r) >= tol:
                    n += 1
            ahead[i] = n
            still.append(i)
        open_ = still
    if exhausted:
        raise QuadratureError(
            "tail decay not certified after %d panels" % _SWEEP_PANELS,
            best=_result(total, err_total, evals, batched),
        )
    return _result(total, err_total, evals, batched)


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
# the lattice points and shifts lie on the grid of multiples of 2^-52
_GRID_BITS = 52


@functools.cache
def _lattice_base(dim):
    """The rule's points k z/N mod 1, k = 0..N-1, in the first ``dim``
    coordinates, each moved by half a grid step: the odd numerators
    2 (k z mod N) 2^(52 - 14) + 1, in units of 2^-53, as a read-only
    (dim, N) uint64 array."""
    k = np.arange(LATTICE_N, dtype=np.uint64)
    z = np.array(LATTICE_Z[:dim], dtype=np.uint64)[:, None]
    base = (k * z % np.uint64(LATTICE_N)) << np.uint64(_GRID_BITS + 1 - _LATTICE_BITS)
    base |= np.uint64(1)
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
    (read-only) as odd numerators in units of 2^-53, the shifts are
    doubled to the same units once per call, and each shift's points are
    formed in place in one buffer in five passes (add, mask, scale to
    float, reflect, minimum) and passed to ``block`` in slices of
    ``_kernels.MC_BLOCK`` samples.
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
    delta <<= np.uint64(1)
    t = np.empty_like(base)
    u = np.empty(base.shape)
    reflected = np.empty(base.shape)
    mask = np.uint64((1 << (_GRID_BITS + 1)) - 1)
    means = []
    for s in range(shifts):
        # x = t 2^-53 with t = 2 (base + delta mod 2^52) + 1, odd; the tent
        # min(2x, 2 - 2x) is exact in floats, as t < 2^53
        np.add(base, delta[s], out=t)
        t &= mask
        np.multiply(t, 2.0**-_GRID_BITS, out=u)
        np.subtract(2.0, u, out=reflected)
        np.minimum(u, reflected, out=u)
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


def gradient_central(f, x, step):
    r"""Central finite-difference gradient of an array-valued f at x.

    x is one point, shape (d,), or a stack of n points, shape (n, d),
    which f takes as one call and maps to a stack of values, shape
    (n,) + S; ``step`` is a scalar or one step per point, shape (n,).
    Returns an array of shape x.shape + S (S the shape of f's value at one
    point); component l holds the partial derivative along x[..., l],
    error O(step^2).
    """
    x = np.asarray(x, dtype=np.float64)
    h = 2.0 * np.asarray(step)
    diffs = []
    for l in range(x.shape[-1]):
        xp = x.copy()
        xm = x.copy()
        xp[..., l] += step
        xm[..., l] -= step
        diff = np.asarray(f(xp)) - np.asarray(f(xm))
        diffs.append(diff / h.reshape(h.shape + (1,) * (diff.ndim - h.ndim)))
    return np.stack(diffs, axis=x.ndim - 1)


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
