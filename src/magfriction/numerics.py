"""Shared verified numerical engines.

Adaptive quadrature on finite and semi-infinite intervals, deterministic
seeded Monte-Carlo integration, series summation with certified tails,
central finite differences, and multi-sinusoid spectral fitting. Everything
here is generic plumbing; the physics modules supply the integrands.
scipy is imported inside the functions that call it, so callers that
only take closed forms never load it. The failure types and
ieee_pow/ieee_div are magfriction._ieee's, re-exported here.
"""

import math
from dataclasses import dataclass

from magfriction import _kernels, lazy_import
from magfriction._ieee import (  # noqa: F401 (re-exported)
    FitError,
    McSamplingError,
    QuadratureError,
    SeriesError,
    ieee_div,
    ieee_pow,
)

np = lazy_import("numpy")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class McResult:
    value: float
    std_error: float
    samples: int
    seed: int


def quad_finite(f, a, b, tol=1e-10):
    r"""Adaptive Gauss-Kronrod quadrature of f on [a, b].

    Parameters
    ----------
    f : callable
        Scalar integrand.
    a, b : float
        Interval endpoints, a <= b.
    tol : float
        Absolute and relative tolerance target.

    Returns
    -------
    QuadratureResult

    Raises
    ------
    QuadratureError
        On non-convergence; the best estimate rides on the exception.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    import scipy.integrate

    out = scipy.integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=True)
    value, err, info = out[0], out[1], out[2]
    if len(out) > 3:
        raise QuadratureError(
            "finite quadrature did not converge: %s" % out[3],
            best=QuadratureResult(value, err, int(info["neval"])),
        )
    return QuadratureResult(float(value), float(err), int(info["neval"]))


def quad_semi_infinite(f, a, tol=1e-10, panel_scale=1.0, max_panels=64):
    r"""Integrate f over [a, inf) by a dyadic panel sweep.

    Panels [a + s*(2^j - 1), a + s*(2^j+1 - 1)] grow geometrically (the
    discrete form of an exponential change of variables); each is handled by
    `quad_finite`. The sweep stops once the panel contributions decay
    geometrically and the certified remaining-tail bound |I_j| * r/(1 - r)
    (r the observed panel ratio) drops below tol.

    Parameters
    ----------
    f : callable
        Scalar integrand, must decay integrably.
    a : float
        Lower endpoint.
    tol : float
        Absolute tolerance for the certified tail bound.
    panel_scale : float
        Width of the first panel.
    max_panels : int
        Sweep budget; exhaustion means the decay was never certified.

    Returns
    -------
    QuadratureResult

    Raises
    ------
    QuadratureError
        When the panel contributions do not decay (non-integrable tail) or
        the budget is exhausted.
    """
    total = 0.0
    err_total = 0.0
    evals = 0
    prev_mag = None
    peak = 0.0
    tiny_run = 0
    lo = a
    for j in range(max_panels):
        hi = a + panel_scale * (2.0 ** (j + 1) - 1.0)
        try:
            part = quad_finite(f, lo, hi, tol=min(tol / 16.0, 1e-12))
        except QuadratureError as exc:
            part = exc.best
            if part is None or abs(part.value) > tol:
                raise QuadratureError(
                    "panel [%g, %g] did not converge" % (lo, hi),
                    best=QuadratureResult(total, err_total, evals),
                )
        total += part.value
        err_total += part.error_estimate
        evals += part.evaluations
        mag = abs(part.value)
        peak = max(peak, mag)
        # a run of panels at the floor means the mass is fully inside
        if mag <= max(tol * 1e-3, peak * 1e-16):
            tiny_run += 1
            if tiny_run >= 2:
                return QuadratureResult(total, err_total + tol * 1e-3, evals)
        else:
            tiny_run = 0
        if prev_mag is not None and prev_mag > 0.0 and mag < prev_mag:
            r = mag / prev_mag
            if r < 0.75:
                tail = mag * r / (1.0 - r)
                if tail < tol:
                    return QuadratureResult(total, err_total + tail, evals)
        prev_mag = mag
        lo = hi
    raise QuadratureError(
        "tail decay not certified after %d panels" % max_panels,
        best=QuadratureResult(total, err_total, evals),
    )


class BoxSampler:
    """Uniform sampler over an axis-aligned box; constant density."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if np.any(self.hi <= self.lo):
            raise ValueError("empty box")
        self.dim = self.lo.size
        self._pdf = 1.0 / float(np.prod(self.hi - self.lo))

    def map(self, u):
        pts = self.lo[:, None] + (self.hi - self.lo)[:, None] * u
        return pts, np.full(u.shape[1], self._pdf)


class HalfspaceSampler:
    r"""Importance sampler for integrands over the half-space z > z0.

    Density p(z) = 3*z0^3/z^4, p(s|z) = 4*z^4*s/(s^2+z^2)^3 (cylindrical
    radius), azimuth uniform; matched to the z0^-3 tails of the geometric
    coupling integrands so weights stay bounded.
    """

    dim = 3

    def __init__(self, z0):
        if z0 <= 0.0:
            raise ValueError("z0 must be positive")
        self.z0 = float(z0)

    def map(self, u):
        z = self.z0 * (1.0 - u[0]) ** (-1.0 / 3.0)
        s = z * np.sqrt((1.0 - u[1]) ** (-0.5) - 1.0)
        phi = 2.0 * math.pi * u[2]
        pts = np.vstack([s * np.cos(phi), s * np.sin(phi), z])
        r2 = s * s + z * z
        z4 = z**4
        # p(z) * p(s|z)/(2*pi*s), the s cancelled analytically
        pdf = (3.0 * self.z0 ** 3 / z4) * (4.0 * z4 / (2.0 * math.pi * r2 ** 3))
        return pts, pdf


def mc_integrate(f, sampler, n, seed, chunk_size=1 << 20):
    r"""Deterministic seeded Monte-Carlo integral of f against a sampler.

    The sample stream is split into fixed chunks; chunk j draws its uniforms
    from Philox(key=seed) jumped j times, so the estimate is bit-reproducible
    for a given (seed, n, chunk partition) regardless of evaluation order.
    Each chunk's uniforms are mapped, weighted and summed in blocks of
    ``_kernels.MC_BLOCK`` samples, so the temporaries stay in cache; the
    block size changes only the order of the summation, not the draws.

    Parameters
    ----------
    f : callable
        Vectorized integrand taking the sampler's point array (dim, m).
    sampler : object
        Provides .dim and .map(uniforms) -> (points, density).
    n : int
        Total sample count.
    seed : int
        Philox key.
    chunk_size : int
        Partition size; part of the reproducibility contract.

    Returns
    -------
    McResult

    Raises
    ------
    McSamplingError
        If any drawn point has non-positive or non-finite density.
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
        u = rng.random((sampler.dim, m))
        for a in range(0, m, _kernels.MC_BLOCK):
            pts, pdf = sampler.map(u[:, a : a + _kernels.MC_BLOCK])
            bad = ~(pdf > 0.0) | ~np.isfinite(pdf)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise McSamplingError(
                    "sampler density invalid at chunk %d sample %d (pdf=%r)"
                    % (j, a + i, pdf[i])
                )
            w = np.asarray(f(pts), dtype=np.float64) / pdf
            sw += float(np.sum(w))
            sw2 += float(np.sum(w * w))
        done += m
        j += 1
    mean = sw / n
    var = max(sw2 / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1.0)
    return McResult(mean, float(np.sqrt(var / n)), n, seed)


def series_sum(term, tail_bound, tol, max_terms=10_000_000):
    r"""Sum term(1) + term(2) + ... with a supplied certified tail bound.

    ``tail_bound(n)`` must bound |sum of all terms past n| and be
    nonincreasing. Summation stops at the first n with tail_bound(n) < tol;
    the returned partial sum is then within tol of the full series.

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
    for n in range(1, max_terms + 1):
        acc += term(n)
        b = tail_bound(n)
        if b < 0.0 or b > prev_bound:
            raise SeriesError("tail bound not nonincreasing at n=%d" % n)
        if b < tol:
            if abs(term(n + 1)) > prev_bound:
                raise SeriesError("term %d exceeds the certified bound" % (n + 1))
            return acc
        prev_bound = b
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
    A = np.stack([x[i : i + p][::-1] for i in range(x.size - p)])
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

    def resid(w):
        M = _design(t, w)
        amp, *_ = np.linalg.lstsq(M, x, rcond=None)
        return M @ amp - x

    import scipy.optimize

    sol = scipy.optimize.least_squares(resid, freqs, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    freqs = np.abs(sol.x)
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
