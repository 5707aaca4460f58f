"""Polarizability spectra, the Drude metal, and the smoothed thermal factor.

A material's low-frequency response enters through the spectral density
s(m) = m^2 alpha(m^2); metals described by the Drude model have a linear
small-m density s(m) = D*m with D fixed by the plasma frequency, damping,
and number density. This module holds the densities the CLI reads and
builds from them the thermal factor H0 (thermally smoothed pair) and the
universal quartic integral I. The imaginary-frequency response h(K^2),
its inversion back to a density and the sharp-pair factor H live in the
oracle battery (magfriction.verification).
"""

import functools
import math
import warnings
from collections import namedtuple

from magfriction import _ieee, lazy_import

np = lazy_import("numpy")


class SpectrumFileError(ValueError):
    """A spectrum file is unreadable, unparseable or not two columns."""


class LinearSpectralDensity(namedtuple("LinearSpectralDensity", "D m_max")):
    """Linear density s(m) = D*m with D finite and >= 0, optionally
    truncated at m_max.

    Only the untruncated density is linear (``is_linear``) and takes the
    closed forms for H0, J and the slab forces; a truncated one takes the
    general H0 rule.
    """

    __slots__ = ()

    def __new__(cls, D, m_max=None):
        linear_slope(D, _ieee.FloatOps)
        if m_max is not None and m_max <= 0.0:
            raise ValueError("m_max must be positive")
        return super().__new__(cls, D, m_max)

    @property
    def is_linear(self):
        return self.m_max is None

    def density(self, m):
        m = np.asarray(m, dtype=np.float64)
        s = self.D * m
        if self.m_max is not None:
            s = np.where(m > self.m_max, 0.0, s)
        return s


class TabulatedSpectralDensity:
    """Density sampled on a strictly increasing m grid; linear interpolation,
    zero outside the support, which ends at m_max."""

    def __init__(self, m, s):
        m = np.asarray(m, dtype=np.float64)
        s = np.asarray(s, dtype=np.float64)
        if m.ndim != 1 or m.size < 2 or m.shape != s.shape:
            raise ValueError("need matching 1-d grids with at least 2 points")
        if not (np.isfinite(m).all() and np.isfinite(s).all()):
            raise ValueError("m grid and density must be finite")
        # compared, not subtracted: a difference of finite values may overflow
        if np.any(m[1:] <= m[:-1]):
            raise ValueError("m grid must be strictly increasing")
        if np.any(m < 0.0):
            raise ValueError("m grid must be nonnegative")
        if np.any(s < 0.0):
            raise ValueError("density must be nonnegative (passivity)")
        self.m = m
        self.s = s
        self.m_max = float(m[-1])

    is_linear = False

    @classmethod
    def from_text(cls, path):
        """Load from two-column whitespace-separated text; '#' comments.

        ``path`` names the file that is read, with the locale encoding
        and universal newlines; it is never taken as a URL or replaced by
        a compressed file of the same stem. Raises SpectrumFileError if
        the file cannot be read or parsed or has other than two columns;
        bad content (grid order, negative density, a value that is not
        finite) raises plain ValueError.
        """
        try:
            # a file without data rows is reported below as not two columns
            with open(path) as fh, warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, comments="#", ndmin=2)
        except Exception as exc:
            raise SpectrumFileError("cannot parse spectrum file %s: %s" % (path, exc))
        if data.shape[1] != 2:
            raise SpectrumFileError("spectrum file %s needs two columns" % path)
        return cls(data[:, 0], data[:, 1])

    def density(self, m):
        return np.interp(m, self.m, self.s, left=0.0, right=0.0)


def linear_slope(D, ops):
    """A column of linear slopes D, each finite and >= 0; ``ops`` as in
    friction_forces."""
    ops.fail((D < 0.0) | (D == math.inf) | (D != D), ValueError("D must be finite and >= 0"))
    return D


def drude_D(omega_p, nu, rho, ops):
    """Low-frequency spectral slope of a Drude half-space over columns of
    plasma frequency, damping rate and number density:
    D = nu/(rho*(pi*omega_p)^2); ``ops`` as in friction_forces."""
    ops.fail((omega_p <= 0.0) | (nu < 0.0) | (rho <= 0.0),
             ValueError("omega_p, rho must be positive and nu >= 0"))
    return linear_slope(ops.div(nu, rho * ops.pow(math.pi * omega_p, 2)), ops)


def universal_I():
    r"""The quartic thermal integral: x^4 e^-x/(1-e^-x)^2 over x > 0.

    Equals 24*zeta(4) = 4 pi^4/15 ~ 25.9757576. The oracle battery checks
    this value against quadrature ("semi-infinite quartic thermal") and
    against the zeta(4) series ("universal integral routes").
    """
    return 4.0 * math.pi**4 / 15.0


def H0_linear(D1, D2, beta, ops):
    """H0 = (2 pi/beta^4) D1 D2 (4 pi^4/15) for linear densities without
    cutoff, over columns of slopes and inverse temperatures; ``ops`` as
    in friction_forces."""
    return ops.div(2.0 * math.pi, ops.pow(beta, 4)) * D1 * D2 * universal_I()


def H0_columns(side1, side2, beta, ops):
    """H0 over columns, each side a TabulatedSpectralDensity or a column
    of linear slopes D: H0_linear for two slope columns, else
    ``smoothed_H0`` once per point of the (beta, slopes) columns."""
    slopes = [s for s in (side1, side2) if not isinstance(s, TabulatedSpectralDensity)]
    if len(slopes) == 2:
        return H0_linear(side1, side2, beta, ops)

    def h0(b, *ds):
        ds = iter(ds)
        specs = [s if isinstance(s, TabulatedSpectralDensity) else LinearSpectralDensity(next(ds))
                 for s in (side1, side2)]
        return smoothed_H0(*specs, b)

    return ops.map(h0, beta, *slopes)


# the H0 integrand's support is cut at beta*m = 700: 1/sinh^2(beta m/2) is
# 4e-304 there and underflows soon after
_H0_CUTOFF = 700.0
# bound on the segments' summed |Q8 - Q16|, relative to the 16-point sum
_H0_RTOL = 1e-10


@functools.cache
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only;
    numpy.polynomial loads on first use, not with this module."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def smoothed_H0(spec1, spec2, beta):
    r"""Thermally smoothed pair factor for two spectral densities.

    For linear densities without cutoff (slopes D1, D2):

        H0 = (2 pi/beta^4) D1 D2 (4 pi^4/15)

    General densities integrate (pi beta/2) m^2 s1(m) s2(m)/sinh^2(beta m/2)
    over m > 0, which the linear case reduces to exactly. The product's
    support ends at the smaller m_max and is cut at beta*m = 700. It is
    split at 0, both tabulated grids and the support end, where the
    interpolated densities have kinks, and every segment longer than
    1/beta is split evenly, so the poles of 1/sinh^2, 2 pi/beta off the
    real axis, lie at least 2 pi segment lengths away. Each segment takes
    8- and 16-point Gauss-Legendre rules (Golub & Welsch, Math. Comp. 23,
    221 (1969)): H0 is the 16-point sum, and QuadratureError is raised
    when the segments' |Q8 - Q16| add up to more than 1e-10 of it. A
    non-finite integrand is float overflow or underflow and raises
    FloatingPointError.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if spec1.is_linear and spec2.is_linear:
        return H0_linear(spec1.D, spec2.D, beta, _ieee.FloatOps)
    specs = (spec1, spec2)
    end = min([_H0_CUTOFF / beta] + [s.m_max for s in specs if s.m_max is not None])
    knots = [[0.0, end]]
    for s in specs:
        if isinstance(s, TabulatedSpectralDensity):
            knots.append(s.m)
        elif s.m_max is not None:
            knots.append([s.m_max])
    # sorted, without duplicates; np.unique would load numpy.ma
    knots = np.sort(np.concatenate(knots))
    knots = knots[np.concatenate([[True], knots[1:] != knots[:-1]]) & (knots <= end)]
    widths = np.diff(knots)
    pieces = np.maximum(np.ceil(widths * beta), 1.0).astype(np.int64)
    # segment i becomes pieces[i] segments of width step; k counts them from 0
    segment = np.repeat(np.arange(len(widths)), pieces)
    k = np.arange(len(segment)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step = (widths / pieces)[segment]
    half = step / 2.0
    mid = knots[segment] + (k + 0.5) * step
    (x8, w8), (x16, w16) = _gauss_legendre(8), _gauss_legendre(16)
    m = np.concatenate([(mid[:, None] + half[:, None] * x).ravel() for x in (x8, x16)])
    with np.errstate(all="ignore"):
        sh = np.sinh(beta * m / 2.0)
        f = m * m * spec1.density(m) * spec2.density(m) / (sh * sh)
    bad = ~np.isfinite(f)
    if bad.any():
        raise FloatingPointError("H0 integrand is not a finite float at m=%g" % m[bad.argmax()])
    n8 = 8 * len(mid)
    q8 = half * (f[:n8].reshape(-1, 8) @ w8)
    q16 = half * (f[n8:].reshape(-1, 16) @ w16)
    total = float(np.sum(q16))
    err = float(np.sum(np.abs(q8 - q16)))
    if err > _H0_RTOL * abs(total):
        raise _ieee.QuadratureError(
            "H0 rule did not converge: |Q8 - Q16| = %g against %g" % (err, total)
        )
    return (math.pi * beta / 2.0) * total
