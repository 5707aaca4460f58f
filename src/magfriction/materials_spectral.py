"""Polarizability spectra, the Drude metal, and the smoothed thermal factor.

A material's low-frequency response enters through the spectral density
s(m) = m^2 alpha(m^2); metals described by the Drude model have a linear
small-m density s(m) = D*m with D fixed by the plasma frequency, damping,
and number density. This module holds the densities the CLI reads and
builds from them the thermal factor H0 (thermally smoothed pair) and the
universal quartic integral I. H0 has one route for each kind of pair:
the closed form H0_linear for two linear densities, the quadrature rule
smoothed_H0 when a side is tabulated; its 8- and 16-point Gauss-Legendre
rules are literal tables of numpy's doubles (_GAUSS_LEGENDRE), so no
route loads numpy.polynomial. The imaginary-frequency response
h(K^2), its inversion back to a density and the sharp-pair factor H live
in the oracle battery (magfriction.verification).
"""

import functools
import math
import warnings
from collections import namedtuple

from magfriction import _ieee, lazy_import

np = lazy_import("numpy")


class SpectrumFileError(ValueError):
    """A spectrum file is unreadable, unparseable or not two columns."""


class LinearSpectralDensity(namedtuple("LinearSpectralDensity", "D")):
    """Linear density s(m) = D*m with D finite and >= 0."""

    __slots__ = ()

    def __new__(cls, D):
        linear_slope(D, _ieee.FloatOps)
        return super().__new__(cls, D)

    def density(self, m):
        return self.D * np.asarray(m, dtype=np.float64)


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
    return ops.div(nu, rho * ops.pow(math.pi * omega_p, 2))


def universal_I():
    r"""The quartic thermal integral: x^4 e^-x/(1-e^-x)^2 over x > 0.

    Equals 24*zeta(4) = 4 pi^4/15 ~ 25.9757576. The oracle battery checks
    this value against quadrature ("semi-infinite quartic thermal") and
    against zeta(4) = psi^(3)(1)/6 from numerics.polygamma ("universal
    integral routes").
    """
    return 4.0 * math.pi**4 / 15.0


def H0_linear(D1, D2, beta, ops):
    """H0 = (2 pi/beta^4) D1 D2 (4 pi^4/15) for linear densities
    s = D*m, over columns of slopes and inverse temperatures; ``ops`` as
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


# Gauss-Legendre rules on [-1, 1] (Golub & Welsch, Math. Comp. 23, 221
# (1969)) as the doubles that numpy.polynomial.legendre.leggauss returns
# for n = 8 and 16 (numpy 2.4.6): the positive nodes from the outside in,
# then their weights. Both rules are symmetric about 0. These keep
# numpy's bits, not the exact rules: its weights are up to 63 ulp from
# their exact values, its nodes within 0.9 ulp
_GAUSS_LEGENDRE = {
    8: (
        (0.9602898564975362, 0.7966664774136267, 0.525532409916329, 0.18343464249564978),
        (0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166),
    ),
    16: (
        (0.9894009349916499, 0.9445750230732326, 0.8656312023878318, 0.755404408355003,
         0.6178762444026438, 0.45801677765722737, 0.2816035507792589, 0.09501250983763744),
        (0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
         0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864),
    ),
}


@functools.cache
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes, ascending, and weights on [-1, 1] for
    n = 8 or 16, as read-only arrays built from _GAUSS_LEGENDRE on first
    use."""
    x, w = (np.array(half) for half in _GAUSS_LEGENDRE[n])
    nodes = np.concatenate([-x, x[::-1]])
    weights = np.concatenate([w, w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def smoothed_H0(spec1, spec2, beta):
    r"""Thermally smoothed pair factor for two spectral densities, each
    linear or tabulated: the integral of
    (pi beta/2) m^2 s1(m) s2(m)/sinh^2(beta m/2) over m > 0.

    For two linear densities (slopes D1, D2) it equals H0_linear,
    (2 pi/beta^4) D1 D2 (4 pi^4/15), which the CLI prints for them; this
    rule is the route for a tabulated side. The product's support ends
    at the smaller tabulated m_max and is cut at beta*m = 700. It is
    split at 0, the tabulated grids and the support end, where the
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
    tabulated = [s for s in (spec1, spec2) if isinstance(s, TabulatedSpectralDensity)]
    end = min([_H0_CUTOFF / beta] + [s.m_max for s in tabulated])
    # sorted, without duplicates; np.unique would load numpy.ma
    knots = np.sort(np.concatenate([[0.0, end]] + [s.m for s in tabulated]))
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
