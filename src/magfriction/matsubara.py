"""Imaginary-frequency mode sums for the coupled pair free energy.

Each thermal mode K_n = 2*pi*n/beta contributes a closed-form free energy
proportional to alpha^2. The sum over modes has a closed form too
(``free_energy``), which is the production route; ``induced_free_energy``
sums the modes with an analytic tail so the truncation error is a
certified bound, and serves as its oracle. Low temperature recovers the
alpha^2/2 ground-state shift, high temperature kills the effect.
"""

import math
from collections import namedtuple

from magfriction import _kernels, lazy_import

numerics = lazy_import("magfriction.numerics")


class TruncationError(RuntimeError):
    """Certified tail bound exceeds the grid's tail_tol."""


class MatsubaraGrid(namedtuple("MatsubaraGrid", "beta n_max tail_tol")):
    """Inverse temperature, mode truncation, and tail tolerance."""

    __slots__ = ()

    def __new__(cls, beta, n_max, tail_tol=1e-9):
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if tail_tol <= 0.0:
            raise ValueError("tail_tol must be positive")
        return super().__new__(cls, beta, n_max, tail_tol)


def matsubara_frequency(beta, n):
    """Thermal frequency K = 2*pi*n/beta; odd in n."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return 2.0 * math.pi * n / beta


def reference_mode_average(u):
    """Mean squared mode amplitude 1/(u^2 + 1) of the unit oscillator,
    u the mode frequency over the oscillator frequency."""
    return 1.0 / (u * u + 1.0)


def mode_free_energy(alpha, u, beta):
    """Free energy of a single mode: (2*alpha^2/beta) * u^2/(u^2+1)^2."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return (2.0 * alpha * alpha / beta) * u * u / (u * u + 1.0) ** 2


def free_energy(alpha, beta, ops):
    r"""Total induced free energy in closed form, over columns of alpha and
    beta; ``ops`` as in friction_forces.

    The mode sum collapses through sum_n 1/(n^2 + a^2) = (pi/a) coth(pi a)
    to F = (alpha^2/2) * (coth x - x/sinh^2 x) with x = beta/2.
    Below x = 1e-2 the bracket is its series 2x/3 - 4x^3/45 + 4x^5/315
    (the direct form cancels there); above, it is written through
    e^{-2x} so that no term overflows as x grows.
    """
    ops.fail(beta <= 0.0, ValueError("beta must be positive"))
    return 0.5 * alpha * alpha * ops.map(free_energy_bracket, 0.5 * beta)


def free_energy_bracket(x):
    """coth x - x/sinh^2 x for x > 0, the temperature factor of
    ``free_energy``."""
    if x < 1e-2:
        return 2.0 * x / 3.0 - 4.0 * x**3 / 45.0 + 4.0 * x**5 / 315.0
    e = math.exp(-2.0 * x)
    em1 = math.expm1(-2.0 * x)
    return (1.0 + e) / -em1 - 4.0 * x * e / (em1 * em1)


def induced_free_energy(alpha, grid):
    r"""Total induced free energy: mode sum plus analytic tail.

    Modes n in [-n_max, n_max] are summed exactly (even in n, n=0 gives
    zero). Past the truncation each term is replaced by its 1/u^2
    envelope, summed in closed form through the trigamma function; the
    replacement error is bounded by 3/u^4 per term, summed through the
    pentagamma function, and that certified bound must sit below the
    grid's tail_tol.

    Returns
    -------
    float

    Raises
    ------
    TruncationError
        Bound above tail_tol, or the truncation is too early for the
        envelope bound to apply (first dropped mode below the knee u=1).
    """
    a2 = alpha * alpha
    if a2 == 0.0:
        return 0.0
    partial = _kernels.mode_sum(alpha, grid.beta, grid.n_max)
    scale = grid.beta / (2.0 * math.pi)
    pref = 2.0 * (2.0 * a2 / grid.beta)
    tail = pref * scale**2 * numerics.polygamma(1, grid.n_max + 1.0)
    bound = pref * scale**4 * 3.0 * numerics.polygamma(3, grid.n_max + 1.0) / 6.0
    if bound > grid.tail_tol:
        raise TruncationError(
            "tail bound %.3e exceeds tail_tol %.3e; raise n_max" % (bound, grid.tail_tol)
        )
    # envelope bound needs the first dropped mode past the knee
    if matsubara_frequency(grid.beta, grid.n_max + 1) < 1.0:
        raise TruncationError("n_max truncates below u = 1; bound not certified")
    return partial + tail
