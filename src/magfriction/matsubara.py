"""The coupled pair's induced free energy, summed over imaginary frequencies.

Each thermal mode K_n = 2*pi*n/beta contributes a closed-form free energy
proportional to alpha^2. The sum over modes has a closed form too
(``free_energy``), which is what the CLI prints; the mode sum with its
certified analytic tail, which checks it, lives in the oracle battery
(magfriction.verification). Low temperature recovers the alpha^2/2
ground-state shift, high temperature kills the effect.
"""

import math


def free_energy(alpha, beta, ops):
    r"""Total induced free energy in closed form, over columns of alpha and
    beta; ``ops`` as in friction_forces.

    The mode sum collapses through sum_n 1/(n^2 + a^2) = (pi/a) coth(pi a)
    to F = (alpha^2/2) * (coth x - x/sinh^2 x) with x = beta/2; the
    bracket is ``free_energy_bracket``.
    """
    ops.fail(beta <= 0.0, ValueError("beta must be positive"))
    return 0.5 * alpha * alpha * ops.map(free_energy_bracket, 0.5 * beta)


# 1/(2k + 3)! for k = 0..11: sinh y - y = y^3 * sum_k y^(2k)/(2k + 3)!,
# whose terms past k = 11 stay below 2^-60 of the sum for |y| < 2
_SINH_SERIES = tuple(1 / math.factorial(2 * k + 3) for k in range(12))[::-1]


def free_energy_bracket(x):
    """coth x - x/sinh^2 x for x > 0, the temperature factor of
    ``free_energy``, within 4.5 ulp of its exact value.

    Below x = 1 the direct form cancels; there it is
    (sinh 2x - 2x)/(2 sinh^2 x), with both sinh written as y + y^3 P(y^2)
    (P the Horner series of _SINH_SERIES), so the x^2 cancels:
    4x P(4x^2)/(1 + x^2 P(x^2))^2. No term underflows, so a subnormal x
    needs no series of its own. From x = 1 it is written through e^{-2x}
    so that no term overflows as x grows: x e^{-2x} is formed before the
    factor 4, as 4x overflows for x past 4.5e307.
    """
    if x < 1.0:
        z = x * x
        p = q = 0.0
        for c in _SINH_SERIES:
            p = p * (4.0 * z) + c
            q = q * z + c
        q = 1.0 + z * q
        return 4.0 * x * p / (q * q)
    e = math.exp(-2.0 * x)
    em1 = math.expm1(-2.0 * x)
    return (1.0 + e) / -em1 - 4.0 * (x * e) / (em1 * em1)
