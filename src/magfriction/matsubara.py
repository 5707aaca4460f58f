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
    to F = (alpha^2/2) * (coth x - x/sinh^2 x) with x = beta/2.
    Below x = 1e-2 the bracket is its series 2x/3 - 4x^3/45 + 4x^5/315
    (the direct form cancels there); above, it is written through
    e^{-2x} so that no term overflows as x grows: x e^{-2x} is formed
    before the factor 4, as 4x overflows for x past 4.5e307.
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
    return (1.0 + e) / -em1 - 4.0 * (x * e) / (em1 * em1)
