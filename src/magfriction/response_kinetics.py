"""Linear-response kernels for the velocity-coupled oscillator pair.

Thermal commutator kernels for two oscillators, the response function
phi(t) built from them, the damped-time-integral regularization that turns
the long-time limit into a sharp frequency-matching condition, the
closed-form friction amplitude it produces, the two-sinusoid decomposition
of phi, and the zero-temperature dissipation integral for pair spectra.

Sharp-frequency results are never "evaluated"; they are returned as
DeltaCoefficient records carrying the finite prefactor of the frequency-
matching delta.
"""

import math
from dataclasses import dataclass

from magfriction import lazy_import, numerics

np = lazy_import("numpy")


def _any(cond):
    """A comparison's truth: a bool for scalars, any element for an array."""
    return cond.any() if isinstance(cond, np.ndarray) else cond


@dataclass(frozen=True)
class OscState:
    """One oscillator: frequency, mean thermal occupation, mass.

    Each field may also be an array, for a batch of oscillators that the
    kernels below evaluate elementwise; every element is validated.
    """

    omega: float
    n_mean: float
    mass: float = 1.0

    def __post_init__(self):
        if _any(self.omega <= 0.0):
            raise ValueError("omega must be positive")
        if _any(self.n_mean < 0.0):
            raise ValueError("n_mean must be >= 0")
        if _any(self.mass <= 0.0):
            raise ValueError("mass must be positive")

    @classmethod
    def thermal(cls, omega, beta, mass=1.0):
        """Equilibrium occupation 1/(exp(beta*omega) - 1)."""
        n = 1.0 / np.expm1(beta * omega)
        return cls(omega, n if np.ndim(n) else float(n), mass)

    @property
    def occupation_factor(self):
        """2<n> + 1, equal to coth(beta*omega/2) at equilibrium."""
        return 2.0 * self.n_mean + 1.0


@dataclass(frozen=True)
class DeltaCoefficient:
    """Finite prefactor of delta(omega1 - omega2) for sharp oscillators.

    amplitude is in force units per delta-argument unit; at_frequency is
    the frequency where the delta fires.
    """

    amplitude: float
    at_frequency: float


def M_full(osc1, osc2, t):
    r"""Two-oscillator commutator kernel.

    (i/2){(w1^2+w2^2)[A c1 s2 + B c2 s1] - 2 w1 w2 [A c2 s1 + B c1 s2]}
    with A, B the occupation factors and c_i, s_i = cos/sin(w_i t).
    Vanishes identically when the frequencies coincide.
    """
    w1, w2 = osc1.omega, osc2.omega
    A, B = osc1.occupation_factor, osc2.occupation_factor
    c1, s1 = np.cos(w1 * t), np.sin(w1 * t)
    c2, s2 = np.cos(w2 * t), np.sin(w2 * t)
    same = A * c1 * s2 + B * c2 * s1
    cross = A * c2 * s1 + B * c1 * s2
    return 0.5j * ((w1 * w1 + w2 * w2) * same - 2.0 * w1 * w2 * cross)


def M_reduced(osc1, osc2, t):
    """Near-resonance form i w1 w2 (B - A) sin((w1 - w2) t).

    Differs from M_full by exactly (i/2)(w1-w2)^2 [A c1 s2 + B c2 s1].
    """
    w1, w2 = osc1.omega, osc2.omega
    A, B = osc1.occupation_factor, osc2.occupation_factor
    return 1j * w1 * w2 * (B - A) * np.sin((w1 - w2) * t)


def coupling_D(osc1, osc2):
    """The response prefactor 1/(2 m1 m2 w1 w2)."""
    return 1.0 / (2.0 * osc1.mass * osc2.mass * osc1.omega * osc2.omega)


def response_phi(osc1, osc2, t, D=None):
    r"""Response function phi(t) = (1/i) (D/2) M_full(t).

    D defaults to 1/(2 m1 m2 w1 w2) from the oscillator records. The
    kernel is purely imaginary, so phi is real.
    """
    if D is None:
        D = coupling_D(osc1, osc2)
    val = (D / 2.0) * np.imag(M_full(osc1, osc2, t))
    return float(val) if np.isscalar(t) else val


def nascent_delta_g(w, eta):
    r"""Damped long-time weight g(w, eta) = 2 eta w/(eta^2 + w^2)^2.

    Closed form of the integral of t e^{-eta t} sin(w t) over t >= 0.
    Integrating w*g over the real axis gives pi for every eta; as eta -> 0
    the weight acts as the derivative of a delta at w = 0.
    """
    if _any(eta <= 0.0):
        raise ValueError("eta must be positive")
    return 2.0 * eta * w / (eta * eta + w * w) ** 2


def nascent_delta_cos_sin(omega1, omega2, eta):
    """Damped time integral of t e^{-eta t} cos(w1 t) sin(w2 t):
    (1/2)[g(w1+w2, eta) - g(w1-w2, eta)]."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return 0.5 * (nascent_delta_g(omega1 + omega2, eta) - nascent_delta_g(omega1 - omega2, eta))


def coth_difference_limit(beta, omega1, omega2):
    r"""Occupation difference coth(b w1/2) - coth(b w2/2).

    Near coincidence this tends to -(beta*(w1-w2)/2)/sinh^2(beta*w1/2):
    negative for w2 < w1 since coth falls with frequency.
    """
    if beta <= 0.0 or omega1 <= 0.0 or omega2 <= 0.0:
        raise ValueError("beta and frequencies must be positive")
    x1 = beta * omega1 / 2.0
    x2 = beta * omega2 / 2.0
    return 1.0 / np.tanh(x1) - 1.0 / np.tanh(x2)


def sharp_friction_amplitude(osc1, osc2, beta, G):
    r"""Friction amplitude for two sharp oscillators at matched frequency.

    The frequency-matching delta carries the finite prefactor

        -pi * beta * G / (8 m1 m2 sinh^2(beta w1 / 2))

    with G the geometric gradient-squared factor contracted with velocity.
    Negative for G > 0: a braking force.

    Returns
    -------
    DeltaCoefficient
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    x1 = beta * osc1.omega / 2.0
    amp = -math.pi * beta * G / (8.0 * osc1.mass * osc2.mass * np.sinh(x1) ** 2)
    return DeltaCoefficient(float(amp), osc1.omega)


def c_plus_minus(osc1, osc2, beta, H):
    r"""Two-sinusoid decomposition of the response function.

    phi(t) = C_minus sin(w_minus t) + C_plus sin(w_plus t) with
    w_pm = |w1 +- w2| and C_pm = (w_mp/2)^2 H sinh(beta w_pm/2),
    H the thermal pair factor. Exact for thermal occupations.

    Returns
    -------
    (C_minus, C_plus, omega_minus, omega_plus)
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    w1, w2 = osc1.omega, osc2.omega
    w_plus = abs(w1 + w2)
    w_minus = abs(w1 - w2)
    c_minus = (w_plus / 2.0) ** 2 * H * np.sinh(beta * w_minus / 2.0)
    c_plus = (w_minus / 2.0) ** 2 * H * np.sinh(beta * w_plus / 2.0)
    return (float(c_minus), float(c_plus), w_minus, w_plus)


def dissipation_J(omega_v, tau, spec1, spec2):
    r"""Zero-temperature dissipation integral for a driven pair of spectra.

    For linear spectral densities without cutoff (slopes D1, D2) the
    closed form is
    J = 2 tau omega_v^6 (pi/120) D1 D2. General spectra are handled
    by quadrature of

        2 pi tau |w_v| * Int_0^W ((2w - W)/2)^2 s1(w) s2(W-w) dw

    over w in [0, W], W = |omega_v|, which the linear case reduces to
    exactly. tau is half the dissipation time and cancels in any exported
    force.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    W = abs(omega_v)
    if W == 0.0:
        return 0.0
    if spec1.is_linear and spec2.is_linear:
        return 2.0 * tau * W**6 * (math.pi / 120.0) * spec1.D * spec2.D

    def integrand(w):
        return ((2.0 * w - W) / 2.0) ** 2 * spec1.density(w) * spec2.density(W - w)

    res = numerics.quad_finite(integrand, 0.0, W, tol=1e-12)
    return 2.0 * math.pi * tau * W * res.value
