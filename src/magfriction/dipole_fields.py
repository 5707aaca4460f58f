"""Quasistatic dipole fields and their mutual interaction energies.

An oscillating electric dipole sources a magnetic field; an oscillating
magnetic dipole sources an electric field. At separations small against the
wavelength both reduce to Biot-Savart-like forms, and the pair of
interaction energies couples the two moments through a single coefficient
alpha = 1/(2 c r^2). Internal c = 1; Gaussian units are restored only
at the output, by magfriction.units.
"""

import math

from magfriction import _ieee, lazy_import

np = lazy_import("numpy")


def vec3(x, y, z):
    """Build a 3-vector as a float (or complex) array."""
    return np.asarray([x, y, z])


def _split(r):
    r = np.asarray(r, dtype=np.float64)
    # math.hypot: a tiny separation does not underflow to zero as sqrt(r.r) does
    rn = np.float64(math.hypot(*r))
    if rn == 0.0:
        raise ValueError("zero separation")
    return r / rn, rn


def magnetic_field_full(P, zeta, r):
    r"""Magnetic field of an oscillating electric dipole, retardation kept.

    Parameters
    ----------
    P : array_like
        Electric dipole moment (complex amplitude allowed).
    zeta : complex
        Imaginary wavenumber i*omega/c of the oscillation.
    r : array_like
        Separation vector from the dipole to the field point, |r| > 0.

    Returns
    -------
    ndarray
        Complex field -zeta*(1 + zeta*r)*exp(-zeta*r)*(rhat x P)/r^2.
    """
    rhat, rn = _split(r)
    zr = zeta * rn
    return -zeta * (1.0 + zr) * np.exp(-zr) * np.cross(rhat, np.asarray(P)) / rn**2


def magnetic_field_quasistatic(P_dot, r):
    r"""Biot-Savart field of a changing electric dipole moment.

    Returns (P_dot x rhat)/r^2, the zeta*r -> 0 limit of the full field.
    """
    rhat, rn = _split(r)
    return np.cross(np.asarray(P_dot), rhat) / rn**2


def electric_field_quasistatic(M_dot, r):
    r"""Electric field of a changing magnetic dipole moment.

    Mirror image of the Biot-Savart form: (M_dot x rhat)/r^2, with rhat
    directed from the electric toward the magnetic dipole.
    """
    rhat, rn = _split(r)
    return np.cross(np.asarray(M_dot), rhat) / rn**2


def coupling_alpha(r):
    """The interaction coefficient 1/(2 r^2) for separation vector r."""
    _, rn = _split(r)
    return 1.0 / (2.0 * rn**2)


def axial_fields(d):
    r"""On the axis r = (0, 0, d), in Python floats: coupling_alpha, the
    y-component of the field of a unit P_dot along x, and the x-component
    of the field of a unit M_dot along y; that is 1/(2 r^2), -s/r^2 and
    s/r^2 with r = |d| and s the sign of d.

    Each is the value the vector functions give there, at the edges of
    the float range too: a power past it is inf and a zero divisor gives
    inf.
    """
    if d == 0.0:
        raise ValueError("zero separation")
    r2 = _ieee.ieee_pow(abs(d), 2)
    s = math.copysign(1.0, d)
    return _ieee.ieee_div(1.0, 2.0 * r2), _ieee.ieee_div(-s, r2), _ieee.ieee_div(s, r2)


def interaction_energies(P, P_dot, M, M_dot, r):
    r"""Mutual energies of an electric and a magnetic dipole pair.

    Parameters
    ----------
    P, P_dot : array_like
        Electric moment and its rate.
    M, M_dot : array_like
        Magnetic moment and its rate.
    r : array_like
        Separation vector, electric to magnetic, |r| > 0.

    Returns
    -------
    (float, float)
        (-2*alpha*(P_dot x rhat).M, -2*alpha*(M_dot x rhat).P) with
        alpha = 1/(2 r^2); the two Lagrangian pieces with sign flipped to
        energies. For P along x, M along y, rhat = z these reduce to
        (2*alpha*xdot*y, -2*alpha*x*ydot).
    """
    rhat, rn = _split(r)
    a = 1.0 / (2.0 * rn**2)
    e_h = -2.0 * a * float(np.dot(np.cross(np.asarray(P_dot), rhat), np.asarray(M)))
    e_e = -2.0 * a * float(np.dot(np.cross(np.asarray(M_dot), rhat), np.asarray(P)))
    return e_h, e_e
