"""The quasistatic dipole fields on the pair's axis.

An oscillating electric dipole sources a magnetic field; an oscillating
magnetic dipole sources an electric field. At separations small against the
wavelength both reduce to Biot-Savart-like forms, and the pair of
interaction energies couples the two moments through a single coefficient
alpha = 1/(2 c r^2). The CLI prints these on the axis r = (0, 0, d);
the vector forms and the retarded field they are the limit of live in
the oracle battery (magfriction.verification). Internal c = 1; Gaussian
units are restored only at the output, by magfriction.units.
"""


def axial_fields(d, ops):
    r"""On the axis r = (0, 0, d), over a column of d (``ops`` as in
    friction_forces): coupling_alpha, the y-component of the field of a
    unit P_dot along x, and the x-component of the field of a unit M_dot
    along y; that is 1/(2 r^2), -s/r^2 and s/r^2 with r = |d| and s the
    sign of d.

    Each is the value the vector functions give there, at the edges of
    the float range too: a power past it is inf and a zero divisor gives
    inf.
    """
    ops.fail(d == 0.0, ValueError("zero separation"))
    r2 = ops.ieee_pow(abs(d), 2)
    s = ops.ieee_div(d, abs(d))
    return ops.ieee_div(1.0, 2.0 * r2), ops.ieee_div(-s, r2), ops.ieee_div(s, r2)
