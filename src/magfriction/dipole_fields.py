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
    """
    ops.fail(d == 0.0, ValueError("zero separation"))
    r2 = ops.pow(d, 2)
    e_x = ops.div(d / abs(d), r2)
    return ops.div(1.0, 2.0 * r2), -e_x, e_x
