"""The coupled electric/magnetic oscillator pair: its normal modes.

One electric oscillator (coordinate x) and one magnetic one (coordinate y)
coupled through alpha*(x*ydot - xdot*y). The unit pair's exact
eigenfrequencies and ground-state energy are what ``eigen`` prints; the
Hamiltonian, the equations of motion and the trajectory integrator that
check them live in the oracle battery (magfriction.verification).
"""


def normal_modes(alpha, ops):
    """Normal modes of the unit pair over a column of alpha, ``ops`` as in
    friction_forces: (omega_plus, omega_minus, e0) with omega_pm =
    +-alpha + sqrt(1+alpha^2) and the zero-point energy e0 =
    (omega_plus + omega_minus)/2 = sqrt(1+alpha^2). The product of the
    two frequencies is 1 for every coupling, so omega_minus is formed as
    1/omega_plus: -alpha + sqrt(1+alpha^2) would cancel for large alpha."""
    ops.fail(alpha < 0.0, ValueError("alpha must be >= 0"))
    root = ops.sqrt(1.0 + alpha * alpha)
    omega_plus = alpha + root
    return omega_plus, 1.0 / omega_plus, root
