"""The reduced/Gaussian unit boundary.

Reduced units set hbar = c = k_B = 1 with lengths in a chosen scale;
UnitContext gives the Gaussian CGS value of a reduced quantity from its
(energy, length, time) dimension exponents, listed here for every input,
force and report intermediate that the CLI prints; ``gaussian_report``
converts a force report's columns, ``gaussian_free_energy`` the free
energy's, and ``kelvin_to_beta`` a column of temperatures in kelvin.
"""

from collections import namedtuple

# (energy, length, time) exponents of each regime's force
FORCE_DIM = {
    "pair-smoothed": (1, -1, 0),
    "plane": (1, -1, 0),
    "slabs-finite-T": (1, -3, 0),
    "slabs-zero-T": (1, -3, 0),
}
# and of each report intermediate
INTERMEDIATE_DIM = {
    "G": (0, -10, 2),
    "G_h": (0, -8, 2),
    "G_P": (0, -14, 2),
    "G_factor": (0, -8, 2),
    "H0": (1, 6, -1),
    "H_P": (1, 6, 3),
    "I": (0, 0, 0),
    "suppression": (0, 0, 0),
    "reference_force": (1, -3, 0),
}

# (energy, length, time) exponents of each input that a Gaussian run takes
# in Gaussian units, shared with the CLI
INPUT_DIM = {
    "d": (0, 1, 0), "z0": (0, 1, 0),
    "rho": (0, -3, 0), "rho1": (0, -3, 0), "rho2": (0, -3, 0),
    "D1": (-1, 3, 0), "D2": (-1, 3, 0),
    "v": (0, 1, -1),
    "omega_p": (0, 0, -1), "nu": (0, 0, -1),
}
# and of beta, which every run takes in reduced units
BETA_DIM = (-1, 0, 0)

CGS_HBAR = 1.0545718e-27  # erg s
CGS_C = 2.99792458e10  # cm/s
CGS_KB = 1.380649e-16  # erg/K


class UnitContext(namedtuple("UnitContext", "length_scale")):
    """Gaussian CGS values of reduced quantities (hbar = c = k_B = 1), one
    reduced length unit being length_scale cm."""

    __slots__ = ()
    hbar = CGS_HBAR
    c = CGS_C
    k_B = CGS_KB

    def __new__(cls, length_scale):
        if length_scale <= 0.0:
            raise ValueError("length_scale must be positive")
        return super().__new__(cls, length_scale)

    @property
    def energy_scale(self):
        """erg per reduced energy unit: hbar*c/length_scale."""
        return self.hbar * self.c / self.length_scale

    @property
    def time_scale(self):
        """seconds per reduced time unit: length_scale/c."""
        return self.length_scale / self.c

    def factor(self, dim):
        """Physical value per reduced value for (energy, length, time)
        exponents dim."""
        e, l, t = dim
        return self.energy_scale**e * self.length_scale**l * self.time_scale**t


def gaussian_report(ctx, regime, force, intermediates, inputs, given, ops):
    """A reduced force report in Gaussian CGS: (force, intermediates,
    inputs), over columns; ``ops`` as in friction_forces. The inputs keep
    their reduced values and gain ``<name>_cgs`` for every input in
    INPUT_DIM and beta, and ``temperature_kelvin`` when they hold a beta.
    An input of INPUT_DIM or a temperature in ``given``, the inputs as the
    run took them, by name, is echoed as given; the rest are converted."""
    inputs = dict(inputs)
    for name, col in list(inputs.items()):
        dim = INPUT_DIM.get(name)
        if dim is not None:
            inputs[name + "_cgs"] = given[name] if name in given else col * ctx.factor(dim)
    if "beta" in inputs:
        inputs["beta_cgs"] = inputs["beta"] * ctx.factor(BETA_DIM)
        inputs["temperature_kelvin"] = _kelvin(ctx, inputs["beta"], given, ops)
    force = force * ctx.factor(FORCE_DIM[regime])
    intermediates = {name: col * ctx.factor(INTERMEDIATE_DIM[name])
                     for name, col in intermediates.items()}
    return force, intermediates, inputs


def gaussian_free_energy(ctx, f, beta, given, ops):
    """A reduced free energy f at inverse temperature beta in Gaussian CGS,
    over columns; ``ops`` as in friction_forces: (free_energy_erg,
    temperature_kelvin), the latter from ``given`` as in gaussian_report."""
    return f * ctx.energy_scale, _kelvin(ctx, beta, given, ops)


def kelvin_to_beta(ctx, kelvin, ops):
    """Reduced inverse temperature over a column of temperatures in kelvin;
    ``ops`` as in friction_forces."""
    ops.fail(kelvin <= 0.0, ValueError("temperature must be positive"))
    return _reciprocal_temperature(ctx, kelvin, ops)


def _reciprocal_temperature(ctx, x, ops):
    # hbar c/(L k_B x): kelvin from a reduced beta, and a reduced beta from kelvin
    return ops.div(ctx.energy_scale, ctx.k_B * x)


def _kelvin(ctx, beta, given, ops):
    # the temperature as given, else the one beta stands for
    kelvin = given.get("temperature_kelvin")
    return _reciprocal_temperature(ctx, beta, ops) if kelvin is None else kelvin
