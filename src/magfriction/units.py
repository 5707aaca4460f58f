"""The reduced/Gaussian unit boundary.

Reduced units set hbar = c = k_B = 1 with lengths in a chosen scale;
UnitContext gives the Gaussian CGS value of a reduced quantity from its
(energy, length, time) dimension exponents, listed here for every input,
force and report intermediate. friction_forces re-exports every name.
"""

from collections import namedtuple

# (energy, length, time) exponents for each report entry
FORCE_DIM = {
    "pair-sharp": (1, -1, -1),
    "plane-sharp": (1, -1, -1),
    "pair-smoothed": (1, -1, 0),
    "plane": (1, -1, 0),
    "slabs-finite-T": (1, -3, 0),
    "slabs-zero-T": (1, -3, 0),
}
_INTERMEDIATE_DIM = {
    "G": (0, -10, 2),
    "G_h": (0, -8, 2),
    "G_P": (0, -14, 2),
    "G_xx": (0, -8, 2),
    "G_xy": (0, -8, 2),
    "G_xz": (0, -8, 2),
    "G_yy": (0, -8, 2),
    "G_yz": (0, -8, 2),
    "G_zz": (0, -8, 2),
    "G_factor": None,  # dimension follows the regime, set on use
    "H": (2, 6, 0),
    "H0": (1, 6, -1),
    "H_P": (1, 6, 3),
    "I": (0, 0, 0),
    "suppression": (0, 0, 0),
    "reference_force": (1, -3, 0),
    "delta_prefactor": (-1, 0, -2),
}
G_FACTOR_DIM = {
    "pair-smoothed": (0, -8, 2),
    "plane": (0, -8, 2),
    "slabs-finite-T": (0, -10, 2),
    "slabs-zero-T": (0, -14, 2),
}

# (energy, length, time) exponents of each input, shared with the CLI
INPUT_DIM = {
    "d": (0, 1, 0), "z0": (0, 1, 0),
    "r_x": (0, 1, 0), "r_y": (0, 1, 0), "r_z": (0, 1, 0),
    "rho": (0, -3, 0), "rho1": (0, -3, 0), "rho2": (0, -3, 0),
    "D1": (-1, 3, 0), "D2": (-1, 3, 0),
    "beta": (-1, 0, 0),
    "v": (0, 1, -1), "v_x": (0, 1, -1), "v_y": (0, 1, -1), "v_z": (0, 1, -1),
    "omega1": (0, 0, -1), "omega2": (0, 0, -1), "omega_p": (0, 0, -1), "nu": (0, 0, -1),
}

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

    def beta_from_kelvin(self, T_kelvin):
        """Reduced inverse temperature for a physical temperature."""
        if T_kelvin <= 0.0:
            raise ValueError("temperature must be positive")
        return self.energy_scale / (self.k_B * T_kelvin)

    def kelvin_from_beta(self, beta):
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        return self.energy_scale / (self.k_B * beta)


def intermediate_dim(name, regime):
    """(energy, length, time) exponents of a report intermediate."""
    dim = _INTERMEDIATE_DIM.get(name)
    if dim is None and name == "G_factor":
        dim = G_FACTOR_DIM[regime]
    if dim is None:
        raise KeyError("no dimension registered for intermediate %r" % name)
    return dim
