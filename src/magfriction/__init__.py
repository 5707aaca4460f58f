"""Casimir friction between a magnetic and a dielectric body.

Quasistatic dipole coupling, the coupled electric/magnetic oscillator pair,
imaginary-frequency free energies, sharp and thermally smoothed friction
kernels, and the geometric reduction factors for particle, half-space, and
parallel-slab configurations. Reduced units (hbar = c = kB = 1) everywhere;
friction_forces.UnitContext converts results to Gaussian CGS.
"""

__version__ = "0.1.0"

# the one kernel implementation: numpy, in magfriction._kernels
kernel_impl = "pure"

__all__ = ["kernel_impl", "__version__"]
