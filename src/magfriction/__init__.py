"""Casimir friction between a magnetic and a dielectric body.

Quasistatic dipole coupling, the coupled electric/magnetic oscillator pair,
imaginary-frequency free energies, sharp and thermally smoothed friction
kernels, and the geometric reduction factors for particle, half-space, and
parallel-slab configurations. Reduced units (hbar = c = kB = 1) everywhere;
units.UnitContext converts results to Gaussian CGS.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the one kernel implementation: numpy, in magfriction._kernels
kernel_impl = "pure"

__all__ = ["kernel_impl", "lazy_import", "__version__"]


def lazy_import(name):
    """Module ``name``, bound now and executed on its first attribute access
    (Scientific Python SPEC 1); a module already imported is returned as is.

    So a command loads numpy, the oracle battery and each library module
    only if its route uses them.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
