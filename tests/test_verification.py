"""The oracle battery's checks, and the split between the route modules the
CLI executes and the battery that holds every other route."""

import ast
import importlib
import inspect

from magfriction import verification

# every check of `verify --suite all`, in the order it runs
BATTERY = [
    ('numerics', 'quad cos^6 over a turn'),
    ('numerics', 'quad linear ramp'),
    ('numerics', 'semi-infinite rational tail'),
    ('numerics', 'semi-infinite quartic thermal'),
    ('numerics', 'semi-infinite factorial'),
    ('numerics', 'series zeta(4)'),
    ('numerics', 'mc determinism and constants'),
    ('numerics', 'sinusoid fits'),
    ('fields', 'quasistatic limit sweep'),
    ('fields', 'hand cross products'),
    ('fields', 'field orthogonality'),
    ('fields', 'canonical interaction energies'),
    ('fields', 'total-derivative shift'),
    ('oscillator', 'eigenfrequencies vs linear system'),
    ('oscillator', 'frequency product unity'),
    ('oscillator', 'trajectory spectral fit'),
    ('oscillator', 'energy drift bound'),
    ('oscillator', 'perturbative ground state'),
    ('oscillator', 'Legendre round trip'),
    ('matsubara', 'mode average vs lattice'),
    ('matsubara', 'mode free energy vs Gaussian moments'),
    ('matsubara', 'free energy vs brute force'),
    ('matsubara', 'free energy limits'),
    ('matsubara', 'free energy closed form vs mode sum'),
    ('matsubara', 'mode integral pi/2'),
    ('response', 'kernel remainder identity'),
    ('response', 'phi two-sinusoid identity'),
    ('response', 'delta normalization'),
    ('response', 'damped cos*sin time domain'),
    ('response', 'damped sin time domain'),
    ('response', 'coth difference limit'),
    ('response', 'sharp amplitude pipeline'),
    ('response', 'sharp amplitude value'),
    ('response', 'cold-limit C_plus'),
    ('response', 'dissipation quadrature'),
    ('materials', 'linear response closed form'),
    ('materials', 'response sum rule'),
    ('materials', 'spectrum round trip'),
    ('materials', 'Drude spectral slope'),
    ('materials', 'universal integral routes'),
    ('materials', 'smoothed H0 quadrature'),
    ('materials', 'tabulated sharp line'),
    ('materials', 'tabulated H0 fixed rule'),
    ('geometry', 'psi dual form'),
    ('geometry', 'T finite differences'),
    ('geometry', 'G contraction'),
    ('geometry', 'half-space MC'),
    ('geometry', 'half-space r^-6 MC'),
    ('geometry', 'half-space quadrature to slab'),
    ('geometry', 'slab route equivalence'),
    ('geometry', 'Fourier kernel double integral'),
    ('geometry', 'transverse transform'),
    ('geometry', 'angular sixth moment'),
    ('geometry', 'zero-T factor quadrature'),
    ('geometry', 'power-law scalings'),
    ('forces', 'finite-T slab assembly'),
    ('forces', 'zero-T slab assembly'),
    ('forces', 'pair assembly'),
    ('forces', 'plane assembly'),
    ('forces', 'braking sign draws'),
    ('forces', 'pair sharp consistency'),
    ('forces', 'suppression factors'),
    ('forces', 'Gaussian units written out'),
]

ROUTE_MODULES = ("dipole_fields", "geometry_coupling", "materials_spectral", "matsubara",
                 "oscillator_pair")
# the modules a CLI route computes with
CALLERS = ROUTE_MODULES + ("cli", "friction_forces", "units")


def test_battery_runs_every_check_in_order():
    ran = [(suite, check.name) for suite, checks in verification.SUITES.items()
           for check in checks]
    assert ran == BATTERY


def test_route_modules_bind_no_oracle_engine():
    for name in ROUTE_MODULES:
        bound = set(vars(importlib.import_module("magfriction." + name)))
        unwanted = {"numerics"} if name == "materials_spectral" else {"np", "numerics", "_kernels"}
        assert not bound & unwanted, name


def test_every_public_route_name_has_a_caller_on_a_cli_route():
    used = set()
    for name in CALLERS:
        tree = ast.parse(inspect.getsource(importlib.import_module("magfriction." + name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for name in ROUTE_MODULES:
        module = importlib.import_module("magfriction." + name)
        public = {k for k, v in vars(module).items()
                  if not k.startswith("_") and getattr(v, "__module__", None) == module.__name__}
        assert public and public <= used, (name, sorted(public - used))
