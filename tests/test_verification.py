"""The oracle battery's checks, and the split between the route modules the
CLI executes and the battery that holds every other route."""

import ast
import importlib
import inspect

import pytest

from magfriction import _kernels, response_kinetics, verification

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


# detail lines of the array-at-a-time checks, as the term-by-term and
# sampler-based forms of these checks printed them
PINNED_DETAILS = {
    "series zeta(4)": "err=2.77e-13 tol=1e-12",
    "universal integral routes": "rel=2.56e-13 tol=1e-12",
    "kernel remainder identity": "err=3.83e-14 tol=1e-12",
    "sharp amplitude pipeline": "rel=3.53e-07 tol=0.0001",
    "half-space MC": "err=9.15e-06 3se=0.00176 rel=5.83e-06",
    "half-space r^-6 MC": "err=0 tol=1e-12",
}


def _check(name):
    (check,) = [c for checks in verification.SUITES.values() for c in checks if c.name == name]
    return check


@pytest.mark.parametrize("name", sorted(PINNED_DETAILS))
def test_array_checks_print_their_pinned_details(name):
    assert _check(name).run() == (True, PINNED_DETAILS[name])


@pytest.mark.parametrize("module,name,check", [
    (response_kinetics, "M_full", "kernel remainder identity"),
    (response_kinetics, "nascent_delta_g", "sharp amplitude pipeline"),
])
def test_array_checks_fail_on_a_scaled_library_kernel(monkeypatch, module, name, check):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: 1.01 * original(*args))
    ok, detail = _check(check).run()
    assert not ok, detail


def test_r6_monte_carlo_runs_the_halfspace_kernel_in_mode_0(monkeypatch):
    modes = []
    original = _kernels.halfspace_chunk

    def spy(z0, u, mode):
        modes.append(mode)
        return original(z0, u, mode)

    monkeypatch.setattr(_kernels, "halfspace_chunk", spy)
    assert _check("half-space r^-6 MC").run()[0]
    # one call per block of the 200 000 samples
    assert modes == [0] * -(-200_000 // _kernels.MC_BLOCK)
