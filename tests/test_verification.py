"""The oracle battery's checks, and the split between the route modules the
CLI executes and the battery that holds every other route."""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from magfriction import (
    _kernels,
    dipole_fields,
    geometry_coupling,
    numerics,
    response_kinetics,
    verification,
)

# every check of `verify --suite all`, in the order it runs
BATTERY = [
    ('numerics', 'quad cos^6 over a turn'),
    ('numerics', 'quad linear ramp'),
    ('numerics', 'semi-infinite rational tail'),
    ('numerics', 'semi-infinite quartic thermal'),
    ('numerics', 'semi-infinite factorial'),
    ('numerics', 'series zeta(4)'),
    ('numerics', 'mc determinism and constants'),
    ('fields', 'quasistatic limit sweep'),
    ('fields', 'hand cross products'),
    ('fields', 'field orthogonality'),
    ('fields', 'axial outputs vs vector forms'),
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
    ('geometry', 'half-space r^-8'),
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


def _names_used(sources):
    """Every name and attribute the Python sources refer to."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_route_name_has_a_caller_on_a_cli_route():
    used = _names_used(inspect.getsource(importlib.import_module("magfriction." + name))
                       for name in CALLERS)
    for name in ROUTE_MODULES:
        module = importlib.import_module("magfriction." + name)
        public = {k for k, v in vars(module).items()
                  if not k.startswith("_") and getattr(v, "__module__", None) == module.__name__}
        assert public and public <= used, (name, sorted(public - used))


def test_every_public_numerics_function_has_a_caller_in_the_package():
    used = _names_used(path.read_text() for path in Path(numerics.__file__).parent.glob("*.py")
                       if path.name != "numerics.py")
    public = {k for k, v in vars(numerics).items()
              if not k.startswith("_") and inspect.isfunction(v)
              and v.__module__ == numerics.__name__}
    assert public and public <= used, sorted(public - used)


# detail lines of the array-at-a-time checks, as the term-by-term forms of
# these checks printed them, of the half-space checks on the lattice rule,
# and of the transform and trajectory checks on quadrature and least squares
PINNED_DETAILS = {
    "series zeta(4)": "err=2.77e-13 tol=1e-12",
    "universal integral routes": "rel=2.56e-13 tol=1e-12",
    "kernel remainder identity": "err=3.83e-14 tol=1e-12",
    "sharp amplitude pipeline": "rel=3.53e-07 tol=0.0001",
    "half-space MC": "err=7.06e-08 3se=3.31e-07 rel=4.49e-08",
    "half-space r^-6 MC": "err=1.11e-16 tol=1e-12",
    "half-space r^-8": "err=9.14e-09 3se=2.26e-08 rel=3.31e-07",
    "transverse transform": "rel=3.09e-16 tol=1e-10",
    "trajectory spectral fit": "err=4.07e-10 tol=1e-06",
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
    (response_kinetics, "nascent_delta_cos_sin", "damped cos*sin time domain"),
    (verification, "psi_hat", "transverse transform"),
])
def test_array_checks_fail_on_a_scaled_library_kernel(monkeypatch, module, name, check):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: 1.01 * original(*args))
    ok, detail = _check(check).run()
    assert not ok, detail


def test_trajectory_fit_fails_on_a_scaled_coupling(monkeypatch):
    original = verification._eom_matrix
    monkeypatch.setattr(verification, "_eom_matrix",
                        lambda cfg: original(cfg._replace(alpha=1.01 * cfg.alpha)))
    ok, detail = _check("trajectory spectral fit").run()
    assert not ok, detail


def test_field_orthogonality_fails_on_a_field_component_along_r(monkeypatch):
    # a scale factor leaves every angle as it is; a component along r does not
    original = verification.magnetic_field_quasistatic
    monkeypatch.setattr(verification, "magnetic_field_quasistatic",
                        lambda P_dot, r: original(P_dot, r) + 1e-9 * np.asarray(r))
    ok, detail = _check("field orthogonality").run()
    assert not ok, detail


def test_r6_monte_carlo_runs_the_halfspace_kernel_in_mode_0(monkeypatch):
    modes = []
    original = _kernels.halfspace_chunk

    def spy(z0, u, mode):
        modes.append(mode)
        return original(z0, u, mode)

    monkeypatch.setattr(_kernels, "halfspace_chunk", spy)
    assert _check("half-space r^-6 MC").run()[0]
    # one call per block of each shift of the lattice rule
    blocks = -(-numerics.LATTICE_N // _kernels.MC_BLOCK)
    assert modes == [0] * (blocks * numerics.LATTICE_SHIFTS)


# (map, its root, the wrong root) of the half-space sampler; each root is
# taken in place of 1 - u[0] (z) or 1 - u[1] (s2)
WRONG_ROOTS = {
    "z map": ("np.cbrt(z, out=z)", "np.sqrt(z, out=z)"),
    "s map": ("np.sqrt(s2, out=s2)", "np.cbrt(s2, out=s2)"),
}


@pytest.mark.parametrize("where", sorted(WRONG_ROOTS))
def test_verify_fails_when_a_halfspace_map_takes_the_wrong_root(monkeypatch, where):
    # the points no longer follow the density the weights divide by
    old, new = WRONG_ROOTS[where]
    source = textwrap.dedent(inspect.getsource(_kernels.halfspace_chunk))
    assert source.count(old) == 1
    namespace = dict(vars(_kernels))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(_kernels, "halfspace_chunk", namespace["halfspace_chunk"])
    lines = []
    assert not verification.run_suite("all", out=lines.append)
    failed = {ln.split(" (")[0] for ln in lines if ln.startswith("FAIL")}
    assert "FAIL  geometry :: half-space r^-8" in failed, failed


def test_halfspace_r8_fails_on_a_scaled_target(monkeypatch):
    original = verification._halfspace_r8
    monkeypatch.setattr(verification, "_halfspace_r8", lambda z0: 1.01 * original(z0))
    ok, detail = _check("half-space r^-8").run()
    assert not ok, detail


# the axial outputs the fields command prints: (module, function, index)
AXIAL_CELLS = [(dipole_fields, "axial_fields", k) for k in range(3)] + [
    (geometry_coupling, "axial_coupling", k) for k in range(3)]


@pytest.mark.parametrize("module,name,index", AXIAL_CELLS,
                         ids=["%s[%d]" % (name, k) for _, name, k in AXIAL_CELLS])
def test_verify_fails_when_an_axial_output_is_one_percent_off(monkeypatch, module, name, index):
    original = getattr(module, name)

    def one_percent_off(d):
        cells = list(original(d))
        cells[index] *= 1.01
        return tuple(cells)

    monkeypatch.setattr(module, name, one_percent_off)
    lines = []
    assert not verification.run_suite("all", out=lines.append)
    failed = {ln.split(" (")[0] for ln in lines if ln.startswith("FAIL")}
    assert "FAIL  fields :: axial outputs vs vector forms" in failed, failed
