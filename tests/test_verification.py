"""The oracle battery's checks, and the split between the route modules the
CLI executes and the battery that holds every other route."""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_check
from magfriction import (
    _ieee,
    _kernels,
    numerics,
    response_kinetics,
    verification,
)

ROUTE_MODULES = ("dipole_fields", "geometry_coupling", "materials_spectral", "matsubara",
                 "oscillator_pair")
# the modules a CLI route computes with
CALLERS = ROUTE_MODULES + ("cli", "friction_forces", "units")


# every check of SUITES, once, named "suite::check name": a check added to
# SUITES is a case of test_oracle_check_passes without another line
CHECKS = [(suite, check) for suite, checks in verification.SUITES.items() for check in checks]
CHECK_IDS = ["%s::%s" % (suite, check.name) for suite, check in CHECKS]
assert len(set(CHECK_IDS)) == len(CHECK_IDS)


# the text of `verify --suite all`: one line per check, in the order they run
VERIFY_ALL = Path(__file__).parent / "golden" / "verify_all.txt"


def test_verify_all_prints_its_golden(cli):
    assert cli("verify", "--suite", "all") == (0, VERIFY_ALL.read_text())


@pytest.mark.parametrize("check", [check for _, check in CHECKS], ids=CHECK_IDS)
def test_oracle_check_passes(check):
    # the check's own function, not Check.run: a raising check shows its traceback
    assert_check(check.fn)


# the function of each check, by name
SUITE_FUNCTIONS = {check.fn.__name__: check.fn for _, check in CHECKS}


def _runs_a_check_with_its_defaults(call):
    """Whether the ast.Call runs a SUITES function, named bare or as an
    attribute, with no arguments or only its defaults, directly or through
    assert_check: the call the battery makes."""
    func, args = call.func, call.args
    if getattr(func, "id", None) == "assert_check" and args:
        func, args = args[0], args[1:]
    fn = SUITE_FUNCTIONS.get(getattr(func, "attr", getattr(func, "id", None)))
    if fn is None:
        return False
    signature = inspect.signature(fn)
    try:
        bound = signature.bind(*map(ast.literal_eval, args),
                               **{k.arg: ast.literal_eval(k.value) for k in call.keywords})
    except (TypeError, ValueError):  # a starred or computed argument
        return False
    return all(signature.parameters[k].default == v for k, v in bound.arguments.items())


def test_no_test_repeats_a_suite_check_with_its_defaults():
    # test_oracle_check_passes runs each; the acceptance checklist may repeat them
    repeats = [(path.name, node.lineno)
               for path in sorted(Path(__file__).parent.glob("test_*.py"))
               if path.name != "test_acceptance.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and _runs_a_check_with_its_defaults(node)]
    assert repeats == []


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
# of the transform and trajectory checks on quadrature and least squares,
# and of the vector-form checks, each on its stack of draws
PINNED_DETAILS = {
    "field orthogonality": "cos=1.26e-16 tol=1e-12",
    "axial outputs vs vector forms": "rel=2.1e-16 tol=1e-15",
    "psi dual form": "err=1.05e-10 tol=1e-07",
    "T finite differences": "err=2.41e-09 tol=1e-08",
    "G contraction": "err=3.8e-16 mineig=0.0035",
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
    (verification, "G_tensor", "G contraction"),
    (verification, "coupling_gradient_T", "T finite differences"),
    (verification, "coupling_psi", "psi dual form"),
])
def test_array_checks_fail_on_a_scaled_library_kernel(monkeypatch, module, name, check):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: 1.01 * original(*args))
    ok, detail = _check(check).run()
    assert not ok, detail


# the vector forms that take a stack of separations, shape (n, 3)
STACK_FORMS = {
    "coupling_alpha": verification.coupling_alpha,
    # its real and imaginary parts
    "magnetic_field_full":
        lambda r: verification.magnetic_field_full([0.3, -1.2, 0.7], 0.01j, r).view(np.float64),
    "magnetic_field_quasistatic":
        lambda r: verification.magnetic_field_quasistatic([0.3, -1.2, 0.7], r),
    "electric_field_quasistatic":
        lambda r: verification.electric_field_quasistatic([0.3, -1.2, 0.7], r),
    "coupling_psi": verification.coupling_psi,
    "coupling_gradient_T": verification.coupling_gradient_T,
    "G_tensor": verification.G_tensor,
}


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
def test_a_vector_form_on_a_stack_is_the_form_at_each_row(name):
    # a stack takes its powers as arrays and one vector as numpy scalars,
    # which may differ in the last bit: each row is within 4 ulp of the
    # largest entry of the one-vector result (these 2000 draws measure at
    # most 3, the full field; T reached 4 where its two terms cancel, over
    # 20 000 draws)
    form = STACK_FORMS[name]
    rng = np.random.Generator(np.random.Philox(key=43))
    r = rng.normal(size=(2000, 3)) * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (2000, 1)))
    stack = form(r)
    assert stack.shape == (2000,) + np.shape(form(r[0]))
    for got, row in zip(stack, r):
        want = form(row)
        assert np.max(np.abs(got - want)) <= 4.0 * np.spacing(np.max(np.abs(want))), row


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
def test_a_stack_with_a_zero_row_is_refused(name):
    r = np.array([[0.3, -1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="zero separation"):
        STACK_FORMS[name](r)


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


# the checks that compute a closed form on ArrayOps columns
ARRAY_CHECKS = ["half-space quadrature to slab", "slab route equivalence",
                "zero-T factor quadrature", "braking sign draws"]


@pytest.mark.parametrize("name", ARRAY_CHECKS)
def test_a_check_fails_when_a_point_of_its_columns_fails(monkeypatch, name):
    # every quotient fails its first point, as a zero divisor would
    def div(self, a, b):
        self.fail(np.ones(np.shape(b), dtype=bool), ZeroDivisionError("float division by zero"))
        return a / b

    monkeypatch.setattr(_ieee.ArrayOps, "div", div)
    assert _check(name).run() == (False, "raised ZeroDivisionError: float division by zero")
