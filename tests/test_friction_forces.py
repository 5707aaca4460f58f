"""The friction forces over parameter columns, and the unit boundary."""

import numpy as np
import pytest

from conftest import assert_check, float_bits
from magfriction import (
    cli as cli_module,
    friction_forces,
    geometry_coupling,
    materials_spectral,
    matsubara,
    oscillator_pair,
    units,
    verification,
)
from magfriction._ieee import FloatOps
from magfriction.friction_forces import (
    pair_force,
    plane_force,
    slabs_finite_force,
    slabs_zero_force,
)
from magfriction.materials_spectral import (
    DrudeParams,
    LinearSpectralDensity,
    TabulatedSpectralDensity,
)
from magfriction.response_kinetics import OscState
from magfriction.units import CGS_C, CGS_HBAR, CGS_KB, UnitContext
from magfriction.verification import MatsubaraGrid, PairGeometry, SlabGeometry

OPS = FloatOps


def finite_T(v, beta, d=1.0, rho1=1.0, rho2=1.0, D1=1.0, D2=1.0):
    return slabs_finite_force(d, rho1, rho2, D1, D2, beta, v, OPS)


def zero_T(v, d=1.0, rho1=1.0, rho2=1.0, D1=1.0, D2=1.0):
    return slabs_zero_force(d, rho1, rho2, D1, D2, v, OPS)


def test_pair_sharp_zero_velocity():
    geom = PairGeometry(np.array([0.0, 0.0, 1.0]))
    o = OscState.thermal(1.0, 2.0)
    force = verification.pair_force_sharp(geom, [0.0, 0.0, 0.0], o, o, 2.0)
    assert force == (0.0, 0.0, 0.0)


def test_pair_sharp_opposes_velocity():
    # diagonal G for separation along z: the x component opposes v = x hat
    geom = PairGeometry(np.array([0.0, 0.0, 1.0]))
    o = OscState.thermal(1.3, 1.5)
    force = verification.pair_force_sharp(geom, [0.7, 0.0, 0.0], o, o, 1.5)
    assert force[0] < 0.0
    assert force[1:] == (0.0, 0.0)
    assert verification.G_tensor(geom.r)[0, 0] == 2.0


def test_pair_sharp_matches_amplitude_route():
    assert_check(verification.check_pair_sharp_consistency)


def test_smoothed_zero_H0():
    # a zero slope on one side gives H0 = 0 and no force
    assert pair_force(1.3, 0.2, 0.0, 1.0, 2.0, OPS)[0] == 0.0
    assert plane_force(1.3, 1.0, 0.2, 1.0, 0.0, 2.0, OPS)[0] == 0.0


def test_smoothed_linear_in_v():
    for force in (lambda v: pair_force(1.3, v, 0.7, 1.1, 2.0, OPS)[0],
                  lambda v: plane_force(1.3, 0.8, v, 0.7, 1.1, 2.0, OPS)[0]):
        assert force(0.4) == 2.0 * force(0.2)


def test_smoothed_slabs_equals_assembly():
    force, inter = finite_T(1e-3, 1.4)
    assert abs(-inter["G"] * 1e-3 * inter["H0"] - force) <= 1e-12 * abs(force)


def test_plane_cubic_distance_law():
    near = plane_force(1.0, 1.0, 1e-3, 1.0, 1.0, 2.0, OPS)[0]
    far = plane_force(2.0, 1.0, 1e-3, 1.0, 1.0, 2.0, OPS)[0]
    assert abs(near / far - 8.0) <= 1e-12


def test_plane_sign_opposes_velocity():
    assert plane_force(1.0, 1.0, 1e-3, 1.0, 1.0, 2.0, OPS)[0] < 0.0
    assert plane_force(1.0, 1.0, -1e-3, 1.0, 1.0, 2.0, OPS)[0] > 0.0


def test_plane_product_identity():
    assert_check(verification.check_plane_assembly)


def test_finite_T_closed_form_value():
    force, _ = finite_T(1e-3, 1.0)
    expected = -(2.0 * np.pi**6 / 15.0) * 1e-3
    assert abs(force - expected) <= 1e-12 * abs(expected)
    assert force == pytest.approx(-0.12819, abs=1e-5)


def test_finite_T_beta_scaling():
    base, _ = finite_T(1e-3, 1.0)
    double, _ = finite_T(1e-3, 2.0)
    assert abs(double / base - 2.0**-4) <= 1e-12


def test_finite_T_assembly_oracle():
    assert_check(verification.check_finite_T_assembly)


def test_suppression_factor_exposed():
    force, inter = finite_T(1e-3, 2.0, d=0.5, rho1=2.0, rho2=3.0, D1=0.7, D2=0.4)
    assert inter["suppression"] == (0.5 / 2.0) ** 2
    assert force == inter["suppression"] * inter["reference_force"]
    assert_check(verification.check_suppression_factors)


_SLAB_ARGS = ["friction", "slabs", "--temperature", "finite", "--beta", 2, "--d", 1,
              "--rho1", 2, "--rho2", 1, "--v", 1e-3]


def _force_column(out):
    header, row = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]
    return row[header.index("force")]


def test_slab_forces_take_linear_densities(cli):
    # a Drude metal stands on a slab as its linear slope: the same force to the bit
    slope = materials_spectral.drude_D(DrudeParams(9.0, 0.1, 2.0)).D
    code, by_slope = cli(*_SLAB_ARGS, "--D2", 0.4, "--D1", repr(slope))
    assert code == 0
    code, by_drude = cli(*_SLAB_ARGS, "--D2", 0.4, "--omega-p", 9, "--nu", 0.1)
    assert code == 0
    assert _force_column(by_drude) == _force_column(by_slope)


@pytest.mark.parametrize("spec", [("--spectrum-file-1", 1), ("--spectrum-file-2", 2)])
def test_slab_forces_reject_nonlinear_densities(cli, capsys, tmp_path, spec):
    # the closed forms hold for s(m) = D*m only; a tabulated density is refused
    flag, side = spec
    path = tmp_path / "s.txt"
    path.write_text("0 0\n1 1\n")
    code, out = cli(*_SLAB_ARGS, "--D1", 1, "--D2", 1, flag, path)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: friction slabs --temperature finite takes no %s\n" % flag)


def test_zero_T_trivials():
    assert zero_T(0.0)[0] == 0.0
    with pytest.raises(ValueError, match="v must be >= 0"):
        zero_T(-0.1)


def test_zero_T_closed_form_value():
    force, _ = zero_T(0.01)
    expected = -(5.0 * np.pi**2 / 512.0) * 1e-4 * 1e-6
    assert abs(force - expected) <= 1e-12 * abs(expected)
    assert force == pytest.approx(-9.64e-12, abs=0.01e-12)


def test_zero_T_velocity_power():
    base, _ = zero_T(0.01)
    double, _ = zero_T(0.02)
    assert abs(double / base - 32.0) <= 1e-12


def test_zero_T_force_near_the_float_limit():
    # the force is finite, although 2 tau H_P v^6 G_P overflows for tau = 2
    force, _ = zero_T(1.38e51, D1=10.0, D2=10.0)
    assert force == -4.823865839228791e256


def test_zero_T_assembly_oracle():
    assert_check(verification.check_zero_T_assembly)


def test_force_signs_randomized():
    assert_check(verification.check_force_signs, draws=200)


def test_slab_force_density_scaling():
    # a force per unit area carries (energy, length^-3): halving the length
    # anchor scales the conversion by 2^4 (energy anchor hbar*c/L rises too)
    force, inter = finite_T(1e-3, 1.0)
    a, b = (units.gaussian_report(UnitContext(L), "slabs-finite-T", force, inter, {}, OPS)[0]
            for L in (1.0e-6, 0.5e-6))
    assert abs(a / b - 2.0**-4) <= 1e-12


def test_gaussian_units_written_out():
    assert_check(verification.check_gaussian_units)


@pytest.mark.parametrize("L", [1.0, 2.5e-7])
def test_unit_context_is_gaussian_cgs(L):
    # the one setting is the length scale; hbar, c and k_B are the CGS values
    ctx = UnitContext(L)
    energy, time = CGS_HBAR * CGS_C / L, L / CGS_C
    assert ctx.energy_scale == energy
    assert ctx.time_scale == time
    assert ctx.factor((1, -3, 0)) == energy * L**-3
    assert ctx.factor((0, -8, 2)) == L**-8 * time**2
    assert units.kelvin_to_beta(ctx, 300.0, OPS) == energy / (CGS_KB * 300.0)


def test_unit_context_needs_positive_length():
    for L in (0.0, -1e-7):
        with pytest.raises(ValueError, match="length_scale must be positive"):
            UnitContext(L)


def test_beta_kelvin_round_trip():
    ctx = UnitContext(1.0)
    beta = units.kelvin_to_beta(ctx, 300.0, OPS)
    assert abs(units.gaussian_free_energy(ctx, 0.0, beta, OPS)[1] - 300.0) <= 1e-10


@pytest.mark.parametrize("make,field", [
    (lambda: UnitContext(2.5e-7), "length_scale"),
    (lambda: SlabGeometry(1.0, 2.0, 3.0), "rho2"),
    (lambda: LinearSpectralDensity(0.5, m_max=3.0), "m_max"),
    (lambda: DrudeParams(9.0, 0.1, 1.0), "nu"),
    (lambda: MatsubaraGrid(2.0, 10), "tail_tol"),
])
def test_inputs_are_immutable_values(make, field):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, 4.0)
    assert a == b


def test_forces_suite_green():
    failures = [c.name for c in verification.SUITES["forces"] if not c.run()[0]]
    assert failures == []


# --- one closed form on numpy columns and on Python floats ----------------

_RNG = np.random.default_rng(11)
_N = 64


def _positive(lo, hi):
    return 10.0 ** _RNG.uniform(lo, hi, _N)


_TABULATED = TabulatedSpectralDensity(np.linspace(0.0, 8.0, 41), 0.5 * np.linspace(0.0, 8.0, 41))
_CTX = UnitContext(2.5e-7)

# name -> (function of columns and ops, its columns)
COLUMN_FUNCTIONS = {
    "pair_force": (friction_forces.pair_force,
                   [_positive(-1, 1), _RNG.uniform(-1, 1, _N), _positive(-2, 1),
                    _positive(-2, 1), _positive(-1, 1)]),
    "plane_force": (friction_forces.plane_force,
                    [_positive(-1, 1), _positive(-1, 1), _RNG.uniform(-1, 1, _N),
                     _positive(-2, 1), _positive(-2, 1), _positive(-1, 1)]),
    "slabs_finite_force": (friction_forces.slabs_finite_force,
                           [_positive(-1, 1), _positive(-1, 1), _positive(-1, 1),
                            _positive(-2, 1), _positive(-2, 1), _positive(-1, 1),
                            _RNG.uniform(-1, 1, _N)]),
    "slabs_zero_force": (friction_forces.slabs_zero_force,
                         [_positive(-1, 1), _positive(-1, 1), _positive(-1, 1),
                          _positive(-2, 1), _positive(-2, 1), _positive(-3, 0)]),
    "G_halfspace": (geometry_coupling.G_halfspace, [_positive(-2, 2), _positive(-1, 1)]),
    "G_slabs_realspace": (geometry_coupling.G_slabs_realspace,
                          [_positive(-2, 2), _positive(-1, 1), _positive(-1, 1)]),
    "G_P_slabs": (geometry_coupling.G_P_slabs,
                  [_positive(-2, 2), _positive(-1, 1), _positive(-1, 1)]),
    "H0_linear": (materials_spectral.H0_linear,
                  [_positive(-2, 1), _positive(-2, 1), _positive(-2, 2)]),
    "H0_columns": (lambda D, beta, ops: materials_spectral.H0_columns(_TABULATED, D, beta, ops),
                   [_positive(-2, 1), _positive(-0.5, 0.5)]),
    "free_energy": (matsubara.free_energy, [_positive(-2, 1), _positive(-4, 3)]),
    "normal_modes": (oscillator_pair.normal_modes, [_positive(-2, 1)]),
    "gaussian_report": (
        lambda F, G, H0, beta, v, ops: units.gaussian_report(
            _CTX, "plane", F, {"G_h": G, "H0": H0}, {"beta": beta, "v": v}, ops),
        [_RNG.uniform(-1, 1, _N), _positive(-2, 2), _positive(-2, 2), _positive(-1, 1),
         _RNG.uniform(-1, 1, _N)]),
    "gaussian_free_energy": (
        lambda f, beta, ops: units.gaussian_free_energy(_CTX, f, beta, ops),
        [_RNG.uniform(-1, 1, _N), _positive(-1, 1)]),
    "kelvin_to_beta": (lambda T, ops: units.kelvin_to_beta(_CTX, T, ops), [_positive(0, 4)]),
}


def _cells(result):
    """The output columns of a column function, in a fixed order."""
    if not isinstance(result, tuple):
        return [result]
    cells = []
    for part in result:
        cells += [part[k] for k in sorted(part)] if isinstance(part, dict) else [part]
    return cells


@pytest.mark.parametrize("name", sorted(COLUMN_FUNCTIONS))
def test_numpy_column_and_python_float_give_the_same_bits(name):
    fn, columns = COLUMN_FUNCTIONS[name]
    grid = cli_module._Grid(cli_module.RunConfig(), (_N,), [])
    on_grid = [np.broadcast_to(c, (_N,)) for c in _cells(fn(*columns, grid))]
    grid.raise_first()
    for i in range(_N):
        point = _cells(fn(*(float(c[i]) for c in columns), FloatOps))
        assert all(isinstance(x, float) for x in point)
        assert [float_bits(x) for x in point] == [float_bits(float(c[i])) for c in on_grid]


# --- the oracle battery reaches the closed forms the CLI prints ------------

# (module, function) -> the checks that fail when it is 1% off
MUTATIONS = {
    ("friction_forces", "pair_force"): ["forces :: pair assembly"],
    ("friction_forces", "plane_force"): ["forces :: plane assembly"],
    ("friction_forces", "slabs_finite_force"): [
        "forces :: finite-T slab assembly", "forces :: suppression factors"],
    ("friction_forces", "slabs_zero_force"): [
        "forces :: zero-T slab assembly", "forces :: suppression factors"],
    ("units", "gaussian_report"): ["forces :: Gaussian units written out"],
    ("geometry_coupling", "G_halfspace"): [
        "geometry :: half-space MC", "geometry :: half-space quadrature to slab",
        "forces :: plane assembly"],
    ("geometry_coupling", "G_slabs_realspace"): [
        "geometry :: half-space quadrature to slab", "geometry :: slab route equivalence",
        "forces :: finite-T slab assembly"],
    ("geometry_coupling", "G_P_slabs"): [
        "geometry :: zero-T factor quadrature", "forces :: zero-T slab assembly"],
    ("materials_spectral", "H0_linear"): [
        "materials :: smoothed H0 quadrature", "forces :: finite-T slab assembly",
        "forces :: pair assembly", "forces :: plane assembly"],
    ("matsubara", "free_energy"): ["matsubara :: free energy closed form vs mode sum"],
    ("oscillator_pair", "normal_modes"): [
        "oscillator :: eigenfrequencies vs linear system", "oscillator :: frequency product unity",
        "oscillator :: trajectory spectral fit"],
    ("units", "gaussian_free_energy"): ["forces :: Gaussian units written out"],
    ("units", "kelvin_to_beta"): ["forces :: Gaussian units written out"],
}


@pytest.mark.parametrize("module,name", sorted(MUTATIONS))
def test_battery_fails_when_a_printed_closed_form_is_one_percent_off(monkeypatch, module, name):
    # the first value a function returns is the force, the converted force
    # or the factor; the CLI prints it through this very function
    module = {"friction_forces": friction_forces, "units": units,
              "geometry_coupling": geometry_coupling, "materials_spectral": materials_spectral,
              "matsubara": matsubara, "oscillator_pair": oscillator_pair}[module]
    original = getattr(module, name)

    def one_percent_off(*args, **kwargs):
        result = original(*args, **kwargs)
        if isinstance(result, tuple):
            return (result[0] * 1.01,) + result[1:]
        return result * 1.01

    monkeypatch.setattr(module, name, one_percent_off)
    lines = []
    assert not verification.run_suite("all", out=lines.append)
    failed = [ln.split(" (")[0][len("FAIL  "):] for ln in lines if ln.startswith("FAIL")]
    assert failed == MUTATIONS[module.__name__.rpartition(".")[2], name]
