"""Assembled friction forces and unit conversion."""

import dataclasses

import numpy as np
import pytest

from conftest import assert_check
from magfriction import verification
from magfriction.friction_forces import (
    CGS_C,
    CGS_HBAR,
    CGS_KB,
    UnitContext,
    finite_T_slab_force,
    pair_force_sharp,
    plane_force,
    smoothed_forces,
    to_physical_units,
    to_reduced_units,
    zero_T_slab_force,
)
from magfriction.geometry_coupling import (
    G_slabs_realspace,
    PairGeometry,
    PlaneGeometry,
    SlabGeometry,
)
from magfriction.materials_spectral import (
    DrudeParams,
    LinearSpectralDensity,
    TabulatedSpectralDensity,
    smoothed_H0,
)
from magfriction.matsubara import MatsubaraGrid
from magfriction.response_kinetics import OscState

SLAB = SlabGeometry(d=1.0, rho1=1.0, rho2=1.0)


def test_pair_sharp_zero_velocity():
    geom = PairGeometry(np.array([0.0, 0.0, 1.0]))
    o = OscState.thermal(1.0, 2.0)
    rep = pair_force_sharp(geom, [0.0, 0.0, 0.0], o, o, 2.0)
    assert all(c.amplitude == 0.0 for c in rep.force)


def test_pair_sharp_opposes_velocity():
    # diagonal G for separation along z: the x component opposes v = x hat
    geom = PairGeometry(np.array([0.0, 0.0, 1.0]))
    o = OscState.thermal(1.3, 1.5)
    rep = pair_force_sharp(geom, [0.7, 0.0, 0.0], o, o, 1.5)
    assert rep.force[0].amplitude < 0.0
    assert rep.force[1].amplitude == 0.0
    assert rep.force[2].amplitude == 0.0
    assert rep.intermediates["G_xx"] == 2.0


def test_pair_sharp_matches_amplitude_route():
    assert_check(verification.check_pair_sharp_consistency)


def test_smoothed_zero_H0():
    assert smoothed_forces(1.3, 0.2, 0.0, "plane").force == 0.0


def test_smoothed_linear_in_v():
    a = smoothed_forces(1.3, 0.2, 2.0, "plane").force
    b = smoothed_forces(1.3, 0.4, 2.0, "plane").force
    assert b == 2.0 * a


def test_smoothed_slabs_equals_assembly():
    beta, v = 1.4, 1e-3
    G = G_slabs_realspace(SLAB)
    H0 = smoothed_H0(LinearSpectralDensity(1.0), LinearSpectralDensity(1.0), beta)
    generic = smoothed_forces(G, v, H0, "slabs-finite-T").force
    direct = finite_T_slab_force(SLAB, v, 1.0, 1.0, beta).force
    assert abs(generic - direct) <= 1e-12 * abs(direct)


def test_smoothed_rejects_unknown_regime():
    with pytest.raises(ValueError):
        smoothed_forces(1.0, 1.0, 1.0, "bogus")


def test_plane_cubic_distance_law():
    s = LinearSpectralDensity(1.0)
    near = plane_force(PlaneGeometry(z0=1.0, rho=1.0), 1e-3, s, s, 2.0).force
    far = plane_force(PlaneGeometry(z0=2.0, rho=1.0), 1e-3, s, s, 2.0).force
    assert abs(near / far - 8.0) <= 1e-12


def test_plane_sign_opposes_velocity():
    s = LinearSpectralDensity(1.0)
    g = PlaneGeometry(z0=1.0, rho=1.0)
    assert plane_force(g, 1e-3, s, s, 2.0).force < 0.0
    assert plane_force(g, -1e-3, s, s, 2.0).force > 0.0


def test_plane_product_identity():
    assert_check(verification.check_plane_product)


def test_plane_sharp_variant():
    g = PlaneGeometry(z0=1.0, rho=1.0)
    o = OscState.thermal(1.0, 1.0)
    rep = plane_force(g, 1e-3, o, o, 1.0)
    assert rep.regime == "plane-sharp"
    assert rep.force.amplitude < 0.0
    assert rep.force.at_frequency == 1.0


def test_finite_T_closed_form_value():
    rep = finite_T_slab_force(SLAB, 1e-3, 1.0, 1.0, 1.0)
    expected = -(2.0 * np.pi**6 / 15.0) * 1e-3
    assert abs(rep.force - expected) <= 1e-12 * abs(expected)
    assert rep.force == pytest.approx(-0.12819, abs=1e-5)


def test_finite_T_beta_scaling():
    base = finite_T_slab_force(SLAB, 1e-3, 1.0, 1.0, 1.0).force
    double = finite_T_slab_force(SLAB, 1e-3, 1.0, 1.0, 2.0).force
    assert abs(double / base - 2.0**-4) <= 1e-12


def test_finite_T_assembly_oracle():
    assert_check(verification.check_finite_T_assembly)


def test_suppression_factor_exposed():
    rep = finite_T_slab_force(SlabGeometry(0.5, 2.0, 3.0), 1e-3, 0.7, 0.4, 2.0)
    inter = rep.intermediates
    assert inter["suppression"] == (0.5 / 2.0) ** 2
    assert rep.force == inter["suppression"] * inter["reference_force"]
    assert_check(verification.check_suppression_factors)


def test_slab_forces_take_linear_densities():
    s1, s2 = LinearSpectralDensity(0.7), LinearSpectralDensity(0.4)
    assert finite_T_slab_force(SLAB, 1e-3, s1, s2, 2.0) == finite_T_slab_force(
        SLAB, 1e-3, 0.7, 0.4, 2.0
    )
    assert zero_T_slab_force(SLAB, 1e-2, s1, s2) == zero_T_slab_force(SLAB, 1e-2, 0.7, 0.4)


@pytest.mark.parametrize("spec", [
    LinearSpectralDensity(1.0, m_max=0.01),
    TabulatedSpectralDensity([0.0, 1.0], [0.0, 1.0]),
])
def test_slab_forces_reject_nonlinear_densities(spec):
    # the closed forms hold for s(m) = D*m only; a cutoff must not be dropped
    with pytest.raises(ValueError):
        finite_T_slab_force(SLAB, 1e-3, spec, 1.0, 1.0)
    with pytest.raises(ValueError):
        zero_T_slab_force(SLAB, 1e-2, 1.0, spec)


def test_zero_T_trivials():
    assert zero_T_slab_force(SLAB, 0.0, 1.0, 1.0).force == 0.0
    with pytest.raises(ValueError):
        zero_T_slab_force(SLAB, -0.1, 1.0, 1.0)


def test_zero_T_closed_form_value():
    rep = zero_T_slab_force(SLAB, 0.01, 1.0, 1.0)
    expected = -(5.0 * np.pi**2 / 512.0) * 1e-4 * 1e-6
    assert abs(rep.force - expected) <= 1e-12 * abs(expected)
    assert rep.force == pytest.approx(-9.64e-12, abs=0.01e-12)


def test_zero_T_velocity_power():
    base = zero_T_slab_force(SLAB, 0.01, 1.0, 1.0).force
    double = zero_T_slab_force(SLAB, 0.02, 1.0, 1.0).force
    assert abs(double / base - 32.0) <= 1e-12


def test_zero_T_force_near_the_float_limit():
    # the force is finite, although 2 tau H_P v^6 G_P overflows for tau = 2
    rep = zero_T_slab_force(SLAB, 1.38e51, 10.0, 10.0)
    assert rep.force == -4.823865839228791e256


def test_zero_T_assembly_oracle():
    assert_check(verification.check_zero_T_assembly)


def test_force_signs_randomized():
    assert_check(verification.check_force_signs, draws=200)


def test_unit_round_trip():
    assert_check(verification.check_unit_round_trip)
    units = UnitContext(2.5e-7)
    rep = zero_T_slab_force(SLAB, 1e-3, 0.5, 0.5)
    back = to_reduced_units(to_physical_units(rep, units), units)
    assert abs(back.force - rep.force) <= 1e-14 * abs(rep.force)


def test_slab_force_density_scaling():
    # a force per unit area carries (energy, length^-3): halving the length
    # anchor scales the conversion by 2^4 (energy anchor hbar*c/L rises too)
    rep = finite_T_slab_force(SLAB, 1e-3, 1.0, 1.0, 1.0)
    a = to_physical_units(rep, UnitContext(1.0e-6)).force
    b = to_physical_units(rep, UnitContext(0.5e-6)).force
    assert abs(a / b - 2.0**-4) <= 1e-12


@pytest.mark.parametrize("L", [1.0, 2.5e-7])
def test_unit_context_is_gaussian_cgs(L):
    # the one setting is the length scale; hbar, c and k_B are the CGS values
    units = UnitContext(L)
    energy, time = CGS_HBAR * CGS_C / L, L / CGS_C
    assert units.energy_scale == energy
    assert units.time_scale == time
    assert units.factor((1, -3, 0)) == energy * L**-3
    assert units.factor((0, -8, 2)) == L**-8 * time**2
    assert units.beta_from_kelvin(300.0) == energy / (CGS_KB * 300.0)


def test_unit_context_needs_positive_length():
    for L in (0.0, -1e-7):
        with pytest.raises(ValueError, match="length_scale must be positive"):
            UnitContext(L)


def test_beta_kelvin_round_trip():
    units = UnitContext(1.0)
    beta = units.beta_from_kelvin(300.0)
    assert abs(units.kelvin_from_beta(beta) - 300.0) <= 1e-10


def test_report_immutable():
    rep = finite_T_slab_force(SLAB, 1e-3, 1.0, 1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.force = 0.0


@pytest.mark.parametrize("make,field", [
    (lambda: UnitContext(2.5e-7), "length_scale"),
    (lambda: PlaneGeometry(1.0, 2.0), "z0"),
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
