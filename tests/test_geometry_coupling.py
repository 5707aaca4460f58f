"""Coupling tensors and the geometric reduction factors."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_check, axial_outcomes, float_bits
from magfriction import verification
from magfriction._ieee import ArrayOps, FloatOps
from magfriction.dipole_fields import axial_fields
from magfriction.geometry_coupling import (
    G_P_slabs,
    G_halfspace,
    G_slabs_realspace,
    axial_coupling,
)
from magfriction.verification import (
    PairGeometry,
    SlabGeometry,
    G_hat_q,
    G_slabs_fourier,
    G_tensor,
    angular_moment6,
    coupling_gradient_T,
    coupling_psi,
    mc_halfspace_Gxx,
    psi_hat,
)

nonzero_r = st.tuples(
    st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(0.3, 4.0)
)


def test_psi_canonical_entries():
    psi = coupling_psi(np.array([0.0, 0.0, 2.0]))
    assert psi[0, 1] == 0.25
    assert psi[1, 0] == -0.25
    assert np.all(np.diag(psi) == 0.0)


@given(nonzero_r)
def test_psi_antisymmetric(rv):
    psi = coupling_psi(np.asarray(rv))
    assert np.allclose(psi + psi.T, 0.0, atol=1e-15)


def test_T_traceless_and_scaling():
    r = np.array([0.7, -0.4, 1.1])
    T = coupling_gradient_T(r)
    # contraction over the antisymmetric index pair vanishes
    assert np.max(np.abs(np.einsum("lii->l", T))) <= 1e-15
    assert np.array_equal(coupling_gradient_T(2.0 * r), T / 8.0)


def test_G_canonical_values():
    G = G_tensor(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(G, np.diag([2.0, 2.0, 8.0]), atol=1e-14)


def test_G_positive_definite():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = rng.uniform(-2.0, 2.0, 3)
        if np.linalg.norm(r) < 0.3:
            continue
        w = np.linalg.eigvalsh(G_tensor(r))
        assert np.all(w > 0.0)


def test_G_halfspace_closed_form():
    assert abs(G_halfspace(2.0, 1.0, FloatOps) - np.pi / 16.0) <= 1e-16
    # cubic law
    assert G_halfspace(4.0, 1.0, FloatOps) == G_halfspace(2.0, 1.0, FloatOps) / 8.0


def test_G_halfspace_mc():
    assert_check(verification.check_halfspace_mc, seed=9, shifts=32)


def test_G_halfspace_mc_deterministic():
    a = mc_halfspace_Gxx(1.5, seed=21)
    b = mc_halfspace_Gxx(1.5, seed=21)
    assert a.value == b.value and a.std_error == b.std_error


def test_G_slabs_realspace_closed_form():
    assert abs(G_slabs_realspace(1.0, 1.0, 1.0, FloatOps) - np.pi / 4.0) <= 1e-16
    scaled = G_slabs_realspace(2.0, 3.0, 5.0, FloatOps)
    assert abs(scaled - np.pi * 15.0 / 16.0) <= 1e-14


def test_psi_hat_values():
    assert abs(psi_hat(0.0, 2.0) - np.pi) <= 1e-15
    assert psi_hat(50.0, 3.0) <= 1e-60
    with pytest.raises(ValueError):
        psi_hat(1.0, 0.0)


def test_G_hat_values():
    q, d = 0.9, 1.2
    expected = (2.0 * np.pi) ** 2 * np.exp(-2.0 * q * d) / q**2
    assert abs(G_hat_q(d, q) - expected) <= 1e-15 * expected
    # exponential gap scaling
    ratio = G_hat_q(2.0 * d, q) / G_hat_q(d, q)
    assert abs(ratio - np.exp(-2.0 * q * d)) <= 1e-14
    assert G_hat_q(d, 80.0) <= 1e-60


def test_fourier_route_closed_form():
    assert abs(G_slabs_fourier(SlabGeometry(1.0, 1.0, 1.0)) - np.pi / 4.0) <= 1e-14


def test_kx_second_moment_angular():
    from magfriction.numerics import quad_finite

    res = quad_finite(lambda p: np.cos(p) ** 2, 0.0, 2.0 * np.pi)
    assert abs(res.value - np.pi) <= 1e-12


def test_angular_moment6():
    val = angular_moment6()
    assert val == pytest.approx(1.963495, abs=1e-6)
    assert abs(val - 5.0 * np.pi / 8.0) <= 1e-15


def test_G_P_closed_form():
    assert abs(G_P_slabs(1.0, 1.0, 1.0, FloatOps) - 75.0 * np.pi / 64.0) <= 1e-13
    # sixth-power law
    ratio = G_P_slabs(2.0, 1.0, 1.0, FloatOps) / G_P_slabs(1.0, 1.0, 1.0, FloatOps)
    assert abs(ratio - 2.0**-6) <= 1e-15


def test_geometry_validation():
    with pytest.raises(ValueError):
        PairGeometry(np.zeros(3))
    with pytest.raises(ValueError):
        SlabGeometry(d=1.0, rho1=0.0, rho2=1.0)


def test_tiny_separation_is_not_zero():
    # r.r underflows below 1e-154; the norm must not
    PairGeometry([0.0, 0.0, 1e-200])
    assert coupling_psi([0.0, 0.0, 1e-100])[0, 1] == 1e200
    with np.errstate(all="ignore"):
        assert not np.isfinite(G_tensor([0.0, 0.0, 1e-200])[0, 0])
    with pytest.raises(ValueError, match="zero separation"):
        G_tensor(np.zeros(3))


def test_axial_coupling_is_the_tensors_on_the_axis():
    # on floats and on a grid alike (axial_outcomes): the couplings return
    # on 5.3e-52 <= |d| <= 2.3e51, where d^6 is a normal float, and past it,
    # where d^6 is subnormal or leaves the float range, the point fails.
    # psi_xy is the tensor's bit for bit, and so is G_xx where the tensor's
    # r^8 does not underflow and its 1/r^6 is normal
    for d, got in axial_outcomes(axial_coupling).items():
        assert isinstance(got, tuple) == (5.3e-52 <= abs(d) <= 2.3e51), d
        if isinstance(got, tuple):
            with np.errstate(all="ignore"):
                psi, G = coupling_psi([0.0, 0.0, d]), G_tensor([0.0, 0.0, d])
            want = [psi[0, 1]] + [G[0, 0]] * (3.9e-41 <= abs(d) <= 1.85e51)
            assert list(map(float_bits, got[:len(want)])) == [
                float_bits(float(x)) for x in want], d
    with pytest.raises(ValueError, match="zero separation"):
        axial_coupling(0.0, FloatOps)
    ops = ArrayOps((3,))
    with np.errstate(all="ignore"):
        axial_coupling(np.array([1.0, 0.0, -0.0]), ops)
    with pytest.raises(ValueError, match="zero separation"):
        ops.raise_first()


def test_axial_cells_are_within_1_5_ulp_of_their_exact_values():
    # the six cells of fields at log-uniform d of both signs, against exact
    # rational arithmetic on the float d. A cell past the float range is a
    # signed inf. Where d^6 is subnormal (|d| < 5.3e-52) the couplings fail
    # their point, and the fields' four cells are checked alone.
    # G_zz is 4 G_xx to the bit wherever G_xx is not subnormal
    rng = np.random.Generator(np.random.Philox(key=37))
    ds = np.exp(rng.uniform(math.log(1.4e-54), math.log(2.3e51), 4000))
    ds[::2] *= -1.0
    for d in ds.tolist():
        cells = axial_fields(d, FloatOps)
        if abs(d) ** 6 < sys.float_info.min:
            with pytest.raises(FloatingPointError, match="subnormal"):
                axial_coupling(d, FloatOps)
        else:
            cells += axial_coupling(d, FloatOps)
        x, s = Fraction(d), (1 if d > 0.0 else -1)
        exact = [1 / (2 * x**2), Fraction(-s) / x**2, Fraction(s) / x**2, Fraction(s) / x**2,
                 2 / x**6, 8 / x**6]
        for got, want in zip(cells, exact):
            if abs(want) > Fraction(sys.float_info.max):
                assert got == math.inf * (1 if want > 0 else -1), d
                continue
            ulps = abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))
            assert ulps <= 1.5, d
        if len(cells) == 6 and abs(cells[4]) >= sys.float_info.min:
            assert float_bits(cells[5]) == float_bits(4.0 * cells[4]), d
