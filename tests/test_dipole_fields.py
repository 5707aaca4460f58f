"""Quasistatic dipole fields and mutual interaction energies."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import axial_outcomes, float_bits
from magfriction._ieee import ArrayOps, FloatOps
from magfriction.dipole_fields import axial_fields
from magfriction.verification import (
    coupling_alpha,
    electric_field_quasistatic,
    interaction_energies,
    magnetic_field_full,
    magnetic_field_quasistatic,
)

finite3 = st.tuples(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)
)


def test_full_field_parallel_moment_vanishes():
    r = [0.0, 0.0, 2.0]
    B = magnetic_field_full([0.0, 0.0, 3.0], 0.02j, r)
    assert np.allclose(B, 0.0)


def test_full_field_zero_zeta_vanishes():
    B = magnetic_field_full([1.0, 0.0, 0.0], 0.0, [0.0, 0.0, 1.0])
    assert np.allclose(B, 0.0)


def test_full_field_against_series():
    # independent evaluation of -zeta (1 + zeta) e^{-zeta} at zeta = 0.01i
    # by explicit Taylor partial sums in complex arithmetic
    zeta = 0.01j
    exp_term = sum((-zeta) ** k / math.factorial(k) for k in range(24))
    expected_y = -zeta * (1.0 + zeta) * exp_term  # zhat x xhat = yhat
    B = magnetic_field_full([1.0, 0.0, 0.0], zeta, [0.0, 0.0, 1.0])
    assert abs(B[0]) == 0.0 and abs(B[2]) == 0.0
    assert abs(B[1] - expected_y) <= 1e-15


def test_quasistatic_hand_cross_products():
    B = magnetic_field_quasistatic([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(B, [0.0, -1.0, 0.0], atol=1e-15)
    E = electric_field_quasistatic([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(E, [1.0, 0.0, 0.0], atol=1e-15)


def test_quasistatic_parallel_rates_vanish():
    r = [0.0, 0.0, 1.5]
    assert np.allclose(magnetic_field_quasistatic([0.0, 0.0, 4.0], r), 0.0)
    assert np.allclose(electric_field_quasistatic([0.0, 0.0, -2.0], r), 0.0)


def test_field_orientation_swap_antisymmetry():
    # the two quasistatic fields are the same cross-product structure with
    # the roles of the moments exchanged
    rate = [0.3, -0.7, 0.2]
    r = [0.1, 0.4, 1.2]
    assert np.allclose(
        magnetic_field_quasistatic(rate, r), electric_field_quasistatic(rate, r)
    )


@given(finite3, finite3)
def test_fields_orthogonal_to_rhat_and_source(rate, rv):
    r = np.asarray(rv)
    if np.linalg.norm(r) < 0.1:
        r = r + np.array([0.0, 0.0, 1.0])
    rate = np.asarray(rate)
    B = magnetic_field_quasistatic(rate, r)
    scale = np.linalg.norm(B) + 1.0
    rhat = r / np.linalg.norm(r)
    assert abs(np.dot(B, rhat)) <= 1e-12 * scale
    assert abs(np.dot(B, rate)) <= 1e-12 * scale * (np.linalg.norm(rate) + 1.0)


def test_interaction_canonical_orientation():
    # x-electric, y-magnetic, z-separation: (2 a xdot y, -2 a x ydot)
    r = [0.0, 0.0, 1.7]
    a = coupling_alpha(r)
    x, xd, y, yd = 0.8, -0.3, 1.1, 0.6
    e_h, e_e = interaction_energies(
        [x, 0, 0], [xd, 0, 0], [0, y, 0], [0, yd, 0], r
    )
    assert abs(e_h - 2.0 * a * xd * y) <= 1e-14
    assert abs(e_e - (-2.0 * a * x * yd)) <= 1e-14


def test_interaction_static_dipoles_vanish():
    r = [0.0, 0.0, 1.0]
    z = [0.0, 0.0, 0.0]
    e_h, e_e = interaction_energies([1, 0, 0], z, [0, 1, 0], z, r)
    assert e_h == 0.0 and e_e == 0.0


def test_coupling_alpha_value():
    assert coupling_alpha([0.0, 0.0, 2.0]) == 1.0 / 8.0


@pytest.mark.parametrize(
    "call",
    [
        lambda r: magnetic_field_full([1, 0, 0], 0.01j, r),
        lambda r: magnetic_field_quasistatic([1, 0, 0], r),
        lambda r: electric_field_quasistatic([1, 0, 0], r),
        lambda r: interaction_energies(
            [1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0], r
        ),
    ],
)
def test_zero_separation_rejected(call):
    with pytest.raises(ValueError):
        call([0.0, 0.0, 0.0])


def test_axial_fields_are_the_vector_forms_on_the_axis():
    # on floats and on a grid alike (axial_outcomes): the fields return
    # while d^2 is a normal float, bit for bit the vector forms, and where
    # d^2 is subnormal or leaves the float range the point fails
    for d, got in axial_outcomes(axial_fields).items():
        assert isinstance(got, tuple) == (sys.float_info.min <= d * d < math.inf), d
        if isinstance(got, tuple):
            r = [0.0, 0.0, d]
            with np.errstate(all="ignore"):
                want = (coupling_alpha(r), magnetic_field_quasistatic([1.0, 0.0, 0.0], r)[1],
                        electric_field_quasistatic([0.0, 1.0, 0.0], r)[0])
            assert list(map(float_bits, got)) == [float_bits(float(x)) for x in want], d
    with pytest.raises(ValueError, match="zero separation"):
        axial_fields(-0.0, FloatOps)
    ops = ArrayOps((3,))
    with np.errstate(all="ignore"):
        axial_fields(np.array([1.0, -0.0, 0.0]), ops)
    with pytest.raises(ValueError, match="zero separation"):
        ops.raise_first()
