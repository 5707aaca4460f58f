"""Response kernels, nascent deltas, and the sharp friction amplitude."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_check
from magfriction import numerics, verification
from magfriction.response_kinetics import (
    OscState,
    M_full,
    M_reduced,
    c_plus_minus,
    coth_difference_limit,
    dissipation_J,
    nascent_delta_cos_sin,
    nascent_delta_g,
    response_phi,
    sharp_friction_amplitude,
)
from magfriction.materials_spectral import LinearSpectralDensity


def osc(omega, n_mean, mass=1.0):
    return OscState(omega=omega, n_mean=n_mean, mass=mass)


@pytest.mark.parametrize("kwargs,message", [
    (dict(omega=np.array([1.0, -1.0]), n_mean=0.0), "omega must be positive"),
    (dict(omega=1.0, n_mean=np.array([0.5, -0.1])), "n_mean must be >= 0"),
    (dict(omega=1.0, n_mean=0.0, mass=np.array([1.0, 0.0])), "mass must be positive"),
])
def test_osc_state_validates_every_element(kwargs, message):
    with pytest.raises(ValueError, match=message):
        OscState(**kwargs)


def test_thermal_batch_matches_one_at_a_time():
    w = np.array([0.3, 1.0, 2.5])
    batch = OscState.thermal(w, 1.7, mass=0.8)
    single = [OscState.thermal(x, 1.7, mass=0.8).n_mean for x in w.tolist()]
    assert batch.n_mean.tolist() == single
    assert all(type(n) is float for n in single)


def test_M_at_zero_time():
    assert M_full(osc(1.0, 0.3), osc(1.4, 0.2), 0.0) == 0.0


def test_M_equal_oscillators_vanish():
    a = osc(1.3, 0.7)
    for t in np.linspace(0.0, 8.0, 30):
        assert abs(M_full(a, a, t)) <= 1e-13


def test_M_reduced_trivials():
    same_occ = (osc(1.0, 0.5), osc(1.7, 0.5))
    assert M_reduced(*same_occ, 2.2) == 0.0
    same_freq = (osc(1.2, 0.1), osc(1.2, 0.9))
    assert M_reduced(*same_freq, 2.2) == 0.0


def test_remainder_identity():
    assert_check(verification.check_remainder_identity)


@given(
    st.floats(0.2, 4.0), st.floats(0.2, 4.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 3.0), st.floats(0.0, 3.0),
)
def test_remainder_bound(w1, w2, t, n1, n2):
    o1, o2 = osc(w1, n1), osc(w2, n2)
    A, B = 2.0 * n1 + 1.0, 2.0 * n2 + 1.0
    omega = w1 - w2
    diff = abs(M_full(o1, o2, t) - M_reduced(o1, o2, t))
    assert diff <= omega * omega / 2.0 * (A + B) + 1e-12


def test_response_phi_zero_time():
    assert response_phi(osc(1.0, 0.2), osc(1.5, 0.1), 0.0) == 0.0


def test_response_phi_real():
    for t in (0.5, 1.9, 4.2):
        val = response_phi(osc(1.0, 0.2), osc(1.5, 0.1), t)
        assert float(np.imag(val)) == 0.0


def test_phi_two_sinusoid_decomposition():
    assert_check(verification.check_phi_two_sinusoid)


def test_nascent_g_values():
    assert nascent_delta_g(0.0, 0.5) == 0.0
    w, eta = 0.7, 0.2
    assert nascent_delta_g(w, eta) == 2.0 * eta * w / (eta * eta + w * w) ** 2
    with pytest.raises(ValueError):
        nascent_delta_g(1.0, 0.0)


def test_nascent_g_normalization():
    assert_check(verification.check_delta_normalization)


def test_nascent_g_time_domain():
    assert_check(verification.check_g_time_domain)


def test_cos_sin_trivial_and_identity():
    assert nascent_delta_cos_sin(1.3, 0.0, 0.1) == 0.0
    val = nascent_delta_cos_sin(1.0, 1.3, 0.05)
    ref = 0.5 * (nascent_delta_g(1.0 + 1.3, 0.05) - nascent_delta_g(1.0 - 1.3, 0.05))
    assert val == ref
    with pytest.raises(ValueError):
        nascent_delta_cos_sin(1.0, 1.0, -0.1)


def test_cos_sin_time_domain():
    assert_check(verification.check_cos_sin_time_domain)


def test_cos_sin_delta_reading():
    # the -g(w1 - w2)/2 piece integrates against Omega to -pi/2 at every eta
    for eta in (0.1, 0.01):
        res = numerics.quad_semi_infinite(
            lambda w: 2.0 * w * (-0.5) * nascent_delta_g(w, eta), 0.0,
            panel_scale=eta,
        )
        assert abs(res.value - (-np.pi / 2.0)) <= 1e-8


def test_coth_difference_values():
    assert coth_difference_limit(1.0, 1.3, 1.3) == 0.0
    assert coth_difference_limit(1.0, 1.0, 0.5) < 0.0


def test_coth_limit_ratio():
    assert_check(verification.check_coth_limit)


def test_sharp_amplitude_trivials():
    o1, o2 = OscState.thermal(1.0, 1.0), OscState.thermal(1.0, 1.0)
    assert sharp_friction_amplitude(o1, o2, 1.0, 0.0) == 0.0
    amp = sharp_friction_amplitude(o1, o2, 1.0, 2.3)
    assert amp < 0.0
    assert sharp_friction_amplitude(o1, o2, 1.0, -2.3) == -amp


def test_sharp_amplitude_closed_form():
    o1, o2 = OscState.thermal(1.0, 1.0), OscState.thermal(1.0, 1.0)
    amp = sharp_friction_amplitude(o1, o2, 1.0, 1.0)
    expected = -np.pi / (8.0 * np.sinh(0.5) ** 2)
    assert abs(amp - expected) <= 1e-12
    assert amp == pytest.approx(-1.4461, abs=1e-4)


def test_sharp_amplitude_pipeline_oracle():
    assert_check(verification.check_sharp_amplitude_pipeline)


def test_c_plus_minus_degenerate():
    o = OscState.thermal(1.2, 2.0)
    c_minus, c_plus, w_minus, w_plus = c_plus_minus(o, o, 2.0, 0.7)
    assert w_minus == 0.0 and w_plus == 2.4
    assert c_plus == 0.0


def test_c_plus_zero_temperature_limit():
    assert_check(verification.check_c_plus_zero_T)


def test_dissipation_J_values():
    s1, s2 = LinearSpectralDensity(1.0), LinearSpectralDensity(2.0)
    assert dissipation_J(0.0, 1.0, s1, s2) == 0.0
    W = 1.5
    closed = 2.0 * 1.0 * W**6 * (np.pi / 120.0) * 1.0 * 2.0
    assert abs(dissipation_J(W, 1.0, s1, s2) - closed) <= 1e-14 * closed
    # sixth-power scaling
    ratio = dissipation_J(2.0 * W, 1.0, s1, s2) / dissipation_J(W, 1.0, s1, s2)
    assert abs(ratio - 64.0) <= 1e-12
    with pytest.raises(ValueError):
        dissipation_J(1.0, 0.0, s1, s2)


def test_dissipation_J_quadrature_route():
    assert_check(verification.check_dissipation_quadrature)


def test_response_suite_green():
    failures = [c.name for c in verification.SUITES["response"] if not c.run()[0]]
    assert failures == []
