"""Acceptance battery: one test per shipping criterion.

Each test prints a single PASS line when its criterion holds, so the
-v run reads as a checklist. Tolerances and runtime budgets are part
of the criteria and asserted explicitly.
"""

import time

import numpy as np

from magfriction import response_kinetics, verification
from magfriction.materials_spectral import LinearSpectralDensity
from magfriction._ieee import FloatOps
from magfriction.oscillator_pair import normal_modes

from conftest import assert_check


def _report(num, text):
    print("PASS criterion %02d: %s" % (num, text))


def test_criterion_01_eigenfrequency_product():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for alpha in rng.uniform(0.0, 5.0, 50):
        wp, wm = normal_modes(alpha, FloatOps)[:2]
        assert abs(wp * wm - 1.0) <= 1e-13
        fp, fm = verification.fit_trajectory_frequencies(alpha)
        assert abs(fp - wp) <= 1e-6
        assert abs(fm - wm) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, "mode product unity, trajectory fits 1e-6, %.2fs" % elapsed)


def test_criterion_02_free_energy_limits():
    t0 = time.perf_counter()
    cold = verification.induced_free_energy(
        0.1, verification.MatsubaraGrid(beta=1e3, n_max=60_000, tail_tol=1e-9)
    )
    assert abs(cold - 0.005) <= 1e-4 * 0.005
    hot = verification.induced_free_energy(
        0.1, verification.MatsubaraGrid(beta=1e-6, n_max=1000, tail_tol=1e-9)
    )
    assert abs(hot) <= 1e-6 * 0.1**2
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "cold limit 0.005, hot limit suppressed, %.2fs" % elapsed)


def test_criterion_03_universal_integral():
    assert_check(verification.check_universal_I_routes)
    _report(3, "quartic thermal integral 4pi^4/15 by two routes")


def test_criterion_04_geometry_closed_forms():
    t0 = time.perf_counter()
    assert_check(verification.check_halfspace_mc, seed=123, shifts=64)
    assert_check(verification.check_halfspace_quadrature)
    assert_check(verification.check_G_P_quadrature)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, "half-space MC 1%%, slab quadratures 1e-9, %.1fs" % elapsed)


def test_criterion_05_route_equivalence():
    assert_check(verification.check_slab_route_equivalence)
    _report(5, "real-space and Fourier slab factors agree to 1e-10")


def test_criterion_06_finite_T_assembly():
    assert_check(verification.check_finite_T_assembly)
    _report(6, "finite-T force = -G v H0, closed-form prefactor 2pi^6/15")


def test_criterion_07_zero_T_assembly():
    assert_check(verification.check_zero_T_assembly)
    # the dissipation integral is strictly linear in the window time,
    # so the assembled force (which divides it out) cannot depend on it
    spec = LinearSpectralDensity(1.0)
    j1 = response_kinetics.dissipation_J(0.9, 2.0, spec, spec)
    j2 = response_kinetics.dissipation_J(0.9, 14.0, spec, spec)
    assert abs(j1 / 2.0 - j2 / 14.0) <= 1e-14 * abs(j1 / 2.0)
    _report(7, "zero-T force prefactor 5pi^2/512, window-time independent")


def test_criterion_08_response_identities():
    assert_check(verification.check_remainder_identity)
    assert_check(verification.check_phi_two_sinusoid)
    assert_check(verification.check_delta_normalization)
    _report(8, "remainder bound, two-sinusoid response, delta norm pi")


def test_criterion_09_drude_slope():
    assert_check(verification.check_drude_slope)
    _report(9, "extracted metal spectrum slope, extrapolated to m -> 0, within 1e-4")


def test_criterion_10_force_signs():
    assert_check(verification.check_force_signs, draws=1000)
    _report(10, "forces oppose the drift in 10^3 randomized draws")


def test_criterion_11_suppression_factors():
    assert_check(verification.check_suppression_factors)
    _report(11, "thermal and velocity suppression ratios exposed exactly")


def test_criterion_12_field_limit():
    assert_check(verification.check_field_limit_sweep)
    _report(12, "quasistatic field error first order over decade sweep")
