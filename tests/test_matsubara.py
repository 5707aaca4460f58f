"""Imaginary-time mode sums and the induced free energy."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import float_bits
from magfriction._ieee import FloatOps
from magfriction.matsubara import free_energy
from magfriction.verification import (
    MatsubaraGrid,
    TruncationError,
    induced_free_energy,
    matsubara_frequency,
    mode_free_energy,
    reference_mode_average,
)


def test_frequency_values():
    assert matsubara_frequency(2.0, 0) == 0.0
    assert matsubara_frequency(2.0 * np.pi, 3) == 3.0


def test_frequency_odd_in_n():
    for n in (1, 5, 17):
        assert matsubara_frequency(0.7, -n) == -matsubara_frequency(0.7, n)


def test_frequency_beta_validation():
    with pytest.raises(ValueError):
        matsubara_frequency(0.0, 1)


def test_reference_average_values():
    assert reference_mode_average(0.0) == 1.0
    assert reference_mode_average(1.0) == 0.5


def test_mode_free_energy_values():
    assert mode_free_energy(1.0, 0.0, 1.0) == 0.0
    assert mode_free_energy(1.0, 1.0, 1.0) == 0.5


def test_free_energy_cold_limit():
    grid = MatsubaraGrid(beta=1000.0, n_max=60_000, tail_tol=1e-9)
    F = induced_free_energy(0.1, grid)
    assert abs(F - 0.005) / 0.005 <= 1e-4


def test_free_energy_hot_limit():
    grid = MatsubaraGrid(beta=1e-6, n_max=1000, tail_tol=1e-9)
    for alpha in (0.1, 1.0, 2.5):
        assert abs(induced_free_energy(alpha, grid)) <= 1e-6 * alpha**2


def test_free_energy_quadratic_alpha_scaling():
    grid = MatsubaraGrid(beta=7.0, n_max=5000, tail_tol=1e-7)
    base = induced_free_energy(1.0, grid)
    for alpha in (0.25, 0.5, 3.0):
        F = induced_free_energy(alpha, grid)
        assert abs(F - alpha**2 * base) <= 1e-13 * max(1.0, abs(F))


def test_free_energy_monotone_toward_hot_limit():
    # nonnegative everywhere, decreasing as temperature rises (beta falls)
    betas = np.logspace(-2.0, 2.0, 12)
    vals = [
        induced_free_energy(0.4, MatsubaraGrid(beta=b, n_max=20_000, tail_tol=1e-8))
        for b in betas
    ]
    assert all(v >= 0.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_free_energy_cold_bound():
    # |F - alpha^2/2| <= C/beta for large beta; the actual approach is far
    # faster (mode sums of analytic integrands converge exponentially), so
    # C = 1e-3 is generous yet meaningful on this grid
    alpha = 0.3
    for beta in (50.0, 100.0, 200.0, 400.0):
        grid = MatsubaraGrid(beta=beta, n_max=40_000, tail_tol=1e-8)
        dev = abs(induced_free_energy(alpha, grid) - alpha**2 / 2.0)
        assert dev <= 1e-3 / beta


def test_closed_form_continuous_at_series_switch():
    # the series takes over below x = beta/2 = 1e-2
    for alpha in (0.3, 1.0):
        lo = free_energy(alpha, 2e-2 * (1.0 - 1e-12), FloatOps)
        hi = free_energy(alpha, 2e-2 * (1.0 + 1e-12), FloatOps)
        assert abs(lo - hi) <= 1e-11 * abs(hi)


def test_closed_form_limits():
    for alpha in (0.05, 0.3, 1.0):
        assert free_energy(alpha, 1e6, FloatOps) == pytest.approx(alpha**2 / 2.0, rel=1e-15)
        for beta in (1e-6, 1e-9):
            assert free_energy(alpha, beta, FloatOps) == pytest.approx(alpha**2 * beta / 6.0,
                                                                       rel=1e-12)
    tiny = free_energy(1.0, 1e-300, FloatOps)
    assert np.isfinite(tiny) and tiny > 0.0


def test_closed_form_beta_validation():
    with pytest.raises(ValueError):
        free_energy(0.3, 0.0, FloatOps)


def test_truncation_error_certified():
    grid = MatsubaraGrid(beta=100.0, n_max=5, tail_tol=1e-12)
    with pytest.raises(TruncationError):
        induced_free_energy(0.1, grid)


def test_induced_free_energy_over_a_column_is_each_betas_value():
    betas = np.logspace(-3.0, 3.0, 7)
    column = induced_free_energy(0.3, MatsubaraGrid(betas, 20_000, tail_tol=1e-6))
    assert [float_bits(x) for x in column.tolist()] == [
        float_bits(induced_free_energy(0.3, MatsubaraGrid(beta, 20_000, tail_tol=1e-6)))
        for beta in betas]
    assert induced_free_energy(0.0, MatsubaraGrid(betas, 10)).tolist() == [0.0] * 7


@pytest.mark.parametrize("betas", [[1.0, 100.0, 2.0], [100.0, 1.0], [2.0, 100.0]])
def test_a_column_fails_as_its_first_failing_beta(betas):
    # with 5 modes, only beta = 100 leaves a tail bound above 1e-5
    grid = MatsubaraGrid(np.array(betas), n_max=5, tail_tol=1e-5)
    with pytest.raises(TruncationError) as column:
        induced_free_energy(0.1, grid)
    with pytest.raises(TruncationError) as one:
        induced_free_energy(0.1, MatsubaraGrid(100.0, n_max=5, tail_tol=1e-5))
    assert str(column.value) == str(one.value)


def test_grid_validation():
    with pytest.raises(ValueError):
        MatsubaraGrid(beta=-1.0, n_max=10, tail_tol=1e-9)
    with pytest.raises(ValueError):
        MatsubaraGrid(beta=np.array([1.0, 0.0]), n_max=10, tail_tol=1e-9)
    with pytest.raises(ValueError):
        MatsubaraGrid(beta=1.0, n_max=-1, tail_tol=1e-9)
    with pytest.raises(ValueError):
        MatsubaraGrid(beta=1.0, n_max=10, tail_tol=0.0)


@given(st.floats(0.01, 5.0), st.floats(0.0, 30.0), st.floats(0.1, 50.0))
def test_mode_free_energy_closed_form(alpha, u, beta):
    val = mode_free_energy(alpha, u, beta)
    ref = (2.0 * alpha**2 / beta) * u * u / (u * u + 1.0) ** 2
    assert val == ref
    assert val >= 0.0
