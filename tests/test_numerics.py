"""Quadrature, Monte-Carlo, series, and fitting engine battery."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_check
from magfriction import _kernels, numerics, verification
from magfriction.numerics import (
    HalfspaceSampler,
    QuadratureError,
    SeriesError,
    mc_integrate,
    quad_finite,
    quad_semi_infinite,
    series_sum,
    sinusoid_fit,
)


def test_quad_cos6_over_a_turn():
    res = quad_finite(lambda x: np.cos(x) ** 6, 0.0, 2.0 * np.pi)
    assert abs(res.value - 5.0 * np.pi / 8.0) <= 1e-12


def test_quad_zero_integrand():
    assert quad_finite(lambda x: 0.0, 0.0, 1.0).value == 0.0


def test_quad_linear_ramp():
    res = quad_finite(lambda x: x, 0.0, 1.0)
    assert abs(res.value - 0.5) <= 1e-14


def test_quad_result_fields():
    res = quad_finite(lambda x: np.exp(-x), 0.0, 3.0)
    assert res.error_estimate >= 0.0
    assert res.evaluations > 0
    assert abs(res.value - (1.0 - np.exp(-3.0))) <= max(1e-10, res.error_estimate)


def test_semi_infinite_rational():
    res = quad_semi_infinite(lambda u: u * u / (u * u + 1.0) ** 2, 0.0)
    assert abs(res.value - np.pi / 4.0) <= 1e-10


def test_semi_infinite_quartic_thermal():
    def f(x):
        return x**4 * np.exp(-x) / (1.0 - np.exp(-x)) ** 2 if x > 0 else 0.0

    res = quad_semi_infinite(f, 0.0)
    assert abs(res.value - 4.0 * np.pi**4 / 15.0) <= 1e-10


def test_semi_infinite_factorial():
    res = quad_semi_infinite(lambda q: q**5 * np.exp(-2.0 * q), 0.0)
    assert abs(res.value - 1.875) <= 1e-10


def test_semi_infinite_rejects_non_decay():
    with pytest.raises(QuadratureError):
        quad_semi_infinite(lambda x: 1.0, 0.0)


def test_series_zeta4():
    val = series_sum(lambda n: 1.0 / n**4, lambda n: 1.0 / (3.0 * n**3), tol=1e-13)
    assert abs(val - np.pi**4 / 90.0) <= 1e-12


def test_series_zero_terms():
    assert series_sum(lambda n: 0.0, lambda n: 0.0, tol=1e-12) == 0.0


def test_series_detects_bound_violation():
    # harmonic terms cannot satisfy a 1/n^2 tail bound
    with pytest.raises(SeriesError):
        series_sum(lambda n: 1.0 / n, lambda n: 1.0 / n**2, tol=1e-10)


def test_mc_constant_integrand_exact():
    # unit box with unit density: weights are exactly the constant
    sampler = numerics.BoxSampler([0.0], [1.0])
    res = mc_integrate(lambda p: np.full(p.shape[1], 2.5), sampler, n=10_000, seed=3)
    assert res.value == 2.5
    assert res.std_error == 0.0


def _r8(pts):
    # r^-8 leaves genuine per-sample variance under the half-space sampler
    return 1.0 / np.sum(pts * pts, axis=0) ** 4


def test_mc_deterministic_bit_identical():
    sampler = HalfspaceSampler(z0=1.0)
    a = mc_integrate(_r8, sampler, n=200_000, seed=42)
    b = mc_integrate(_r8, sampler, n=200_000, seed=42)
    assert a.value == b.value
    assert a.std_error == b.std_error
    c = mc_integrate(_r8, sampler, n=200_000, seed=43)
    assert c.value != a.value


B = _kernels.MC_BLOCK


@pytest.mark.parametrize("n,chunk", [
    (1, 1 << 20), (B - 1, 1 << 20), (B, 1 << 20), (B + 1, 1 << 20),
    (2 * (2 * B + 3) + B + 5, 2 * B + 3),  # three chunks, the last one short
])
def test_mc_blocks_match_the_whole_array(n, chunk):
    sampler = HalfspaceSampler(z0=1.0)
    w = []
    for j, a in enumerate(range(0, n, chunk)):
        u = np.random.Generator(np.random.Philox(key=8).jumped(j)).random((3, min(chunk, n - a)))
        pts, pdf = sampler.map(u)
        w.append(_r8(pts) / pdf)
    w = np.concatenate(w)
    mean = np.sum(w) / n
    var = max(np.sum(w * w) / n - mean * mean, 0.0) * (n / (n - 1.0) if n > 1 else 1.0)
    res = mc_integrate(_r8, sampler, n, seed=8, chunk_size=chunk)
    assert abs(res.value - mean) <= 1e-12 * mean
    assert abs(res.std_error - np.sqrt(var / n)) <= 1e-12 * np.sqrt(var / n)


def test_mc_sampling_error_names_the_sample_within_its_chunk():
    # the density fails at one sample of the second chunk, in its third block
    chunk, bad_at = 3 * B, 2 * B + 5
    u = np.random.Generator(np.random.Philox(key=5).jumped(1)).random((1, chunk))
    target = u[0, bad_at]
    assert np.count_nonzero(u[0] == target) == 1

    class Sampler(numerics.BoxSampler):
        def map(self, u):
            pts, pdf = super().map(u)
            return pts, np.where(u[0] == target, np.nan, pdf)

    with pytest.raises(numerics.McSamplingError, match=r"chunk 1 sample %d \(" % bad_at):
        mc_integrate(lambda p: p[0], Sampler([0.0], [1.0]), 2 * chunk, seed=5, chunk_size=chunk)


def test_mc_halfspace_r6():
    assert_check(verification.check_halfspace_r6_mc)


def test_sinusoid_fit_pure_cosine():
    t = np.linspace(0.0, 40.0, 2000)
    modes = sinusoid_fit(t, np.cos(t), 1)
    assert abs(modes[0][0] - 1.0) <= 1e-8


def test_sinusoid_fit_two_modes():
    # synthetic signal at the alpha = 0.75 pair of frequencies
    t = np.linspace(0.0, 120.0, 6000)
    x = 0.8 * np.cos(2.0 * t + 0.2) + 0.5 * np.cos(0.5 * t - 0.4)
    modes = sinusoid_fit(t, x, 2)
    freqs = sorted(m[0] for m in modes)
    assert abs(freqs[1] - 2.0) <= 1e-6
    assert abs(freqs[0] - 0.5) <= 1e-6
    assert modes.residual <= 1e-10


def test_sinusoid_fit_sorted_descending():
    t = np.linspace(0.0, 80.0, 4000)
    x = np.cos(1.3 * t) + np.cos(0.7 * t)
    modes = sinusoid_fit(t, x, 2)
    assert modes[0][0] >= modes[1][0]


def test_gradient_central():
    g = numerics.gradient_central(lambda p: p[0] ** 2 + 3.0 * p[1], np.array([2.0, 1.0]),
                                  step=1e-6)
    assert np.allclose(g, [4.0, 3.0], atol=1e-8)


def test_linear_extrapolate_zero():
    xs = np.array([0.1, 0.01])
    ys = 5.0 + 2.0 * xs
    assert abs(numerics.linear_extrapolate_zero(xs, ys) - 5.0) <= 1e-12


@given(
    st.tuples(
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    ),
    st.floats(-2.0, 2.0),
    st.floats(0.1, 3.0),
)
def test_quad_matches_cubic_antiderivative(coeffs, a, width):
    c0, c1, c2, c3 = coeffs
    b = a + width

    def f(x):
        return c0 + x * (c1 + x * (c2 + x * c3))

    def F(x):
        return x * (c0 + x * (c1 / 2.0 + x * (c2 / 3.0 + x * c3 / 4.0)))

    res = quad_finite(f, a, b)
    assert abs(res.value - (F(b) - F(a))) <= 1e-9


def test_numerics_suite_green():
    failures = [c.name for c in verification.SUITES["numerics"] if not c.run()[0]]
    assert failures == []


def test_ieee_pow_and_div_keep_the_float_range():
    assert numerics.ieee_pow(2.0, 3) == 8.0
    assert numerics.ieee_pow(1e200, 2) == math.inf
    assert numerics.ieee_pow(-1e200, 3) == -math.inf
    assert numerics.ieee_pow(-1e200, 4) == math.inf
    assert numerics.ieee_pow(1e-200, 2) == 0.0
    assert numerics.ieee_div(1.0, 4.0) == 0.25
    assert numerics.ieee_div(3.0, 0.0) == math.inf
    assert numerics.ieee_div(-3.0, 0.0) == -math.inf
    assert numerics.ieee_div(3.0, -0.0) == -math.inf
    assert math.isnan(numerics.ieee_div(0.0, 0.0))
    assert numerics.ieee_div(1.0, math.inf) == 0.0
