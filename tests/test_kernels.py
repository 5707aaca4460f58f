"""Numpy kernels against plain loops written out here."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import magfriction
from magfriction import _kernels, numerics, verification


def _pair_matrix(alpha):
    # unit pair: x'' = -x + 2*alpha*y', y'' = -y - 2*alpha*x'
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 2.0 * alpha],
        [0.0, -1.0, -2.0 * alpha, 0.0],
    ])


def _rk4_inputs(B, seed=0):
    rng = np.random.default_rng(seed)
    A = np.stack([_pair_matrix(a) for a in rng.uniform(0.0, 3.0, B)])
    init = rng.standard_normal((4, B))
    dt = rng.uniform(0.005, 0.02, B)
    return A, init, dt


def _rk4_stage_loop(A, init, dt, n_steps, stride):
    # classical four-stage RK4 on one column, step by step
    def rhs(s):
        return A @ s

    s = np.array(init, dtype=np.float64)
    out = [s]
    for step in range(1, n_steps + 1):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * dt * k1)
        k3 = rhs(s + 0.5 * dt * k2)
        k4 = rhs(s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0:
            out.append(s)
    return np.array(out)


def test_active_lane_reported():
    assert magfriction.kernel_impl == "pure"


def test_rk4_matches_stage_loop():
    A, init, dt = _rk4_inputs(3, seed=4)
    assert len(set(A[:, 2, 3])) == 3 and len(set(dt)) == 3
    n_steps, stride = 12_000, 10
    out = _kernels.rk4_batch(A, init, dt, n_steps, stride)
    for b in range(3):
        ref = _rk4_stage_loop(A[b], init[:, b], dt[b], n_steps, stride)
        assert np.max(np.abs(out[:, :, b] - ref)) <= 1e-10


def _power_recurrence(A, init, dt, n_steps, stride):
    # s_k = P s_{k-1} one record at a time, P = R(dt*A)^stride per column
    eye = np.eye(4)
    out = np.empty((n_steps // stride + 1,) + init.shape)
    out[0] = init
    for b in range(init.shape[1]):
        Z = dt[b] * A[b]
        R = eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)
        P = np.linalg.matrix_power(R, stride)
        for k in range(1, out.shape[0]):
            out[k, :, b] = P @ out[k - 1, :, b]
    return out


K = _kernels.RK4_BLOCK


@pytest.mark.parametrize("records", [1, 2, K, K + 1, 2 * K + 1])
def test_rk4_blocks_match_the_stage_loop_and_the_power_recurrence(records):
    A, init, dt = _rk4_inputs(3, seed=records)
    assert len(set(dt)) == 3
    stride = 3
    n_steps = (records - 1) * stride
    out = _kernels.rk4_batch(A, init, dt, n_steps, stride)
    assert out.shape == (records, 4, 3)
    assert np.array_equal(out[0], init)
    recurrence = _power_recurrence(A, init, dt, n_steps, stride)
    assert np.max(np.abs(out - recurrence)) <= 1e-13 * np.max(np.abs(recurrence))
    for b in range(3):
        ref = _rk4_stage_loop(A[b], init[:, b], dt[b], n_steps, stride)
        assert np.max(np.abs(out[:, :, b] - ref)) <= 1e-10


def test_rk4_records_initial_state_and_shape():
    A, init, dt = _rk4_inputs(3)
    out = _kernels.rk4_batch(A, init, dt, 200, 20)
    assert out.shape == (11, 4, 3)
    assert np.array_equal(out[0], init)


def test_rk4_stride_must_divide():
    A, init, dt = _rk4_inputs(2)
    with pytest.raises(ValueError):
        _kernels.rk4_batch(A, init, dt, 101, 10)


@pytest.mark.parametrize("n_max", [
    200, _kernels.MODE_BLOCK - 1, _kernels.MODE_BLOCK, _kernels.MODE_BLOCK + 1,
    3 * _kernels.MODE_BLOCK + 7,
])
def test_mode_sum_against_direct_loop(n_max):
    beta, alpha = 5.0, 0.4
    terms = []
    for n in range(1, n_max + 1):
        u2 = (2.0 * np.pi * n / beta) ** 2
        terms.append(2.0 * (2.0 * alpha**2 / beta) * u2 / (u2 + 1.0) ** 2)
    direct = math.fsum(terms)
    assert abs(_kernels.mode_sum(alpha, beta, n_max) - direct) <= 1e-14 * direct
    assert _kernels.mode_sum(alpha, beta, 0) == 0.0


@pytest.mark.parametrize("check", [
    verification.check_free_energy_brute_force, verification.check_free_energy_closed_form,
])
def test_free_energy_checks_allocate_no_whole_mode_arrays(check):
    # a warm call: the first may load modules. mode_sum's blocks hold a few
    # hundred KiB; one array over all 10^6 (or 200 000) modes would not fit
    check()
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _halfspace_weights(z0, u, mode):
    # every weight of a set of points at once, as one whole-array pass
    z = z0 * (1.0 - u[0]) ** (-1.0 / 3.0)
    s2 = z * z * ((1.0 - u[1]) ** (-0.5) - 1.0)
    r2 = s2 + z * z
    pdf = (3.0 * z0**3 / z**4) * (4.0 * z**4 / (2.0 * np.pi * r2**3))
    if mode == 0:
        return (1.0 / r2**3) / pdf
    if mode == 2:
        return (1.0 / r2**4) / pdf
    x2 = s2 * np.cos(2.0 * np.pi * u[2]) ** 2
    return 2.0 * (1.0 / r2**3 + 3.0 * x2 / (r2**3 * r2)) / pdf


B = _kernels.MC_BLOCK


def _halfspace_chunk_expressions(z0, u, mode):
    # halfspace_chunk as whole-array expressions, one temporary per
    # operation: the same operations in the same order as its in-place form
    z = z0 / np.cbrt(1.0 - u[0])
    z2 = z * z
    s2 = z2 * (1.0 / np.sqrt(1.0 - u[1]) - 1.0)
    r2 = s2 + z2
    z4 = z2 * z2
    r6 = r2 * r2 * r2
    pdf = (3.0 * z0**3 / z4) * (4.0 * z4 / (2.0 * math.pi * r6))
    if mode == 0:
        f = 1.0 / r6
    elif mode == 1:
        x2 = s2 * np.cos(2.0 * math.pi * u[2]) ** 2
        f = 2.0 * (1.0 / r6 + 3.0 * x2 / (r6 * r2))
    else:
        f = 1.0 / (r6 * r2)
    w = f / pdf
    return float(np.sum(w)), float(np.sum(w * w))


@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("where", ["anywhere", "near 0", "near 1"])
def test_halfspace_chunk_is_its_expression_form_bit_for_bit(mode, where):
    rng = np.random.default_rng([mode, len(where)])
    for m in (1, 7, B - 1, B):
        u = rng.random((3, m))
        if where == "near 0":
            u *= 1e-12
        elif where == "near 1":
            u = 1.0 - (1.0 + u) * 2.0**-50
        z0 = float(rng.uniform(0.2, 3.0))
        assert _kernels.halfspace_chunk(z0, u, mode) == _halfspace_chunk_expressions(z0, u, mode)


# (value, std_error) of the battery's lattice-rule estimates, as float.hex
MC_BITS = {
    "half-space MC": (1.0, 1, 123, "0x1.921fb67379912p+0", "0x1.da583bbe0ea95p-24"),
    "half-space r^-6 MC": (1.0, 0, 7, "0x1.0c152382d7366p-1", "0x0.0p+0"),
    "half-space r^-8": (1.5, 2, 5, "0x1.c3e116af475f6p-6", "0x1.029dfb11cd7bcp-27"),
}


@pytest.mark.parametrize("name", sorted(MC_BITS))
def test_halfspace_estimates_keep_their_bits(name):
    z0, mode, seed, value, std_error = MC_BITS[name]
    r = numerics.mc_integrate(lambda u: _kernels.halfspace_chunk(z0, u, mode), 3, seed)
    assert (r.value.hex(), r.std_error.hex()) == (value, std_error)


def test_one_dimensional_estimates_keep_their_bits():
    r = numerics.mc_integrate(verification._x_squared, 1, 11)
    assert (r.value.hex(), r.std_error.hex()) == ("0x1.5555555ac87a6p-2", "0x1.c65d2a5b9720cp-32")


def test_lattice_base_is_built_once_and_read_only():
    base = numerics._lattice_base(3)
    assert numerics._lattice_base(3) is base
    assert base.shape == (3, numerics.LATTICE_N) and not base.flags.writeable


@pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 7])
def test_halfspace_chunk_sums_the_weights_and_their_squares(m):
    u = np.random.default_rng(m).random((3, m))
    w = _halfspace_weights(1.3, u, 1)
    s, s2 = _kernels.halfspace_chunk(1.3, u, 1)
    assert abs(s - np.sum(w)) <= 1e-12 * np.sum(w)
    assert abs(s2 - np.sum(w * w)) <= 1e-12 * np.sum(w * w)


def test_halfspace_chunk_mode2_weights_follow_r_to_the_minus_8():
    # the r^-8 weight pi/(6 z0^3 r^2) depends on z through r, unlike the
    # weights of modes 0 and 1
    u = np.random.default_rng(5).random((3, B + 1))
    w = _halfspace_weights(1.3, u, 2)
    s, s2 = _kernels.halfspace_chunk(1.3, u, 2)
    assert abs(s - np.sum(w)) <= 1e-12 * np.sum(w)
    assert abs(s2 - np.sum(w * w)) <= 1e-12 * np.sum(w * w)
    assert np.ptp(w) > 0.1 * np.max(w)


def test_halfspace_mc_over_several_shifts_matches_the_whole_array(monkeypatch):
    # blocks of an odd size that does not divide the rule; each shift's
    # points, gathered whole, give the same estimate from the weights
    # written out
    seen = []
    original = _kernels.halfspace_chunk

    def spy(z0, u, mode):
        seen.append(u.copy())
        return original(z0, u, mode)

    monkeypatch.setattr(_kernels, "MC_BLOCK", 2 * B + 3)
    monkeypatch.setattr(_kernels, "halfspace_chunk", spy)
    shifts = 3
    res = verification.mc_halfspace_Gxx(1.5, 17, shifts)
    points = np.concatenate(seen, axis=1).reshape(3, shifts, numerics.LATTICE_N)
    means = [np.mean(_halfspace_weights(1.5, points[:, s], 1)) for s in range(shifts)]
    mean = np.mean(means)
    std_error = np.std(means, ddof=1) / np.sqrt(shifts)
    assert res.samples == shifts * numerics.LATTICE_N
    assert abs(res.value - mean) <= 1e-12 * mean
    assert abs(res.std_error - std_error) <= 1e-12 * mean


def test_halfspace_mc_refuses_weights_that_are_not_finite():
    # at z0 = 0 the sampler's density is 0 at every point: 0/0 weights from
    # the first block on
    with np.errstate(all="ignore"), pytest.raises(
            numerics.McSamplingError, match=r"shift 0 sample 0$"):
        verification.mc_halfspace_Gxx(0.0, 1)


def test_halfspace_chunk_mode0_constant_weight():
    # r^-6 under the half-space sampler has identically constant weight,
    # in one block and over several
    rng = np.random.default_rng(3)
    for m in (1000, 3 * B + 7):
        u = rng.random((3, m))
        s, s2 = _kernels.halfspace_chunk(1.0, u, 0)
        mean = s / m
        var = s2 / m - mean * mean
        assert abs(mean - np.pi / 6.0) <= 1e-12
        assert abs(var) <= 1e-15


# ---------------------------------------------------------------- float text

@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300))
def test_float_reprs_is_repr(values):
    # subnormals, zeros of both signs and every exponent included
    assert _kernels.float_reprs(np.array(values, dtype=np.float64)) == list(map(repr, values))


def _neighbours(x, k):
    """Each value of x and the k floats on each side of it."""
    steps = np.arange(-k, k + 1, dtype=np.int64)
    bits = np.asarray(x, dtype=np.float64).view(np.int64)[:, None] + steps
    return bits.ravel().view(np.float64)


def _float_classes(n):
    rng = np.random.default_rng(2026)
    sign = rng.choice([-1.0, 1.0], n)
    # every finite bit pattern, so every exponent, subnormals included
    bits = rng.integers(0, 0x7FF0 << 48, n, dtype=np.int64).view(np.float64)
    # decimals of 17 significant digits and of one to four, through the
    # correctly rounded float(str); dyadic ones (0.5, 2.5, 1.25e3) are exact
    seventeen = [float("%de%d" % (m, e)) for m, e in zip(
        rng.integers(10**16, 10**17, n).tolist(), rng.integers(-316, 292, n).tolist())]
    short = [float("%de%d" % (m, e)) for m, e in zip(
        rng.integers(1, 10**4, n).tolist(), rng.integers(-320, 305, n).tolist())]
    dyadic = rng.integers(1, 10**4, n) * np.ldexp(1.0, rng.integers(-12, 12, n))
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return {
        "exponent-range": np.where(rng.random(n) < 0.5, -bits, bits),
        "17-digit": np.array(seventeen) * sign,
        "short-decimal": np.array(short) * sign,
        "dyadic-decimal": dyadic * sign,
        # a power of two has a gap below it half the gap above
        "powers-of-two": _neighbours(np.concatenate([powers, -powers]), 24),
        # the fixed/scientific switches of repr: decpt -3/-4 and 16/17
        "layout-boundaries": np.concatenate([
            _neighbours([9.999999999999999e-05, 1e-4, 1e-5, 1e15, 1e16, 1e17], n // 12),
            rng.uniform(1e-5, 1e-3, n // 4), rng.uniform(1e15, 1e17, n // 4)]),
        # 2^53 + 1 rounds to 2^53; 1e23 is a tie of two floats; 1e22 is exact
        "integer-and-tie": np.concatenate([
            _neighbours([9007199254740993.0, 1e22, 1e23], n // 6),
            2.0**53 + rng.integers(-2**40, 2**40, n // 2).astype(np.float64)]),
        "zeros-and-subnormals": np.concatenate([
            rng.choice([0.0, -0.0], n // 2),
            _neighbours([0.0, 2.2250738585072014e-308, -2.2250738585072014e-308], n // 12 + 1)]),
        # the edges of the kernel's range, either side of which is repr
        "range-edges": _neighbours([1e-200, 1e200, -1e-200, -1e200], n // 8),
    }


@pytest.mark.parametrize("name", sorted(_float_classes(12)))
def test_float_reprs_stress(name):
    x = _float_classes(200_000)[name]
    assert x.size >= 200_000
    assert _kernels.float_reprs(x) == list(map(repr, x.tolist()))


def test_float_reprs_takes_repr_only_where_it_cannot_certify(monkeypatch):
    # the fast path prints nearly every value in [1e-200, 1e12) that is not
    # a power of two: it is not repr under another name. Above, a float
    # scaled to 17 digits keeps few fractional bits, so exact ties and
    # interval ends on an integer, which the margin sends to repr, are common
    called = []
    monkeypatch.setattr(_kernels, "repr", lambda v: called.append(v) or repr(v), raising=False)
    rng = np.random.default_rng(5)
    x = rng.uniform(-10.0, 10.0, 100_000) * 10.0 ** rng.integers(-199, 12, 100_000)
    assert _kernels.float_reprs(x) == list(map(repr, x.tolist()))
    assert len(called) <= 10
    edges = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, 0.5, 1024.0, -2.0**-60])
    called.clear()
    assert _kernels.float_reprs(edges) == list(map(repr, edges.tolist()))
    assert called == edges.tolist()
    # and no more of the large values than the rule as it stands: per
    # decade [10^k, 10^(k+1)), of 20 000 uniform values, it sends 0.43,
    # 2.9, 14.2, 67.9, 100, 39.6, 7.9 and 1.7% to repr; the bounds, in %,
    # add a margin
    bounds = {12: 0.6, 13: 3.2, 14: 14.8, 15: 68.6, 16: 100.0, 17: 40.3, 18: 8.4, 19: 2.0}
    rng = np.random.default_rng(5)
    for k, bound in bounds.items():
        x = rng.uniform(1.0, 10.0, 20_000) * 10.0**k
        called.clear()
        assert _kernels.float_reprs(x) == list(map(repr, x.tolist()))
        assert 100.0 * len(called) / x.size <= bound, k
