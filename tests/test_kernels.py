"""Numpy kernels against plain loops written out here."""

import numpy as np
import pytest

import magfriction
from magfriction import _kernels


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


def test_rk4_records_initial_state_and_shape():
    A, init, dt = _rk4_inputs(3)
    out = _kernels.rk4_batch(A, init, dt, 200, 20)
    assert out.shape == (11, 4, 3)
    assert np.array_equal(out[0], init)


def test_rk4_stride_must_divide():
    A, init, dt = _rk4_inputs(2)
    with pytest.raises(ValueError):
        _kernels.rk4_batch(A, init, dt, 101, 10)


def test_mode_sum_against_direct_loop():
    beta, alpha, n_max = 5.0, 0.4, 200
    direct = 0.0
    for n in range(1, n_max + 1):
        u2 = (2.0 * np.pi * n / beta) ** 2
        direct += 2.0 * (2.0 * alpha**2 / beta) * u2 / (u2 + 1.0) ** 2
    assert abs(_kernels.mode_sum(alpha, beta, n_max) - direct) <= 1e-14
    assert _kernels.mode_sum(alpha, beta, 0) == 0.0


def test_halfspace_chunk_mode0_constant_weight():
    # r^-6 under the half-space sampler has identically constant weight
    rng = np.random.default_rng(3)
    u = rng.random((3, 1000))
    s, s2 = _kernels.halfspace_chunk(1.0, u, 0)
    mean = s / 1000.0
    var = s2 / 1000.0 - mean * mean
    assert abs(mean - np.pi / 6.0) <= 1e-12
    assert abs(var) <= 1e-15
