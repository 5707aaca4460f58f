"""Coupled oscillator pair: momenta, Hamiltonian, spectrum, dynamics."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from magfriction import verification
from magfriction._ieee import FloatOps
from magfriction.oscillator_pair import normal_modes
from magfriction.verification import (
    OscPairConfig,
    PhaseState,
    _eom_matrix,
    generalized_momenta,
    hamiltonian,
    integrate_eom,
)

UNIT = OscPairConfig(alpha=0.3)


def test_momenta_decoupled():
    cfg = OscPairConfig(alpha=0.0)
    assert generalized_momenta(cfg, 0.4, -0.9, 1.0, 2.0) == (0.4, -0.9)


def test_momenta_coupled_example():
    cfg = OscPairConfig(alpha=1.0)
    assert generalized_momenta(cfg, 0.0, 0.0, 1.0, 1.0) == (-1.0, 1.0)


def test_hamiltonian_origin():
    assert hamiltonian(UNIT, PhaseState(0.0, 0.0, 0.0, 0.0)) == 0.0


def test_hamiltonian_decoupled_example():
    cfg = OscPairConfig(alpha=0.0)
    assert hamiltonian(cfg, PhaseState(1.0, 0.0, 0.0, 1.0)) == 1.0


def _rhs(cfg, state):
    """The right side of the equations of motion, term by term."""
    x, y, xd, yd = state
    return np.asarray([xd, yd,
                       -cfg.omega_x**2 * x + 2.0 * cfg.alpha * yd / cfg.mass_x,
                       -cfg.omega_y**2 * y - 2.0 * cfg.alpha * xd / cfg.mass_y])


def test_eom_rhs_trivials():
    cfg = OscPairConfig(alpha=0.0)
    assert np.array_equal(_eom_matrix(cfg) @ (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0))
    assert np.array_equal(_eom_matrix(UNIT) @ (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


def test_eom_rhs_coupling_terms():
    w = _eom_matrix(OscPairConfig(alpha=0.5)) @ (0.2, -0.4, 0.7, 0.3)
    assert w[2] == -0.2 + 2.0 * 0.5 * 0.3
    assert w[3] == 0.4 - 2.0 * 0.5 * 0.7
    cfg = OscPairConfig(0.8, omega_x=1.3, omega_y=0.7, mass_x=2.0, mass_y=0.5)
    s = np.array([1.0, 0.3, -0.2, 0.4])
    assert np.allclose(_eom_matrix(cfg) @ s, _rhs(cfg, s), rtol=1e-15, atol=0.0)


def test_eigenfrequencies_values():
    assert normal_modes(0.0, FloatOps)[:2] == (1.0, 1.0)
    assert normal_modes(0.75, FloatOps)[:2] == (2.0, 0.5)
    wp, wm = normal_modes(0.5, FloatOps)[:2]
    assert abs(wp - (0.5 + np.sqrt(1.25))) <= 1e-15
    assert abs(wm - (-0.5 + np.sqrt(1.25))) <= 1e-15


def test_eigenfrequencies_negative_alpha_rejected():
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        normal_modes(-0.1, FloatOps)


@given(st.floats(0.0, 10.0))
def test_product_unity_closed_form(alpha):
    wp, wm = normal_modes(alpha, FloatOps)[:2]
    assert wp >= wm > 0.0
    assert abs(wp * wm - 1.0) <= 5e-13


@given(st.floats(0.0, 5.0))
def test_eigenfrequencies_vs_companion(alpha):
    wp, wm = normal_modes(alpha, FloatOps)[:2]
    op, om = verification._companion_frequencies(alpha)
    assert abs(wp - op) <= 1e-12 * max(1.0, wp)
    assert abs(wm - om) <= 1e-12


def test_ground_state_values():
    assert normal_modes(0.0, FloatOps)[2] == 1.0
    assert normal_modes(0.75, FloatOps)[2] == 1.25


def test_ground_state_perturbative():
    # sqrt(1 + a^2) - 1 - a^2/2 is O(a^4) with coefficient -1/8
    for alpha in (1e-1, 1e-2, 1e-3):
        dev = normal_modes(alpha, FloatOps)[2] - 1.0 - alpha**2 / 2.0
        assert abs(dev) <= 0.2 * alpha**4


def test_ground_state_monotone():
    alphas = np.linspace(0.0, 4.0, 40)
    e = [normal_modes(a, FloatOps)[2] for a in alphas]
    assert all(b > a for a, b in zip(e, e[1:]))


def test_integrate_decoupled_cosine():
    tr = integrate_eom(OscPairConfig(alpha=0.0), (1.0, 0.0, 0.0, 0.0),
                       t_end=10.0, dt=1e-3)
    assert np.max(np.abs(tr.states[:, 0] - np.cos(tr.t))) <= 1e-10


def test_integrate_energy_drift_bound():
    # declared contract: relative drift <= 1e-8 over t_end = 1000 at dt = 1e-3
    cfg = OscPairConfig(alpha=0.8)
    tr = integrate_eom(cfg, (1.0, 0.3, 0.0, 0.0), t_end=1000.0, dt=1e-3, stride=100)
    e = 0.5 * np.sum(tr.states**2, axis=1)
    assert np.max(np.abs(e - e[0])) / e[0] <= 1e-8


def test_integrate_general_pair_matches_stage_loop():
    # unequal masses and frequencies against a stage-by-stage RK4 through _rhs
    cfg = OscPairConfig(0.8, omega_x=1.3, omega_y=0.7, mass_x=2.0, mass_y=0.5)
    init, dt, n_steps, stride = np.array([1.0, 0.3, -0.2, 0.4]), 1e-2, 5000, 10
    tr = integrate_eom(cfg, init, n_steps * dt, dt, stride=stride)
    s, ref = init, [init]
    for step in range(1, n_steps + 1):
        k1 = _rhs(cfg, s)
        k2 = _rhs(cfg, s + 0.5 * dt * k1)
        k3 = _rhs(cfg, s + 0.5 * dt * k2)
        k4 = _rhs(cfg, s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0:
            ref.append(s)
    assert tr.states.shape == (n_steps // stride + 1, 4)
    assert np.max(np.abs(tr.states - np.array(ref))) <= 1e-10


def test_integrate_rejects_excessive_drift():
    with pytest.raises(RuntimeError):
        integrate_eom(UNIT, (1.0, 0.3, 0.0, 0.0), t_end=50.0, dt=0.8)


def test_trajectory_two_line_spectrum():
    wp, wm = verification.fit_trajectory_frequencies(0.75)
    assert abs(wp - 2.0) <= 1e-6
    assert abs(wm - 0.5) <= 1e-6
    assert abs(wp * wm - 1.0) <= 1e-6


def test_trajectory_fit_of_the_uncoupled_pair():
    # both modes at frequency 1: the samples span a plane, and the two
    # eigenvalues of the propagator off it are dropped
    wp, wm = verification.fit_trajectory_frequencies(0.0)
    assert abs(wp - 1.0) <= 1e-9
    assert abs(wm - 1.0) <= 1e-9


def test_normal_modes_are_within_a_few_ulp_of_their_exact_values():
    # log-uniform alpha over the range eigen accepts, where alpha^2 is
    # finite, against 60-digit decimal arithmetic on the float alpha. Over
    # 200 000 such draws omega_plus measured at most 1.21 ulp, omega_minus
    # 2.72 ulp and e0 0.84 ulp
    rng = np.random.Generator(np.random.Philox(key=41))
    alphas = np.exp(rng.uniform(math.log(1e-300), math.log(1.34e154), 4000)).tolist()
    bounds = (1.5, 3.0, 1.0)
    with localcontext() as ctx:
        ctx.prec = 60
        for alpha in alphas + [0.0, 1e-310, 1e7, 1e8, 1e154, 1.34e154]:
            x = Decimal(alpha)
            root = (1 + x * x).sqrt()
            exact = (x + root, 1 / (x + root), root)
            for got, want, bound in zip(normal_modes(alpha, FloatOps), exact, bounds):
                ulp = Decimal(math.ulp(float(want)))
                assert abs(Decimal(got) - want) <= Decimal(bound) * ulp, alpha
