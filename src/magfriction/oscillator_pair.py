"""The coupled electric/magnetic oscillator pair.

One electric oscillator (coordinate x) and one magnetic one (coordinate y)
coupled through alpha*(x*ydot - xdot*y). Momenta, Hamiltonian, equations of
motion, the exact eigenfrequencies and ground-state energy of the unit
pair, and a fixed-step integrator used as the trajectory oracle.
"""

import math
from collections import namedtuple

from magfriction import _kernels, lazy_import
from magfriction._ieee import FloatOps

np = lazy_import("numpy")


class OscPairConfig(namedtuple("OscPairConfig", "alpha omega_x omega_y mass_x mass_y")):
    """Coupling alpha >= 0 plus per-oscillator frequency and mass."""

    __slots__ = ()

    def __new__(cls, alpha, omega_x=1.0, omega_y=1.0, mass_x=1.0, mass_y=1.0):
        if not math.isfinite(alpha) or alpha < 0.0:
            raise ValueError("alpha must be finite and >= 0")
        for name, value in (("omega_x", omega_x), ("omega_y", omega_y),
                            ("mass_x", mass_x), ("mass_y", mass_y)):
            if value <= 0.0:
                raise ValueError("%s must be positive" % name)
        return super().__new__(cls, alpha, omega_x, omega_y, mass_x, mass_y)


class PhaseState(namedtuple("PhaseState", "x y p_x p_y")):
    """Canonical coordinates and generalized momenta."""

    __slots__ = ()


def generalized_momenta(cfg, x_dot, y_dot, x, y):
    """Velocities to momenta: p_x = m_x*xdot - alpha*y, p_y = m_y*ydot + alpha*x."""
    return (cfg.mass_x * x_dot - cfg.alpha * y, cfg.mass_y * y_dot + cfg.alpha * x)


def hamiltonian(cfg, s):
    r"""Energy of a phase-space state.

    H = (p_x + alpha*y)^2/(2 m_x) + (p_y - alpha*x)^2/(2 m_y)
        + m_x w_x^2 x^2/2 + m_y w_y^2 y^2/2
    which for the unit pair is (1/2)[(p_x+alpha*y)^2 + (p_y-alpha*x)^2
    + x^2 + y^2]. Numerically equal to the plain oscillator energy in
    velocity variables; the coupling shifts momenta, not the energy.
    """
    a = cfg.alpha
    kx = (s.p_x + a * s.y) ** 2 / (2.0 * cfg.mass_x)
    ky = (s.p_y - a * s.x) ** 2 / (2.0 * cfg.mass_y)
    vx = 0.5 * cfg.mass_x * cfg.omega_x**2 * s.x**2
    vy = 0.5 * cfg.mass_y * cfg.omega_y**2 * s.y**2
    return kx + ky + vx + vy


def eom_rhs(cfg, state):
    """Right side of the first-order system on (x, y, xdot, ydot).

    xddot = -w_x^2 x + 2 alpha ydot/m_x, yddot = -w_y^2 y - 2 alpha xdot/m_y.
    """
    x, y, xd, yd = state
    return np.asarray(
        [
            xd,
            yd,
            -cfg.omega_x**2 * x + 2.0 * cfg.alpha * yd / cfg.mass_x,
            -cfg.omega_y**2 * y - 2.0 * cfg.alpha * xd / cfg.mass_y,
        ]
    )


def normal_modes(alpha, ops):
    """Normal modes of the unit pair over a column of alpha, ``ops`` as in
    friction_forces: (omega_plus, omega_minus, e0) with omega_pm =
    +-alpha + sqrt(1+alpha^2) and the zero-point energy e0 =
    (omega_plus + omega_minus)/2 = sqrt(1+alpha^2)."""
    ops.fail(alpha < 0.0, ValueError("alpha must be >= 0"))
    root = ops.sqrt(1.0 + alpha * alpha)
    return alpha + root, -alpha + root, root


def eigenfrequencies(alpha):
    """Normal-mode frequencies of the unit pair: +-alpha + sqrt(1+alpha^2).

    Their product is exactly 1 for every coupling.
    """
    return normal_modes(alpha, FloatOps)[:2]


def ground_state_energy(alpha):
    """Zero-point energy (omega_plus + omega_minus)/2 = sqrt(1 + alpha^2)."""
    return normal_modes(alpha, FloatOps)[2]


class Trajectory(namedtuple("Trajectory", "t states")):
    """Sampled states: t (n,), states (n, 4) columns x, y, xdot, ydot."""

    __slots__ = ()


def integrate_eom(cfg, init, t_end, dt, drift_tol=1e-8, stride=1):
    r"""Fixed-step fourth-order integration of the pair dynamics.

    Parameters
    ----------
    cfg : OscPairConfig
    init : array_like
        Initial (x, y, xdot, ydot).
    t_end, dt : float
        Horizon and step; the step count is rounded to cover t_end.
    drift_tol : float
        Relative energy-drift bound checked at the end.
    stride : int
        Keep every stride-th step in the output.

    Returns
    -------
    Trajectory

    Raises
    ------
    RuntimeError
        If the relative energy drift exceeds drift_tol (step too large).
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    n_steps += (-n_steps) % stride
    # eom_rhs as the matrix of the linear system s' = A s
    a = cfg.alpha
    A = np.asarray(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-cfg.omega_x**2, 0.0, 0.0, 2.0 * a / cfg.mass_x],
            [0.0, -cfg.omega_y**2, -2.0 * a / cfg.mass_y, 0.0],
        ]
    )
    init = np.asarray(init, dtype=np.float64).reshape(4, 1)
    states = _kernels.rk4_batch(A[None], init, np.asarray([dt]), n_steps, stride)[:, :, 0]
    t = np.arange(states.shape[0]) * (dt * stride)

    e0 = _velocity_energy(cfg, states[0])
    e1 = _velocity_energy(cfg, states[-1])
    scale = max(abs(e0), 1e-30)
    if abs(e1 - e0) / scale > drift_tol:
        raise RuntimeError(
            "energy drift %.3e exceeds %.3e; reduce dt" % (abs(e1 - e0) / scale, drift_tol)
        )
    return Trajectory(t, states)


def _velocity_energy(cfg, s):
    # same value the Hamiltonian takes; coupling terms cancel in velocity form
    x, y, xd, yd = s
    return 0.5 * (
        cfg.mass_x * xd * xd
        + cfg.mass_y * yd * yd
        + cfg.mass_x * cfg.omega_x**2 * x * x
        + cfg.mass_y * cfg.omega_y**2 * y * y
    )
