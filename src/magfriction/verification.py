"""Oracle batteries cross-checking every closed form in the library.

Each check recomputes a result by an independent route (quadrature,
lattice discretization, Monte-Carlo, a least-squares fit of the
trajectory's propagator, series summation, finite differences) and
compares against the production closed form at a stated tolerance; a
closed form the CLI prints is checked through the very function the CLI
calls, on Python floats (``_ieee.FloatOps``) or on a grid (``_on_grid``).
The CLI `verify` subcommand and the test suite both run these.

The independent routes live here too, beside the checks that run them,
so that the route modules hold only what a CLI command executes: the
dipole fields in vector form and the retarded field, the oscillator
pair's Hamiltonian and RK4 trajectories, the certified Matsubara mode
sum, the imaginary-frequency response h(K^2) and its inversion, the
sharp-pair thermal factor, and the general-r coupling tensors, their
Fourier kernels and the half-space Monte-Carlo integral.
"""

import functools
import math
from collections import namedtuple

import numpy as np

from magfriction import (
    _kernels,
    dipole_fields,
    friction_forces,
    geometry_coupling,
    materials_spectral,
    matsubara,
    numerics,
    oscillator_pair,
    response_kinetics,
    units,
)
from magfriction._ieee import ArrayOps, FloatOps


class Check:
    """One named oracle comparison; run() returns (ok, detail)."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def run(self):
        try:
            return self.fn()
        except Exception as exc:
            return False, "raised %s: %s" % (type(exc).__name__, exc)


def _ok(err, tol, label="err"):
    return err <= tol, "%s=%.3g tol=%.3g" % (label, err, tol)


def _on_grid(fn, *cols):
    """fn(*cols, ops) on the grid ops of the CLI's sweeps, at the shape the
    columns broadcast to; the first failing point raises."""
    ops = ArrayOps(np.broadcast_shapes(*map(np.shape, cols)))
    out = fn(*cols, ops)
    ops.raise_first()
    return out


# ---------------------------------------------------------------- numerics


def check_quad_cos6():
    r = numerics.quad_finite(lambda x: np.cos(x) ** 6, 0.0, 2.0 * np.pi, tol=1e-13)
    return _ok(abs(r.value - 5.0 * np.pi / 8.0), 1e-12)


def check_quad_linear():
    r = numerics.quad_finite(lambda x: x, 0.0, 1.0)
    return _ok(abs(r.value - 0.5), 1e-13)


def check_semi_lorentz_like():
    r = numerics.quad_semi_infinite(lambda u: 1.0 / (u * u + 1.0) ** 3, 0.0, tol=1e-11)
    return _ok(abs(r.value - 3.0 * np.pi / 16.0), 1e-10)


def check_semi_quartic_thermal():
    def f(x):
        # the Kronrod nodes are interior, so x = 0 is never sampled
        em = np.exp(-x)
        return x**4 * em / (1.0 - em) ** 2

    r = numerics.quad_semi_infinite(f, 0.0, tol=1e-11)
    return _ok(abs(r.value - 4.0 * np.pi**4 / 15.0), 1e-10)


def check_semi_factorial():
    r = numerics.quad_semi_infinite(lambda q: q**5 * np.exp(-2.0 * q), 0.0, tol=1e-11)
    return _ok(abs(r.value - 1.875), 1e-10)


def check_series_zeta4():
    val = numerics.series_sum(
        lambda n: 1.0 / n**4, lambda n: 1.0 / (3.0 * n**3), tol=1e-13
    )
    return _ok(abs(val - np.pi**4 / 90.0), 1e-12)


def _x_squared(u):
    w = u[0] ** 2
    return float(np.sum(w)), float(np.sum(w * w))


def check_mc_deterministic():
    a = numerics.mc_integrate(_x_squared, 1, seed=11)
    b = numerics.mc_integrate(_x_squared, 1, seed=11)
    if a.value != b.value or a.std_error != b.std_error:
        return False, "same seed gave different bits"
    c = numerics.mc_integrate(lambda u: (7.0 * u.shape[1], 49.0 * u.shape[1]), 1, seed=3)
    return _ok(abs(c.value - 7.0) + c.std_error, 1e-12, "const")


# ---------------------------------------------------------------- fields


def _separation(r):
    """r as a float64 array and its length, refusing zero; r is one
    3-vector, shape (3,), or a stack of them, shape (n, 3), and the length
    has shape () or (n,). math.hypot scales its arguments, so a tiny
    separation does not underflow to zero as sqrt(r.r) does. One vector's
    length is a numpy float, so that a power of it leaves the float range
    as inf, not as OverflowError, and a stack's is an array; a form takes
    each power at that shape and adds axes to it only afterwards, so one
    vector keeps the numpy-scalar powers (an array power may differ from
    them in the last bit)."""
    r = np.asarray(r, dtype=np.float64)
    rn = np.array([math.hypot(*v) for v in r.reshape(-1, r.shape[-1]).tolist()])
    rn = rn.reshape(r.shape[:-1])[()]
    if np.any(rn == 0.0):
        raise ValueError("zero separation")
    return r, rn


def magnetic_field_full(P, zeta, r):
    r"""Magnetic field of an oscillating electric dipole, retardation kept.

    Parameters
    ----------
    P : array_like
        Electric dipole moment (complex amplitude allowed).
    zeta : complex
        Imaginary wavenumber i*omega/c of the oscillation.
    r : array_like
        Separation vector from the dipole to the field point, |r| > 0,
        shape (3,), or a stack of them, shape (n, 3).

    Returns
    -------
    ndarray
        Complex field -zeta*(1 + zeta*r)*exp(-zeta*r)*(rhat x P)/r^2,
        one per row of a stack.
    """
    r, rn = _separation(r)
    zr = zeta * rn
    k = -zeta * (1.0 + zr) * np.exp(-zr)
    return k[..., None] * np.cross(r / rn[..., None], np.asarray(P)) / (rn**2)[..., None]


def magnetic_field_quasistatic(P_dot, r):
    r"""Biot-Savart field of a changing electric dipole moment.

    Returns (P_dot x rhat)/r^2, the zeta*r -> 0 limit of the full field.
    r is one separation, shape (3,), or a stack of n, shape (n, 3), and
    P_dot broadcasts against it; a stack gives one field per row.
    """
    r, rn = _separation(r)
    return np.cross(np.asarray(P_dot), r / rn[..., None]) / (rn**2)[..., None]


def electric_field_quasistatic(M_dot, r):
    r"""Electric field of a changing magnetic dipole moment.

    Mirror image of the Biot-Savart form: (M_dot x rhat)/r^2, with rhat
    directed from the electric toward the magnetic dipole. r and M_dot as
    in magnetic_field_quasistatic.
    """
    r, rn = _separation(r)
    return np.cross(np.asarray(M_dot), r / rn[..., None]) / (rn**2)[..., None]


def coupling_alpha(r):
    """The interaction coefficient 1/(2 r^2) for separation vector r, or
    one per row of a stack r of shape (n, 3)."""
    _, rn = _separation(r)
    return 1.0 / (2.0 * rn**2)


def interaction_energies(P, P_dot, M, M_dot, r):
    r"""Mutual energies of an electric and a magnetic dipole pair.

    Parameters
    ----------
    P, P_dot : array_like
        Electric moment and its rate.
    M, M_dot : array_like
        Magnetic moment and its rate.
    r : array_like
        Separation vector, electric to magnetic, |r| > 0.

    Returns
    -------
    (float, float)
        (-2*alpha*(P_dot x rhat).M, -2*alpha*(M_dot x rhat).P) with
        alpha = 1/(2 r^2); the two Lagrangian pieces with sign flipped to
        energies. For P along x, M along y, rhat = z these reduce to
        (2*alpha*xdot*y, -2*alpha*x*ydot).
    """
    r, rn = _separation(r)
    rhat = r / rn
    a = 1.0 / (2.0 * rn**2)
    e_h = -2.0 * a * float(np.dot(np.cross(np.asarray(P_dot), rhat), np.asarray(M)))
    e_e = -2.0 * a * float(np.dot(np.cross(np.asarray(M_dot), rhat), np.asarray(P)))
    return e_h, e_e


def check_field_limit_sweep():
    P = np.asarray([1.0, 0.0, 0.0])
    r = np.asarray([0.0, 0.0, 1.0])
    worst = 0.0
    for zr in (1e-2, 1e-3, 1e-4):
        zeta = 1j * zr
        full = magnetic_field_full(P, zeta, r)
        quasi = magnetic_field_quasistatic(zeta * P, r)
        rel = np.max(np.abs(full - quasi)) / np.max(np.abs(quasi))
        worst = max(worst, rel / zr)
    # the deviation is quadratic in zeta*r, so C = 0.01 holds with margin
    return _ok(worst, 1e-2, "dev/|zr|")


def check_field_hand_values():
    h = magnetic_field_quasistatic([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    e = electric_field_quasistatic([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    err = np.max(np.abs(h - [0.0, -1.0, 0.0])) + np.max(np.abs(e - [1.0, 0.0, 0.0]))
    return _ok(err, 1e-15)


def check_field_orthogonality():
    # each draw is a rate and then a separation, as 50 pairs of 3-vectors
    rng = np.random.Generator(np.random.Philox(key=5))
    pd, r = rng.normal(size=(50, 2, 3)).transpose(1, 0, 2)
    keep = np.linalg.norm(r, axis=1) >= 1e-3
    pd, r = pd[keep], r[keep]
    h = magnetic_field_quasistatic(pd, r)
    hn = np.linalg.norm(h, axis=1)
    worst = max(
        np.max(np.abs(np.sum(h * r, axis=1)) / (hn * np.linalg.norm(r, axis=1) + 1e-30)),
        np.max(np.abs(np.sum(h * pd, axis=1)) / (hn * np.linalg.norm(pd, axis=1) + 1e-30)),
    )
    return _ok(worst, 1e-12, "cos")


def check_axial_outputs():
    # the six columns the fields command prints on the axis r = (0, 0, d),
    # on the grid ops, against the vector forms there, over d of both signs
    rng = np.random.Generator(np.random.Philox(key=6))
    ds = 10.0 ** rng.uniform(-3.0, 3.0, 12)
    ds[::2] *= -1.0
    fields = _on_grid(dipole_fields.axial_fields, ds)
    cells = np.array(fields + _on_grid(geometry_coupling.axial_coupling, ds))
    r = np.zeros((ds.size, 3))
    r[:, 2] = ds
    psi, G = coupling_psi(r), G_tensor(r)
    route = np.array([coupling_alpha(r), magnetic_field_quasistatic([1.0, 0.0, 0.0], r)[:, 1],
                      electric_field_quasistatic([0.0, 1.0, 0.0], r)[:, 0], psi[:, 0, 1],
                      G[:, 0, 0], G[:, 2, 2]])
    return _ok(float(np.max(np.abs(cells - route) / np.abs(route))), 1e-15, "rel")


def check_interaction_canonical():
    # x-electric, y-magnetic, z-separation; rates are the oscillator velocities
    x, xd, y, yd = 0.7, -0.4, 0.25, 1.1
    rvec = [0.0, 0.0, 1.3]
    a = 1.0 / (2.0 * 1.3**2)
    e_h, e_e = interaction_energies(
        [x, 0, 0], [xd, 0, 0], [0, y, 0], [0, yd, 0], rvec
    )
    err = abs(e_h - 2.0 * a * xd * y) + abs(e_e - (-2.0 * a * x * yd))
    return _ok(err, 1e-15)


def check_interaction_total_derivative():
    # the two Lagrangian pieces differ by d(xy)/dt along any trajectory
    a = 1.0 / 2.0
    w1, w2 = 1.1, 0.9

    def x(t):
        return np.cos(w1 * t)

    def y(t):
        return np.sin(w2 * t)

    def xd(t):
        return -w1 * np.sin(w1 * t)

    def yd(t):
        return w2 * np.cos(w2 * t)

    t0, t1 = 0.3, 2.1
    ia = numerics.quad_finite(lambda t: -2.0 * a * xd(t) * y(t), t0, t1, tol=1e-12)
    ib = numerics.quad_finite(lambda t: 2.0 * a * x(t) * yd(t), t0, t1, tol=1e-12)
    boundary = 2.0 * a * (x(t1) * y(t1) - x(t0) * y(t0))
    return _ok(abs(ib.value - ia.value - boundary), 1e-10)


# ---------------------------------------------------------------- oscillator


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


def _eom_matrix(cfg):
    """The pair dynamics as the linear system s' = A s on (x, y, xdot, ydot):
    xddot = -w_x^2 x + 2 alpha ydot/m_x, yddot = -w_y^2 y - 2 alpha xdot/m_y."""
    a = cfg.alpha
    return np.asarray(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-cfg.omega_x**2, 0.0, 0.0, 2.0 * a / cfg.mass_x],
            [0.0, -cfg.omega_y**2, -2.0 * a / cfg.mass_y, 0.0],
        ]
    )


class Trajectory(namedtuple("Trajectory", "t states")):
    """Sampled states: t (n,), states (n, 4) columns x, y, xdot, ydot."""

    __slots__ = ()


# relative energy drift integrate_eom allows over its horizon
_DRIFT_TOL = 1e-8


def integrate_eom(cfg, init, t_end, dt, stride=1):
    r"""Fixed-step fourth-order integration of the pair dynamics.

    Parameters
    ----------
    cfg : OscPairConfig
    init : array_like
        Initial (x, y, xdot, ydot).
    t_end, dt : float
        Horizon and step; the step count is rounded to cover t_end.
    stride : int
        Keep every stride-th step in the output.

    Returns
    -------
    Trajectory

    Raises
    ------
    RuntimeError
        If the relative energy drift at the end exceeds _DRIFT_TOL (step
        too large).
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    n_steps += (-n_steps) % stride
    init = np.asarray(init, dtype=np.float64).reshape(4, 1)
    states = _kernels.rk4_batch(
        _eom_matrix(cfg)[None], init, np.asarray([dt]), n_steps, stride)[:, :, 0]
    t = np.arange(states.shape[0]) * (dt * stride)

    e0 = _velocity_energy(cfg, states[0])
    e1 = _velocity_energy(cfg, states[-1])
    scale = max(abs(e0), 1e-30)
    if abs(e1 - e0) / scale > _DRIFT_TOL:
        raise RuntimeError(
            "energy drift %.3e exceeds %.3e; reduce dt" % (abs(e1 - e0) / scale, _DRIFT_TOL)
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


def _companion_frequencies(alpha):
    # eigenvalues of the unit pair's first-order system
    ev = np.linalg.eigvals(_eom_matrix(OscPairConfig(alpha)))
    freqs = np.sort(np.abs(np.imag(ev)))
    return freqs[-1], freqs[0]


def check_eigenfrequencies_oracle():
    worst = 0.0
    for alpha in (0.75, 0.5, 0.0, 2.0):
        wp, wm = oscillator_pair.normal_modes(alpha, FloatOps)[:2]
        op, om = _companion_frequencies(alpha)
        worst = max(worst, abs(wp - op), abs(wm - om))
    return _ok(worst, 1e-12)


def check_product_unity():
    rng = np.random.Generator(np.random.Philox(key=2))
    worst = 0.0
    for alpha in rng.uniform(0.0, 5.0, size=50):
        wp, wm = oscillator_pair.normal_modes(alpha, FloatOps)[:2]
        worst = max(worst, abs(wp * wm - 1.0))
    return _ok(worst, 1e-13)


def fit_trajectory_frequencies(alpha):
    """Integrate the unit pair and extract both mode frequencies from the
    trajectory: the least-squares propagator P of the samples, s[k+1] =
    P s[k], has eigenvalues exp(+-i omega dt stride) per mode. Eigenvalues
    near 0 belong to directions the samples do not span (at alpha = 0 both
    modes have frequency 1 and the samples span a plane) and are dropped."""
    cfg = OscPairConfig(alpha)
    wp = oscillator_pair.normal_modes(alpha, FloatOps)[0]
    dt = 0.0125 / wp
    n_steps, stride = 32000, 16
    traj = integrate_eom(
        cfg, [1.0, 0.3, 0.0, 0.0], n_steps * dt, dt, stride=stride
    )
    s = traj.states
    lam = np.linalg.eigvals(np.linalg.lstsq(s[:-1], s[1:], rcond=None)[0])
    freqs = np.abs(np.angle(lam[np.abs(lam) > 0.5])) / (dt * stride)
    return freqs.max(), freqs.min()


def check_trajectory_spectrum():
    worst = 0.0
    for alpha in (0.75, 0.3):
        wp, wm = oscillator_pair.normal_modes(alpha, FloatOps)[:2]
        fp, fm = fit_trajectory_frequencies(alpha)
        worst = max(worst, abs(fp - wp), abs(fm - wm), abs(fp * fm - 1.0))
    return _ok(worst, 1e-6)


def check_energy_drift():
    cfg = OscPairConfig(0.75)
    traj = integrate_eom(cfg, [1.0, 0.0, 0.0, 0.5], 1000.0, 1e-3, stride=100)
    e = 0.5 * np.sum(traj.states**2, axis=1)
    return _ok(np.max(np.abs(e - e[0])) / e[0], 1e-8, "drift")


def check_ground_state_perturbative():
    worst = 0.0
    for alpha in (1e-1, 1e-2, 1e-3):
        excess = oscillator_pair.normal_modes(alpha, FloatOps)[2] - 1.0 - alpha**2 / 2.0
        worst = max(worst, abs(excess) / alpha**4)
    # quartic remainder: |E0 - 1 - a^2/2| <= a^4/8
    return _ok(worst, 0.2, "remainder/a^4")


def check_legendre_round_trip():
    cfg = OscPairConfig(0.8, omega_x=1.3, omega_y=0.7, mass_x=2.0, mass_y=0.5)
    x, y, xd, yd = 0.4, -0.2, 0.9, 0.3
    px, py = generalized_momenta(cfg, xd, yd, x, y)
    h = hamiltonian(cfg, PhaseState(x, y, px, py))
    direct = _velocity_energy(cfg, (x, y, xd, yd))
    return _ok(abs(h - direct), 1e-14)


# ---------------------------------------------------------------- matsubara


class TruncationError(RuntimeError):
    """Certified tail bound exceeds the grid's tail_tol."""


class MatsubaraGrid(namedtuple("MatsubaraGrid", "beta n_max tail_tol")):
    """Inverse temperature (a float or a 1-D column), mode truncation, and
    tail tolerance."""

    __slots__ = ()

    def __new__(cls, beta, n_max, tail_tol=1e-9):
        if np.min(beta) <= 0.0:
            raise ValueError("beta must be positive")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if tail_tol <= 0.0:
            raise ValueError("tail_tol must be positive")
        return super().__new__(cls, beta, n_max, tail_tol)


def matsubara_frequency(beta, n):
    """Thermal frequency K = 2*pi*n/beta; odd in n."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return 2.0 * math.pi * n / beta


def reference_mode_average(u):
    """Mean squared mode amplitude 1/(u^2 + 1) of the unit oscillator,
    u the mode frequency over the oscillator frequency."""
    return 1.0 / (u * u + 1.0)


def mode_free_energy(alpha, u, beta):
    """Free energy of a single mode: (2*alpha^2/beta) * u^2/(u^2+1)^2."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return (2.0 * alpha * alpha / beta) * u * u / (u * u + 1.0) ** 2


def induced_free_energy(alpha, grid):
    r"""Total induced free energy: mode sum plus analytic tail, the oracle
    of matsubara.free_energy.

    Modes n in [-n_max, n_max] are summed exactly (even in n, n=0 gives
    zero). Past the truncation each term is replaced by its 1/u^2
    envelope, summed in closed form through the trigamma function; the
    replacement error is bounded by 3/u^4 per term, summed through the
    pentagamma function, and that certified bound must sit below the
    grid's tail_tol.

    The grid's beta may be a 1-D column: one `_kernels.mode_sum` call sums
    the modes of every beta, and each element is the scalar grid's value,
    bit for bit, its checks holding for each beta in turn.

    Returns
    -------
    float, or an array shaped like a column beta

    Raises
    ------
    TruncationError
        Bound above tail_tol, or the truncation is too early for the
        envelope bound to apply (first dropped mode below the knee u=1),
        for the first beta of the column where either happens.
    """
    column = np.ndim(grid.beta) > 0
    a2 = alpha * alpha
    if a2 == 0.0:
        return np.zeros(np.shape(grid.beta)) if column else 0.0
    partial = _kernels.mode_sum(alpha, grid.beta, grid.n_max)
    trigamma = numerics.polygamma(1, grid.n_max + 1.0)
    pentagamma = numerics.polygamma(3, grid.n_max + 1.0)
    totals = []
    for beta, part in zip(np.ravel(grid.beta).tolist(), np.ravel(partial).tolist()):
        scale = beta / (2.0 * math.pi)
        pref = 2.0 * (2.0 * a2 / beta)
        tail = pref * scale**2 * trigamma
        bound = pref * scale**4 * 3.0 * pentagamma / 6.0
        if bound > grid.tail_tol:
            raise TruncationError(
                "tail bound %.3e exceeds tail_tol %.3e; raise n_max" % (bound, grid.tail_tol)
            )
        # envelope bound needs the first dropped mode past the knee
        if matsubara_frequency(beta, grid.n_max + 1) < 1.0:
            raise TruncationError("n_max truncates below u = 1; bound not certified")
        totals.append(part + tail)
    return np.array(totals) if column else totals[0]


def check_mode_average_lattice():
    # periodic imaginary-time lattice, N slices; quadratic-form solve. The
    # periodic tridiagonal matrix is circulant: its first column holds the
    # diagonal and the two neighbours, one of them in the corner
    beta, N = 2.0 * np.pi, 10_000
    eps = beta / N
    col = np.zeros(N)
    col[0] = 2.0 / eps + eps
    col[1] = col[-1] = -1.0 / eps
    worst = 0.0
    for n in (1, 3):
        K = matsubara_frequency(beta, n)
        f = np.exp(1j * K * eps * np.arange(N))
        v = numerics.circulant_solve(col, f)
        lattice = beta * (eps / beta) ** 2 * np.real(np.vdot(f, v))
        target = reference_mode_average(K)
        worst = max(worst, abs(lattice - target) / target)
    return _ok(worst, 1e-3)


def check_mode_free_energy_moments():
    # Gauss-Hermite moments of the imaginary bilinear coupling between the
    # real and imaginary parts of one +-K Fourier pair of both coordinates
    alpha, beta = 0.7, 3.0
    nodes, weights = np.polynomial.hermite_e.hermegauss(8)
    worst = 0.0
    for u in (0.5, 1.0, 2.0):
        sig = np.sqrt(reference_mode_average(u) / (2.0 * beta))
        z = nodes * sig
        w = weights / np.sqrt(2.0 * np.pi)
        bx, cx, by, cy = np.meshgrid(z, z, z, z, indexing="ij")
        wt = (
            w[:, None, None, None]
            * w[None, :, None, None]
            * w[None, None, :, None]
            * w[None, None, None, :]
        )
        bil = 4.0 * alpha * beta * u * (bx * cy - cx * by)
        pair_f2 = 0.5 * np.sum(wt * bil * bil) / beta
        target = 2.0 * mode_free_energy(alpha, u, beta)
        worst = max(worst, abs(pair_f2 - target) / target)
    return _ok(worst, 1e-12)


def check_free_energy_brute_force():
    alpha, beta = 0.1, 10.0
    brute = _kernels.mode_sum(alpha, beta, 1_000_000)
    grid = MatsubaraGrid(beta, 20_000, tail_tol=1e-10)
    val = induced_free_energy(alpha, grid)
    # brute force still misses its own tail ~ 1/n_max
    return _ok(abs(val - brute), 2e-6, "diff")


def check_free_energy_limits():
    f_cold = induced_free_energy(0.1, MatsubaraGrid(1000.0, 60_000, 1e-9))
    ok1 = abs(f_cold - 0.005) / 0.005 <= 1e-4
    f_hot = induced_free_energy(0.3, MatsubaraGrid(1e-6, 10, 1e-9))
    ok2 = abs(f_hot) <= 1e-6 * 0.3**2
    return ok1 and ok2, "cold rel=%.3g hot=%.3g" % (abs(f_cold - 0.005) / 0.005, f_hot)


def check_free_energy_closed_form():
    # production closed form against the certified mode sum plus tail
    alpha = 0.3
    betas = np.logspace(-3.0, 3.0, 7)
    # one mode sum over the column of beta
    summed = induced_free_energy(alpha, MatsubaraGrid(betas, 200_000, tail_tol=1e-10))
    worst = 0.0
    for beta, value in zip(betas, summed.tolist()):
        worst = max(worst, abs(matsubara.free_energy(alpha, beta, FloatOps) - value))
    return _ok(worst, 1e-9, "diff")


def check_mode_integral():
    r = numerics.quad_semi_infinite(lambda u: u * u / (u * u + 1.0) ** 2, 0.0, tol=1e-11)
    return _ok(abs(2.0 * r.value - np.pi / 2.0), 1e-10)


# ---------------------------------------------------------------- response


def thermal_H(omega1, omega2, alpha1, alpha2, beta):
    r"""Sharp-pair thermal factor.

    H = w1 w2 a1 a2 / (4 sinh(b w1/2) sinh(b w2/2)); symmetric
    under exchange, dies exponentially at low temperature.
    """
    if np.min(beta) <= 0.0:
        raise ValueError("beta must be positive")
    x1 = beta * omega1 / 2.0
    x2 = beta * omega2 / 2.0
    return omega1 * omega2 * alpha1 * alpha2 / (4.0 * np.sinh(x1) * np.sinh(x2))


def check_remainder_identity():
    # 1000 draws of (w1, w2, t, n1, n2), each row the five uniforms one
    # draw takes in turn from the stream, scaled onto its range
    u = np.random.Generator(np.random.Philox(key=9)).random((1000, 5))
    lo = np.array([0.2, 0.2, 0.0, 0.0, 0.0])
    hi = np.array([3.0, 3.0, 10.0, 2.0, 2.0])
    w1, w2, t, n1, n2 = (lo + (hi - lo) * u).T
    o1 = response_kinetics.OscState(w1, n1)
    o2 = response_kinetics.OscState(w2, n2)
    full = response_kinetics.M_full(o1, o2, t)
    red = response_kinetics.M_reduced(o1, o2, t)
    A, B = o1.occupation_factor, o2.occupation_factor
    rem = 0.5j * (w1 - w2) ** 2 * (
        A * np.cos(w1 * t) * np.sin(w2 * t) + B * np.cos(w2 * t) * np.sin(w1 * t)
    )
    return _ok(float(np.max(np.abs(full - red - rem))), 1e-12)


def check_phi_two_sinusoid():
    beta = 1.7
    o1 = response_kinetics.OscState.thermal(1.3, beta, mass=0.8)
    o2 = response_kinetics.OscState.thermal(0.6, beta, mass=1.4)
    a1 = 1.0 / (o1.mass * o1.omega**2)
    a2 = 1.0 / (o2.mass * o2.omega**2)
    H = thermal_H(o1.omega, o2.omega, a1, a2, beta)
    cm, cp, wm, wp = response_kinetics.c_plus_minus(o1, o2, beta, H)
    t = np.linspace(0.0, 20.0, 400)
    phi = response_kinetics.response_phi(o1, o2, t)
    recon = cm * np.sin(wm * t) + cp * np.sin(wp * t)
    return _ok(np.max(np.abs(phi - recon)), 1e-10)


def check_delta_normalization():
    eta = np.array([1.0, 0.1, 0.01])
    r = numerics.quad_semi_infinite(
        lambda w, eta: 2.0 * w * response_kinetics.nascent_delta_g(w, eta), 0.0,
        tol=1e-10, panel_scale=eta, args=(eta,),
    )
    return _ok(float(np.max(np.abs(r.value - np.pi))), 1e-8)


def check_cos_sin_time_domain():
    # panels of half the sum frequency's period, out to the first edge T
    # where the tail bound Int_T^inf t e^{-eta t} dt = e^{-eta T}(T/eta +
    # 1/eta^2) is at most 1e-12; the bound is added to the error
    w1, w2, eta = 1.0, 1.3, 0.05
    closed = response_kinetics.nascent_delta_cos_sin(w1, w2, eta)
    width = math.pi / (w1 + w2)
    n, tail = 0, math.inf
    while tail > 1e-12:
        n += 1
        T = n * width
        tail = math.exp(-eta * T) * (T / eta + 1.0 / eta**2)
    edges = width * np.arange(n + 1)
    r = numerics.quad_finite(
        lambda t: t * np.exp(-eta * t) * np.cos(w1 * t) * np.sin(w2 * t),
        edges[:-1], edges[1:], tol=1e-13,
    )
    return _ok(abs(math.fsum(r.value.tolist()) - closed) + tail, 1e-9)


def check_g_time_domain():
    w, eta = 0.8, 0.3
    closed = response_kinetics.nascent_delta_g(w, eta)
    r = numerics.quad_semi_infinite(
        lambda t: t * np.exp(-eta * t) * np.sin(w * t), 0.0, tol=1e-11,
        panel_scale=1.0 / eta,
    )
    return _ok(abs(r.value - closed), 1e-9)


def check_coth_limit():
    beta, w1 = 1.0, 1.0
    omega2 = w1 - 1e-5
    diff = response_kinetics.coth_difference_limit(beta, w1, omega2)
    limit = -(beta * (w1 - omega2) / 2.0) / np.sinh(beta * w1 / 2.0) ** 2
    return _ok(abs(diff / limit - 1.0), 1e-4, "ratio-1")


def sharp_amplitudes_via_pipeline(pairs, beta):
    """Assemble the sharp friction amplitude of each (osc1, osc2, G) in
    ``pairs`` from the finite-eta kernels and extrapolate eta -> 0;
    independent of the closed form. The integrals of every pair and eta
    are one batch of quad_finite."""

    def integrand(w2, w1, n1, m1, m2, G, eta):
        # w2 holds the nodes of the quadrature panels, the rest their
        # integrals' parameter columns
        osc1 = response_kinetics.OscState(w1, n1, m1)
        o2 = response_kinetics.OscState.thermal(w2, beta, mass=m2)
        d = response_kinetics.coupling_D(osc1, o2)
        ba = o2.occupation_factor - osc1.occupation_factor
        return (
            -G
            * (d / 2.0)
            * w1
            * w2
            * ba
            * response_kinetics.nascent_delta_g(w1 - w2, eta)
        )

    rungs = np.asarray([1e-2, 1e-3, 1e-4])
    params = np.repeat(
        [(o1.omega, o1.n_mean, o1.mass, o2.mass, G) for o1, o2, G in pairs], len(rungs), axis=0
    ).T
    w1 = params[0]
    etas = np.tile(rungs, len(pairs)) * w1
    half = 0.6 * w1
    r = numerics.quad_finite(integrand, w1 - half, w1 + half, tol=1e-12, args=(*params, etas))
    return [numerics.linear_extrapolate_zero(e, v)
            for e, v in zip(etas.reshape(-1, len(rungs)), r.value.reshape(-1, len(rungs)))]


def check_sharp_amplitude_pipeline():
    beta = 1.0
    pairs = [
        (response_kinetics.OscState.thermal(w1, beta, mass=m1),
         response_kinetics.OscState.thermal(w1, beta, mass=m2), G)
        for w1, m1, m2, G in ((1.0, 1.0, 1.0, 1.0), (1.4, 0.7, 2.0, 0.3))
    ]
    worst = 0.0
    for (o1, o2, G), pipe in zip(pairs, sharp_amplitudes_via_pipeline(pairs, beta)):
        closed = response_kinetics.sharp_friction_amplitude(o1, o2, beta, G)
        worst = max(worst, abs(pipe - closed) / abs(closed))
    return _ok(worst, 1e-4, "rel")


def check_sharp_amplitude_value():
    o = response_kinetics.OscState.thermal(1.0, 1.0)
    amp = response_kinetics.sharp_friction_amplitude(o, o, 1.0, 1.0)
    target = -np.pi / (8.0 * np.sinh(0.5) ** 2)
    return _ok(abs(amp - target), 1e-14)


def check_c_plus_zero_T():
    w1, w2 = 1.1, 0.4
    worst = 0.0
    for beta in (60.0, 80.0):
        o1 = response_kinetics.OscState.thermal(w1, beta, mass=1.3)
        o2 = response_kinetics.OscState.thermal(w2, beta, mass=0.9)
        a1 = 1.0 / (o1.mass * w1**2)
        a2 = 1.0 / (o2.mass * w2**2)
        H = thermal_H(w1, w2, a1, a2, beta)
        _, cp, wm, _ = response_kinetics.c_plus_minus(o1, o2, beta, H)
        cold = 0.5 * (wm / 2.0) ** 2 * w1 * w2 * a1 * a2
        worst = max(worst, abs(cp - cold) / cold)
    return _ok(worst, 1e-8, "rel")


def check_dissipation_quadrature():
    s1 = materials_spectral.LinearSpectralDensity(0.8)
    s2 = materials_spectral.LinearSpectralDensity(1.7)
    wv, tau = 1.3, 0.5
    closed = response_kinetics.dissipation_J(wv, tau, s1, s2)

    def integrand(w):
        return ((2.0 * w - wv) / 2.0) ** 2 * (s1.D * w) * (s2.D * (wv - w))

    r = numerics.quad_finite(integrand, 0.0, wv, tol=1e-13)
    quad_route = 2.0 * np.pi * tau * wv * r.value
    rel = abs(quad_route - closed) / abs(closed)
    scale = response_kinetics.dissipation_J(2.0 * wv, tau, s1, s2) / closed
    return rel <= 1e-10 and abs(scale - 64.0) <= 1e-10, "rel=%.3g scale=%.6f" % (rel, scale)


# ---------------------------------------------------------------- materials


class ExtractionError(RuntimeError):
    """Spectral extraction from a response function failed."""


def h_from_spectrum(spec, K2):
    r"""Imaginary-frequency response h(K^2) of a spectral density.

    h(K^2) is the integral of alpha(m^2) m^2/(K^2 + m^2) over m^2:
    closed form for a linear density, which needs its cutoff m_max, and
    trapezoid on the grid for a tabulated one. A real K2 must be >= 0; a
    complex one evaluates the continuation off the real axis, which
    spectrum_from_h reads.
    """
    if K2.imag == 0.0 and K2.real < 0.0:
        raise ValueError("K2 must be >= 0")
    if isinstance(spec, materials_spectral.TabulatedSpectralDensity):
        # trapezoid of 2 m s(m)/(K^2 + m^2) on the tabulated grid
        return float(np.trapezoid(2.0 * spec.m * spec.s / (K2 + spec.m**2), spec.m))
    if spec.m_max is None:
        raise ValueError("response integral diverges; requires explicit m_max")
    K = np.sqrt(K2)
    if K == 0.0:
        return 2.0 * spec.D * spec.m_max
    return 2.0 * spec.D * (spec.m_max - K * np.arctan(spec.m_max / K))


def spectrum_from_h(h, m):
    r"""Recover the spectral density at m from a response callable.

    Evaluates -(1/pi) Im h(-m^2 + i*gamma) on the gamma ladder
    (1e-2, 1e-3, 1e-4)*m and extrapolates linearly to gamma -> 0+.

    Raises
    ------
    ExtractionError
        If the callable fails off the real axis or returns non-finite
        values.
    """
    if m <= 0.0:
        raise ValueError("m must be positive")
    base = 1e-2 * m
    rungs = np.asarray([base, base / 10.0, base / 100.0])
    vals = []
    for g in rungs:
        try:
            v = h(-m * m + 1j * g)
        except Exception as exc:
            raise ExtractionError("response not evaluable off the real axis: %s" % exc)
        v = -np.imag(v) / math.pi
        if not np.isfinite(v):
            raise ExtractionError("non-finite response at gamma=%g" % g)
        vals.append(float(v))
    return numerics.linear_extrapolate_zero(rungs, np.asarray(vals))


def drude_h_of_K2(omega_p, nu, rho, K2):
    """Drude response as a function of squared imaginary frequency,
    continued off the axis with the principal square root."""
    zeta = np.sqrt(complex(K2))
    w2 = omega_p**2
    val = w2 / (2.0 * complex(K2) + 2.0 * nu * zeta + w2) / (2.0 * math.pi * rho)
    return val.real if val.imag == 0.0 else val


def check_h_linear_closed_form():
    spec = materials_spectral.LinearSpectralDensity(0.7, m_max=5.0)
    K2 = np.array([0.3, 1.0, 9.0])
    closed = np.array([h_from_spectrum(spec, k) for k in K2.tolist()])
    r = numerics.quad_finite(
        lambda m, K2: 2.0 * 0.7 * m * m / (K2 + m * m), 0.0, 5.0, tol=1e-13, args=(K2,)
    )
    return _ok(float(np.max(np.abs(closed - r.value))), 1e-10)


def check_h_sum_rule():
    spec = materials_spectral.LinearSpectralDensity(0.5, m_max=2.0)
    total = 2.0 * 0.5 * 2.0**3 / 3.0  # integral of 2 D m^2 dm
    worst = 0.0
    for K2 in (1e4, 1e6):
        worst = max(worst, abs(K2 * h_from_spectrum(spec, K2) - total) / total)
    return _ok(worst, 1e-2, "rel")


def check_spectrum_round_trip():
    D, m_max = 0.9, 10.0
    spec = materials_spectral.LinearSpectralDensity(D, m_max=m_max)
    worst = 0.0
    for m in (0.2, 0.5, 1.0):
        got = spectrum_from_h(lambda K2: h_from_spectrum(spec, K2), m)
        worst = max(worst, abs(got - D * m) / (D * m))
    return _ok(worst, 1e-2, "rel")


def check_drude_slope():
    # s(m)/m = D + O(m^2): Richardson's step from m = 0.1 and 0.05 to m -> 0
    omega_p, nu, rho = 9.0, 0.1, 1.0
    D = materials_spectral.drude_D(omega_p, nu, rho, FloatOps)
    coarse, fine = (spectrum_from_h(lambda K2: drude_h_of_K2(omega_p, nu, rho, K2), m) / m
                    for m in (0.1, 0.05))
    return _ok(abs((4.0 * fine - coarse) / 3.0 - D) / D, 1e-4, "rel")


def check_universal_I_routes():
    closed = materials_spectral.universal_I()
    # naive accumulation over ~3e4 terms leaves ~7e-12 absolute roundoff,
    # 3e-13 relative on a value near 26; relative is the meaningful scale
    series = 24.0 * numerics.series_sum(
        lambda n: 1.0 / n**4, lambda n: 1.0 / (3.0 * n**3), tol=1e-14
    )
    return _ok(abs(series - closed) / closed, 1e-12, "rel")


def check_H0_quadrature():
    s1 = materials_spectral.LinearSpectralDensity(1.0)
    s2 = materials_spectral.LinearSpectralDensity(1.0)
    beta = 1.0
    closed = materials_spectral.H0_linear(1.0, 1.0, beta, FloatOps)
    general = _H0_by_rule(1.0, 1.0, beta)
    rel = abs(general - closed) / closed
    ratio = materials_spectral.smoothed_H0(s1, s2, 2.0 * beta) / closed
    return rel <= 1e-9 and abs(ratio - 1.0 / 16.0) <= 1e-12, "rel=%.3g ratio=%.6g" % (
        rel, ratio,
    )


def check_tabulated_sharp_line():
    # narrow triangular spike of unit weight at m0 acts as a point mass
    m0, width, weight = 2.0, 1e-4, 0.6
    height = 2.0 * weight / width
    m = np.asarray([0.0, m0 - width / 2.0, m0, m0 + width / 2.0, m0 + 1.0])
    s = np.asarray([0.0, 0.0, height, 0.0, 0.0])
    spec = materials_spectral.TabulatedSpectralDensity(m, s)
    worst = 0.0
    for K2 in (0.5, 4.0):
        # point mass in m^2 alpha(m^2) d(m^2): weight*2m0 at m0
        target = weight * 2.0 * m0 / (K2 + m0**2)
        worst = max(worst, abs(h_from_spectrum(spec, K2) - target) / target)
    return _ok(worst, 1e-6, "rel")


def _H0_by_rule(D1, D2, beta):
    """H0 of two linear densities by smoothed_H0's fixed quadrature rule:
    a cutoff far past the thermal window takes the general route."""
    return materials_spectral.smoothed_H0(
        materials_spectral.LinearSpectralDensity(D1, m_max=800.0 / beta),
        materials_spectral.LinearSpectralDensity(D2), beta,
    )


def _H0_by_segments(spec1, spec2, beta):
    """H0 by adaptive quadrature between consecutive grid points of both
    densities, up to the end of their product's support. On each segment
    a density is linear: the line through its values at the thirds."""
    end = min(s.m_max for s in (spec1, spec2) if s.m_max is not None)
    grid = {float(x) for s in (spec1, spec2) for x in getattr(s, "m", ()) if x < end}
    knots = np.array(sorted(grid | {0.0, end}))
    a, b = knots[:-1], knots[1:]
    t1, t2 = a + (b - a) / 3.0, b - (b - a) / 3.0
    lines = []
    for s in (spec1, spec2):
        y1, y2 = s.density(t1), s.density(t2)
        slope = (y2 - y1) / (t2 - t1)
        lines += [y1 - slope * t1, slope]

    def integrand(m, c1, k1, c2, k2):
        sh = np.sinh(beta * m / 2.0)
        return m * m * (c1 + k1 * m) * (c2 + k2 * m) / (sh * sh)

    parts = numerics.quad_finite(integrand, a, b, tol=1e-13, args=lines).value
    # the segments summed in order
    return np.pi * beta / 2.0 * float(np.cumsum(parts)[-1])


def check_tabulated_H0_rule():
    T = materials_spectral.TabulatedSpectralDensity
    m = np.linspace(0.0, 8.0, 41)
    ramp = T(m, 0.5 * m)
    bump = T(m, m * np.exp(-((m - 2.0) ** 2) / 4.0))
    # a second grid, offset from the first, whose density jumps at its first point
    m2 = np.linspace(0.5, 6.5, 25)
    shifted = T(m2, np.exp(-m2 / 3.0))
    cases = [
        (ramp, materials_spectral.LinearSpectralDensity(1.0), 2.0),
        (bump, materials_spectral.LinearSpectralDensity(2.0), 1.0),
        (ramp, shifted, 1.5),
        (ramp, materials_spectral.LinearSpectralDensity(1.0), 1e-4),
    ]
    worst = 0.0
    for s1, s2, beta in cases:
        ref = _H0_by_segments(s1, s2, beta)
        worst = max(worst, abs(materials_spectral.smoothed_H0(s1, s2, beta) - ref) / ref)
    return _ok(worst, 1e-12, "rel")


# ---------------------------------------------------------------- geometry


@functools.cache
def _levi_civita():
    # eps_ijk, read-only
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    eps.flags.writeable = False
    return eps


class PairGeometry(namedtuple("PairGeometry", "r")):
    """Two point particles separated by r."""

    __slots__ = ()

    def __new__(cls, r):
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (3,) or math.hypot(*r) == 0.0:
            raise ValueError("r must be a nonzero 3-vector")
        return super().__new__(cls, r)


class SlabGeometry(namedtuple("SlabGeometry", "d rho1 rho2")):
    """Two half-spaces with gap d and densities rho1, rho2; the fields may
    be arrays, one geometry per element."""

    __slots__ = ()

    def __new__(cls, d, rho1, rho2):
        if np.min(d) <= 0.0 or np.min(rho1) <= 0.0 or np.min(rho2) <= 0.0:
            raise ValueError("d, rho1, rho2 must be positive")
        return super().__new__(cls, d, rho1, rho2)


def coupling_psi(r):
    """Coupling kernel psi_ij = x_k eps_kij/r^3, antisymmetric and
    traceless; equal to -grad_p(1/r) eps_pij. r is one separation, shape
    (3,), giving shape (3, 3), or a stack, shape (n, 3), giving (n, 3, 3)."""
    r, rn = _separation(r)
    return np.einsum("...k,kij->...ij", r, _levi_civita()) / (rn**3)[..., None, None]


def coupling_gradient_T(r):
    """Gradient of the coupling kernel:
    T_lij = (delta_lk/r^3 - 3 x_l x_k/r^5) eps_kij; scales as 1/r^3.
    r of shape (3,) gives shape (3, 3, 3), a stack (n, 3) gives (n, 3, 3, 3)."""
    r, rn = _separation(r)
    rr = r[..., :, None] * r[..., None, :]
    m = np.eye(3) / (rn**3)[..., None, None] - 3.0 * rr / (rn**5)[..., None, None]
    return np.einsum("...lk,kij->...lij", m, _levi_civita())


def G_tensor(r):
    """Contraction G_lq = T_lij T_qij = 2(delta_lq/r^6 + 3 x_l x_q/r^8),
    symmetric positive definite; r of shape (3,) gives shape (3, 3), a
    stack (n, 3) gives (n, 3, 3). geometry_coupling.axial_coupling gives
    its axial values over a column of d."""
    r, rn = _separation(r)
    rr = r[..., :, None] * r[..., None, :]
    return 2.0 * (np.eye(3) / (rn**6)[..., None, None] + 3.0 * rr / (rn**8)[..., None, None])


def psi_hat(z0, q):
    """Transverse Fourier transform of the Coulomb kernel at height z0:
    2 pi exp(-q|z0|)/q."""
    if q <= 0.0:
        raise ValueError("q must be positive")
    return 2.0 * math.pi * np.exp(-q * abs(z0)) / q


def G_hat_q(d, q):
    """Fourier-space slab kernel (2 pi)^2 exp(-2 q d)/q^2: the double
    z-integral of 4 q^2 psi_hat^2 across a gap of width d; d and q may
    be arrays."""
    if np.min(d) <= 0.0 or np.min(q) <= 0.0:
        raise ValueError("d and q must be positive")
    return (2.0 * math.pi) ** 2 * np.exp(-2.0 * q * d) / q**2


def _slab_fourier(d, rho1, rho2, weight, power):
    r"""(rho1 rho2/(2 pi)^2) Int weight q^power G_hat(q) 2 pi q dq over
    q > 0: the slab kernel's Fourier integral under the angular weight
    weight q^power. d may be an array of gaps, one integral each."""
    r = numerics.quad_semi_infinite(
        lambda q, d: weight * q**power * G_hat_q(d, q) * 2.0 * math.pi * q,
        0.0, tol=1e-12, panel_scale=1.0 / d, args=(d,),
    )
    return rho1 * rho2 / (2.0 * math.pi) ** 2 * r.value


def G_slabs_fourier(g):
    r"""Slab pair factor assembled in Fourier space.

    The slab Fourier integral under the weight q^2/2, the in-plane average
    <k_x^2>. Equals the real-space route, pi rho1 rho2/(4 d^2), exactly.
    Geometries whose fields are arrays are integrated in one batch.
    """
    return _slab_fourier(g.d, g.rho1, g.rho2, 0.5, 2)


def angular_moment6():
    """Sixth angular moment: integral of cos^6 over a full turn, 5 pi/8."""
    return 5.0 * math.pi / 8.0


def mc_halfspace_Gxx(z0, seed, shifts=numerics.LATTICE_SHIFTS):
    r"""Randomized lattice-rule volume integral of G_xx over the half-space
    z > z0.

    Importance-sampled (z density ~ z^-4, radial density matched to the
    r^-6 envelope); deterministic per (seed, shifts). The closed-form
    target is pi/(2 z0^3) per unit density.

    Returns
    -------
    McResult
    """
    return numerics.mc_integrate(lambda u: _kernels.halfspace_chunk(z0, u, 1), 3, seed, shifts)


def _stack_draws(key, n, min_norm):
    """n separation vectors from Philox(key=key), drawn as one (n, 3)
    stack, less those shorter than min_norm; and their lengths."""
    r = np.random.Generator(np.random.Philox(key=key)).normal(size=(n, 3))
    rn = np.linalg.norm(r, axis=1)
    keep = rn >= min_norm
    return r[keep], rn[keep]


def check_psi_dual_form():
    r, _ = _stack_draws(21, 20, 0.3)
    psi = coupling_psi(r)
    grad = numerics.gradient_central(lambda x: 1.0 / np.linalg.norm(x, axis=-1), r, 1e-6)
    dual = -np.einsum("np,pij->nij", grad, _levi_civita())
    worst = max(np.max(np.abs(psi - dual)), np.max(np.abs(psi + psi.transpose(0, 2, 1))),
                np.max(np.abs(np.trace(psi, axis1=1, axis2=2))))
    return _ok(worst, 1e-7)


def check_T_finite_difference():
    r, rn = _stack_draws(22, 10, 0.3)
    T = coupling_gradient_T(r)
    fd = numerics.gradient_central(coupling_psi, r, 1e-5 * rn)
    return _ok(np.max(np.abs(T - fd)), 1e-8)


def check_G_contraction():
    r, _ = _stack_draws(23, 20, 0.3)
    T = coupling_gradient_T(r)
    G = G_tensor(r)
    contracted = np.einsum("nlij,nqij->nlq", T, T)
    worst = np.max(np.max(np.abs(G - contracted), axis=(1, 2)) / np.max(np.abs(G), axis=(1, 2)))
    mineig = np.min(np.linalg.eigvalsh(G))
    canonical = G_tensor([0.0, 0.0, 1.0])
    worst = max(worst, abs(canonical[0, 0] - 2.0), abs(canonical[2, 2] - 8.0))
    return worst <= 1e-12 and mineig > 0.0, "err=%.3g mineig=%.3g" % (worst, mineig)


def _mc_against(res, target, rel_tol):
    err = abs(res.value - target)
    ok = err <= 3.0 * res.std_error and err / target <= rel_tol
    return ok, "err=%.3g 3se=%.3g rel=%.3g" % (err, 3.0 * res.std_error, err / target)


def check_halfspace_mc(seed=123, shifts=numerics.LATTICE_SHIFTS):
    z0 = 1.0
    target = geometry_coupling.G_halfspace(z0, 1.0, FloatOps)
    return _mc_against(mc_halfspace_Gxx(z0, seed, shifts), target, 1e-2)


def check_halfspace_r6_mc():
    # the r^-6 weight is constant under the half-space sampler, so the
    # estimate is pi/6 up to rounding
    r = numerics.mc_integrate(lambda u: _kernels.halfspace_chunk(1.0, u, 0), 3, 7)
    return _ok(abs(r.value - np.pi / 6.0), max(3.0 * r.std_error, 1e-12))


def _halfspace_r8(z0):
    """Volume integral of r^-8 over the half-space z > z0: the disc at
    height z gives pi/(3 z^6), and that integrates to pi/(15 z0^5)."""
    return math.pi / (15.0 * z0**5)


def check_halfspace_r8_mc():
    # the r^-8 weight pi/(6 z0^3 r^2) varies with z, so this sees the z map
    # of the sampler, which the G_xx and r^-6 weights do not
    z0 = 1.5
    r = numerics.mc_integrate(lambda u: _kernels.halfspace_chunk(z0, u, 2), 3, 5)
    return _mc_against(r, _halfspace_r8(z0), 1e-5)


def _G_halfspace_by_quadrature(z0, rho):
    """G_h by quadrature of G_xx = 2(1/r^6 + 3x^2/r^8) over z > z0. At
    height z, s = z t makes the in-plane integral of its azimuthal mean
    z^-4 times 2 pi Int t (2/(1+t^2)^3 + 3 t^2/(1+t^2)^4) dt, and z^-4
    integrates over z > z0 to 1/(3 z0^3)."""
    r = numerics.quad_semi_infinite(
        lambda t: t * (2.0 / (1.0 + t * t) ** 3 + 3.0 * t * t / (1.0 + t * t) ** 4), 0.0,
        tol=1e-13,
    )
    return rho * 2.0 * np.pi * r.value / (3.0 * z0**3)


def check_halfspace_quadrature():
    # the half-space factor against its volume integral, and its
    # z0-integral against the slab factor
    gh = geometry_coupling.G_halfspace(1.5, 0.8, FloatOps)
    rel_volume = abs(_G_halfspace_by_quadrature(1.5, 0.8) - gh) / gh
    g = SlabGeometry(1.5, 1.0, 1.0)
    r = numerics.quad_semi_infinite(
        lambda us: _on_grid(geometry_coupling.G_halfspace, g.d + us, 1.0), 0.0, tol=1e-12)
    target = geometry_coupling.G_slabs_realspace(g.d, g.rho1, g.rho2, FloatOps)
    err_slab = abs(g.rho2 * r.value - target)
    return rel_volume <= 1e-10 and err_slab <= 1e-10, "volume rel=%.3g slab err=%.3g" % (
        rel_volume, err_slab)


def check_slab_route_equivalence():
    d = np.repeat([0.5, 1.0, 2.0, 4.0, 8.0], 2)
    rho = np.tile([1.0, 2.5], 5)
    a = _on_grid(geometry_coupling.G_slabs_realspace, d, rho, 0.7)
    # the Fourier route of all ten geometries in one batch
    b = G_slabs_fourier(SlabGeometry(d, rho, 0.7))
    return _ok(float(np.max(np.abs(a - b) / a)), 1e-10, "rel")


def check_G_hat_double_integral():
    d, q = 0.8, 1.7
    closed = G_hat_q(d, q)
    # two exponential layer integrals across the gap: one inner integral
    # per node of the outer panels, in one batch
    def inner(z1s):
        return numerics.quad_semi_infinite(
            lambda z2, z1: 4.0 * q**2 * psi_hat(d + z1 + z2, q) ** 2,
            0.0, tol=1e-12, panel_scale=1.0 / q, args=(z1s.ravel(),),
        ).value.reshape(z1s.shape)

    outer = numerics.quad_semi_infinite(inner, 0.0, tol=1e-11, panel_scale=1.0 / q)
    return _ok(abs(outer.value - closed) / closed, 1e-9, "rel")


def _psi_hat_integrand(t, q, z0):
    return np.exp(-(q * q) / (4.0 * t * t) - (z0 * z0) * (t * t)) / (t * t)


def check_psi_hat_transform():
    # the plane transform of the Gaussian representation 1/r = (2/sqrt pi)
    # Int_0^inf exp(-r^2 t^2) dt: psi_hat(z0, q) = 2 sqrt(pi) Int_0^inf
    # t^-2 exp(-q^2/(4 t^2) - z0^2 t^2) dt, one batch over (q, z0) pairs
    q = np.array([1.0, 0.3, 5.0, 1.0, 2.0])
    z0 = np.array([0.7, 2.0, 0.1, 5.0, -0.4])
    res = numerics.quad_semi_infinite(
        _psi_hat_integrand, 0.0, tol=1e-11, panel_scale=1.0 / np.abs(z0), args=(q, z0))
    closed = np.array([psi_hat(z, k) for k, z in zip(q.tolist(), z0.tolist())])
    est = 2.0 * math.sqrt(math.pi) * res.value
    return _ok(float(np.max(np.abs(est - closed) / closed)), 1e-10, "rel")


def check_angular_moment():
    closed = angular_moment6()
    r = numerics.quad_finite(lambda p: np.cos(p) ** 6, 0.0, 2.0 * np.pi, tol=1e-13)
    wallis = 2.0 * np.pi * (5.0 * 3.0 * 1.0) / (6.0 * 4.0 * 2.0)
    return _ok(max(abs(r.value - closed), abs(wallis - closed)), 1e-12)


def _G_P_by_quadrature(d, rho1, rho2):
    """G_P as the slab Fourier integral weighted by the sixth angular
    moment, (5/16) q^6; d may be an array of gaps, one integral each."""
    return _slab_fourier(d, rho1, rho2, 5.0 / 16.0, 6)


def check_G_P_quadrature():
    d = np.array([0.7, 1.0, 1.9])
    closed = _on_grid(geometry_coupling.G_P_slabs, d, 1.3, 0.8)
    return _ok(float(np.max(np.abs(_G_P_by_quadrature(d, 1.3, 0.8) - closed) / closed)), 1e-10,
               "rel")


def check_geometry_scalings():
    gh1 = geometry_coupling.G_halfspace(1.3, 2.0, FloatOps)
    gh2 = geometry_coupling.G_halfspace(2.6, 2.0, FloatOps)
    gp1 = geometry_coupling.G_P_slabs(1.1, 1.0, 1.0, FloatOps)
    gp2 = geometry_coupling.G_P_slabs(2.2, 1.0, 1.0, FloatOps)
    err = abs(gh1 / gh2 - 8.0) + abs(gp1 / gp2 - 64.0)
    return _ok(err, 1e-12)


# ---------------------------------------------------------------- forces


def pair_force_sharp(geom, v, osc1, osc2, beta):
    r"""Sharp-oscillator pair force: per component, the finite prefactor
    that multiplies delta(w1 - w2), three floats.

    Component l has prefactor -G_lq v_q H (pi beta w1^2/2), with H the
    thermal pair factor at polarizabilities 1/(m_i w_i^2).
    """
    gv = G_tensor(geom.r) @ np.asarray(v, dtype=np.float64)
    return tuple(float(a) for a in _sharp_amplitude(gv, osc1, osc2, beta))


def _sharp_amplitude(gv, osc1, osc2, beta):
    """-gv H (pi beta w1^2/2), the amplitude of a force component whose
    (G v) component is gv; arrays of oscillators evaluate elementwise."""
    a1 = 1.0 / (osc1.mass * osc1.omega**2)
    a2 = 1.0 / (osc2.mass * osc2.omega**2)
    H = thermal_H(osc1.omega, osc2.omega, a1, a2, beta)
    pref = math.pi * beta * osc1.omega**2 / 2.0
    return -gv * H * pref


def check_finite_T_assembly():
    v = 1e-3
    force, inter = friction_forces.slabs_finite_force(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, v, FloatOps)
    closed = -(2.0 * np.pi**6 / 15.0) * v
    rel = abs(force - closed) / abs(closed)
    # G by the Fourier route and H0 by the quadrature rule, each checked too
    # and I from H0 = (2 pi/beta^4) D1 D2 I
    Gq = G_slabs_fourier(SlabGeometry(1.0, 1.0, 1.0))
    H0q = _H0_by_rule(1.0, 1.0, 1.0)
    Iq = H0q / (2.0 * np.pi)
    rel_q = max(abs(-Gq * v * H0q - force) / abs(force), abs(inter["G"] - Gq) / Gq,
                abs(inter["H0"] - H0q) / H0q, abs(inter["I"] - Iq) / Iq)
    return rel <= 1e-12 and rel_q <= 1e-9, "closed rel=%.3g quad rel=%.3g" % (rel, rel_q)


def check_zero_T_assembly():
    v = 0.01
    force, inter = friction_forces.slabs_zero_force(1.0, 1.0, 1.0, 1.0, 1.0, v, FloatOps)
    closed = -(5.0 * np.pi**2 / 512.0) * v**5
    rel = abs(force - closed) / abs(closed)
    # the dissipated-energy route -Delta E_P/(2 tau v), Delta E_P = 2 tau H_P v^6 G_P,
    # with H_P from the dissipation integral by quadrature (a density cut at
    # the total frequency takes the general route) and G_P by the Fourier route
    wv, tau = 0.37, 1.0
    s = materials_spectral.LinearSpectralDensity(1.0, m_max=wv)
    HPq = response_kinetics.dissipation_J(wv, tau, s, s) / (2.0 * tau * wv**6)
    GPq = _G_P_by_quadrature(1.0, 1.0, 1.0)
    route = -(2.0 * tau * HPq * v**6 * GPq) / (2.0 * tau * v)
    rel_route = max(abs(route - force) / abs(force), abs(inter["H_P"] - HPq) / HPq,
                    abs(inter["G_P"] - GPq) / GPq)
    return rel <= 1e-12 and rel_route <= 1e-10, (
        "closed rel=%.3g route rel=%.3g" % (rel, rel_route))


def check_pair_assembly():
    # G_xx from the general-r tensor and H0 by the quadrature rule, against
    # the force and the G_factor and H0 it reports
    d, v, beta = 1.7, 0.3, 2.0
    force, inter = friction_forces.pair_force(d, v, 0.7, 1.1, beta, FloatOps)
    Gxx = G_tensor([0.0, 0.0, d])[0, 0]
    H0q = _H0_by_rule(0.7, 1.1, beta)
    rel = max(abs(-Gxx * v * H0q - force) / abs(force), abs(inter["G_factor"] - Gxx) / Gxx,
              abs(inter["H0"] - H0q) / H0q)
    return _ok(rel, 1e-9, "rel")


def check_plane_assembly():
    # G_h by its volume integral and H0 by the quadrature rule, against the
    # force and the G_h and H0 it reports
    z0, rho, v, beta = 1.2, 0.8, 0.3, 2.0
    force, inter = friction_forces.plane_force(z0, rho, v, 0.7, 1.1, beta, FloatOps)
    Ghq = _G_halfspace_by_quadrature(z0, rho)
    H0q = _H0_by_rule(0.7, 1.1, beta)
    rel = max(abs(-Ghq * v * H0q - force) / abs(force), abs(inter["G_h"] - Ghq) / Ghq,
              abs(inter["H0"] - H0q) / H0q)
    return _ok(rel, 1e-9, "rel")


def check_force_signs(draws=200):
    # each row the uniforms of one draw, scaled onto their ranges
    u = np.random.Generator(np.random.Philox(key=31)).random((draws, 9))
    v = (1e-4 + (1.0 - 1e-4) * u[:, 0]) * np.where(u[:, 1] < 0.5, -1.0, 1.0)
    beta = 0.2 + 4.8 * u[:, 2]
    d, rho1, rho2 = 0.5 + 2.5 * u[:, 3], 0.2 + 2.8 * u[:, 4], 0.2 + 2.8 * u[:, 5]
    D1, D2 = 0.1 + 1.9 * u[:, 6], 0.1 + 1.9 * u[:, 7]
    omega = 0.5 + 1.5 * u[:, 8]
    pair, inter = _on_grid(friction_forces.pair_force, d, v, D1, D2, beta)
    o1 = response_kinetics.OscState.thermal(omega, beta)
    o2 = response_kinetics.OscState.thermal(o1.omega, beta)
    forces = [
        ("finite-T", v, _on_grid(
            friction_forces.slabs_finite_force, d, rho1, rho2, D1, D2, beta, v)[0]),
        ("plane", v, _on_grid(friction_forces.plane_force, d, rho1, v, D1, D2, beta)[0]),
        ("pair", v, pair),
        ("sharp pair", v, _sharp_amplitude(inter["G_factor"] * v, o1, o2, beta)),
    ]
    # the zero-temperature regime takes v > 0 only
    pos = v > 0.0
    forces.append(("zero-T", v[pos], _on_grid(
        friction_forces.slabs_zero_force, *(x[pos] for x in (d, rho1, rho2, D1, D2, v)))[0]))
    for name, vs, force in forces:
        wrong = np.sign(force) != -np.sign(vs)
        if wrong.any():
            return False, "%s sign failed at v=%g" % (name, vs[wrong.argmax()])
    return True, "%d draws opposed v" % draws


def check_pair_sharp_consistency():
    beta, d, v = 1.3, 1.7, 0.2
    o1 = response_kinetics.OscState.thermal(1.0, beta, mass=0.9)
    o2 = response_kinetics.OscState.thermal(1.0, beta, mass=1.8)
    force = pair_force_sharp(PairGeometry([0.0, 0.0, d]), [v, 0.0, 0.0], o1, o2, beta)
    Gxx = G_tensor([0.0, 0.0, d])[0, 0]
    closed = response_kinetics.sharp_friction_amplitude(o1, o2, beta, Gxx * v)
    rel = abs(force[0] - closed) / abs(closed)
    return _ok(rel, 1e-12, "rel")


def check_suppression_factors():
    force, inter = friction_forces.slabs_finite_force(0.8, 1.1, 0.9, 0.5, 0.7, 2.5, 1e-3, FloatOps)
    s = inter["suppression"]
    ok1 = s == (0.8 / 2.5) ** 2 and force == s * inter["reference_force"]
    force, inter = friction_forces.slabs_zero_force(0.8, 1.1, 0.9, 0.5, 0.7, 0.02, FloatOps)
    s2 = inter["suppression"]
    ok2 = s2 == 0.02**2 and force == s2 * inter["reference_force"]
    return ok1 and ok2, "finite=%r zero=%r" % (ok1, ok2)


def check_gaussian_units():
    # every regime's report, the free energy and a kelvin input in Gaussian
    # units against CGS values written out from hbar, c and the length
    # scale L: energy hbar c/L, time L/c
    L = 2.5e-7
    hbar, c = units.CGS_HBAR, units.CGS_C
    energy = hbar * c / L
    ctx = units.UnitContext(L)
    d, rho1, rho2, D1, D2, beta, v = 1.3, 0.8, 1.1, 0.7, 0.4, 2.0, 1e-2
    reports = [
        ("pair-smoothed", friction_forces.pair_force(d, v, D1, D2, beta, FloatOps),
         energy / L, {"d": d, "v": v, "beta": beta}),
        ("plane", friction_forces.plane_force(d, rho1, v, D1, D2, beta, FloatOps),
         energy / L, {"z0": d, "rho": rho1, "v": v, "beta": beta}),
        ("slabs-finite-T",
         friction_forces.slabs_finite_force(d, rho1, rho2, D1, D2, beta, v, FloatOps),
         energy / L**3, {"d": d, "rho1": rho1, "rho2": rho2, "D1": D1, "beta": beta}),
        ("slabs-zero-T", friction_forces.slabs_zero_force(d, rho1, rho2, D1, D2, v, FloatOps),
         energy / L**3, {"D2": D2, "v": v}),
    ]
    per = {
        "G_factor": 1.0 / (L**6 * c**2), "G_h": 1.0 / (L**6 * c**2),
        "G": 1.0 / (L**8 * c**2), "G_P": 1.0 / (L**12 * c**2),
        "H0": hbar * c**2 * L**4, "H_P": hbar * L**8 / c**2,
        "I": 1.0, "suppression": 1.0, "reference_force": energy / L**3,
        "d": L, "z0": L, "rho": L**-3, "rho1": L**-3, "rho2": L**-3,
        "D1": L**3 / energy, "D2": L**3 / energy, "beta": 1.0 / energy, "v": c,
    }
    worst = 0.0
    for regime, (force, inter), force_per, inputs in reports:
        cgs_force, cgs_inter, cgs_inputs = units.gaussian_report(
            ctx, regime, force, inter, inputs, {}, FloatOps)
        pairs = [(cgs_force, force * force_per)]
        pairs += [(cgs_inter[k], x * per[k]) for k, x in inter.items()]
        pairs += [(cgs_inputs[k + "_cgs"], x * per[k]) for k, x in inputs.items()]
        if "beta" in inputs:
            pairs.append((cgs_inputs["temperature_kelvin"], energy / (units.CGS_KB * beta)))
        for got, want in pairs:
            worst = max(worst, abs(got - want) / abs(want))
    f = matsubara.free_energy(0.3, beta, FloatOps)
    erg, kelvin = units.gaussian_free_energy(ctx, f, beta, {}, FloatOps)
    pairs = [(erg, f * energy), (kelvin, energy / (units.CGS_KB * beta)),
             (units.kelvin_to_beta(ctx, 300.0, FloatOps), energy / (units.CGS_KB * 300.0))]
    for got, want in pairs:
        worst = max(worst, abs(got - want) / abs(want))
    return _ok(worst, 1e-14, "rel")


SUITES = {
    "numerics": [
        Check("quad cos^6 over a turn", check_quad_cos6),
        Check("quad linear ramp", check_quad_linear),
        Check("semi-infinite rational tail", check_semi_lorentz_like),
        Check("semi-infinite quartic thermal", check_semi_quartic_thermal),
        Check("semi-infinite factorial", check_semi_factorial),
        Check("series zeta(4)", check_series_zeta4),
        Check("mc determinism and constants", check_mc_deterministic),
    ],
    "fields": [
        Check("quasistatic limit sweep", check_field_limit_sweep),
        Check("hand cross products", check_field_hand_values),
        Check("field orthogonality", check_field_orthogonality),
        Check("axial outputs vs vector forms", check_axial_outputs),
        Check("canonical interaction energies", check_interaction_canonical),
        Check("total-derivative shift", check_interaction_total_derivative),
    ],
    "oscillator": [
        Check("eigenfrequencies vs linear system", check_eigenfrequencies_oracle),
        Check("frequency product unity", check_product_unity),
        Check("trajectory spectral fit", check_trajectory_spectrum),
        Check("energy drift bound", check_energy_drift),
        Check("perturbative ground state", check_ground_state_perturbative),
        Check("Legendre round trip", check_legendre_round_trip),
    ],
    "matsubara": [
        Check("mode average vs lattice", check_mode_average_lattice),
        Check("mode free energy vs Gaussian moments", check_mode_free_energy_moments),
        Check("free energy vs brute force", check_free_energy_brute_force),
        Check("free energy limits", check_free_energy_limits),
        Check("free energy closed form vs mode sum", check_free_energy_closed_form),
        Check("mode integral pi/2", check_mode_integral),
    ],
    "response": [
        Check("kernel remainder identity", check_remainder_identity),
        Check("phi two-sinusoid identity", check_phi_two_sinusoid),
        Check("delta normalization", check_delta_normalization),
        Check("damped cos*sin time domain", check_cos_sin_time_domain),
        Check("damped sin time domain", check_g_time_domain),
        Check("coth difference limit", check_coth_limit),
        Check("sharp amplitude pipeline", check_sharp_amplitude_pipeline),
        Check("sharp amplitude value", check_sharp_amplitude_value),
        Check("cold-limit C_plus", check_c_plus_zero_T),
        Check("dissipation quadrature", check_dissipation_quadrature),
    ],
    "materials": [
        Check("linear response closed form", check_h_linear_closed_form),
        Check("response sum rule", check_h_sum_rule),
        Check("spectrum round trip", check_spectrum_round_trip),
        Check("Drude spectral slope", check_drude_slope),
        Check("universal integral routes", check_universal_I_routes),
        Check("smoothed H0 quadrature", check_H0_quadrature),
        Check("tabulated sharp line", check_tabulated_sharp_line),
        Check("tabulated H0 fixed rule", check_tabulated_H0_rule),
    ],
    "geometry": [
        Check("psi dual form", check_psi_dual_form),
        Check("T finite differences", check_T_finite_difference),
        Check("G contraction", check_G_contraction),
        Check("half-space MC", check_halfspace_mc),
        Check("half-space r^-6 MC", check_halfspace_r6_mc),
        Check("half-space r^-8", check_halfspace_r8_mc),
        Check("half-space quadrature to slab", check_halfspace_quadrature),
        Check("slab route equivalence", check_slab_route_equivalence),
        Check("Fourier kernel double integral", check_G_hat_double_integral),
        Check("transverse transform", check_psi_hat_transform),
        Check("angular sixth moment", check_angular_moment),
        Check("zero-T factor quadrature", check_G_P_quadrature),
        Check("power-law scalings", check_geometry_scalings),
    ],
    "forces": [
        Check("finite-T slab assembly", check_finite_T_assembly),
        Check("zero-T slab assembly", check_zero_T_assembly),
        Check("pair assembly", check_pair_assembly),
        Check("plane assembly", check_plane_assembly),
        Check("braking sign draws", check_force_signs),
        Check("pair sharp consistency", check_pair_sharp_consistency),
        Check("suppression factors", check_suppression_factors),
        Check("Gaussian units written out", check_gaussian_units),
    ],
}


def run_suite(name, out=print):
    """Run one suite (or 'all'); returns True when every check passed."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError("unknown suite %r" % name)
    all_ok = True
    for suite in names:
        for check in SUITES[suite]:
            ok, detail = check.run()
            all_ok = all_ok and ok
            out("%s  %s :: %s (%s)" % ("PASS" if ok else "FAIL", suite, check.name, detail))
    return all_ok
