"""The numerical engines: quadrature, Monte-Carlo, finite differences,
the circulant solve and polygamma."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import float_bits
from magfriction import _ieee, _kernels, numerics, verification
from magfriction.numerics import (
    QuadratureError,
    mc_integrate,
    quad_finite,
    quad_semi_infinite,
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
        # called with arrays of interior nodes, so x > 0
        return x**4 * np.exp(-x) / (1.0 - np.exp(-x)) ** 2

    res = quad_semi_infinite(f, 0.0)
    assert abs(res.value - 4.0 * np.pi**4 / 15.0) <= 1e-10


def test_semi_infinite_factorial():
    res = quad_semi_infinite(lambda q: q**5 * np.exp(-2.0 * q), 0.0)
    assert abs(res.value - 1.875) <= 1e-10


def test_semi_infinite_rejects_non_decay():
    with pytest.raises(QuadratureError):
        quad_semi_infinite(lambda x: 1.0, 0.0)


def test_quadrature_refuses_a_value_that_is_not_finite():
    # a node lands on the pole of |x - x0|^-0.9, so a panel's value is inf:
    # its integral stays open until the panels run out, and raises
    def f(x, x0):
        return np.exp(-x / 100.0) * np.abs(x - x0) ** -0.9

    with np.errstate(all="ignore"):
        for x0 in (5.3, 0.3, 40.7, 700.1):
            with pytest.raises(QuadratureError, match="did not converge"):
                quad_semi_infinite(f, 0.0, args=(x0,))
        with pytest.raises(QuadratureError, match="did not converge in 200 panels"):
            quad_finite(lambda x: np.abs(x - 5.3) ** -0.9, 3.0, 7.0)


def _sums(w):
    return float(np.sum(w)), float(np.sum(w * w))


def test_mc_constant_integrand_exact():
    # unit interval with unit density: weights are exactly the constant, so
    # every shift gives the same mean
    res = mc_integrate(lambda u: _sums(np.full(u.shape[1], 2.5)), 1, seed=3)
    assert res.value == 2.5
    assert res.std_error == 0.0
    assert res.samples == numerics.LATTICE_N * numerics.LATTICE_SHIFTS


# a box of volume 1.5 off the origin: its density is not 1
BOX_LO = np.array([0.5, 0.5, 0.5])[:, None]
BOX_HI = np.array([1.5, 2.0, 1.5])[:, None]


def _r8_weights(u):
    # r^-8 varies over the box, so the weights carry genuine variance; a
    # weight is f/pdf with pdf = 1/1.5
    pts = BOX_LO + (BOX_HI - BOX_LO) * u
    return 1.5 / np.sum(pts * pts, axis=0) ** 4


def _r8(u):
    return _sums(_r8_weights(u))


def test_mc_deterministic_bit_identical():
    a = mc_integrate(_r8, 3, seed=42)
    b = mc_integrate(_r8, 3, seed=42)
    assert a.value == b.value
    assert a.std_error == b.std_error
    c = mc_integrate(_r8, 3, seed=43)
    assert c.value != a.value


B = _kernels.MC_BLOCK


@pytest.mark.parametrize("block", [1000, B - 1, B, B + 1, 3 * B + 7])
def test_lattice_value_does_not_depend_on_the_block_slicing(monkeypatch, block):
    monkeypatch.setattr(_kernels, "MC_BLOCK", numerics.LATTICE_N)
    whole = mc_integrate(_r8, 3, seed=8)
    monkeypatch.setattr(_kernels, "MC_BLOCK", block)
    sliced = mc_integrate(_r8, 3, seed=8)
    assert abs(sliced.value - whole.value) <= 1e-12 * whole.value
    assert abs(sliced.std_error - whole.std_error) <= 1e-12 * whole.value


def _cos_product(h):
    def block(u):
        return _sums(1.0 + np.prod(np.cos(2.0 * np.pi * np.asarray(h)[:, None] * u), axis=0))
    return block


@pytest.mark.parametrize("h", [(1,), (3,), (1, 2), (1, 2, 3), (5, 0, 7)])
def test_lattice_integrates_a_cosine_product_off_the_dual_lattice_exactly(h):
    # under the tent, cos(2 pi h u) is cos(4 pi h x): the rule sums each of
    # its waves exp(2 pi i k.x), k = (+-2 h_j), to 0 unless k.z = 0 mod N
    N, z = numerics.LATTICE_N, numerics.LATTICE_Z[:len(h)]
    for signs in np.ndindex(*(2,) * len(h)):
        k = [(1 - 2 * s) * 2 * hj for s, hj in zip(signs, h)]
        assert sum(kj * zj for kj, zj in zip(k, z)) % N != 0
    res = mc_integrate(_cos_product(h), len(h), seed=13)
    assert abs(res.value - 1.0) <= 1e-12
    assert res.std_error <= 1e-12


def test_lattice_does_not_integrate_a_wave_on_the_dual_lattice():
    # h = N/2 gives k = +-N, on the dual lattice: each shift sees only its
    # own phase, so the rule is off and the shifts disagree
    res = mc_integrate(_cos_product((numerics.LATTICE_N // 2,)), 1, seed=13)
    assert abs(res.value - 1.0) > 1e-3
    assert res.std_error > 1e-3


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_points_are_odd_multiples_of_2_to_the_minus_52(dim):
    # so a block never receives an exact 0 or 1, for any seed: the tent
    # reaches 1 only at x = 1/2, which is even
    seen = []

    def block(u):
        seen.append(u.copy())
        return _sums(u[0])

    for seed in range(5):
        mc_integrate(block, dim, seed=seed)
    u = np.concatenate(seen, axis=1)
    assert u.shape == (dim, 5 * numerics.LATTICE_N * numerics.LATTICE_SHIFTS)
    scaled = u * 2.0**52
    assert np.all(scaled == np.floor(scaled)) and np.all(scaled % 2.0 == 1.0)
    assert 0.0 < u.min() and u.max() < 1.0


def test_mc_sampling_error_names_the_shift_and_sample():
    # the weights fail in the second block of the second shift; the error
    # names the shift and the first sample of that block
    calls = []

    def block(u):
        calls.append(u.shape[1])
        return _sums(u[0]) if len(calls) != 4 else (math.nan, math.inf)

    assert numerics.LATTICE_N == 2 * B
    with pytest.raises(numerics.McSamplingError, match=r"shift 1 sample %d$" % B):
        mc_integrate(block, 1, seed=5)
    assert len(calls) == 4


def test_mc_refuses_a_dimension_or_shift_count_it_cannot_serve():
    for dim, shifts in [(0, 8), (len(numerics.LATTICE_Z) + 1, 8), (1, 1)]:
        with pytest.raises(ValueError):
            mc_integrate(_r8, dim, seed=1, shifts=shifts)


def test_gradient_central():
    g = numerics.gradient_central(lambda p: p[0] ** 2 + 3.0 * p[1], np.array([2.0, 1.0]),
                                  step=1e-6)
    assert np.allclose(g, [4.0, 3.0], atol=1e-8)


def _gradient_by_loop(f, x, step):
    # the one-point difference, one component per call pair, as a reference
    out = np.empty((x.size,) + np.shape(f(x)))
    for l in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[l] += step
        xm[l] -= step
        out[l] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * step)
    return out


def _two_values(p):
    # the same bits at a point alone and in a stack: no power, no libm call
    return np.stack([p[..., 0] * p[..., 1], p[..., 2] / p[..., 0]], axis=-1)


def test_gradient_central_takes_a_stack_and_one_point_alike():
    # one point: the reference loop's shape and bits; a stack (n, 3) with a
    # step per point: row i is the one-point gradient at x[i], 0 ulp apart
    rng = np.random.Generator(np.random.Philox(key=44))
    x = rng.uniform(0.5, 2.0, (8, 3))
    step = 1e-6 * rng.uniform(0.5, 2.0, 8)
    for f in (_two_values, verification.coupling_psi, lambda p: 1.0 / np.linalg.norm(p)):
        got = numerics.gradient_central(f, x[0], step[0])
        want = _gradient_by_loop(f, x[0], step[0])
        assert got.shape == want.shape
        assert list(map(float_bits, got.ravel().tolist())) == list(
            map(float_bits, want.ravel().tolist()))
    stack = numerics.gradient_central(_two_values, x, step)
    assert stack.shape == (8, 3, 2)
    for row, xi, hi in zip(stack, x, step):
        assert list(map(float_bits, row.ravel().tolist())) == list(
            map(float_bits, _gradient_by_loop(_two_values, xi, hi).ravel().tolist()))


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


def test_pow_and_div_raise_past_the_float_range():
    # on both ops classes; on arrays each operand is a one-point column whose
    # failure raise_first raises. A value is a returned float, a type a raise
    def outcomes(ops, op, points):
        got = []
        for args in points:
            try:
                grid = ops((1,)) if ops is _ieee.ArrayOps else ops
                with np.errstate(all="ignore"):
                    out = getattr(grid, op)(*args)
                if grid is not ops:
                    grid.raise_first()
                got.append(float_bits(np.asarray(out).item()))
            except ArithmeticError as exc:
                got.append(type(exc))
        return got

    def want(values):
        return [v if isinstance(v, type) else float_bits(v) for v in values]

    for ops, col in ((_ieee.FloatOps, float), (_ieee.ArrayOps, lambda x: np.array([x]))):
        pows = [(col(x), n) for x, n in ((2.0, 3), (1e200, 2), (-1e200, 3), (-1e200, 4), (1e-200, 2))]
        assert outcomes(ops, "pow", pows) == want(
            [8.0, OverflowError, OverflowError, OverflowError, 0.0]), ops
        # a quotient past the float range raises unless its numerator is not finite
        divs = [(col(a), col(b)) for a, b in (
            (1.0, 4.0), (3.0, 0.0), (-3.0, 0.0), (3.0, -0.0), (0.0, 0.0), (1.0, math.inf),
            (1e300, 1e-10), (-1e300, 1e-10), (math.inf, 1.0))]
        assert outcomes(ops, "div", divs) == want(
            [0.25, ZeroDivisionError, ZeroDivisionError, ZeroDivisionError, ZeroDivisionError,
             0.0, OverflowError, OverflowError, math.inf]), ops


# ------------------------------------------------ numpy kernels of the oracles


def test_gauss_kronrod21_is_exact_to_degree_31():
    nodes, pair_weights, kronrod = numerics._gauss_kronrod21()

    def by_node(w):
        # pair weights (outermost pair first, centre last) spread over the nodes
        return np.concatenate([w[:10], w[10:], w[9::-1]])

    assert np.array_equal(by_node(pair_weights[0]), kronrod)
    gauss = by_node(pair_weights[1])
    for deg in range(32):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert abs(kronrod @ nodes**deg - exact) <= 1e-15
        if deg < 20:
            assert abs(gauss @ nodes**deg - exact) <= 1e-15
    # one degree past each rule is no longer integrated exactly
    assert abs(kronrod @ nodes**32 - 2.0 / 33.0) > 1e-13
    assert abs(gauss @ nodes**20 - 2.0 / 21.0) > 1e-13


def test_quad_single_panel_on_a_degree_19_polynomial():
    # G10 and K21 agree on it, so one panel of 21 nodes suffices
    res = quad_finite(lambda x: 20.0 * x**19, 0.0, 1.0)
    assert res.evaluations == 21
    assert abs(res.value - 1.0) <= 1e-15


def test_quad_integrand_sees_one_array_per_panel():
    # one row of 21 nodes per panel: the first panel alone, then the two
    # children of each bisection in one call
    calls = []

    def f(x):
        calls.append((type(x), x.dtype, x.shape))
        return np.sqrt(x)

    res = quad_finite(f, 0.0, 1.0, tol=1e-12)
    bisections = (res.evaluations - 21) // 42
    assert bisections > 0
    assert calls == [(np.ndarray, np.float64, (1, 21))] + [
        (np.ndarray, np.float64, (2, 21))] * bisections
    assert abs(res.value - 2.0 / 3.0) <= 1e-12


def test_quad_non_convergence_carries_the_best_estimate():
    # a jump the bisection can only chase: 200 panels do not reach 1e-15
    with pytest.raises(QuadratureError) as info:
        quad_finite(lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0), 0.0, 1.0, tol=1e-15)
    best = info.value.best
    assert abs(best.value - 1.0 / 3.0) <= 1e-6
    assert best.evaluations == 21 + 42 * 199


def _rows_per_integral(calls, k):
    """Evaluations per integral, from the index column the integrand saw."""
    return [21 * n for n in np.bincount(np.concatenate(calls).astype(int), minlength=k)]


def _kinked(calls):
    def f(x, c, i):
        # a square-root kink at x = c makes the bisection chase it
        calls.append(i.ravel())
        return np.sqrt(np.abs(x - c)) + np.cos(c * x)
    return f


def _decaying(calls):
    def f(x, c, i):
        calls.append(i.ravel())
        return x * x * np.exp(-c * x) / (1.0 + x)
    return f


def _same_bits(batch, scalars):
    assert [float_bits(v) for v in batch.value] == [float_bits(r.value) for r in scalars]
    assert [float_bits(e) for e in batch.error_estimate] == [
        float_bits(r.error_estimate) for r in scalars]
    assert type(batch.evaluations) is int
    assert batch.evaluations == sum(r.evaluations for r in scalars)


@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.01, 5.0), st.floats(0.1, 3.0)),
                min_size=1, max_size=6))
def test_quad_finite_batch_keeps_each_integrals_bits(cases):
    a, width, c = (np.array(col) for col in zip(*cases))
    b = a + width
    k = len(cases)
    calls = []
    batch = quad_finite(_kinked(calls), a, b, tol=1e-10, args=(c, np.arange(k)))
    scalars = []
    for i in range(k):
        one = []
        scalars.append(quad_finite(_kinked(one), a[i], b[i], tol=1e-10, args=(c[i], i)))
        assert _rows_per_integral(calls, k)[i] == scalars[-1].evaluations
        assert all(len(rows) <= 2 for rows in one)
    _same_bits(batch, scalars)
    # each round is one call: the first holds every integral's first panel
    assert len(calls[0]) == k
    assert len(calls) == 1 + max((r.evaluations - 21) // 42 for r in scalars)


@given(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.2, 3.0), st.floats(0.5, 3.0)),
                min_size=1, max_size=5))
def test_quad_semi_infinite_batch_keeps_each_integrals_bits(cases):
    a, scale, c = (np.array(col) for col in zip(*cases))
    k = len(cases)
    calls = []
    batch = quad_semi_infinite(_decaying(calls), a, tol=1e-10, panel_scale=scale,
                               args=(c, np.arange(k)))
    scalars = [quad_semi_infinite(_decaying([]), a[i], tol=1e-10, panel_scale=scale[i],
                                  args=(c[i], i))
               for i in range(k)]
    _same_bits(batch, scalars)
    assert _rows_per_integral(calls, k) == [r.evaluations for r in scalars]


def _sequential_sweep(f, a, tol=1e-10, panel_scale=1.0, args=()):
    """quad_semi_infinite as a sweep of one dyadic panel per engine call, kept
    as the reference of the look-ahead sweep's values, error estimates and
    errors; its evaluation count leaves out the look-ahead panels."""
    (a, scale, *args), batched = numerics._batch(a, panel_scale, *args)
    a, scale = a.tolist(), scale.tolist()
    k = len(a)
    total, err_total, evals = [0.0] * k, [0.0] * k, [0] * k
    prev_mag, peak, tiny_run = [None] * k, [0.0] * k, [0] * k
    lo = list(a)
    open_ = list(range(k))
    for j in range(numerics._SWEEP_PANELS):
        reach = 2.0 ** (j + 1) - 1.0
        hi = [a[i] + scale[i] * reach for i in open_]
        rows = np.array(open_) if args else None
        parts = numerics._qag(
            f, [lo[i] for i in open_], hi, min(tol / 16.0, 1e-12), [p[rows] for p in args])
        still = []
        for i, hi_i, v, e, n, bad in zip(open_, hi, *parts):
            if bad and abs(v) > tol:
                raise QuadratureError(
                    "panel [%g, %g] did not converge" % (lo[i], hi_i),
                    best=numerics._result(total, err_total, evals, batched))
            total[i] += v
            err_total[i] += e
            evals[i] += n
            mag = abs(v)
            peak[i] = max(peak[i], mag)
            lo[i] = hi_i
            if mag <= max(tol * 1e-3, peak[i] * 1e-16):
                tiny_run[i] += 1
                if tiny_run[i] >= 2:
                    err_total[i] += tol * 1e-3
                    continue
            else:
                tiny_run[i] = 0
            prev = prev_mag[i]
            if prev is not None and prev > 0.0 and mag < prev:
                r = mag / prev
                if r < 0.75:
                    tail = mag * r / (1.0 - r)
                    if tail < tol:
                        err_total[i] += tail
                        continue
            prev_mag[i] = mag
            still.append(i)
        open_ = still
        if not open_:
            return numerics._result(total, err_total, evals, batched)
    raise QuadratureError(
        "tail decay not certified after %d panels" % numerics._SWEEP_PANELS,
        best=numerics._result(total, err_total, evals, batched))


def _same_sums(got, want):
    """The values and error estimates of two results (batch or one) in bits."""
    assert [float_bits(v) for v in np.ravel(got.value).tolist()] == [
        float_bits(v) for v in np.ravel(want.value).tolist()]
    assert [float_bits(e) for e in np.ravel(got.error_estimate).tolist()] == [
        float_bits(e) for e in np.ravel(want.error_estimate).tolist()]


def _tails(x, c, p):
    # e^{-c x} for c > 0, a power tail x^{-p} for c = 0
    return x * np.exp(-c * x) / (1.0 + x) ** (p + 1.0)


@given(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.05, 4.0),
                          st.just(0.0) | st.floats(1.0, 4.0), st.floats(3.0, 6.0)),
                min_size=1, max_size=6))
def test_look_ahead_sweep_keeps_the_sequential_bits(cases):
    a, scale, c, p = (np.array(col) for col in zip(*cases))
    batch = quad_semi_infinite(_tails, a, tol=1e-10, panel_scale=scale, args=(c, p))
    _same_sums(batch, _sequential_sweep(_tails, a, tol=1e-10, panel_scale=scale, args=(c, p)))
    for i in range(len(cases)):
        one = quad_semi_infinite(_tails, a[i], tol=1e-10, panel_scale=scale[i],
                                 args=(c[i], p[i]))
        _same_sums(one, _sequential_sweep(_tails, a[i], tol=1e-10, panel_scale=scale[i],
                                          args=(c[i], p[i])))


def _same_failure(f, a, match):
    with pytest.raises(QuadratureError, match=match) as got:
        quad_semi_infinite(f, a)
    with pytest.raises(QuadratureError) as want:
        _sequential_sweep(f, a)
    assert str(got.value) == str(want.value)
    _same_sums(got.value.best, want.value.best)
    return str(got.value)


@pytest.mark.parametrize("f", [
    lambda x: 1.0,
    # decays at first, so the sweep looks ahead, then grows
    lambda x: np.exp(-x) + 1e-9,
], ids=["constant", "decay-then-floor"])
def test_look_ahead_sweep_keeps_the_exhausted_sweeps_error(f):
    _same_failure(f, 0.0, "^tail decay not certified after 64 panels$")


@pytest.mark.parametrize("x0,rate", [(0.3, 1.0), (5.3, 1.0), (40.7, 0.2), (700.1, 0.01)])
def test_look_ahead_sweep_names_the_panel_that_did_not_converge(x0, rate):
    # sin(1/(x - x0)) keeps its panel's estimate above 1e-12 through 200 panels
    seen = []

    def f(x):
        seen.append(x.max())
        return np.exp(-rate * x) * np.sin(1.0 / (x - x0))

    message = _same_failure(f, 0.0, r"^panel \[\S+, \S+\] did not converge$")
    lo, hi = map(float, message[len("panel ["):-len("] did not converge")].split(", "))
    assert lo < x0 < hi
    # past the first panel, the sweep has looked ahead beyond the failing one
    assert (max(seen) > hi) == (lo > 0.0)


def test_look_ahead_panels_past_the_stop_are_discarded():
    # the sweep of e^{-x} stops before [127, 255], which its look-ahead
    # integrates, and where sin(1/(x - 200.3)) does not converge
    def f(x):
        return np.exp(-x) + np.where(x > 127.0, np.sin(1.0 / (x - 200.3)), 0.0)

    with pytest.raises(QuadratureError):
        quad_finite(f, 127.0, 255.0, tol=1e-12)
    seen = []

    def traced(x):
        seen.append(x.max())
        return f(x)

    _same_sums(quad_semi_infinite(traced, 0.0), _sequential_sweep(f, 0.0))
    assert max(seen) > 127.0


def test_quad_batch_with_one_integral_over_the_panel_budget():
    # x^-0.9 on [0, 1] keeps its error above 1e-12 through 200 panels;
    # x^2.5 bisects a few times and converges
    p = np.array([-0.9, 2.5])
    with pytest.raises(QuadratureError) as failing:
        quad_finite(lambda x: x ** p[0], 0.0, 1.0, tol=1e-12)
    converged = quad_finite(lambda x: x ** p[1], 0.0, 1.0, tol=1e-12)
    assert failing.value.best.evaluations == 21 + 42 * 199
    assert converged.evaluations > 21
    with pytest.raises(QuadratureError, match="did not converge in 200 panels") as info:
        quad_finite(lambda x, p: x**p, 0.0, 1.0, tol=1e-12, args=(p,))
    # the failing integral's running sums and the converged one's result
    _same_bits(info.value.best, [failing.value.best, converged])


def test_quad_batch_result_is_arrays_and_an_int_total():
    res = quad_finite(lambda x, w: np.cos(w * x), 0.0, [1.0, 2.0, 3.0], args=(2.0,))
    assert res.value.shape == res.error_estimate.shape == (3,)
    assert type(res.evaluations) is int
    assert np.allclose(res.value, np.sin(2.0 * np.array([1.0, 2.0, 3.0])) / 2.0, atol=1e-12)
    one = quad_finite(lambda x, w: np.cos(w * x), 0.0, 1.0, args=(2.0,))
    assert type(one.value) is float and type(one.evaluations) is int


def _battery_integrands():
    return [
        ("cos^6", lambda x: np.cos(x) ** 6, 0.0, 2.0 * np.pi, 1e-13),
        ("ramp", lambda x: x, 0.0, 1.0, 1e-10),
        ("rational", lambda u: u * u / (u * u + 1.0) ** 2, 0.0, 3.0, 1e-12),
        ("rational cube", lambda u: 1.0 / (u * u + 1.0) ** 3, 0.0, 3.0, 1e-12),
        ("quartic thermal", lambda x: x**4 * np.exp(-x) / (1.0 - np.exp(-x)) ** 2, 0.0, 1.0,
         1e-12),
        ("damped cos*sin", lambda t: t * np.exp(-0.05 * t) * np.cos(t) * np.sin(1.3 * t),
         20.0, 60.0, 1e-12),
        ("total derivative", lambda t: 1.1 * np.sin(1.1 * t) * np.sin(0.9 * t), 0.3, 2.1, 1e-12),
        ("dissipation", lambda w: ((2.0 * w - 1.3) / 2.0) ** 2 * 0.8 * w * 1.7 * (1.3 - w),
         0.0, 1.3, 1e-13),
        ("H0 segment", lambda m: m * m * 0.5 * m * m / np.sinh(m / 2.0) ** 2, 0.2, 0.4, 1e-13),
        ("psi_hat transform", lambda t: verification._psi_hat_integrand(t, 1.0, 0.7),
         0.0, 1.0 / 0.7, 1e-12),
    ]


@pytest.mark.parametrize("case", _battery_integrands(), ids=lambda c: c[0])
def test_quad_agrees_with_scipy_on_the_battery_integrands(case):
    integrate = pytest.importorskip("scipy.integrate")
    name, f, a, b, tol = case
    value, _, info = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=200,
                                    full_output=True)[:3]
    res = quad_finite(f, a, b, tol=tol)
    assert abs(res.value - value) <= 2.0 * tol * max(1.0, abs(value))
    if info["neval"] == 21:
        assert res.evaluations == 21


def test_circulant_solve_matches_a_dense_solve():
    rng = np.random.Generator(np.random.Philox(key=4))
    n = 7
    c = rng.normal(size=n) + np.eye(1, n, 0)[0] * 5.0
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    C = np.array([[c[(i - j) % n] for j in range(n)] for i in range(n)])
    assert np.max(np.abs(numerics.circulant_solve(c, b) - np.linalg.solve(C, b))) <= 1e-14


def test_polygamma_exact_values_and_recurrence():
    assert abs(numerics.polygamma(1, 1.0) - np.pi**2 / 6.0) <= 2e-16 * np.pi**2 / 6.0
    assert abs(numerics.polygamma(3, 1.0) - np.pi**4 / 15.0) <= 2e-16 * np.pi**4 / 15.0
    for x in (1.5, 9.5, 10.0, 37.0):
        assert abs(numerics.polygamma(1, x) - numerics.polygamma(1, x + 1.0) - x**-2) <= 1e-15
        assert abs(numerics.polygamma(3, x) - numerics.polygamma(3, x + 1.0) - 6.0 * x**-4) <= (
            1e-15 * 6.0 * x**-4 + 1e-17)
    with pytest.raises(ValueError):
        numerics.polygamma(0, 1.0)
    with pytest.raises(ValueError):
        numerics.polygamma(1, 0.0)


def test_polygamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    xs = np.unique(np.concatenate([np.arange(2.0, 41.0), np.geomspace(41.0, 1e6, 60).round()]))
    for n in (1, 3):
        for x in xs.tolist():
            ref = float(special.polygamma(n, x))
            assert abs(numerics.polygamma(n, x) - ref) <= 1e-15 * ref


# x = 1 gives zeta(2) and zeta(4); about x = 10 the recurrence hands over
# to the asymptotic series; x = n_max + 1 is the Matsubara tail past the
# grids the tests and the benchmark use
POLYGAMMA_X = [1.0, 2.0, 3.0, math.nextafter(10.0, 0.0), 10.0, math.nextafter(10.0, 11.0),
               10.5, 6.0, 1001.0, 5001.0, 20_001.0, 40_001.0, 60_001.0, 200_001.0]


@pytest.mark.parametrize("x", POLYGAMMA_X)
@pytest.mark.parametrize("n", [1, 3])
def test_polygamma_matches_mpmath(n, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.psi(n, mpmath.mpf(x))
        err = abs(mpmath.mpf(numerics.polygamma(n, x)) - ref) / abs(ref)
    # these 28 points measured at most 2.35u, at n = 3 and x = 10
    assert err <= 4.0 * 2.0**-53
