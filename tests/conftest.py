"""Shared test helpers: an in-process CLI runner and a check adapter."""

import contextlib
import io
import struct

import numpy as np
import pytest

from magfriction import cli as _cli_module
from magfriction._ieee import ArrayOps, FloatOps

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "repo",
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("repo")
except ImportError:
    pass


# separations on the axis r = (0, 0, d): every third of a decade the float
# range holds, of both signs, and those where r^6 or r^8 leaves it
AXIAL_D = [s * 10.0 ** (k / 3.0) for k in range(-969, 925) for s in (1.0, -1.0)] + [
    5e-324, 1e-40, 1e-41, 1e40, 1e52, 1.7e308]


def axial_outcomes(fn):
    """{d: the cells of fn(d, FloatOps), or the type of the ArithmeticError it
    raises} over AXIAL_D, after checking that the grid ops agree: one
    column of the returning d holds the same bits, and a one-point grid at
    a raising d fails with the same exception type."""
    outcomes = {}
    for d in AXIAL_D:
        try:
            got = fn(d, FloatOps)
        except ArithmeticError as exc:
            outcomes[d] = type(exc)
            ops = ArrayOps((1,))
            with np.errstate(all="ignore"):
                fn(np.array([d]), ops)
            with pytest.raises(type(exc)):
                ops.raise_first()
            continue
        assert all(type(x) is float for x in got)
        outcomes[d] = got
    returned = [d for d, got in outcomes.items() if not isinstance(got, type)]
    ops = ArrayOps((len(returned),))
    with np.errstate(all="ignore"):
        cols = fn(np.array(returned), ops)
    ops.raise_first()
    assert [list(map(float_bits, t)) for t in zip(*(c.tolist() for c in cols))] == [
        list(map(float_bits, outcomes[d])) for d in returned]
    return outcomes


def float_bits(x):
    """The bytes of a float, so that -0.0 differs from 0.0; "nan" for any nan."""
    return struct.pack("<d", x) if x == x else "nan"


def assert_check(fn, *args, **kwargs):
    """Run a verification check function and assert it passed."""
    ok, detail = fn(*args, **kwargs)
    assert ok, detail


@pytest.fixture
def cli():
    """Invoke the CLI in process; returns (exit_code, stdout_text)."""

    def run(*args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _cli_module.main([str(a) for a in args])
        return code, buf.getvalue()

    return run
