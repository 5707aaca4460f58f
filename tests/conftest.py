"""Shared test helpers: an in-process CLI runner and a check adapter."""

import contextlib
import io
import struct

import pytest

from magfriction import cli as _cli_module

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
