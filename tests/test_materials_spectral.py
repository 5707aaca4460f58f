"""Polarizability spectra, the Drude model, thermal factors, and I."""

import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import magfriction
from magfriction._ieee import FloatOps
from magfriction.materials_spectral import (
    LinearSpectralDensity,
    SpectrumFileError,
    TabulatedSpectralDensity,
    drude_D,
    smoothed_H0,
    universal_I,
)
from magfriction.verification import h_from_spectrum, spectrum_from_h, thermal_H


def test_h_linear_truncated_closed_form():
    D, m_max = 0.7, 30.0
    spec = LinearSpectralDensity(D, m_max=m_max)
    for K2 in (0.5, 1.0, 9.0):
        K = np.sqrt(K2)
        closed = 2.0 * D * (m_max - K * np.arctan(m_max / K))
        assert abs(h_from_spectrum(spec, K2) - closed) <= 1e-10 * closed


def test_h_linear_requires_cutoff():
    with pytest.raises(ValueError):
        h_from_spectrum(LinearSpectralDensity(1.0), 1.0)


def test_spectrum_from_real_h_vanishes():
    assert spectrum_from_h(lambda z: np.real(np.asarray(z)), 1.0) == 0.0


def test_drude_D_values():
    assert drude_D(9.0, 0.0, 1.0, FloatOps) == 0.0
    d = drude_D(9.0, 0.1, 1.0, FloatOps)
    assert abs(d - 0.1 / (81.0 * np.pi**2)) <= 1e-18
    assert d == pytest.approx(1.2508e-4, rel=1e-4)
    for omega_p, nu, rho in ((0.0, 0.1, 1.0), (9.0, -0.1, 1.0), (9.0, 0.1, 0.0)):
        with pytest.raises(ValueError, match="omega_p, rho must be positive and nu >= 0"):
            drude_D(omega_p, nu, rho, FloatOps)


def test_thermal_H_values():
    assert abs(thermal_H(2.0, 2.0, 1.0, 1.0, 1.0) - 1.0 / np.sinh(1.0) ** 2) <= 1e-15
    assert thermal_H(2.0, 2.0, 1.0, 1.0, 100.0) <= 1e-40
    a = thermal_H(1.0, 2.5, 0.3, 0.9, 1.3)
    b = thermal_H(2.5, 1.0, 0.9, 0.3, 1.3)
    assert abs(a - b) <= 2e-16 * a


def test_universal_I_value():
    val = universal_I()
    assert val == 4.0 * np.pi**4 / 15.0
    assert val == pytest.approx(25.975757, abs=1e-6)


def test_universal_I_partial_sums_monotone():
    partial = np.cumsum(24.0 / np.arange(1.0, 200.0) ** 4)
    assert all(b > a for a, b in zip(partial, partial[1:]))
    assert partial[-1] < universal_I()


def test_smoothed_H0_closed_form():
    val = smoothed_H0(LinearSpectralDensity(1.0), LinearSpectralDensity(1.0), 1.0)
    assert abs(val - 8.0 * np.pi**5 / 15.0) <= 1e-13 * val
    # quartic beta scaling
    half = smoothed_H0(LinearSpectralDensity(1.0), LinearSpectralDensity(1.0), 2.0)
    assert half == val / 16.0


@pytest.mark.parametrize("beta", [1e-2, 1e-4, 1e-6])
def test_smoothed_H0_hot_tabulated_matches_split_quad(beta):
    # at these temperatures 1/beta lies far past the support [0, 8]; the
    # reference integrates the support alone, split at the grid points
    pytest.importorskip("scipy")
    from scipy.integrate import quad

    m = np.linspace(0.0, 8.0, 41)
    s1, s2 = TabulatedSpectralDensity(m, 0.5 * m), LinearSpectralDensity(1.0)

    def integrand(x):
        return x * x * float(s1.density(x)) * float(s2.density(x)) / np.sinh(beta * x / 2.0) ** 2

    ref, _ = quad(integrand, 0.0, 8.0, points=m[1:-1], epsabs=0.0, epsrel=1e-13, limit=200)
    ref *= np.pi * beta / 2.0
    assert abs(smoothed_H0(s1, s2, beta) - ref) <= 1e-12 * ref


def test_tabulated_H0_leaves_numpy_ma_unloaded():
    # np.unique would load numpy.ma, 10-15 ms in a fresh process
    code = """
import sys
import numpy as np
from magfriction.materials_spectral import TabulatedSpectralDensity, smoothed_H0
m = np.linspace(0.0, 5.0, 301)
smoothed_H0(TabulatedSpectralDensity(m, m), TabulatedSpectralDensity(1.1 * m, 0.5 * m), 2.0)
print(sorted(k for k in ("numpy", "numpy.ma") if k in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(magfriction.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert out.stdout == b"['numpy']\n"


def test_smoothed_H0_positive_and_decaying():
    s = LinearSpectralDensity(0.3)
    vals = [smoothed_H0(s, s, b) for b in (0.5, 1.0, 4.0, 16.0)]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_tabulated_from_text(tmp_path):
    p = tmp_path / "spec.txt"
    p.write_text("# header comment\n0.0 0.0\n1.0 0.5\n2.0 1.0\n")
    spec = TabulatedSpectralDensity.from_text(p)
    assert spec.density(1.0) == 0.5


def test_tabulated_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 0.0\n1.0 -0.5\n")
    with pytest.raises(ValueError):
        TabulatedSpectralDensity.from_text(bad)
    nonmono = tmp_path / "nonmono.txt"
    nonmono.write_text("1.0 0.5\n0.5 0.2\n")
    with pytest.raises(ValueError):
        TabulatedSpectralDensity.from_text(nonmono)


@pytest.mark.parametrize("body", [None, "not numbers\n", "1.0\n2.0\n", "1 2 3\n4 5 6\n"])
def test_tabulated_file_errors(tmp_path, body):
    # unreadable, unparseable or not two columns: SpectrumFileError
    path = tmp_path / "spec.txt"
    if body is not None:
        path.write_text(body)
    with pytest.raises(SpectrumFileError, match="spectrum file"):
        TabulatedSpectralDensity.from_text(path)


def _loadtxt_reference(path):
    """What from_text gave when it called np.loadtxt on the path: the m and
    s bytes, or the exception class and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, comments="#", ndmin=2)
    except Exception as exc:
        return SpectrumFileError, "cannot parse spectrum file %s: %s" % (path, exc)
    if data.shape[1] != 2:
        return SpectrumFileError, "spectrum file %s needs two columns" % path
    try:
        spec = TabulatedSpectralDensity(data[:, 0], data[:, 1])
    except ValueError as exc:
        return ValueError, str(exc)
    return spec.m.tobytes(), spec.s.tobytes()


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 50).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1_0", "1e3", "-0.0", "+2.5", ".5", "x", "1,5",
                     "\uff11", "0x10"]),
)
# a density value, often in another spelling than repr
_DENSITY = st.one_of(st.floats(0.0, 1e6).map(repr),
                     st.sampled_from(["0", "1_0", "2e-3", "+.5", "1E2", "inf", "nan"]))
_SPACE = st.sampled_from([" ", "  ", "\t", "\f", "\v", " \t "])
_COMMENT = st.text(alphabet="ab #é–\u00a0\t\f", max_size=8).map(lambda t: "#" + t)


@st.composite
def _spectrum_text(draw):
    """Rows of 1 to 3 columns, most of them two columns of an increasing
    grid and a nonnegative density, between comments and blank lines,
    with every line end that universal newlines knows."""
    columns = draw(st.sampled_from([2, 2, 2, 1, 3]))
    m = draw(st.floats(0.0, 10.0))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "odd row", "comment", "blank"]))
        if kind == "row":
            m += draw(st.floats(1e-3, 10.0))
            cells = [repr(m)] + [draw(_DENSITY) for _ in range(columns - 1)]
        elif kind == "odd row":
            cells = draw(st.lists(_NUMBERS, min_size=1, max_size=3))
        if kind.endswith("row"):
            line = draw(st.sampled_from(["", " ", "\t"])) + draw(_SPACE).join(cells)
            if draw(st.booleans()):
                line += draw(_SPACE) + draw(_COMMENT)
        elif kind == "comment":
            line = draw(_COMMENT)
        else:
            line = draw(st.sampled_from(["", " ", "\t", "\f"]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines)


@given(text=_spectrum_text())
def test_from_text_matches_loadtxt_on_the_path(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "spec.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = _loadtxt_reference(path)
        try:
            spec = TabulatedSpectralDensity.from_text(path)
        except ValueError as exc:
            got = type(exc), str(exc)
        else:
            got = spec.m.tobytes(), spec.s.tobytes()
    assert got == expected


def test_linear_density_validation():
    assert LinearSpectralDensity(0.5).is_linear
    assert not LinearSpectralDensity(0.5, m_max=2.0).is_linear
    assert not TabulatedSpectralDensity([0.0, 1.0], [0.0, 1.0]).is_linear
    for D in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            LinearSpectralDensity(D)
    with pytest.raises(ValueError):
        LinearSpectralDensity(1.0, m_max=0.0)
