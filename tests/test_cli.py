"""Command-line interface: exit codes, output format, reproducibility."""

import argparse
import contextlib
import gzip
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magfriction
from magfriction import cli as cli_module, units

SLABS_UNIT = [
    "friction", "slabs", "--temperature", "finite",
    "--beta", 1, "--d", 1, "--rho1", 1, "--rho2", 1,
    "--D1", 1, "--D2", 1, "--v", 1e-3,
]

SLABS_ZERO_UNIT = [
    "friction", "slabs", "--temperature", "zero",
    "--d", 1, "--rho1", 1, "--rho2", 1, "--D1", 1, "--D2", 1, "--v", 0.01,
]


def _data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _column(text, name):
    header, *rows = _data_rows(text)
    idx = header.split(",").index(name)
    return [row.split(",")[idx] for row in rows]


# --- exit codes ---------------------------------------------------------

EXIT_CASES = [
    (["eigen"], 3),                                        # missing parameter
    (["free-energy", "--alpha", 1, "--beta", 1,
      "--temperature-kelvin", 300], 3),                    # two temperatures
    (["free-energy", "--alpha", 1,
      "--temperature-kelvin", 300], 3),                    # kelvin needs gaussian
    (["free-energy", "--alpha", 1, "--beta", 1e6], 0),     # cold limit, closed form
    (["fields", "--d", 1, "--units", "gaussian"], 3),
    (SLABS_ZERO_UNIT[:-1] + [-0.01], 1),                   # negative speed
    (SLABS_ZERO_UNIT + ["--beta", 1], 3),                  # zero-T takes no beta
    (SLABS_UNIT + ["--spectrum-file-1", "x.txt"], 3),      # slabs are built-in only
    (["sweep", "--target", "eigen",
      "--axis", "alpha:0:1:50001"], 3),                    # over point budget
    (["sweep", "--target", "eigen",
      "--axis", "beta:1:2:3"], 3),                         # axis not in target
    (["sweep", "--target", "eigen",
      "--axis", "alpha:0:1:not-a-count"], 3),
    (["eigen", "--alpha", 1, "--config", "/no/such/file"], 3),
    (["free-energy", "--alpha", 1, "--beta", 1e-300], 0),  # hot limit stays finite
    (["free-energy", "--alpha", 1e200, "--beta", 1], 2),   # result overflows
    (SLABS_UNIT[:4] + ["--beta", 1e-200] + SLABS_UNIT[6:], 2),  # overflow
    (["friction", "pair", "--beta", 1e300, "--d", 1, "--v", 1e-3,
      "--D1", 1, "--D2", 1], 2),                           # overflow
    (SLABS_ZERO_UNIT[:-1] + ["nan"], 1),                   # non-finite input
    (["sweep", "--target", "eigen",
      "--axis", "alpha:0:inf:3"], 1),                      # non-finite axis bound
    (["eigen", "--alpha", 1, "--workers", 0], 3),          # workers below one
    # a Python-float power underflows to zero and then divides
    (["friction", "plane", "--z0", 1e-120, "--rho1", 1, "--beta", 1, "--v", 1,
      "--D1", 1, "--D2", 1], 2),
    (["friction", "slabs", "--temperature", "zero", "--d", 1e-60, "--rho1", 1,
      "--rho2", 1, "--D1", 1, "--D2", 1, "--v", 1], 2),
    (["friction", "pair", "--d", 1, "--beta", 1e-300, "--v", 1, "--D1", 1, "--D2", 1], 2),
    (["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 1, "--v", 1e-3,
      "--omega-p", 1e-200, "--D1", 1], 2),
    (["sweep", "--target", "friction-slabs-zero", "--rho1", 1, "--rho2", 1,
      "--D1", 1, "--D2", 1, "--axis", "v:1:1:1", "--axis", "d:1e-60:1:2"], 2),
    # positive d whose square underflows: 1/d^6 is not a float
    (["friction", "pair", "--d", 1e-200, "--beta", 1, "--v", 1, "--D1", 1, "--D2", 1], 2),
    (["fields", "--d", 1e-200], 2),
    # an abbreviated float flag takes a separate value; an ambiguous one does not
    (["eigen", "--alph", "-1e-05"], 1),
    (["friction", "pair", "--d", 1, "--beta", 1, "--v", 1, "--D1", 1, "--D", "-1e-05"], 3),
    (SLABS_UNIT[:6] + ["--rho", "-1e-05"] + SLABS_UNIT[8:], 3),
    (["verify", "--suite", "fields", "--json", "verify.json"], 3),  # no JSON mirror
]


# each case is named by its command line, as RANGE_EDGES are
EXIT_CASE_IDS = [" ".join(map(str, case[0])) for case in EXIT_CASES]
assert len(set(EXIT_CASE_IDS)) == len(EXIT_CASE_IDS)


@pytest.mark.parametrize("args,code", EXIT_CASES, ids=EXIT_CASE_IDS)
def test_exit_codes(cli, args, code):
    got, _ = cli(*args)
    assert got == code


@pytest.mark.parametrize("steps", [20_000_000, 10_000_000_000_000_000])
def test_sweep_size_is_checked_before_any_point_is_built(cli, capsys, steps):
    got, out = cli("sweep", "--target", "eigen", "--axis", "alpha:0:1:%d" % steps)
    assert (got, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: sweep of %d points exceeds --max-points 10000\n" % steps)


def test_overflow_names_command(cli, capsys):
    code, out = cli(*SLABS_UNIT[:4], "--beta", 1e-200, *SLABS_UNIT[6:])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "numerical failure: friction slabs: a computed value overflows the float range\n"
    )


def test_underflow_into_divisor_names_command(cli, capsys):
    code, out = cli(*SLABS_ZERO_UNIT[:4], "--d", 1e-60, *SLABS_ZERO_UNIT[6:])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "numerical failure: friction slabs: a divisor underflows to zero\n"
    )


def _not_finite(command):
    return "numerical failure: %s: a computed value is not finite\n" % command


def _subnormal(command):
    return ("numerical failure: %s: a computed value is subnormal"
            " (0 < |x| < 2.2250738585072014e-308) and has lost precision\n" % command)


def test_zero_T_force_near_the_float_limit(cli, capsys):
    # the force is finite, although the dissipated-energy route 2 tau H_P v^6 G_P
    # overflows; that route is the battery's, not the command's
    args = ["friction", "slabs", "--temperature", "zero", "--d", 1, "--rho1", 1, "--rho2", 1,
            "--D1", 10, "--D2", 10, "--v"]
    code, out = cli(*args, 1.38e51)
    assert code == 0
    assert _column(out, "force") == ["-4.823865839228791e+256"]
    code, out = cli(*args, 1e52)
    assert code == 0
    assert _column(out, "force") == ["-9.638285547938828e+260"]
    code, out = cli(*args, 1e62)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == _not_finite("friction slabs")
    code, out = cli(*args, 1e103)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "numerical failure: friction slabs: a computed value overflows the float range\n"
    )


def test_sweep_refuses_a_computed_subnormal_point(cli, capsys):
    args = ["sweep", "--target", "friction-slabs-finite", "--beta", 1, "--d", 1,
            "--rho2", 1e-160, "--D1", 1, "--D2", 1, "--v", 1]
    # rho1 = 1e-100, 1e-50, 1: every G is normal
    code, out = cli(*args, "--axis", "rho1:1e-100:1:3:log")
    assert code == 0
    assert len(_column(out, "G")) == 3
    # rho1 = 1e-160, 1e-80, 1: the first point's G is 7.9e-321
    capsys.readouterr()
    assert cli(*args, "--axis", "rho1:1e-160:1:3:log") == (2, "")
    assert capsys.readouterr().err == _subnormal("sweep")
    # a subnormal axis value is an input, echoed as given
    code, out = cli("sweep", "--target", "eigen", "--axis", "alpha:1e-310:1:3:log")
    assert code == 0
    assert _column(out, "sweep_alpha")[0] == _column(out, "alpha")[0] == "1e-310"


@pytest.mark.parametrize("args,force", [
    # -G v overflows, although the force -G v H0 is finite
    (["friction", "slabs", "--temperature", "finite", "--beta", 1, "--d", 1, "--rho1", 1e150,
      "--rho2", 1e150, "--D1", 1e-150, "--D2", 1e-150, "--v", 1e10], "-1281852258100.4058"),
    # 2 H_P v^6 G_P overflows, although the force is finite
    (["friction", "slabs", "--temperature", "zero", "--d", 1, "--rho1", 1, "--rho2", 1,
      "--D1", 100, "--D2", 100, "--v", 1e51], "-9.638285547938826e+257"),
])
def test_finite_slab_force_is_not_refused_by_an_assembly_route(cli, capsys, args, force):
    code, out = cli(*args)
    assert (code, capsys.readouterr().err) == (0, "")
    assert _column(out, "force") == [force]


_PAIR_UNIT = ["--beta", 1, "--v", 1, "--D1", 1, "--D2", 1]
# a speed that keeps the pair force finite where G_xx nears the float limit
_TINY_V = ["--beta", 1, "--v", 1e-300, "--D1", 1, "--D2", 1]
_TINY_SLABS = ["--d", 1, "--rho1", 1e-160, "--rho2", 1e-160, "--D1", 1, "--D2", 1, "--v", 1]
# a Gaussian finite-T slab case, after its temperature and v, which lead its
# command line so that the cases' names differ within their first 60 characters
_CGS_SLABS = ["--temperature", "finite", "--units", "gaussian",
              "--d", 1e-7, "--rho1", 1e22, "--rho2", 1e22, "--D1", 1e-30, "--D2", 1e-30]

_FIELDS_HEAD = "d,coupling_alpha,psi_xy,g_xx,g_zz,b_y_unit_pdot,e_x_unit_mdot"
_PAIR_HEAD = "regime,units,force,G_factor,H0,beta,d,v"


def _overflows(command):
    return "numerical failure: %s: a computed value overflows the float range\n" % command


def _underflows(command):
    return "numerical failure: %s: a divisor underflows to zero\n" % command


# commands at the edges of the float range: exit code, data lines of stdout, stderr
RANGE_EDGES = [
    # d^6 underflows to zero (1e-60, 1e-200) or overflows (1e80); at -1e-45
    # every cell is a normal float
    (["fields", "--d", 1e-60], 2, [], _underflows("fields")),
    (["fields", "--d", 1e-200], 2, [], _underflows("fields")),
    (["fields", "--d", -1e-45], 0,
     [_FIELDS_HEAD, "-1e-45,5e+89,-1.0000000000000001e+90,2.0000000000000003e+270,"
      "8.000000000000001e+270,1e+90,-1e+90"], ""),
    (["fields", "--d", 1e80], 2, [], _overflows("fields")),
    # d^8 overflows, d^6 does not: G_zz is 4 G_xx
    (["fields", "--d", 1e40], 0,
     [_FIELDS_HEAD, "1e+40,5e-81,1e-80,1.9999999999999997e-240,7.999999999999999e-240,-1e-80,1e-80"],
     ""),
    (["fields", "--d", -2.5, "--z0", 3, "--rho1", 2], 0,
     ["d,coupling_alpha,psi_xy,g_xx,g_zz,b_y_unit_pdot,e_x_unit_mdot,z0,rho1,g_halfspace",
      "-2.5,0.08,-0.16,0.008192,0.032768,0.16,-0.16,3.0,2.0,0.11635528346628864"], ""),
    (["friction", "pair", "--d", 1e60] + _PAIR_UNIT, 2, [], _overflows("friction pair")),
    (["friction", "pair", "--d", 1e-41] + _PAIR_UNIT, 0,
     [_PAIR_HEAD, "pair-smoothed,reduced,-3.2642099710430015e+248,1.9999999999999997e+246,"
      "163.21049855215009,1.0,1e-41,1.0"], ""),
    (["friction", "pair", "--d", 1e-40] + _PAIR_UNIT, 0,
     [_PAIR_HEAD,
      "pair-smoothed,reduced,-3.264209971043003e+242,2.0000000000000008e+240,"
      "163.21049855215009,1.0,1e-40,1.0"], ""),
    (["eigen", "--alpha", 1e200], 2, [], _not_finite("eigen")),
    (["eigen", "--alpha", 1e154], 0,
     ["alpha,omega_plus,omega_minus,e0", "1e+154,2e+154,5e-155,1e+154"], ""),
    (["eigen", "--alpha", 1e7], 0,
     ["alpha,omega_plus,omega_minus,e0",
      "10000000.0,20000000.000000052,4.999999999999987e-08,10000000.00000005"], ""),
    (["eigen", "--alpha", 1e8], 0,
     ["alpha,omega_plus,omega_minus,e0", "100000000.0,200000000.0,5e-09,100000000.0"], ""),
    (["free-energy", "--alpha", 1e200, "--beta", 1], 2, [], _not_finite("free-energy")),
    # x = beta/2 on either side of 4.5e307, past which 4x would overflow in
    # the temperature bracket: F = alpha^2/2 on both
    (["free-energy", "--alpha", 1, "--beta", 8e307], 0,
     ["alpha,beta,free_energy", "1.0,8e+307,0.5"], ""),
    (["free-energy", "--alpha", 1, "--beta", 1e308], 0,
     ["alpha,beta,free_energy", "1.0,1e+308,0.5"], ""),
    (["free-energy", "--alpha", 1e150, "--units", "gaussian", "--temperature-kelvin", 1e-300], 0,
     ["alpha,beta,free_energy,free_energy_erg,temperature_kelvin",
      "1e+150,2.2898844710390102e+299,4.9999999999999995e+299,1.5807633602974219e+283,"
      "1e-300"], ""),
    (["friction", "slabs", "--temperature-kelvin", 1e-300, "--v", 1, *_CGS_SLABS], 2, [],
     "numerical failure: friction slabs: a computed value overflows the float range\n"),
    (["friction", "slabs", "--temperature-kelvin", 1e300, "--v", 1, *_CGS_SLABS], 2, [],
     "numerical failure: friction slabs: a computed value overflows the float range\n"),
    (["friction", "slabs", "--temperature-kelvin", 1e-3, "--v", 1e4, *_CGS_SLABS], 0,
     ["regime,units,force,G,H0,I,reference_force,suppression,D1,D1_cgs,D2,D2_cgs,beta,"
      "beta_cgs,d,d_cgs,rho1,rho1_cgs,rho2,rho2_cgs,temperature_kelvin,v,v_cgs",
      "slabs-finite-T,gaussian,-4.914208104470094e-66,8.738733105285797e+36,"
      "5.623478878760625e-107,25.975757609067312,-2.576799882077495e-47,"
      "1.9070973026078025e-19,3.1615267205948446e-47,1e-30,3.1615267205948446e-47,1e-30,"
      "228.98844822940836,7.242970516039921e+18,1e-07,1e-07,1e+22,1e+22,1e+22,1e+22,"
      "0.001,3.33564095198152e-07,10000.0"], ""),
    (["friction", "pair", "--units", "gaussian", "--temperature-kelvin", 1e200, "--d", 1e-7,
      "--v", 1, "--D1", 1e-30, "--D2", 1e-30], 2, [],
     "numerical failure: friction pair: a divisor underflows to zero\n"),
    # G and the force pass through the subnormal range: G 7.9e-321, force
    # -1.3e-318 at finite T; G_P 3.7e-320, force -9.6e-322 at zero T
    (["friction", "slabs", "--temperature", "finite", "--beta", 1, *_TINY_SLABS], 2, [],
     _subnormal("friction slabs")),
    (["friction", "slabs", "--temperature", "zero", *_TINY_SLABS], 2, [],
     _subnormal("friction slabs")),
    # an input echoed as given may be subnormal
    (["eigen", "--alpha", 1e-310], 0,
     ["alpha,omega_plus,omega_minus,e0", "1e-310,1.0,1.0,1.0"], ""),
    # more edges of d, alone and with a half-space: d^2 underflows to zero,
    # or d^2 overflows
    *((["fields", "--d", d, *half], 2, [], fails("fields"))
      for d, fails in ((5e-324, _underflows), (-5e-324, _underflows), (-1e-200, _underflows),
                       (1e200, _overflows), (-1e200, _overflows),
                       (1.7976931348623157e308, _overflows), (-1.7976931348623157e308, _overflows))
      for half in ([], ["--z0", 1.5, "--rho1", 2])),
    *((["fields", "--d", d, *half], 0,
       [_FIELDS_HEAD + head,
        "%s,0.2222222222222222,%s0.4444444444444444,0.1755829903978052,0.7023319615912208,"
        "%s0.4444444444444444,%s0.4444444444444444%s" % (d, *signs, tail)], "")
      for d, signs in ((1.5, ("", "-", "")), (-1.5, ("-", "", "-")))
      for half, head, tail in (([], "", ""), (["--z0", 1.5, "--rho1", 2], ",z0,rho1,g_halfspace",
                                              ",1.5,2.0,0.9308422677303091"))),
    (["friction", "pair", "--d", 5e-324] + _PAIR_UNIT, 2, [], _underflows("friction pair")),
    (["friction", "pair", "--d", 1e200] + _PAIR_UNIT, 2, [], _overflows("friction pair")),
    # where d^6 is a normal float: every cell is its float, and G_zz is 4 G_xx
    (["fields", "--d", 1e-45], 0,
     [_FIELDS_HEAD, "1e-45,5e+89,1.0000000000000001e+90,2.0000000000000003e+270,"
      "8.000000000000001e+270,-1e+90,1e+90"], ""),
    (["fields", "--d", 1e-41], 0,
     [_FIELDS_HEAD, "1e-41,5e+81,1e+82,1.9999999999999997e+246,7.999999999999999e+246,-1e+82,"
      "1e+82"], ""),
    (["friction", "pair", "--d", 1e-45] + _PAIR_UNIT, 0,
     [_PAIR_HEAD, "pair-smoothed,reduced,-3.2642099710430024e+272,2.0000000000000003e+270,"
      "163.21049855215009,1.0,1e-45,1.0"], ""),
    # the sign of d is refused before the coupling is computed
    (["friction", "pair", "--d", -1e-45] + _PAIR_UNIT, 1, [],
     "invalid input: d must be positive\n"),
    # d^6 overflows
    (["fields", "--d", 2.5e51], 2, [], _overflows("fields")),
    # d^6 is subnormal for |d| below ~5.3e-52, and the power fails its point
    (["friction", "pair", "--d", 5e-52, *_TINY_V], 2, [], _subnormal("friction pair")),
    (["fields", "--d", 5e-52], 2, [], _subnormal("fields")),
    (["fields", "--d", 1e-53], 2, [], _subnormal("fields")),
    # d^6 is a normal float: every printed cell is its float
    (["friction", "pair", "--d", 5.5e-52, *_TINY_V], 0,
     [_PAIR_HEAD, "pair-smoothed,reduced,-11792393157.60237,7.225266304688351e+307,"
      "163.21049855215009,1.0,5.5e-52,1e-300"], ""),
    # a quotient overflows and fails its point as a power does: G_zz = 8/d^6
    # (the pair above prints only G_xx = 2/d^6), G_h = pi rho/(2 z0^3), and
    # the Drude slope nu/(rho (pi omega_p)^2)
    (["fields", "--d", 5.5e-52], 2, [], _overflows("fields")),
    (["friction", "plane", "--z0", 1e-102, "--rho1", 1e10, *_TINY_V], 2, [],
     _overflows("friction plane")),
    (["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 1, "--v", 0.001, "--D1", 1,
      "--omega-p", 1e-154, "--nu", 1000], 2, [], _overflows("friction plane")),
    # d^6 underflows to zero and |d|^3 is subnormal: in fields psi_xy = d/|d|^3
    # fails first; the pair computes no psi_xy, and 2/d^6 divides by zero
    (["fields", "--d", 1e-105], 2, [], _subnormal("fields")),
    (["friction", "pair", "--d", 1e-105, *_PAIR_UNIT], 2, [], _underflows("friction pair")),
]


# each case is named by its command line, so that its name holds when a case
# is inserted before it or its outcome changes; pytest would add a suffix to
# a repeated name without a word
RANGE_EDGE_IDS = [" ".join(map(str, case[0])) for case in RANGE_EDGES]
assert len(set(RANGE_EDGE_IDS)) == len(RANGE_EDGE_IDS)


@pytest.mark.parametrize("args,code,rows,err", RANGE_EDGES, ids=RANGE_EDGE_IDS)
def test_range_edge_outcomes(cli, capsys, args, code, rows, err):
    got, out = cli(*args)
    assert (got, _data_rows(out), capsys.readouterr().err) == (code, rows, err)


SLAB_PARAMS = ["--d", 1, "--rho1", 1, "--rho2", 1, "--D1", 1, "--D2", 1]

# one failing one-shot command per check: exit code and its stderr line;
# {file} is a valid linear spectrum file
ONE_SHOT_FAILURES = [
    (["eigen", "--alpha", -1], 1, "invalid input: alpha must be >= 0"),
    (["free-energy", "--alpha", 1, "--beta", -2], 1, "invalid input: beta must be positive"),
    (["free-energy", "--alpha", 1, "--units", "gaussian", "--temperature-kelvin", -5], 1,
     "invalid input: temperature must be positive"),
    (["friction", "pair", "--d", -1, "--beta", 1, "--v", 1, "--D1", 1, "--D2", 1], 1,
     "invalid input: d must be positive"),
    (["friction", "plane", "--z0", -1, "--rho1", 1, "--beta", 1, "--v", 1,
      "--D1", 1, "--D2", 1], 1, "invalid input: z0 and rho must be positive"),
    (["friction", "slabs", "--temperature", "finite", "--beta", 1, "--v", 1,
      "--d", 1, "--rho1", 1, "--rho2", -1, "--D1", 1, "--D2", 1], 1,
     "invalid input: d, rho1, rho2 must be positive"),
    (["friction", "slabs", "--temperature", "zero", "--v", -0.01, *SLAB_PARAMS], 1,
     "invalid input: v must be >= 0 in this regime"),
    (["friction", "pair", "--d", 1, "--beta", 1, "--v", 1, "--D1", -1, "--D2", 1], 1,
     "invalid input: D must be finite and >= 0"),
    (["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 1, "--v", 1, "--D1", 1], 3,
     "error: no spectrum for side 2: give --spectrum-file-2, --D2, or --omega-p/--nu"),
    (["friction", "slabs", "--temperature", "finite", "--beta", 1, "--v", 1,
      "--spectrum-file-1", "{file}", *SLAB_PARAMS], 3,
     "error: friction slabs --temperature finite takes no --spectrum-file-1"),
    (["friction", "slabs", "--temperature", "zero", "--v", 1, "--beta", 1, *SLAB_PARAMS], 3,
     "error: friction slabs --temperature zero takes no --beta"),
    (["friction", "pair", "--d", 1, "--beta", 1, "--temperature-kelvin", 300, "--v", 1,
      "--D1", 1, "--D2", 1], 3, "error: give either --beta or --temperature-kelvin, not both"),
    (["friction", "pair", "--d", 1, "--beta", 1, "--D1", 1, "--D2", 1, "--v", "-inf"], 1,
     "invalid input: --v must be finite, got -inf"),
    # the squared sinh underflows at this temperature: a float failure, not bad input
    (["friction", "pair", "--d", 1, "--beta", 1e-200, "--v", 1, "--D2", 1,
      "--spectrum-file-1", "{file}"], 2,
     "numerical failure: friction pair: H0 integrand is not a finite float at m=0.0198551"),
    # a flag that the route does not read; of several, the first in _PARAMS order
    (["friction", "slabs", "--temperature", "zero", "--v", 0.01, *SLAB_PARAMS,
      "--alpha", 5, "--nu", 3], 3, "error: friction slabs --temperature zero takes no --alpha"),
    (["friction", "pair", "--d", 1, "--beta", 1, "--v", 1, "--D1", 1, "--D2", 1,
      "--omega-p", 9], 3, "error: friction pair takes no --omega-p"),
    (["fields", "--d", 1, "--rho2", 1], 3, "error: fields takes no --rho2"),
    # refused before any value is checked: --d -1 alone exits 1
    (["friction", "slabs", "--temperature", "zero", "--v", 0.01, "--d", -1, *SLAB_PARAMS[2:],
      "--beta", 1], 3, "error: friction slabs --temperature zero takes no --beta"),
    # a flag the route reads only without another
    (["fields", "--d", 1, "--rho1", 2], 3, "error: fields takes --rho1 only with --z0"),
    (["friction", "pair", "--d", 1, "--beta", 1, "--v", 1, "--D1", 1, "--D2", 1,
      "--spectrum-file-1", "{file}"], 3,
     "error: friction pair takes no --D1 with --spectrum-file-1"),
    (["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 1, "--v", 1e-3, "--D1", 1,
      "--D2", 1, "--omega-p", 9, "--nu", 0.1], 3,
     "error: friction plane takes no --omega-p with --D2"),
    (["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 1, "--v", 1e-3, "--D1", 1,
      "--spectrum-file-2", "{file}", "--nu", 0.1], 3,
     "error: friction plane takes no --nu with --spectrum-file-2"),
    (["friction", "slabs", "--temperature", "zero", "--v", 0.01, *SLAB_PARAMS,
      "--omega-p", 3], 3,
     "error: friction slabs --temperature zero takes no --omega-p with --D1 and --D2"),
    # the slab routes read no spectrum file, so their message names none
    (["friction", "slabs", "--temperature", "finite", "--d", 1, "--rho1", 1, "--rho2", 1,
      "--D1", 1, "--v", 1, "--beta", 1], 3,
     "error: no spectrum for side 2: give --D2, or --omega-p/--nu"),
]


ONE_SHOT_FAILURE_IDS = [" ".join(map(str, case[0])) for case in ONE_SHOT_FAILURES]
assert len(set(ONE_SHOT_FAILURE_IDS)) == len(ONE_SHOT_FAILURE_IDS)


@pytest.mark.parametrize("args,code,message", ONE_SHOT_FAILURES, ids=ONE_SHOT_FAILURE_IDS)
def test_one_shot_failure_message(cli, capsys, tmp_path, args, code, message):
    path = _write(tmp_path / "s.txt", "0 0\n1 1\n2 2\n")
    got, out = cli(*(path if a == "{file}" else a for a in args))
    assert (got, out) == (code, "")
    assert capsys.readouterr().err == message + "\n"


# a configuration error and a value error at the first point (or a
# non-finite input): the configuration error is reported, exit 3. Each row
# names the config file's text, or None; {file} is a valid linear spectrum
# file, {negative} one with a negative density and {garbage} one that
# cannot be parsed
PRECEDENCE = [
    (["friction", "plane", "--z0", -1, "--rho1", 1, "--beta", 1, "--v", 1, "--D1", 1], None,
     "error: no spectrum for side 2: give --spectrum-file-2, --D2, or --omega-p/--nu"),
    (["friction", "plane", "--z0", -1, "--rho1", 1, "--beta", 1, "--v", 1, "--D1", 1,
      "--spectrum-file-2", "{garbage}"], None, "error: cannot parse spectrum file {garbage}: "),
    # bad data on side 1 is a value error, after side 2's unreadable file
    (["friction", "pair", "--d", 1, "--beta", 1, "--v", 1, "--spectrum-file-1", "{negative}",
      "--spectrum-file-2", "{garbage}"], None, "error: cannot parse spectrum file {garbage}: "),
    (["friction", "slabs", "--temperature", "finite", "--d", -1, *SLAB_PARAMS[2:], "--v", 1],
     None, "error: a temperature is required: --beta or --temperature-kelvin"),
    (["friction", "slabs", "--temperature", "finite", "--d", -1, *SLAB_PARAMS[2:], "--v", 1,
      "--temperature-kelvin", 300], None,
     "error: --temperature-kelvin requires --units gaussian"),
    (["friction", "slabs", "--temperature", "finite", "--d", -1, *SLAB_PARAMS[2:], "--v", 1,
      "--beta", 1, "--temperature-kelvin", 300, "--units", "gaussian"], None,
     "error: give either --beta or --temperature-kelvin, not both"),
    (["friction", "slabs", "--temperature", "zero", "--d", -1, *SLAB_PARAMS[2:], "--v", 1],
     "beta=1\n", "error: zero-temperature slabs take no temperature input"),
    (["friction", "slabs", "--temperature", "finite", "--d", 1, "--rho1", 1, "--rho2", -1,
      "--D2", 1, "--v", 1, "--beta", 1], "spectrum-file-1={file}\n",
     "error: slab commands need linear spectral slopes on side 1 "
     "(use --D1 or Drude parameters, not a spectrum file)"),
    (["friction", "slabs", "--temperature", "finite", "--d", 1, "--rho1", 1, "--rho2", -1,
      "--D1", 1, "--v", 1, "--beta", 1], None,
     "error: no spectrum for side 2: give --D2, or --omega-p/--nu"),
    (["sweep", "--target", "friction-plane", "--axis", "z0:-1:1:3", "--rho1", 1, "--beta", 1,
      "--v", 1, "--D1", 1], None,
     "error: no spectrum for side 2: give --spectrum-file-2, --D2, or --omega-p/--nu"),
    (["fields", "--d", "nan", "--units", "gaussian"], None,
     "error: fields reports reduced units only"),
    (["friction", "pair", "--v", "nan", "--beta", 1, "--D1", 1, "--D2", 1], None,
     "error: missing required parameter(s): --d"),
    (["sweep", "--target", "eigen", "--axis", "alpha:0:inf:3:log"], None,
     "error: log axis 'alpha:0:inf:3:log' needs positive bounds"),
]


@pytest.mark.parametrize("args,config,message", PRECEDENCE)
def test_configuration_errors_come_before_value_errors(cli, capsys, tmp_path, args, config,
                                                       message):
    files = {"file": _write(tmp_path / "s.txt", "0 0\n1 1\n2 2\n"),
             "negative": _write(tmp_path / "n.txt", "0 0\n1 -1\n"),
             "garbage": _write(tmp_path / "g.txt", "not numbers at all\n")}
    if config is not None:
        args = [*args, "--config", _write(tmp_path / "run.cfg", config.format_map(files))]
    got, out = cli(*(a.format_map(files) if isinstance(a, str) else a for a in args))
    assert (got, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith(message.format_map(files)) and err.count("\n") == 1


@pytest.mark.parametrize("config,code,message", [
    ("v=nan\n", 1, "invalid input: config key 'v' must be finite, got nan"),
    ("workers=0\n", 3, "error: config key 'workers' must be at least 1"),
    ("units=Gaussian\n", 3, "error: bad value for config key 'units'"),
    ("units=banana\n", 3, "error: bad value for config key 'units'"),
])
def test_a_config_value_is_named_by_its_key(cli, capsys, tmp_path, config, code, message):
    got, out = cli("eigen", "--alpha", 1, "--config", _write(tmp_path / "run.cfg", config))
    assert (got, out) == (code, "")
    assert capsys.readouterr().err == message + "\n"


def test_sweep_size_bound_from_a_config_file_is_named_by_its_key(cli, capsys, tmp_path):
    config = _write(tmp_path / "run.cfg", "max-points=2\n")
    got, out = cli("sweep", "--target", "eigen", "--axis", "alpha:0:1:3", "--config", config)
    assert (got, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: sweep of 3 points exceeds config key 'max-points' 2\n")


@pytest.mark.parametrize("args,message", [
    (["--d", 1, "--z0", -1], "z0 and rho must be positive"),
    (["--d", 1, "--z0", 2, "--rho1", 0], "z0 and rho must be positive"),
    # the axial separation is checked first
    (["--d", 0, "--z0", -1], "zero separation"),
])
def test_fields_refuses_a_half_space_off_its_domain(cli, capsys, args, message):
    got, out = cli("fields", *args)
    assert (got, out) == (1, "")
    assert capsys.readouterr().err == "invalid input: %s\n" % message


def test_tiny_separation_is_one_line_without_numpy_warnings():
    # a fresh interpreter, so that no earlier warning at the same place hides one
    out = _run_child("-m", "magfriction.cli", "friction", "pair", "--d", "1e-200",
                     "--beta", "1", "--v", "1", "--D1", "1", "--D2", "1")
    assert (out.returncode, out.stdout) == (2, b"")
    assert out.stderr == b"numerical failure: friction pair: a divisor underflows to zero\n"


def test_spectrum_grid_spanning_the_float_range_is_one_line(tmp_path):
    # a fresh interpreter, as above: the grid is checked in order without
    # subtracting points, whose difference here overflows
    path = _write(tmp_path / "s.txt", "-1e308 0\n1e308 1\n")
    out = _run_child("-m", "magfriction.cli", "friction", "pair", "--d", "1", "--beta", "1",
                     "--v", "1", "--D2", "1", "--spectrum-file-1", path)
    assert (out.returncode, out.stdout) == (1, b"")
    assert out.stderr == b"invalid input: m grid must be nonnegative\n"


def test_negative_exponent_value_as_separate_argument(cli):
    head = ["friction", "pair", "--d", 1, "--beta", 1, "--D1", 1, "--D2", 1]
    joined = cli(*head, "--v=-1e-05")
    assert joined[0] == 0
    assert cli(*head, "--v", "-1e-05") == joined


def test_hot_tabulated_pair_is_not_zero(cli, tmp_path):
    # 1/beta lies far past the support [0, 8] of the ramp
    m = np.linspace(0.0, 8.0, 41)
    path = _write(tmp_path / "ramp.txt", "".join("%.17g %.17g\n" % (x, 0.5 * x) for x in m))
    code, out = cli("friction", "pair", "--units", "gaussian", "--d", 1,
                    "--temperature-kelvin", 2500, "--v", 1e-3, "--D2", 1,
                    "--spectrum-file-1", path)
    assert code == 0
    assert float(_column(out, "force")[0]) < 0.0


def _split_quad_H0(m, s, D2, beta):
    """H0 of a tabulated side 1 (grid m, density s) and a slope D2 on side 2,
    by adaptive quadrature split at the grid points."""
    pytest.importorskip("scipy")
    from scipy.integrate import quad

    def integrand(x):
        return x * x * np.interp(x, m, s) * D2 * x / np.sinh(beta * x / 2.0) ** 2

    value, _ = quad(integrand, 0.0, m[-1], points=m[1:-1], epsabs=0.0, epsrel=1e-13, limit=200)
    return np.pi * beta / 2.0 * value


def test_tabulated_bump_pair_converges(cli, tmp_path):
    # the interpolant's kinks at the grid points once stopped the adaptive
    # route at beta = 1 ("panel [3, 7] did not converge")
    m = np.linspace(0.0, 8.0, 41)
    s = m * np.exp(-((m - 2.0) ** 2) / 4.0)
    path = _write(tmp_path / "bump.txt", "".join("%.17g %.17g\n" % p for p in zip(m, s)))
    code, out = cli("friction", "pair", "--d", 1, "--beta", 1, "--v", 1e-3, "--D2", 2,
                    "--spectrum-file-1", path)
    assert code == 0
    ref = _split_quad_H0(m, s, 2.0, 1.0)
    assert abs(float(_column(out, "H0")[0]) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_small_tabulated_H0_is_relatively_accurate(cli, tmp_path, beta):
    # --D2 1 in Gaussian units is a reduced slope of ~3e-17, so H0 is far
    # below 1; an absolute tolerance once left it off by 75%
    m = np.linspace(0.0, 8.0, 41)
    path = _write(tmp_path / "ramp.txt", "".join("%.17g %.17g\n" % (x, 0.5 * x) for x in m))
    code, out = cli("friction", "pair", "--units", "gaussian", "--d", 1, "--beta", beta,
                    "--v", 1e-3, "--D2", 1, "--spectrum-file-1", path)
    assert code == 0
    ctx = units.UnitContext(1.0)
    D2 = 1.0 / ctx.factor(units.INPUT_DIM["D2"])
    ref = _split_quad_H0(m, 0.5 * m, D2, beta)
    ref *= ctx.factor(units.INTERMEDIATE_DIM["H0"])
    assert abs(float(_column(out, "H0")[0]) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("head", [["eigen"], ["friction", "pair"], ["sweep", "--target", "eigen"]])
def test_abbreviated_float_flag_takes_separate_value(cli, capsys, head):
    # every prefix of every float flag: a separate value reads as the joined
    # one, and an ambiguous prefix is refused either way
    for flag in FLOAT_PARAMS:
        for end in range(1, len(flag) + 1):
            prefix = "--" + flag[:end]
            joined = cli(*head, prefix + "=-1e-05"), capsys.readouterr().err
            separate = cli(*head, prefix, "-1e-05"), capsys.readouterr().err
            assert separate[0] == joined[0], prefix
            if "ambiguous option" not in joined[1]:
                assert separate[1] == joined[1], prefix


@pytest.mark.parametrize("value", ["-1_0", "-Infinity", "-nan", "-1E-5"])
@pytest.mark.parametrize("flag", ["--alpha", "--alp"])
def test_any_float_text_is_a_separate_value(cli, capsys, flag, value):
    # argparse reads every text that float() reads as a value, not only
    # the spellings of its own negative-number pattern
    joined = cli("eigen", flag + "=" + value), capsys.readouterr().err
    assert (cli("eigen", flag, value), capsys.readouterr().err) == joined
    assert joined[0][0] == 1


def test_float_text_is_the_value_of_a_string_or_int_flag(cli, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = cli("eigen", "--alpha", 1, "--out", "-1e-05")
    assert (code, out) == (0, "")
    assert (tmp_path / "-1e-05").read_text().startswith("# magfriction")
    assert cli("eigen", "--alpha", 1, "--seed", "-1e5") == (3, "")
    assert capsys.readouterr().err == "error: argument --seed: invalid int value: '-1e5'\n"


def test_flag_table_matches_parser():
    # every command takes all the input flags, so that an abbreviation
    # reads the same everywhere
    def commands(parser, path=()):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
            return
        for name in subs[0].choices:  # each subcommand's arguments added
            yield from commands(subs[0].fill(name), path + (name,))

    inputs = {"--" + flag for flag in cli_module._INPUTS}
    for path, parser in commands(cli_module._build_parser()):
        assert inputs <= {f for a in parser._actions for f in a.option_strings}, path


def test_unknown_flag_is_config_error(cli):
    got, _ = cli("eigen", "--alpha", 1, "--bogus", 2)
    assert got == 3


def test_non_finite_config_value_is_validation_error(cli, tmp_path):
    path = _write(tmp_path / "run.cfg", "alpha = inf\n")
    code, out = cli("eigen", "--config", path)
    assert (code, out) == (1, "")


def test_config_file_that_is_not_utf8_is_unreadable(cli, capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"alpha = 1\n\xff\n")
    code, out = cli("eigen", "--config", path)
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1


def test_help_exits_zero(cli):
    code, out = cli("--help")
    assert code == 0
    assert out.startswith("usage: magfriction")


# --- the exit-code contract over the whole input domain ------------------

# log-uniform over ~1e-320 to 1e300 with both signs, and the edge values
SIGNED = st.builds(lambda sign, exponent: repr(sign * 10.0**exponent),
                   st.sampled_from([1.0, -1.0]), st.floats(-320.0, 300.0))
MAGNITUDE = st.one_of(st.sampled_from(["0", "-0.0", "nan", "inf", "-inf"]), SIGNED)
# a valid value: moderate, or positive anywhere in the float range
POSITIVE = st.builds(lambda exponent: repr(10.0**exponent),
                     st.one_of(st.floats(-3.0, 3.0), st.floats(-320.0, 300.0)))
FLOAT_PARAMS = [flag for flag, typ in cli_module._PARAMS if typ is float]
TEMPERATURES = {"beta", "temperature-kelvin"}

# target: one-shot command, parameters drawn valid (the required ones, and
# the half-space of fields), takes a temperature, and for each side that
# takes a spectrum whether a Drude metal can stand there
TARGETS = {
    "eigen": (["eigen"], ("alpha",), False, ()),
    "free-energy": (["free-energy"], ("alpha",), True, ()),
    "fields": (["fields"], ("d", "z0", "rho1"), False, ()),
    "friction-pair": (["friction", "pair"], ("d", "v"), True, (False, False)),
    "friction-plane": (["friction", "plane"], ("z0", "rho1", "v"), True, (False, True)),
    "friction-slabs-finite": (["friction", "slabs", "--temperature", "finite"],
                              ("d", "rho1", "rho2", "v"), True, (True, True)),
    "friction-slabs-zero": (["friction", "slabs", "--temperature", "zero"],
                            ("d", "rho1", "rho2", "v"), False, (True, True)),
}
ONE_SHOT = [entry for _, entry in sorted(TARGETS.items())]


def _draw_params(draw, reads, names, temperature, spectra, axes=()):
    """Valid values for a command's parameters, then up to three of the
    float inputs its route reads anywhere in the domain or left out."""
    units = draw(st.sampled_from(["reduced", "gaussian"]))
    names = list(names)
    if temperature and not TEMPERATURES & set(axes):
        kelvin = units == "gaussian" and draw(st.booleans())
        names.append("temperature-kelvin" if kelvin else "beta")
    argv = ["--units", units]
    for side, drude in enumerate(spectra, 1):
        sources = ["D", "D", "D", "{linear}", "{empty}", "{garbage}"]
        source = draw(st.sampled_from(sources + ["drude"] * 2 * drude))
        if source == "D":
            names.append("D%d" % side)
        elif source == "drude":
            names += ["omega-p", "nu"]
        else:
            argv += ["--spectrum-file-%d" % side, source]
    values = {name: draw(POSITIVE) for name in names}
    floats = [name for name in FLOAT_PARAMS if name in reads]
    for name in draw(st.lists(st.sampled_from(floats), max_size=3)):
        values[name] = draw(st.one_of(st.none(), MAGNITUDE))
    for name, value in values.items():
        if value is not None:
            argv += draw(st.sampled_from([["--%s=%s" % (name, value)], ["--" + name, value]]))
    return argv


@st.composite
def one_shot_argv(draw):
    head, names, temperature, spectra = draw(st.sampled_from(ONE_SHOT))
    reads = cli_module._ROUTES[" ".join(head)].reads
    return head + _draw_params(draw, reads, names, temperature, spectra)


@st.composite
def sweep_argv(draw):
    target = draw(st.sampled_from(sorted(TARGETS)))
    _, names, temperature, spectra = TARGETS[target]
    argv, axes = ["sweep", "--target", target], []
    bound = st.one_of(POSITIVE, SIGNED)
    reads = cli_module._ROUTES["sweep --target " + target].reads
    for _ in range(draw(st.integers(1, 2))):
        axes.append(draw(st.sampled_from([f for f in FLOAT_PARAMS if f in reads])))
        lo, steps = draw(bound), draw(st.integers(1, 4))
        hi = lo if steps == 1 else draw(bound)
        log = draw(st.sampled_from(["", ":log"]))
        argv += ["--axis", "%s:%s:%s:%d%s" % (axes[-1], lo, hi, steps, log)]
    return argv + _draw_params(draw, reads, names, temperature, spectra, axes)


@pytest.fixture(scope="module")
def spectrum_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("spectra")
    grid = np.linspace(0.0, 40.0, 81)
    bodies = {
        "linear": "".join("%.17g %.17g\n" % (w, 0.25 * w) for w in grid),
        "empty": "# comments only\n",
        "garbage": "not numbers at all\n",
    }
    return {"{%s}" % name: _write(directory / (name + ".txt"), body)
            for name, body in bodies.items()}


def _check_exit_contract(argv, files):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main([files.get(a, a) for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
    if code == 0:
        for row in _data_rows(out.getvalue())[1:]:
            for cell in row.split(","):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), row


@settings(max_examples=400)
@given(argv=one_shot_argv())
def test_one_shot_exit_contract(spectrum_files, argv):
    _check_exit_contract(argv, spectrum_files)


@settings(max_examples=300)
@given(argv=sweep_argv())
def test_sweep_exit_contract(spectrum_files, argv):
    _check_exit_contract(argv, spectrum_files)


# --- spectrum files -----------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return str(path)


def test_spectrum_file_garbage(cli, tmp_path):
    path = _write(tmp_path / "s.txt", "not numbers at all\n")
    code, _ = cli("friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2,
                  "--v", 1e-3, "--D2", 1, "--spectrum-file-1", path)
    assert code == 3


def test_spectrum_file_without_data_is_one_line(tmp_path):
    path = _write(tmp_path / "s.txt", "# comments only\n")
    out = _run_child("-m", "magfriction.cli", "friction", "pair", "--d", "1", "--beta", "1",
                     "--v", "1", "--D2", "1", "--spectrum-file-1", path)
    assert (out.returncode, out.stdout) == (3, b"")
    assert out.stderr.decode() == "error: spectrum file %s needs two columns\n" % path


@pytest.mark.parametrize("body", [
    "# decreasing grid\n0.0 0.0\n2.0 1.0\n1.0 2.0\n",
    "# negative density\n0.0 0.0\n1.0 -0.5\n2.0 1.0\n",
    "# NaN density\n0 1\n1 nan\n2 1\n",
    "# NaN grid point\n0 1\nnan 1\n2 1\n",
    "# infinite density\n0 1\n1 inf\n2 1\n",
    "# grid ending at infinity\n0 1\n1 1\ninf 1\n",
])
def test_spectrum_file_invalid_data(cli, tmp_path, body):
    path = _write(tmp_path / "s.txt", body)
    code, _ = cli("friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2,
                  "--v", 1e-3, "--D2", 1, "--spectrum-file-1", path)
    assert code == 1


def test_spectrum_file_linear_accepted(cli, tmp_path):
    grid = np.linspace(0.0, 40.0, 400)
    body = "# low-frequency ramp\n" + "".join(
        "%.17g %.17g\n" % (w, 0.25 * w) for w in grid
    )
    path = _write(tmp_path / "s.txt", body)
    code, out = cli("friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2,
                    "--v", 1e-3, "--D2", 1, "--spectrum-file-1", path)
    assert code == 0
    (force_file,) = _column(out, "force")
    # the extracted low-frequency slope should reproduce an explicit D1=0.25
    code, out = cli("friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2,
                    "--v", 1e-3, "--D1", 0.25, "--D2", 1)
    assert code == 0
    (force_direct,) = _column(out, "force")
    assert abs(float(force_file) - float(force_direct)) <= 1e-12 * abs(float(force_direct))


def test_spectrum_path_is_read_literally(cli, capsys, tmp_path):
    # a missing file is not replaced by a compressed file of the same stem
    path = tmp_path / "spec.txt"
    with gzip.open(str(path) + ".gz", "wt") as fh:
        fh.write("0 0\n1 1\n2 2\n")
    code, out = cli("friction", "pair", "--d", 1, "--v", 0.1, "--beta", 2,
                    "--spectrum-file-1", path, "--spectrum-file-2", path)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("error: cannot parse spectrum file %s: " % path)


# --- golden output rows -------------------------------------------------

def test_eigen_golden(cli):
    code, out = cli("eigen", "--alpha", 0.75)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# magfriction 0.1.0"
    assert lines[1] == "# command: eigen"
    assert lines[2] == "# units: reduced"
    assert lines[3] == "# config: alpha=0.75 seed=0 units=reduced"
    assert lines[4] == "alpha,omega_plus,omega_minus,e0"
    assert lines[5] == "0.75,2.0,0.5,1.25"
    assert len(lines) == 6


def test_fields_golden(cli):
    code, out = cli("fields", "--d", 1)
    assert code == 0
    header, row = _data_rows(out)
    assert header == "d,coupling_alpha,psi_xy,g_xx,g_zz,b_y_unit_pdot,e_x_unit_mdot"
    assert row == "1.0,0.5,1.0,2.0,8.0,-1.0,1.0"


def test_free_energy_golden(cli):
    code, out = cli("free-energy", "--alpha", 0.1, "--beta", 10)
    assert code == 0
    header, row = _data_rows(out)
    assert header == "alpha,beta,free_energy"
    assert row == "0.1,10.0,0.004995913614675051"


def test_slabs_finite_golden(cli):
    code, out = cli(*SLABS_UNIT)
    assert code == 0
    header, row = _data_rows(out)
    assert header == ("regime,units,force,G,H0,I,reference_force,suppression,"
                      "D1,D2,beta,d,rho1,rho2,v")
    fields = row.split(",")
    assert fields[0] == "slabs-finite-T"
    assert fields[2] == "-0.12818522581004058"
    assert fields[3] == "0.7853981633974483"
    assert fields[4] == "163.21049855215009"
    assert fields[5] == "25.975757609067312"
    assert fields[7] == "1.0"


def test_slabs_zero_golden(cli):
    code, out = cli(*SLABS_ZERO_UNIT)
    assert code == 0
    (force,) = _column(out, "force")
    assert float(force) == pytest.approx(
        -5.0 * np.pi**2 / 512.0 * 0.01**5, rel=1e-12
    )


def test_pair_gaussian_golden(cli):
    code, out = cli("friction", "pair", "--units", "gaussian", "--d", 2e-7,
                    "--temperature-kelvin", 300, "--v", 1, "--D1", 1e-30, "--D2", 3e-30)
    assert code == 0
    header, row = _data_rows(out)
    assert header == ("regime,units,force,G_factor,H0,beta,beta_cgs,d,d_cgs,"
                      "temperature_kelvin,v,v_cgs")
    assert row == ("pair-smoothed,gaussian,-4.751382105592664e-65,3.4770314251675582e+19,"
                   "1.3665053675388325e-84,0.0007632948274313611,24143235053466.4,"
                   "2e-07,2e-07,300.0,3.33564095198152e-11,1.0")


@pytest.mark.parametrize("argv,kelvin", [
    (["friction", "pair", "--temperature-kelvin", 77.3, "--d", 1, "--v", 1e-3, "--D1", 1,
      "--D2", 1], "77.3"),
    (["free-energy", "--temperature-kelvin", 77.3, "--alpha", 0.5], "77.3"),
    (["friction", "plane", "--temperature-kelvin", 0.1, "--z0", 1, "--rho1", 1, "--v", 1e-3,
      "--D1", 1, "--D2", 1], "0.1"),
    # a temperature given as beta is printed in kelvin as computed from it
    (["friction", "pair", "--beta", 0.5, "--d", 1, "--v", 1e-3, "--D1", 1, "--D2", 1],
     "0.45797689645881673"),
])
def test_a_temperature_in_kelvin_is_echoed_as_given(cli, argv, kelvin):
    code, out = cli(*argv, "--units", "gaussian")
    assert code == 0
    assert _column(out, "temperature_kelvin") == [kelvin]


@pytest.mark.parametrize("argv", [
    ["free-energy", "--temperature-kelvin", 2e307],
    ["sweep", "--target", "free-energy", "--axis", "temperature-kelvin:2e307:1e308:3"],
])
def test_a_hot_kelvin_free_energy_fails_on_its_subnormal_beta(cli, capsys, argv):
    # beta is subnormal here; the echoed kelvin is not derived back from it,
    # so the run fails on beta itself, not on that division
    code, out = cli(*argv, "--alpha", 0.5, "--units", "gaussian")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == _subnormal(argv[0])


def test_plane_drude_golden(cli):
    code, out = cli("friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2,
                    "--v", 1e-3, "--omega-p", 9, "--nu", 0.1, "--D1", 1)
    assert code == 0
    header, row = _data_rows(out)
    assert header == "regime,units,force,G_h,H0,beta,rho,v,z0"
    assert row == ("plane,reduced,-2.0043022846502556e-06,1.5707963267948966,"
                   "0.001275978464209869,2.0,1.0,0.001,1.0")


def test_metadata_has_no_timestamp(cli):
    code, out = cli("eigen", "--alpha", 1)
    meta = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert len(meta) == 4
    joined = " ".join(meta).lower()
    for word in ("time", "date", "20"):
        # no clock or calendar fields; "20" would catch a year stamp
        assert word not in joined


# --- reproducibility ----------------------------------------------------

def test_output_bytes_stable_across_runs(cli, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _ = cli(*SLABS_UNIT, "--out", path)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_output_bytes_stable_across_workers(cli, tmp_path):
    paths = [tmp_path / "w1.csv", tmp_path / "w7.csv"]
    for path, workers in zip(paths, (1, 7)):
        code, _ = cli("sweep", "--target", "friction-slabs-finite",
                      "--axis", "beta:0.5:50:12:log",
                      "--d", 2, "--rho1", 1, "--rho2", 1,
                      "--D1", 1, "--D2", 1, "--v", 1e-3,
                      "--workers", workers, "--out", path)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_file_precedence(cli, tmp_path):
    path = _write(tmp_path / "run.cfg", "alpha = 0.5\n# comment line\n")
    code, out = cli("eigen", "--config", path)
    assert code == 0
    assert _column(out, "alpha") == ["0.5"]
    code, out = cli("eigen", "--config", path, "--alpha", 0.75)
    assert code == 0
    assert _column(out, "alpha") == ["0.75"]


def test_config_keys_a_command_does_not_read_are_echoed(cli, tmp_path):
    # one file may serve several commands: eigen reads only alpha
    path = _write(tmp_path / "run.cfg", "alpha=1\nbeta=2\nd=3\n")
    code, out = cli("eigen", "--config", path)
    assert code == 0
    assert out.splitlines()[3] == "# config: alpha=1.0 beta=2.0 d=3.0 seed=0 units=reduced"


def test_sweep_axis_below_a_spectrum_file_is_refused(cli, capsys, tmp_path):
    path = _write(tmp_path / "s.txt", "0 0\n1 1\n2 2\n")
    code, out = cli("sweep", "--target", "friction-plane", "--axis", "D2:1:2:2", "--z0", 1,
                    "--rho1", 1, "--beta", 1, "--v", 1e-3, "--D1", 1,
                    "--spectrum-file-2", path)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: sweep --target friction-plane takes no --D2 with --spectrum-file-2\n")


SLAB_SWEEP = ["--rho1", 1, "--rho2", 1.5, "--D1", 0.7, "--D2", 1.2]


@pytest.mark.parametrize("args,message", [
    (["--target", "eigen", "--axis", "alpha:1:2:3", "--axis", "alpha:5:6:2"],
     "sweep takes one axis per parameter: alpha has 2"),
    (["--target", "friction-slabs-finite", "--axis", "d:0.7:1.9:3", "--axis", "beta:0.5:50:3:log",
      "--axis", "v:-2e-3:2e-3:3", "--axis", "d:1:2:2", *SLAB_SWEEP, "--v", 5e-4],
     "sweep takes one axis per parameter: d has 2"),
    (["--target", "friction-pair", "--axis", "d:1:2:2", "--d", 7, "--v", 1, "--beta", 1,
      "--D1", 1, "--D2", 1], "sweep takes no --d with an axis of d"),
    (["--target", "friction-slabs-zero", "--axis", "v:1e-3:1e-2:3", *SLAB_SWEEP, "--d", 1,
      "--v", 5e-4], "sweep takes no --v with an axis of v"),
], ids=["two-axes", "two-axes-and-flag", "axis-and-flag", "axis-and-later-flag"])
def test_sweep_parameter_given_twice_is_refused(cli, capsys, args, message):
    # each exited 0 before, its rows reading one of the two values and its
    # config line or a second sweep_ column showing the other
    code, out = cli("sweep", *args)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: %s\n" % message


def test_json_naming_the_file_of_stdout_is_refused(tmp_path):
    # stdout redirected to the --json file lost the CSV to the JSON
    path = tmp_path / "s.txt"
    with open(path, "w") as stdout:
        out = subprocess.run(
            [sys.executable, "-m", "magfriction.cli", "sweep", "--target", "eigen", "--axis",
             "alpha:1:2:3", "--json", str(path)],
            stdout=stdout, stderr=subprocess.PIPE, env=_child_env(), timeout=120)
    assert out.returncode == 3
    assert out.stderr == b"error: --json names the file that takes the CSV: %s\n" % bytes(path)
    assert path.read_bytes() == b""


def test_sweep_axis_stands_above_a_config_key(cli, tmp_path):
    path = _write(tmp_path / "run.cfg", "d=7\n")
    pair = ["--target", "friction-pair", "--v", 1, "--beta", 1, "--D1", 1, "--D2", 1]
    code, out = cli("sweep", *pair, "--axis", "d:1:2:2", "--config", path)
    assert code == 0
    assert _column(out, "d") == ["1.0", "2.0"]


@pytest.mark.parametrize("alias", ["same", "symlink", "hardlink", "fd"])
def test_out_and_json_naming_one_file_are_refused(cli, capsys, tmp_path, alias):
    # each would overwrite the other's bytes: the CSV was lost to the JSON,
    # or a shorter JSON was left followed by CSV debris
    csv = tmp_path / "s.csv"
    csv.write_bytes(b"earlier bytes\n")
    other = {"same": csv, "symlink": tmp_path / "link", "hardlink": tmp_path / "hard"}.get(alias)
    if alias == "symlink":
        other.symlink_to(csv)
    elif alias == "hardlink":
        os.link(csv, other)
    with open(csv, "rb") as held:
        if alias == "fd":
            other = "/dev/fd/%d" % held.fileno()
        code, out = cli("sweep", "--target", "eigen", "--axis", "alpha:1:2:3",
                        "--out", csv, "--json", other)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: --json names the file that takes the CSV: %s\n" % other
    assert csv.read_bytes() == b"earlier bytes\n"


def test_config_keys_keep_their_precedence(cli, tmp_path):
    # a config key is not refused where a flag would be: one file may serve
    # several commands
    path = _write(tmp_path / "run.cfg", "rho1=2\n")
    code, out = cli("fields", "--d", 1, "--config", path)
    assert code == 0
    assert "rho1" not in out.splitlines()[4]
    # --rho1 is read when a config file gives --z0
    path = _write(tmp_path / "z0.cfg", "z0=1\n")
    code, out = cli("fields", "--d", 1, "--rho1", 2, "--config", path)
    assert code == 0
    assert _column(out, "rho1") == ["2.0"]
    # --D2 stands above the Drude keys of the same file
    path = _write(tmp_path / "plane.cfg", "D2=1\nomega-p=9\nnu=0.1\n")
    plane = ["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 1, "--v", 1e-3, "--D1", 1]
    code, out = cli(*plane, "--config", path)
    assert code == 0
    assert _column(out, "force") == _column(cli(*plane, "--D2", 1)[1], "force")


def test_zero_T_slabs_refuse_a_temperature_config_key(cli, capsys, tmp_path):
    path = _write(tmp_path / "run.cfg", "beta=2\n")
    code, out = cli(*SLABS_ZERO_UNIT, "--config", path)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: zero-temperature slabs take no temperature input\n"


@pytest.mark.parametrize("slabs", [SLABS_UNIT, SLABS_ZERO_UNIT], ids=["finite", "zero"])
def test_slabs_refuse_a_spectrum_file_config_key(cli, capsys, tmp_path, slabs):
    spectrum = _write(tmp_path / "s.txt", "0 0\n1 1\n2 2\n")
    path = _write(tmp_path / "run.cfg", "spectrum-file-1=%s\n" % spectrum)
    code, out = cli(*slabs, "--config", path)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: slab commands need linear spectral slopes on side 1 "
        "(use --D1 or Drude parameters, not a spectrum file)\n")


def test_config_key_given_twice_is_refused(cli, capsys, tmp_path):
    path = _write(tmp_path / "run.cfg", "alpha=1\n# the same key again\nalpha=2\n")
    code, out = cli("eigen", "--config", path)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: config key 'alpha' given twice (lines 1 and 3)\n"


def test_runners_are_dispatched_through_their_tables(cli, monkeypatch):
    # the benchmark's tracer swaps the values of both tables for wrappers
    # of the cli functions of the same name
    for table in (cli_module._RUNNERS, cli_module._TARGET_RUNNERS):
        for fn in table.values():
            assert getattr(cli_module, fn.__name__) is fn
    called = []

    def wrap(table, key):
        fn = table[key]

        def wrapper(arg):
            called.append(key)
            return fn(arg)

        monkeypatch.setitem(table, key, wrapper)

    wrap(cli_module._RUNNERS, "eigen")
    wrap(cli_module._TARGET_RUNNERS, "eigen")
    assert cli("eigen", "--alpha", 1)[0] == 0
    assert called == ["eigen", "eigen"]
    assert cli("sweep", "--target", "eigen", "--axis", "alpha:0:1:3")[0] == 0
    assert called == ["eigen"] * 3


def test_single_point_sweep_matches_run(cli):
    code_run, out_run = cli(*SLABS_UNIT)
    code_sweep, out_sweep = cli(
        "sweep", "--target", "friction-slabs-finite",
        "--axis", "beta:1:1:1",
        "--d", 1, "--rho1", 1, "--rho2", 1, "--D1", 1, "--D2", 1, "--v", 1e-3,
    )
    assert code_run == 0 and code_sweep == 0
    assert _column(out_run, "force") == _column(out_sweep, "force")
    assert _column(out_run, "H0") == _column(out_sweep, "H0")


# --- sweeps and scaling laws --------------------------------------------

def _loglog_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(np.abs(ys)), 1)[0]


def test_sweep_beta_slope(cli):
    code, out = cli("sweep", "--target", "friction-slabs-finite",
                    "--axis", "beta:0.5:50:12:log",
                    "--d", 2, "--rho1", 1, "--rho2", 1,
                    "--D1", 1, "--D2", 1, "--v", 1e-3)
    assert code == 0
    betas = np.array([float(x) for x in _column(out, "sweep_beta")])
    force = np.array([float(x) for x in _column(out, "force")])
    assert abs(_loglog_slope(betas, force) - (-4.0)) <= 1e-6


def test_sweep_distance_slope(cli):
    code, out = cli("sweep", "--target", "friction-slabs-zero",
                    "--axis", "d:0.5:8:12:log",
                    "--rho1", 1, "--rho2", 1, "--D1", 1, "--D2", 1,
                    "--v", 0.01)
    assert code == 0
    ds = np.array([float(x) for x in _column(out, "sweep_d")])
    force = np.array([float(x) for x in _column(out, "force")])
    assert abs(_loglog_slope(ds, force) - (-6.0)) <= 1e-6


# --- mirrors and units --------------------------------------------------

def test_json_mirror_matches_csv(cli, tmp_path):
    jpath = tmp_path / "e.json"
    code, out = cli("eigen", "--alpha", 0.75, "--json", jpath)
    assert code == 0
    doc = json.loads(jpath.read_text())
    assert doc["version"] == "0.1.0"
    assert doc["command"] == "eigen"
    assert doc["units"] == "reduced"
    header, row = _data_rows(out)
    assert doc["columns"] == header.split(",")
    assert [repr(v) for v in doc["rows"][0]] == row.split(",")


@pytest.mark.parametrize("args", [
    ["eigen", "--alpha", 1, "--json", "{dir}"],
    ["eigen", "--alpha", 1, "--out", "{csv}", "--json", "{dir}"],
    ["verify", "--suite", "fields", "--out", "{dir}"],
], ids=["eigen-json", "eigen-out-json", "verify-out"])
def test_output_that_cannot_be_opened_writes_nothing(cli, capsys, tmp_path, args):
    csv = tmp_path / "e.csv"
    code, out = cli(*({"{dir}": tmp_path, "{csv}": csv}.get(a, a) for a in args))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("error: cannot write %s: " % tmp_path)
    # the CSV file opened before the JSON one failed holds no rows
    assert not csv.exists() or csv.read_text() == ""


@pytest.mark.parametrize("good,bad", [("--out", "--json"), ("--json", "--out")])
def test_output_that_cannot_be_opened_keeps_the_other_file(cli, capsys, tmp_path, good, bad):
    # a file already at the path that can be opened keeps its bytes
    kept = tmp_path / "kept"
    kept.write_bytes(b"earlier bytes\n")
    code, out = cli("eigen", "--alpha", 1, good, kept, bad, tmp_path)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("error: cannot write %s: " % tmp_path)
    assert kept.read_bytes() == b"earlier bytes\n"


def test_outputs_replace_earlier_files_and_may_be_dev_null(cli, tmp_path):
    csv, doc = tmp_path / "e.csv", tmp_path / "e.json"
    csv.write_text("x" * 10_000)
    doc.write_text("x" * 10_000)
    assert cli("eigen", "--alpha", 1, "--out", csv, "--json", doc)[0] == 0
    assert csv.read_text().startswith("# magfriction") and csv.read_text().count("x") == 0
    assert json.loads(doc.read_text())["rows"] == [[1.0, 1 + 2**0.5, 1 / (1 + 2**0.5), 2**0.5]]
    assert cli("eigen", "--alpha", 1, "--out", os.devnull, "--json", os.devnull)[0] == 0
    assert cli("verify", "--suite", "numerics", "--out", os.devnull)[0] == 0


def test_numerical_failure_creates_no_output_file(cli, tmp_path):
    csv, doc = tmp_path / "f.csv", tmp_path / "f.json"
    code, out = cli("fields", "--d", 1e-200, "--out", csv, "--json", doc)
    assert (code, out) == (2, "")
    assert not csv.exists() and not doc.exists()


def test_gaussian_kelvin_run(cli):
    code, out = cli("friction", "slabs", "--temperature", "finite",
                    "--temperature-kelvin", 300, "--units", "gaussian",
                    "--d", 2e-7, "--rho1", 1, "--rho2", 1,
                    "--D1", 1e-30, "--D2", 1e-30, "--v", 1)
    assert code == 0
    header = _data_rows(out)[0].split(",")
    for name in ("beta_cgs", "d_cgs", "v_cgs", "temperature_kelvin"):
        assert name in header
    assert _column(out, "units") == ["gaussian"]


def test_verify_suite_passes(cli):
    code, out = cli("verify", "--suite", "numerics")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(ln.startswith("PASS") for ln in lines if "::" in ln)
    assert "FAIL" not in out


def test_verify_all_prints_the_same_text_twice(cli):
    # every Monte Carlo check fixes its seed, and no check keeps state
    first = cli("verify", "--suite", "all")
    assert first[0] == 0
    assert cli("verify", "--suite", "all") == first


@pytest.mark.parametrize("args,named", [
    (["--d", -5], "--d"),                                   # a physical flag
    (["--spectrum-file-1", "/nonexistent"], "--spectrum-file-1"),
    (["--units", "gaussian"], "--units"),
    (["--seed", 7], "--seed"),
    # several: the first in the order of the flag table
    (["--seed", 7, "--spectrum-file-1", "/nonexistent", "--units", "gaussian", "--d", -5],
     "--d"),
])
def test_verify_refuses_inputs_it_would_ignore(cli, capsys, args, named):
    code, out = cli("verify", "--suite", "fields", *args)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: verify takes no %s\n" % named


def test_verify_refuses_config_keys_it_would_ignore(cli, capsys, tmp_path):
    config = _write(tmp_path / "run.cfg", "workers=1\nbeta=2\nunits=reduced\n")
    code, out = cli("verify", "--suite", "fields", "--config", config)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: verify takes no config key 'beta'\n"


def test_verify_keeps_its_own_settings(cli, tmp_path):
    config = _write(tmp_path / "run.cfg", "workers=2\nmax-points=5\n")
    path = tmp_path / "verify.txt"
    code, out = cli("verify", "--suite", "fields", "--config", config, "--workers", 1,
                    "--out", path)
    assert code == 0
    assert path.read_text() == out and out.count("PASS") == 6


def test_console_script_smoke(cli):
    # Run the module the console script points at, as a separate process,
    # against the same source tree this test imported.
    src_root = str(Path(magfriction.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "magfriction.cli", "eigen", "--alpha", "0.75"],
        capture_output=True, env=env, timeout=120,
    )
    stderr = out.stderr.decode(errors="replace")
    assert out.returncode == 0, stderr
    assert out.stdout.startswith(b"# magfriction"), stderr
    _, in_process = cli("eigen", "--alpha", 0.75)
    assert out.stdout == in_process.encode()


def _child_env():
    """The environment of a child interpreter that imports the source tree
    this test imported."""
    src_root = str(Path(magfriction.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return env


def _run_child(*args):
    """Run the interpreter on args against the source tree this test imported."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=_child_env(), timeout=120
    )


def test_python_m_package(cli):
    out = _run_child("-m", "magfriction", "eigen", "--alpha", "0.75")
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    _, in_process = cli("eigen", "--alpha", 0.75)
    assert out.stdout == in_process.encode()


def test_python_m_cli_runs_cli_once():
    # "braking sign draws" computes on _ieee.ArrayOps, the grid ops the
    # CLI's grid inherits, so the battery never imports magfriction.cli
    out = _run_child("-X", "importtime", "-m", "magfriction.cli", "verify", "--suite", "forces")
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert b"PASS  forces :: braking sign draws" in out.stdout
    imported = [ln.rsplit(b"|", 1)[-1].strip() for ln in out.stderr.splitlines()]
    assert b"magfriction" in imported and b"magfriction.cli" not in imported


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,lines_read", [
    # a sweep far larger than a pipe's buffer, so that the writer finds
    # the pipe closed after the reader's first line
    (["sweep", "--target", "eigen", "--axis", "alpha:0:1:10000"], 1),
    # closed before the first line: its flush fails with the line buffered
    (["verify", "--suite", "fields"], 0),
], ids=["sweep", "verify"])
def test_closed_stdout_is_one_error_line(argv, lines_read, unbuffered):
    env = dict(_child_env(), PYTHONUNBUFFERED=unbuffered)
    child = subprocess.Popen([sys.executable, "-m", "magfriction.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        for _ in range(lines_read):
            assert child.stdout.readline().endswith(b"\n")
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 3
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
    assert err == b"error: cannot write <stdout>: [Errno 32] Broken pipe\n"


# runs CLI commands in a fresh interpreter; prints exit codes and the loaded
# scipy modules and numpy submodules (numpy itself is bound, not executed,
# until a route uses it)
_MODULES_AFTER = """
import contextlib, io, json, sys
from magfriction import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
numpy = sorted(m for m in sys.modules if m.startswith("numpy."))
print(json.dumps([codes, scipy, numpy]))
"""


def _modules_after(commands):
    argv = json.dumps([[str(a) for a in c] for c in commands])
    out = _run_child("-c", _MODULES_AFTER, argv)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    return json.loads(out.stdout)


def test_closed_form_commands_load_no_scipy(tmp_path):
    # also no numpy: the oracle battery imports numpy, so it never ran either
    spectrum = _write(tmp_path / "s.txt", "0 0\n1 1\n2 2\n")
    # a config file that also serves the friction commands: its spectrum
    # file is not loaded by a route that does not read it
    config = _write(tmp_path / "run.cfg", "spectrum-file-1=%s\n" % spectrum)
    gaussian = ["--units", "gaussian", "--temperature-kelvin", 300]
    cgs = ["--d", 1e-6, "--v", 100, "--D1", 1e-30, "--D2", 1e-30]
    commands = [
        ["eigen", "--alpha", 0.75],
        ["free-energy", "--alpha", 0.1, "--beta", 10],
        ["free-energy", "--alpha", 0.1, *gaussian],
        ["fields", "--d", 1.0],
        ["fields", "--d", 2.5, "--z0", 1.5, "--rho1", 2],
        ["friction", "pair", "--d", 2, "--beta", 1, "--v", 1e-3, "--D1", 1, "--D2", 1],
        ["friction", "pair", *cgs, *gaussian],
        ["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2, "--v", 1e-3,
         "--D1", 1, "--D2", 1],
        ["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2, "--v", 1e-3,
         "--D1", 1, "--omega-p", 9, "--nu", 0.1],
        SLABS_UNIT,
        ["friction", "slabs", "--temperature", "finite", *cgs, "--rho1", 1e22, "--rho2", 1e22,
         *gaussian],
        SLABS_ZERO_UNIT,
        ["eigen", "--alpha", 0.75, "--config", config],
        ["free-energy", "--alpha", 0.1, "--beta", 10, "--config", config],
        ["fields", "--d", 1.0, "--config", config],
    ]
    codes, scipy, numpy = _modules_after(commands)
    assert codes == [0] * len(commands)
    assert (scipy, numpy) == ([], [])


def test_tabulated_commands_load_no_scipy(tmp_path):
    # a tabulated H0 takes a fixed Gauss-Legendre rule, not scipy's adaptive quadrature
    grid = np.linspace(0.0, 40.0, 400)
    path = _write(tmp_path / "s.txt", "".join("%.17g %.17g\n" % (w, 0.25 * w) for w in grid))
    codes, scipy, _ = _modules_after([
        ["friction", "pair", "--d", 2, "--beta", 1, "--v", 1e-3, "--D2", 1,
         "--spectrum-file-1", path],
        ["friction", "plane", "--z0", 1, "--rho1", 1, "--beta", 2, "--v", 1e-3,
         "--D1", 1, "--spectrum-file-2", path],
    ])
    assert codes == [0, 0]
    assert scipy == []


def test_verify_loads_no_scipy():
    # the battery's quadrature, fits, lattice solve and special functions are numpy
    codes, scipy, _ = _modules_after([["verify", "--suite", "all"]])
    assert codes == [0]
    assert scipy == []


@pytest.mark.parametrize("route", ["pair", "plane-sweep", "verify"])
def test_no_route_loads_numpy_polynomial(tmp_path, route):
    # the Gauss rules of a tabulated H0 and of the battery are literal tables
    grid = np.linspace(0.0, 40.0, 400)
    path = _write(tmp_path / "s.txt", "".join("%.17g %.17g\n" % (w, 0.25 * w) for w in grid))
    command = {
        "pair": ["friction", "pair", "--d", 2, "--beta", 1, "--v", 1e-3, "--D2", 1,
                 "--spectrum-file-1", path],
        "plane-sweep": ["sweep", "--target", "friction-plane", "--rho1", 1, "--beta", 2,
                        "--v", 1e-3, "--spectrum-file-1", path, "--spectrum-file-2", path,
                        "--axis", "z0:1:2:5"],
        "verify": ["verify", "--suite", "all"],
    }[route]
    codes, _, numpy = _modules_after([command])
    assert codes == [0]
    assert [m for m in numpy if m.startswith("numpy.polynomial")] == []


# runs each command line given (one argument each) through the CLI in a
# fresh interpreter, and prints its exit code and which of the watched
# modules had executed by then; imports nothing that it watches
_EXECUTED_BY = """
import contextlib, io, sys, types
WATCH = ("dataclasses", "inspect", "json", "magfriction.numerics",
         "magfriction.friction_forces", "magfriction.response_kinetics",
         "magfriction.oscillator_pair", "magfriction._kernels")

def executed():
    # a module bound by lazy_import and not yet run is not a plain module
    return {name for name in WATCH if type(sys.modules.get(name)) is types.ModuleType}

before = executed()
from magfriction import cli
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(line.split())
    print(code, *sorted(executed() - before))
"""


def test_one_shot_commands_execute_only_their_route():
    # the seven kinds of one-shot command, in the reduced and the Gaussian
    # (kelvin) forms, compute without dataclasses, inspect, json, the
    # numeric engines or the sharp-oscillator models; eigen executes the
    # oscillator pair and nothing else watched, and the friction commands,
    # which run after the others, the force library: their routes
    kelvin = "--units gaussian --temperature-kelvin 300"
    cgs = "--d 1e-6 --v 100 --D1 1e-30 --D2 1e-30"
    commands = [
        "free-energy --alpha 0.1 --beta 10",
        "free-energy --alpha 0.1 " + kelvin,
        "fields --d 2.5 --z0 1.5 --rho1 2",
        "friction pair --d 2 --beta 1 --v 1e-3 --D1 1 --D2 1",
        "friction pair %s %s" % (cgs, kelvin),
        "friction plane --z0 1 --rho1 1 --beta 2 --v 1e-3 --D1 1 --D2 1",
        "friction plane --z0 1 --rho1 1 --beta 2 --v 1e-3 --D1 1 --omega-p 9 --nu 0.1",
        " ".join(map(str, SLABS_UNIT)),
        "friction slabs --temperature finite %s --rho1 1e22 --rho2 1e22 %s" % (cgs, kelvin),
        " ".join(map(str, SLABS_ZERO_UNIT)),
    ]
    out = _run_child("-c", _EXECUTED_BY, "eigen --alpha 0.75")
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert out.stdout.decode().splitlines() == ["0 magfriction.oscillator_pair"]
    out = _run_child("-c", _EXECUTED_BY, *commands)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert out.stdout.decode().splitlines() == ["0"] * 3 + ["0 magfriction.friction_forces"] * 7


def test_only_a_column_of_a_float_block_executes_the_text_kernel():
    # the one-shot commands above execute no _kernels; nor does a sweep of
    # fewer than FLOAT_BLOCK points, whose columns all take repr
    block = cli_module.FLOAT_BLOCK
    pair = "sweep --target friction-pair --beta 2 --D1 1 --D2 1 --axis d:1:2:%d --axis v:1:2:%d"
    small = ["sweep --target eigen --axis alpha:0.1:1:%d" % (block - 1),
             pair % (block // 64, 63), "eigen --alpha 0.75"]
    out = _run_child("-c", _EXECUTED_BY, *small)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    lines = [line.split() for line in out.stdout.decode().splitlines()]
    assert [(line[0], "magfriction._kernels" in line) for line in lines] == [("0", False)] * 3
    out = _run_child("-c", _EXECUTED_BY, "sweep --target eigen --axis alpha:0.1:1:%d" % block)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert "magfriction._kernels" in out.stdout.decode().split()


def test_importing_the_cli_binds_every_library_module():
    # each module is in sys.modules, numpy and the oracle battery bound but not run
    script = (
        "import json, pkgutil, sys\n"
        "import magfriction, magfriction.cli\n"
        "names = [m.name for m in pkgutil.iter_modules(magfriction.__path__)]\n"
        "print(json.dumps([sorted(n for n in names if 'magfriction.' + n not in sys.modules),\n"
        "                  sorted(m for m in sys.modules if m.startswith('numpy.')),\n"
        "                  'numpy' in sys.modules]))\n"
    )
    out = _run_child("-c", script)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert json.loads(out.stdout) == [["__main__"], [], True]


def test_suite_choices_are_the_battery_suites():
    from magfriction import verification

    assert list(cli_module._SUITES) == sorted(verification.SUITES) + ["all"]


@pytest.mark.parametrize("args", [
    ["sweep", "--target", "friction-pair", "--axis", "d:1:2:3", "--axis", "v:1e-3:1e-2:2:log",
     "--beta", 2, "--D1", 1, "--D2", 1],
    ["verify", "--suite", "forces"],
])
def test_lazily_loaded_routes_match_in_process(cli, args):
    # a fresh interpreter loads numpy and the battery on first use
    fresh = _run_child("-m", "magfriction.cli", *map(str, args))
    code, in_process = cli(*args)
    assert (fresh.returncode, fresh.stderr) == (code, b"") == (0, b"")
    assert fresh.stdout == in_process.encode()


# runs several commands through one process's main; prints each exit code,
# stdout, stderr and --out file, and how often the parser was built
_ONE_PROCESS = """
import contextlib, io, json, sys
from magfriction import cli
runs = []
for argv, out in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    runs.append([code, stdout.getvalue(), stderr.getvalue(), open(out).read() if out else None])
print(json.dumps([runs, cli._build_parser.cache_info().misses]))
"""


def test_parser_reuse_matches_fresh_processes(tmp_path):
    ramp = _write(tmp_path / "ramp.txt", "".join("%.17g %.17g\n" % (w, 0.25 * w)
                                                 for w in np.linspace(0.0, 40.0, 81)))
    out = str(tmp_path / "sweep.csv")
    commands = [
        (["sweep", "--target", "friction-pair", "--axis", "d:1:2:3", "--axis", "v:1e-3:1e-2:2:log",
          "--beta", "2", "--D1", "1", "--D2", "1"], None),
        (["sweep", "--target", "friction-pair", "--axis", "beta:1:3:2", "--d", "1", "--v", "1e-3",
          "--D2", "1", "--spectrum-file-1", ramp, "--out", out], out),
        (["eigen", "--alpha", "0.75"], None),
        (["friction", "slabs", "--temperature", "zero", "--d", "1", "--rho1", "1", "--rho2", "1",
          "--D1", "1", "--D2", "1", "--v", "0.01"], None),
        (["eigen", "--alpha", "-1"], None),
        (["eigen", "--bogus", "1"], None),
        (["free-energy", "--alpha", "0.1", "--beta", "10"], None),
    ]
    runs, builds = json.loads(_run_child("-c", _ONE_PROCESS, json.dumps(commands)).stdout)
    assert builds == 1
    for (argv, path), run in zip(commands, runs):
        fresh = _run_child("-m", "magfriction.cli", *argv)
        expected = [fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode(),
                    Path(path).read_text() if path else None]
        assert run == expected, argv


def test_console_script_registered():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["magfriction"] == "magfriction.cli:entry"
    module_name, _, attr = scripts["magfriction"].partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
