"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion even when everything is green.

Reference values are the published table/figure numbers for the demo
circuit; tolerances are fixed here and never tuned to the implementation.
Criterion 3 contains two sub-checks that fail by construction: the computed
peak-time interval upper endpoint (3.6171e-4 s) and the computed nominal
rise time (1.6271e-4 s) sit 1.7e-6 s and 2.7e-6 s away from reference
values that are printed with only two significant digits (0.00036, 0.00016),
while the stated tolerances are 1e-6 and 2e-6.  The discrepancy is reference
print precision, not implementation error; see the companion analysis notes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from rlcband import (
    Interval,
    iacos,
    iln,
    isqrt,
    identify,
    overshoot_from_band,
    overshoot_from_xi,
    peak_time,
    rise_time,
    step_response_curve,
)
from rlcband.cli import EXIT_ENCLOSURE, EXIT_OK, main
from rlcband.elementary import icos_array, iexp_array, isin_array

from conftest import make_step_trace, write_trace_csv
from reference import iatan, simulate_ode_point

# reference values (published tables) and stated tolerances
REF_XI_NOMINAL = (0.0539, 1e-4)
REF_W0_NOMINAL = (10000.0, 0.5)
REF_WD_NOMINAL = (9985.5, 0.5)
REF_W0_INTERVAL = ((8703.8, 11785.1), 0.5)
REF_WD_INTERVAL = ((8685.2, 11773.9), 0.5)
REF_TP_INTERVAL = ((0.000267, 0.00036), 1e-6)
REF_TS_INTERVAL = ((0.000137, 0.00019), 2e-6)
REF_MP_NOMINAL = (0.8440, 5e-4)
REF_TP_NOMINAL = (0.000314, 1e-6)
REF_TS_NOMINAL = (0.00016, 2e-6)
REF_XI_EXPERIMENT = (0.10729, 2e-4)
REF_XI_INTERVAL = ((0.02548, 0.12848), 2e-4)
REF_W0_EXPERIMENT = (10008.97, 0.5)
REF_MP_BAND = ((0.6656, 0.9230), 0.05)
WD_EXPERIMENT = 9951.196  # authoritative damped frequency; peak time back-derived

CONTAINMENT_SAMPLES = 100_000
MONTE_CARLO_SAMPLES = 10_000
ROUND_TRIP_SAMPLES = 1_000


def _report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " :: " + "; ".join(failures)
    print(f"[{status}] {name}{detail}")
    assert not failures, f"{name} failed: {failures}"


def _check(failures, label, got, ref, tol):
    if abs(got - ref) > tol:
        failures.append(f"{label}: got {got:.8g}, want {ref:.8g} +/- {tol:g}")


# --- criterion 1: nominal parameter reproduction ---

def test_criterion_1_nominal_parameters(demo_params):
    failures = []
    _check(failures, "xi", demo_params.xi_nominal, *REF_XI_NOMINAL)
    _check(failures, "omega0", demo_params.omega0_nominal, *REF_W0_NOMINAL)
    _check(failures, "omegad", demo_params.omegad_nominal, *REF_WD_NOMINAL)
    _report("criterion 1: nominal parameter reproduction", failures)


# --- criterion 2: component-box intervals ---

def test_criterion_2_component_box_intervals(demo_params):
    failures = []
    (w0_lo, w0_hi), tol = REF_W0_INTERVAL
    _check(failures, "omega0.lo", demo_params.omega0.lo, w0_lo, tol)
    _check(failures, "omega0.hi", demo_params.omega0.hi, w0_hi, tol)
    (wd_lo, wd_hi), tol = REF_WD_INTERVAL
    _check(failures, "omegad.lo", demo_params.omegad.lo, wd_lo, tol)
    _check(failures, "omegad.hi", demo_params.omegad.hi, wd_hi, tol)
    _report("criterion 2: component-box frequency intervals", failures)


# --- criterion 3: transient intervals and nominal specs ---

def test_criterion_3_transient_specifications(demo_params):
    failures = []
    tp = peak_time(demo_params.omegad)
    (ref_lo, ref_hi), tol = REF_TP_INTERVAL
    _check(failures, "tp.lo", tp.lo, ref_lo, tol)
    _check(failures, "tp.hi", tp.hi, ref_hi, tol)
    ts = rise_time(demo_params.xi, demo_params.omegad)
    (ref_lo, ref_hi), tol = REF_TS_INTERVAL
    _check(failures, "ts.lo", ts.lo, ref_lo, tol)
    _check(failures, "ts.hi", ts.hi, ref_hi, tol)
    xi_n = Interval.point(demo_params.xi_nominal)
    wd_n = Interval.point(demo_params.omegad_nominal)
    _check(failures, "Mp nominal",
           overshoot_from_xi(xi_n).midpoint(), *REF_MP_NOMINAL)
    _check(failures, "tp nominal", peak_time(wd_n).midpoint(), *REF_TP_NOMINAL)
    _check(failures, "ts nominal", rise_time(xi_n, wd_n).midpoint(), *REF_TS_NOMINAL)
    _report("criterion 3: transient specifications", failures)


# --- criterion 4: identification ---

def test_criterion_4_identification():
    failures = []
    xi_point = identify(
        Interval.point(0.7125), peak_time(Interval.point(WD_EXPERIMENT))
    )
    _check(failures, "xi experiment", xi_point.xi_nominal, *REF_XI_EXPERIMENT)
    _check(failures, "omega0 experiment",
           xi_point.omega0_nominal, *REF_W0_EXPERIMENT)
    from rlcband import xi_from_overshoot

    xi_int = xi_from_overshoot(Interval(0.6656, 0.9230))
    (ref_lo, ref_hi), tol = REF_XI_INTERVAL
    _check(failures, "xi.lo", xi_int.lo, ref_lo, tol)
    _check(failures, "xi.hi", xi_int.hi, ref_hi, tol)
    _report("criterion 4: identification from overshoot/peak time", failures)


# --- criterion 5: band overshoot ---

def test_criterion_5_band_overshoot(demo_band):
    failures = []
    mp = overshoot_from_band(demo_band)
    (ref_lo, ref_hi), tol = REF_MP_BAND
    _check(failures, "Mp.lo", mp.lo, ref_lo, tol)
    _check(failures, "Mp.hi", mp.hi, ref_hi, tol)
    _report("criterion 5: band-pipeline overshoot interval", failures)


# --- criterion 6: dependency demonstration ---

def test_criterion_6_dependency_demo():
    failures = []
    x = Interval(0.0, 1.0)
    factored = x * (1.0 - x)
    expanded = x - x * x
    for label, got, want in [
        ("factored.lo", factored.lo, 0.0),
        ("factored.hi", factored.hi, 1.0),
        ("expanded.lo", expanded.lo, -1.0),
        ("expanded.hi", expanded.hi, 1.0),
    ]:
        if abs(got - want) > math.ulp(max(abs(want), 1.0)):
            failures.append(f"{label}: got {got!r}, want {want!r} within 1 ulp")
    if not expanded.encloses(factored):
        failures.append("expanded form does not enclose factored form")
    _report("criterion 6: dependency demonstration", failures)


# --- criterion 7a: containment sweeps vs extended-precision oracles ---

def _interval_point_draws(rng, n, lo, hi):
    a = rng.uniform(lo, hi, n)
    b = rng.uniform(lo, hi, n)
    los = np.minimum(a, b)
    his = np.maximum(a, b)
    pts = los + rng.uniform(0.0, 1.0, n) * (his - los)
    return los, his, np.clip(pts, los, his)


def test_criterion_7a_arithmetic_containment():
    rng = np.random.default_rng(197)
    n = CONTAINMENT_SAMPLES
    scale = 10.0 ** rng.integers(-9, 10, n)
    x_lo, x_hi, x_pt = _interval_point_draws(rng, n, -1e3, 1e3)
    y_lo, y_hi, y_pt = _interval_point_draws(rng, n, -1e3, 1e3)
    x_lo, x_hi, x_pt = x_lo * scale, x_hi * scale, x_pt * scale
    failures = []
    ops = {
        "add": (lambda X, Y: X + Y, lambda a, b: a + b, False),
        "sub": (lambda X, Y: X - Y, lambda a, b: a - b, False),
        "mul": (lambda X, Y: X * Y, lambda a, b: a * b, False),
        "div": (lambda X, Y: X / Y, lambda a, b: a / b, True),
    }
    for name, (iop, pop, needs_nonzero) in ops.items():
        bad = 0
        for i in range(n):
            ylo, yhi, ypt = y_lo[i], y_hi[i], y_pt[i]
            if needs_nonzero and ylo <= 0.0 <= yhi:
                ylo, yhi = ylo + 1001.0, yhi + 1001.0  # shift away from zero
                ypt = ypt + 1001.0
            got = iop(Interval(x_lo[i], x_hi[i]), Interval(ylo, yhi))
            exact = pop(Fraction(x_pt[i]), Fraction(ypt))
            if not (Fraction(got.lo) <= exact <= Fraction(got.hi)):
                bad += 1
        if bad:
            failures.append(f"{name}: {bad}/{n} containment violations")
    _report("criterion 7a-1: arithmetic containment vs exact rationals", failures)


def _one_by_one(ifun):
    """An interval function applied to endpoint rows, one Interval at a time."""
    def on_arrays(x):
        out = [ifun(Interval(lo, hi)) for lo, hi in zip(*x)]
        return np.array([[y.lo for y in out], [y.hi for y in out]])
    return on_arrays


def test_criterion_7a_elementary_containment():
    rng = np.random.default_rng(199)
    n = CONTAINMENT_SAMPLES
    long = np.longdouble
    # exp, sin and cos have one implementation, the array kernel: all draws
    # go through it in one call (the scalar iexp/isin/icos are that kernel
    # on one (2, 1) column)
    cases = {
        "iexp": (iexp_array, np.exp, *_interval_point_draws(rng, n, -700.0, 700.0)),
        "iln": (_one_by_one(iln), np.log, *_interval_point_draws(rng, n, 1e-12, 1e12)),
        "isqrt": (_one_by_one(isqrt), np.sqrt, *_interval_point_draws(rng, n, 0.0, 1e12)),
        "isin": (isin_array, np.sin, *_interval_point_draws(rng, n, -50.0, 50.0)),
        "icos": (icos_array, np.cos, *_interval_point_draws(rng, n, -50.0, 50.0)),
        "iacos": (_one_by_one(iacos), np.arccos, *_interval_point_draws(rng, n, -1.0, 1.0)),
        "iatan": (_one_by_one(iatan), np.arctan, *_interval_point_draws(rng, n, -1e9, 1e9)),
    }
    failures = []
    for name, (ifun, ref, los, his, pts) in cases.items():
        got_lo, got_hi = ifun(np.array([los, his]))
        oracle = ref(pts.astype(long))  # 64-bit-significand extended precision
        bad = int(np.count_nonzero((oracle < got_lo) | (oracle > got_hi)))
        if bad:
            failures.append(f"{name}: {bad}/{n} containment violations")
    _report("criterion 7a-2: elementary containment vs extended precision", failures)


# --- criterion 7b: Monte-Carlo trajectory containment ---

def test_criterion_7b_monte_carlo_containment(demo_band):
    rng = np.random.default_rng(20260809)
    n = MONTE_CARLO_SAMPLES
    r = rng.uniform(95.0, 105.0, n)
    rl = rng.uniform(7.8 * 0.95, 7.8 * 1.05, n)
    ll = rng.uniform(0.09, 0.11, n)
    cc = rng.uniform(80e-9, 120e-9, n)
    xi = (r + rl) / 2.0 * np.sqrt(cc / ll)
    w0 = 1.0 / np.sqrt(ll * cc)
    wd = w0 * np.sqrt(1.0 - xi * xi)
    violations = 0
    for start in range(0, n, 500):
        block = slice(start, start + 500)
        v = step_response_curve(
            xi[block, None], w0[block, None], wd[block, None], demo_band.t[None, :]
        )
        outside = (v < demo_band.lower[None, :]) | (v > demo_band.upper[None, :])
        violations += int(outside.sum())
    failures = []
    if violations:
        failures.append(f"{violations} grid-point violations over {n} samples")
    _report("criterion 7b: Monte-Carlo trajectory containment", failures)


# --- criterion 7c: identification round trip ---

def test_criterion_7c_round_trip_containment():
    rng = np.random.default_rng(733)
    failures = []
    bad = 0
    for _ in range(ROUND_TRIP_SAMPLES):
        xi = float(rng.uniform(0.011, 0.899))
        wd = float(10.0 ** rng.uniform(0.0, 7.0))
        params = identify(
            overshoot_from_xi(Interval.point(xi)),
            peak_time(Interval.point(wd)),
        )
        xi_in = params.xi.lo <= xi <= params.xi.hi
        if not (xi_in and params.omegad.lo <= wd <= params.omegad.hi):
            bad += 1
    if bad:
        failures.append(f"{bad}/{ROUND_TRIP_SAMPLES} round trips lost containment")
    _report("criterion 7c: identification round-trip containment", failures)


# --- criterion 7d: ODE cross-check ---

def test_criterion_7d_ode_cross_check(demo_spec, demo_params):
    t_end = 5.0 * 4.0 / (demo_params.xi_nominal * demo_params.omega0_nominal)
    t, v = simulate_ode_point(demo_spec, t_end=t_end, dt=1e-7)
    ref = step_response_curve(
        demo_params.xi_nominal,
        demo_params.omega0_nominal,
        demo_params.omegad_nominal,
        t,
    )
    worst = float(np.max(np.abs(v - ref)))
    failures = []
    if worst > 1e-5:
        failures.append(f"max |ode - closed form| = {worst:.3g} > 1e-5")
    _report("criterion 7d: ODE cross-check agreement", failures)


# --- criterion 8: end-to-end enclosure check ---

def test_criterion_8_end_to_end_check(tmp_path, capsys):
    import json

    config = tmp_path / "circuit.json"
    config.write_text(json.dumps({
        "r_ohms": 100.0, "r_tol_pct": 5.0,
        "rl_ohms": 7.8, "rl_tol_pct": 5.0,
        "l_henries": 0.1, "l_tol_pct": 10.0,
        "c_farads": 100e-9, "c_tol_pct": 20.0,
    }))
    r, rl, l, c = 98.0, 8.0, 0.104, 1.1e-7
    xi = float((r + rl) / 2.0 * np.sqrt(c / l))
    w0 = float(1.0 / np.sqrt(l * c))
    wd = float(w0 * np.sqrt(1.0 - xi * xi))
    inbox = write_trace_csv(
        tmp_path / "inbox.csv",
        make_step_trace(xi, w0, wd, dt=2e-5, t_end=0.035),
    )
    xi3 = 3.0 * 0.0539
    wd3 = float(1e4 * np.sqrt(1.0 - xi3 * xi3))
    outbox = write_trace_csv(
        tmp_path / "triple_r.csv",
        make_step_trace(xi3, 1e4, wd3, dt=2e-5, t_end=0.035),
    )
    failures = []
    rc = main(["check", "--config", str(config), "--trace", str(inbox),
               "--out", str(tmp_path / "a")])
    out = capsys.readouterr().out
    if rc != EXIT_OK:
        failures.append(f"in-box trace: exit {rc}, want {EXIT_OK}")
    if "fraction inside: 1.000000" not in out:
        failures.append("in-box trace: fraction_inside != 1.0")
    rc = main(["check", "--config", str(config), "--trace", str(outbox),
               "--out", str(tmp_path / "b")])
    capsys.readouterr()
    if rc != EXIT_ENCLOSURE:
        failures.append(f"3x-resistance trace: exit {rc}, want {EXIT_ENCLOSURE}")
    _report("criterion 8: end-to-end enclosure verdicts", failures)
