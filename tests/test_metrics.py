"""Transient-specification formulas, band extraction, and identification.

Frozen reference values come from an mpmath oracle (60 significant digits):
endpoint evaluation for the monotone/antitone formulas and independent-box
corner enumeration where two interval arguments combine.
"""

import math

import numpy as np
import pytest

from rlcband import (
    DomainError,
    Interval,
    Pipeline,
    ResponseBand,
    TransientSpecs,
    identify,
    overshoot_from_band,
    overshoot_from_xi,
    peak_time,
    rise_time,
    settling_time,
    specs_from_params,
    xi_from_overshoot,
)
from rlcband.rounding import add_up

XI_NOMINAL = 0.05389999999999999720
WD_NOMINAL = 9985.46338434025800
MP_NOMINAL = 0.8440206198662326
TP_NOMINAL = 3.146166114350395e-4
TS_NOMINAL = 1.6270876942891985e-4
TA_NOMINAL = 7.421150278293136e-3

XI_BOX = Interval(0.043667770723956112, 0.065350276969573767)
W0_BOX = Interval(8703.8827977848905, 11785.113019775794)
WD_BOX = Interval(8685.2772556537147, 11773.871294098642)

# corner oracle over the independent (xi, omegad) / (xi, omega0) boxes
MP_FORMULA_BOX = (0.81404164710448711, 0.87169356456428665)
TP_BOX = (2.6682750092269466e-4, 3.6171472264109481e-4)
TS_BOX = (1.3712380127748808e-4, 1.8838698639210244e-4)
TA_BOX = (5.1937232818090182e-3, 1.0524123492086695e-2)

# endpoint inversion of the overshoot formula
XI_FROM_MP_EXPERIMENT = 0.10727654785269201  # mp = 0.7125
XI_FROM_MP_BOX = (0.025496620663965201, 0.12849904618760400)  # mp = [0.6656, 0.9230]
TP_EXPERIMENT = 3.1570000767644344e-4  # pi / 9951.196
W0_EXPERIMENT = 10008.955478186701


def _close_to(iv, ref, tol):
    return abs(iv.lo - ref[0]) <= tol and abs(iv.hi - ref[1]) <= tol


# --- overshoot_from_xi ---

def test_overshoot_nominal():
    mp = overshoot_from_xi(Interval.point(XI_NOMINAL))
    assert mp.lo <= MP_NOMINAL <= mp.hi
    assert add_up(mp.hi, -mp.lo) <= 1e-12


def test_overshoot_tends_to_one_for_small_damping():
    mp = overshoot_from_xi(Interval.point(1e-9))
    assert mp.hi <= 1.0 + 1e-12
    assert mp.lo > 1.0 - 1e-7


def test_overshoot_component_box():
    mp = overshoot_from_xi(XI_BOX)
    # natural extension; dependency slack is tiny because sqrt(1-xi^2) ~ 1
    assert mp.lo <= MP_FORMULA_BOX[0] <= MP_FORMULA_BOX[1] <= mp.hi
    assert _close_to(mp, MP_FORMULA_BOX, 1e-4)


def test_overshoot_domain_checks():
    with pytest.raises(DomainError, match="not strictly inside"):
        overshoot_from_xi(Interval(0.0, 0.5))
    with pytest.raises(DomainError, match="not strictly inside"):
        overshoot_from_xi(Interval(0.5, 1.0))


def test_overshoot_antitone():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(0.01, 0.9, 40))
    values = [overshoot_from_xi(Interval.point(float(x))) for x in xs]
    for a, b in zip(values, values[1:]):
        assert a.hi > b.lo


# --- peak_time ---

def test_peak_time_nominal():
    tp = peak_time(Interval.point(WD_NOMINAL))
    assert tp.lo <= TP_NOMINAL <= tp.hi
    assert add_up(tp.hi, -tp.lo) <= 1e-12


def test_peak_time_box():
    tp = peak_time(WD_BOX)
    assert tp.lo <= TP_BOX[0] <= TP_BOX[1] <= tp.hi
    assert _close_to(tp, TP_BOX, 1e-9)


def test_peak_time_degenerate_pi():
    tp = peak_time(Interval(math.pi, math.pi))
    assert tp.lo <= 1.0 <= tp.hi
    assert add_up(tp.hi, -tp.lo) <= 4 * math.ulp(1.0)


def test_peak_time_rejects_nonpositive():
    with pytest.raises(DomainError, match="damped frequency .* must be strictly positive"):
        peak_time(Interval(-1.0, 100.0))


# --- settling_time ---

def test_settling_nominal():
    ta = settling_time(Interval.point(XI_NOMINAL), Interval.point(1e4))
    assert ta.lo <= TA_NOMINAL <= ta.hi
    assert add_up(ta.hi, -ta.lo) <= 1e-12


def test_settling_unit_product():
    ta = settling_time(Interval.point(2.0), Interval.point(2.0))
    assert ta == Interval(1.0, 1.0)


def test_settling_box():
    ta = settling_time(XI_BOX, W0_BOX)
    assert ta.lo <= TA_BOX[0] <= TA_BOX[1] <= ta.hi
    assert _close_to(ta, TA_BOX, 1e-9)


def test_settling_rejects_nonpositive():
    with pytest.raises(DomainError, match=r"xi\*omega0 = .* must be strictly positive"):
        settling_time(Interval(-0.1, 0.1), Interval.point(1e4))


# --- rise_time ---

def test_rise_nominal():
    ts = rise_time(Interval.point(XI_NOMINAL), Interval.point(WD_NOMINAL))
    assert ts.lo <= TS_NOMINAL <= ts.hi
    assert add_up(ts.hi, -ts.lo) <= 1e-12


def test_rise_box():
    ts = rise_time(XI_BOX, WD_BOX)
    assert ts.lo <= TS_BOX[0] <= TS_BOX[1] <= ts.hi
    assert _close_to(ts, TS_BOX, 1e-9)


def test_rise_small_damping_limit():
    # xi -> 0: first crossing at a quarter period, (pi/2)/omegad
    ts = rise_time(Interval.point(1e-12), Interval.point(1e4))
    assert abs(ts.midpoint() - (math.pi / 2) / 1e4) < 1e-12


def test_ordering_rise_peak_settle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        xi = float(rng.uniform(0.02, 0.7))
        w0 = float(rng.uniform(1e2, 1e6))
        wd = w0 * math.sqrt(1.0 - xi * xi)
        xi_i, w0_i, wd_i = map(Interval.point, (xi, w0, wd))
        ts = rise_time(xi_i, wd_i).midpoint()
        tp = peak_time(wd_i).midpoint()
        ta = settling_time(xi_i, w0_i).midpoint()
        assert ts < tp < ta


# --- specs_from_params ---

def test_specs_from_params_assembles_all(demo_params):
    specs = specs_from_params(demo_params)
    assert specs.pipeline is Pipeline.FROM_PARAMS
    assert specs.mp.lo <= MP_FORMULA_BOX[0] and specs.mp.hi >= MP_FORMULA_BOX[1]
    assert specs.tp.lo <= TP_BOX[0] and specs.tp.hi >= TP_BOX[1]
    assert specs.ts_rise.lo <= TS_BOX[0] and specs.ts_rise.hi >= TS_BOX[1]
    assert specs.ta.lo <= TA_BOX[0] and specs.ta.hi >= TA_BOX[1]


def test_transient_specs_validation():
    good = Interval.point(1e-4)
    with pytest.raises(ValueError):
        TransientSpecs(Interval(-0.5, 0.5), good, good, good, Pipeline.FROM_TRACE)
    with pytest.raises(ValueError):
        TransientSpecs(Interval.point(0.5), Interval.point(0.0), good, good,
                       Pipeline.FROM_TRACE)


# --- overshoot_from_band ---

def test_band_overshoot_degenerate(zero_tol_spec):
    from rlcband import default_time_grid, derive_params, step_response_band

    params = derive_params(zero_tol_spec)
    band = step_response_band(params, default_time_grid(params))
    mp = overshoot_from_band(band)
    # grid sampling can miss the true peak by the local quadratic error
    assert abs(mp.lo - MP_NOMINAL) < 1e-3
    assert abs(mp.hi - MP_NOMINAL) < 1e-3


def test_band_overshoot_toleranced(demo_band):
    mp = overshoot_from_band(demo_band)
    assert abs(mp.lo - 0.6454) < 2e-3
    assert abs(mp.hi - 0.9231) < 2e-3


def test_band_overshoot_clamps_monotone_band():
    t = np.linspace(0.0, 10.0, 300)
    nominal = 1.0 - np.exp(-t)
    band = ResponseBand(t, nominal - 0.05, nominal, nominal + 0.05)
    mp = overshoot_from_band(band)
    assert mp.lo == 0.0
    assert mp.hi == pytest.approx(0.05 - math.exp(-10.0), abs=1e-12)


@pytest.mark.parametrize("final, settled", [
    (0.9, False), (0.996, True), (1.004, True), (1.01, False),
])
def test_band_overshoot_last_point_peak(final, settled):
    # the highest point is the last: only a band settled at 1 is accepted
    t = np.linspace(0.0, 10.0, 300)
    nominal = final * (1.0 - np.exp(-t)) / (1.0 - math.exp(-10.0))
    band = ResponseBand(t, nominal - 0.05, nominal, nominal + 0.05)
    if settled:
        assert overshoot_from_band(band).lo == 0.0
    else:
        with pytest.raises(DomainError, match="before the nominal response peaks"):
            overshoot_from_band(band)


def test_band_overshoot_rejects_nominal_that_never_rises():
    # the highest point of an all-zero nominal is its first one, which is no peak
    t = np.linspace(0.0, 1.0, 300)
    zero = np.zeros_like(t)
    band = ResponseBand(t, zero - 0.05, zero, zero + 0.05)
    with pytest.raises(DomainError, match="before the nominal response peaks"):
        overshoot_from_band(band)


def test_band_overshoot_rejects_grid_before_final_value(demo_params):
    from rlcband import step_response_band

    grid = np.linspace(0.0, 1.0e-4, 300)  # ends before the response first reaches 1
    band = step_response_band(demo_params, grid)
    assert int(np.argmax(band.nominal)) == grid.size - 1 and band.nominal[-1] < 1.0
    with pytest.raises(DomainError, match="before the nominal response peaks"):
        overshoot_from_band(band)


def test_band_overshoot_requires_peak_coverage(demo_params):
    from rlcband import step_response_band

    grid = np.linspace(0.0, 2.0e-4, 300)  # ends before the first peak
    band = step_response_band(demo_params, grid)
    with pytest.raises(DomainError, match="before the nominal response peaks"):
        overshoot_from_band(band)
    grid = np.linspace(0.0, 3.5e-4, 300)  # past the peak, but short of 1.2x its time
    band = step_response_band(demo_params, grid)
    assert int(np.argmax(band.nominal)) < grid.size - 1
    with pytest.raises(DomainError, match="must reach 1.2x the nominal peak time"):
        overshoot_from_band(band)


# --- identification ---

def test_identify_experiment_point():
    params = identify(Interval.point(0.7125), Interval.point(TP_EXPERIMENT))
    assert abs(params.xi_nominal - XI_FROM_MP_EXPERIMENT) < 1e-12
    assert params.xi.lo <= XI_FROM_MP_EXPERIMENT <= params.xi.hi
    assert abs(params.omegad_nominal - 9951.196) < 1e-6
    assert abs(params.omega0_nominal - W0_EXPERIMENT) < 1e-6
    assert params.omega0.lo <= W0_EXPERIMENT <= params.omega0.hi


def test_xi_inversion_interval_is_tight():
    xi = xi_from_overshoot(Interval(0.6656, 0.9230))
    assert xi.lo <= XI_FROM_MP_BOX[0] <= XI_FROM_MP_BOX[1] <= xi.hi
    assert _close_to(xi, XI_FROM_MP_BOX, 1e-12)


def test_identify_roundtrip_nominal():
    mp = overshoot_from_xi(Interval.point(XI_NOMINAL))
    tp = peak_time(Interval.point(WD_NOMINAL))
    params = identify(mp, tp)
    assert params.xi.lo <= XI_NOMINAL <= params.xi.hi
    assert params.omegad.lo <= WD_NOMINAL <= params.omegad.hi
    assert abs(params.xi_nominal - XI_NOMINAL) < 1e-9
    assert abs(params.omegad_nominal - WD_NOMINAL) < 1e-6


def test_identify_domain_checks():
    with pytest.raises(DomainError, match=r"overshoot .* not in \(0, 1\)"):
        identify(Interval(0.5, 1.0), Interval.point(1e-4))
    with pytest.raises(DomainError, match="peak time .* must be strictly positive"):
        identify(Interval.point(0.5), Interval(0.0, 1e-4))
    with pytest.raises(DomainError, match=r"overshoot .* not in \(0, 1\)"):
        xi_from_overshoot(Interval(0.0, 0.9))


def test_identify_roundtrip_containment_sweep():
    rng = np.random.default_rng(41)
    for _ in range(300):
        xi = float(rng.uniform(0.01, 0.9))
        wd = float(rng.uniform(1.0, 1e7))
        params = identify(
            overshoot_from_xi(Interval.point(xi)),
            peak_time(Interval.point(wd)),
        )
        assert params.xi.lo <= xi <= params.xi.hi
        assert params.omegad.lo <= wd <= params.omegad.hi
