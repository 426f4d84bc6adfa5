"""Circuit model: parameter derivation, step response, band, ODE cross-check.

Reference values are frozen from an mpmath oracle (60 significant digits):
corner enumeration of the monotone parameter formulas over the component
box, and direct evaluation of the closed-form response.
"""

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from rlcband import (
    CircuitSpec,
    ConfigError,
    Interval,
    DomainError,
    ResponseBand,
    default_time_grid,
    derive_params,
    isqrt,
    load_circuit_spec,
    step_response_band,
    step_response_curve,
    write_band_csv,
)

import reference
from conftest import DEMO_CONFIG, TA_NOMINAL, TP_NOMINAL, W0_NOMINAL, WD_NOMINAL, XI_NOMINAL
from reference import icos, iexp, isin, simulate_ode_point, step_response_point

PEAK_VALUE = 1.8440206198662326  # response value at the first peak

# oracle: corner enumeration over the as-constructed component box
# (the outward-rounded interval endpoints are the box corners)
XI_BOX = (0.043667770723956112, 0.065350276969573767)
W0_BOX = (8703.8827977848905, 11785.113019775794)
WD_BOX = (8685.2772556537147, 11773.871294098642)


# --- CircuitSpec ---

def test_spec_validation():
    with pytest.raises(ValueError):
        CircuitSpec(-1.0, 0.0, 7.8, 0.0, 0.1, 0.0, 1e-7, 0.0)
    with pytest.raises(ValueError):
        CircuitSpec(100.0, 1.0, 7.8, 0.0, 0.1, 0.0, 1e-7, 0.0)


def test_resistance_interval_includes_winding(demo_spec):
    r = demo_spec.resistance_interval()
    assert r.lo <= 95.0 + 7.41 and r.hi >= 105.0 + 8.19
    assert r.lo <= demo_spec.r_ohms + demo_spec.rl_ohms <= r.hi


def test_config_roundtrip(tmp_path, demo_spec):
    cfg = tmp_path / "circuit.json"
    cfg.write_text(json.dumps(DEMO_CONFIG))
    assert load_circuit_spec(cfg) == demo_spec


@pytest.mark.parametrize("mutate,match", [
    pytest.param(lambda d: d.update(bogus=1.0), "unknown keys", id="unknown"),
    pytest.param(lambda d: d.update(r_ohms="many"), "r_ohms must be a number", id="not-number"),
    pytest.param(lambda d: d.update(r_tol_pct=100), re.escape("r_tol_pct must be a percentage in [0, 100)"),
                 id="tol-100"),
    pytest.param(lambda d: d.update(c_tol_pct=-5), re.escape("c_tol_pct must be a percentage in [0, 100)"),
                 id="tol-negative"),
    *[pytest.param(lambda d, key=key: d.pop(key), re.escape(f"missing keys ['{key}']"),
                   id=f"no-{key}") for key in DEMO_CONFIG],
])
def test_config_rejects_bad_content(tmp_path, mutate, match):
    data = dict(DEMO_CONFIG)
    mutate(data)
    cfg = tmp_path / "circuit.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=match):
        load_circuit_spec(cfg)


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_circuit_spec(tmp_path / "nope.json")


def test_config_bad_json(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    with pytest.raises(ConfigError):
        load_circuit_spec(cfg)


# --- derive_params ---

def test_nominal_parameters(demo_params):
    assert demo_params.xi_nominal == pytest.approx(XI_NOMINAL, abs=1e-12)
    assert demo_params.omega0_nominal == pytest.approx(W0_NOMINAL, abs=1e-8)
    assert demo_params.omegad_nominal == pytest.approx(WD_NOMINAL, abs=1e-8)


def test_interval_parameters_match_corner_oracle(demo_params):
    # natural extension is tight: each component appears once per formula,
    # and xi / omega0 are monotone in each component over positive boxes
    for got, ref in [(demo_params.xi, XI_BOX), (demo_params.omega0, W0_BOX)]:
        assert got.lo <= ref[0] <= ref[1] <= got.hi
        assert abs(got.lo - ref[0]) <= 4 * math.ulp(ref[0])
        assert abs(got.hi - ref[1]) <= 4 * math.ulp(ref[1])
    # omegad cross-check over the (xi, omega0) corner box
    assert demo_params.omegad.lo <= WD_BOX[0] <= WD_BOX[1] <= demo_params.omegad.hi
    assert abs(demo_params.omegad.lo - WD_BOX[0]) <= 0.1
    assert abs(demo_params.omegad.hi - WD_BOX[1]) <= 0.1


def test_decay_is_inside_and_narrower_than_xi_omega0(demo_spec):
    # R/(2L) names each component once; xi*omega0 repeats L and C
    for spec in [demo_spec, *_sweep_specs(20, 41)]:
        params = derive_params(spec)
        product = params.xi * params.omega0
        assert product.encloses(params.decay), spec
        assert params.decay.hi - params.decay.lo < product.hi - product.lo, spec
    # demo: the corner range of R/(2L), 102.41/0.22 to 113.19/0.18
    decay = derive_params(demo_spec).decay
    assert Fraction(decay.lo) <= Fraction(10241, 22) and Fraction(decay.hi) >= Fraction(11319, 18)
    assert abs(decay.lo - 10241 / 22) <= 1e-9 and abs(decay.hi - 11319 / 18) <= 1e-9


def test_not_underdamped_rejected():
    overdamped = CircuitSpec(10000.0, 0.05, 7.8, 0.05, 0.1, 0.10, 100e-9, 0.20)
    with pytest.raises(DomainError, match="damping ratio .* not strictly inside"):
        derive_params(overdamped)


def test_params_need_positive_frequencies(demo_params):
    # the band relies on positive decay and damped frequency
    for field in ("omega0", "omegad"):
        with pytest.raises(DomainError, match="frequency .* must be strictly positive"):
            dataclasses.replace(demo_params, **{field: Interval(-1.0, 1e4)})
    with pytest.raises(DomainError, match="decay rate .* must be strictly positive"):
        dataclasses.replace(demo_params, decay=Interval(-1.0, 1e4))


def test_underdamped_needs_strict_interior():
    # tolerance pushing the upper damping ratio to 1 must be rejected
    marginal = CircuitSpec(1900.0, 0.05, 7.8, 0.05, 0.1, 0.10, 100e-9, 0.20)
    with pytest.raises(DomainError, match="damping ratio .* not strictly inside"):
        derive_params(marginal)


# --- point response ---

def test_response_starts_at_zero(demo_params):
    v = step_response_point(
        demo_params.xi_nominal, demo_params.omega0_nominal,
        demo_params.omegad_nominal, 0.0,
    )
    assert v == 0.0


def test_response_peak_value(demo_params):
    v = step_response_point(
        demo_params.xi_nominal, demo_params.omega0_nominal,
        demo_params.omegad_nominal, TP_NOMINAL,
    )
    assert v == pytest.approx(PEAK_VALUE, abs=1e-12)


def test_response_near_first_crossing(demo_params):
    v = step_response_point(
        demo_params.xi_nominal, demo_params.omega0_nominal,
        demo_params.omegad_nominal, 0.00016,
    )
    assert abs(v - 1.0) < 0.03  # just below the first crossing of the final value


def test_response_envelope_bound(demo_params):
    xi, w0, wd = (
        demo_params.xi_nominal,
        demo_params.omega0_nominal,
        demo_params.omegad_nominal,
    )
    amp = 1.0 + xi / math.sqrt(1.0 - xi * xi)
    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 10 * TA_NOMINAL, 500):
        v = step_response_point(xi, w0, wd, t)
        assert abs(v - 1.0) <= math.exp(-xi * w0 * t) * amp + 1e-12


def test_response_settles_to_one(demo_params):
    v = step_response_point(
        demo_params.xi_nominal, demo_params.omega0_nominal,
        demo_params.omegad_nominal, 10 * TA_NOMINAL,
    )
    assert abs(v - 1.0) < 1e-8


def test_response_validations(demo_params):
    with pytest.raises(ValueError):
        step_response_point(0.5, 1e4, 9e3, -1.0)
    with pytest.raises(DomainError, match="damping ratio .* not strictly inside"):
        step_response_point(1.5, 1e4, 9e3, 1.0)


def test_curve_matches_point(demo_params):
    t = np.linspace(0.0, 5 * TA_NOMINAL, 50)
    curve = step_response_curve(
        demo_params.xi_nominal, demo_params.omega0_nominal,
        demo_params.omegad_nominal, t,
    )
    for ti, vi in zip(t, curve):
        assert vi == pytest.approx(
            step_response_point(
                demo_params.xi_nominal, demo_params.omega0_nominal,
                demo_params.omegad_nominal, float(ti),
            ),
            abs=1e-14,
        )


# --- band ---

def test_band_grid_defaults(demo_params):
    grid = default_time_grid(demo_params)
    assert grid.size == 2000
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(5 * TA_NOMINAL, rel=1e-12)


def test_band_grid_rejects_bad_arguments(demo_params):
    with pytest.raises(ValueError, match="grid needs at least 2 points"):
        default_time_grid(demo_params, points=1)
    with pytest.raises(ValueError, match="t_end_mult must be positive"):
        default_time_grid(demo_params, t_end_mult=0.0)
    with pytest.raises(ValueError, match="t_end_mult must be positive"):
        default_time_grid(demo_params, t_end_mult=float("nan"))
    with pytest.raises(ValueError, match="the grid end overflows"):
        default_time_grid(demo_params, t_end_mult=np.inf)


def test_band_contains_nominal_everywhere(demo_band):
    assert np.all(demo_band.lower <= demo_band.nominal)
    assert np.all(demo_band.nominal <= demo_band.upper)


def test_band_first_row_straddles_zero(demo_band):
    assert demo_band.t[0] == 0.0
    assert demo_band.lower[0] <= 0.0 <= demo_band.upper[0]


def test_degenerate_band_collapses_to_trajectory(zero_tol_spec):
    params = derive_params(zero_tol_spec)
    band = step_response_band(params, default_time_grid(params, points=400))
    assert np.max(band.upper - band.lower) <= 1e-12


def test_band_encloses_random_box_samples(demo_params, demo_band):
    rng = np.random.default_rng(17)
    n = 300
    r = rng.uniform(95.0, 105.0, n)
    rl = rng.uniform(7.8 * 0.95, 7.8 * 1.05, n)
    ll = rng.uniform(0.09, 0.11, n)
    cc = rng.uniform(80e-9, 120e-9, n)
    xi = (r + rl) / 2.0 * np.sqrt(cc / ll)
    w0 = 1.0 / np.sqrt(ll * cc)
    wd = w0 * np.sqrt(1.0 - xi * xi)
    v = step_response_curve(xi[:, None], w0[:, None], wd[:, None], demo_band.t[None, :])
    assert np.all(v >= demo_band.lower[None, :])
    assert np.all(v <= demo_band.upper[None, :])


def _band_reference(params, grid):
    """The band evaluated point by point in scalar Interval arithmetic, with
    the libm enclosures of exp, cos and sin."""
    one = Interval.point(1.0)
    damp = params.xi / isqrt(one - params.xi * params.xi)
    lower, upper = [], []
    for t in grid:
        tt = Interval.point(float(t))
        phase = params.omegad * tt
        v = one - iexp(-(params.decay * tt)) * (icos(phase) + damp * isin(phase))
        lower.append(v.lo)
        upper.append(v.hi)
    return np.array(lower), np.array(upper)


@pytest.mark.parametrize("tols", [(0.05, 0.05, 0.10, 0.20), (0.0, 0.0, 0.0, 0.0),
                                  (0.01, 0.2, 0.002, 0.01)], ids=["demo", "point", "mixed"])
def test_band_matches_scalar_reference(tols):
    spec = CircuitSpec(
        r_ohms=100.0, r_tol=tols[0], rl_ohms=7.8, rl_tol=tols[1],
        l_henries=0.1, l_tol=tols[2], c_farads=100e-9, c_tol=tols[3],
    )
    params = derive_params(spec)
    # t = 0, then phases narrower and (for the toleranced boxes) wider than 2*pi
    grid = default_time_grid(params, points=300, t_end_mult=8.0)
    band = step_response_band(params, grid)
    lower, upper = _band_reference(params, grid)
    # numpy's exp/cos may differ from libm's by 1 ulp; allow 4 ulp of the step
    tol = 4 * np.spacing(1.0)
    assert np.max(np.abs(band.lower - lower)) <= tol
    assert np.max(np.abs(band.upper - upper)) <= tol
    assert band.lower[0] <= 0.0 <= band.upper[0]


def _kernel_reference(params, grid):
    """The band through reference.band_block, in one call for the whole grid."""
    one = Interval.point(1.0)
    damp = params.xi / isqrt(one - params.xi * params.xi)
    return reference.band_block(params.decay, params.omegad, damp, grid)


@pytest.mark.parametrize("points", [400, 2000, 20000, 2 * 4096 + 1])
def test_band_bits_match_fixed_direction_kernel(demo_params, points):
    # 2*4096 + 1 points end the grid one point into a third block.
    grid = default_time_grid(demo_params, points)
    band = step_response_band(demo_params, grid)
    lower, upper = _kernel_reference(demo_params, grid)
    assert band.lower.tobytes() == lower.tobytes()
    assert band.upper.tobytes() == upper.tobytes()


def _sweep_specs(n, seed):
    """Underdamped boxes over tolerance_sweep's ranges: L in [1 mH, 1 H] and
    C in [1 nF, 10 uF] log-uniform, nominal xi in [0.02, 0.5], winding
    resistance 2-20 % of the total and each tolerance in [1 %, 20 %]."""
    rng = np.random.default_rng(seed)
    l = 10.0 ** rng.uniform(-3.0, 0.0, n)
    c = 10.0 ** rng.uniform(-9.0, -5.0, n)
    r_total = 2.0 * rng.uniform(0.02, 0.5, n) * np.sqrt(l / c)
    share = rng.uniform(0.02, 0.2, n)
    tol = rng.uniform(0.01, 0.2, (4, n))
    return [CircuitSpec(r_ohms=float(r_total[i] * (1.0 - share[i])), r_tol=float(tol[0, i]),
                        rl_ohms=float(r_total[i] * share[i]), rl_tol=float(tol[1, i]),
                        l_henries=float(l[i]), l_tol=float(tol[2, i]),
                        c_farads=float(c[i]), c_tol=float(tol[3, i]))
            for i in range(n)]


def test_band_bits_match_fixed_direction_kernel_on_sweep_boxes():
    for spec in _sweep_specs(128, 97):
        params = derive_params(spec)
        grid = default_time_grid(params, 400)
        band = step_response_band(params, grid)
        lower, upper = _kernel_reference(params, grid)
        assert band.lower.tobytes() == lower.tobytes(), spec
        assert band.upper.tobytes() == upper.tobytes(), spec


def test_band_survives_envelope_underflow(demo_params):
    # exp(-decay*t) underflows to 0 well before t = 3 s
    grid = np.linspace(0.0, 3.0, 5000)
    band = step_response_band(demo_params, grid)
    late = grid > 2.0
    assert np.all(band.lower[late] <= 1.0) and np.all(band.upper[late] >= 1.0)
    assert np.all(band.lower <= band.upper)
    # only the outward steps of 1 - 0 remain
    assert np.max(band.upper[late] - band.lower[late]) <= 2 * np.spacing(1.0)


def test_band_rejects_huge_phase(demo_params):
    with pytest.raises(DomainError, match=r"2\*\*52 rad loses all reduction precision"):
        step_response_band(demo_params, np.array([0.0, 1.0, 1e12]))


def test_band_rejects_negative_times(demo_params):
    with pytest.raises(ValueError):
        step_response_band(demo_params, np.array([-1e-3, 0.0, 1e-3]))


def test_band_validation_rejects_bad_arrays():
    t = np.linspace(0.0, 1.0, 10)
    ones = np.ones(10)
    with pytest.raises(ValueError):
        ResponseBand(t + 1.0, ones, ones, ones)  # grid must start at 0
    with pytest.raises(ValueError):
        ResponseBand(t, ones, ones - 1.0, ones)  # nominal below lower
    with pytest.raises(ValueError):
        ResponseBand(t[::-1].copy(), ones, ones, ones)
    with pytest.raises(ValueError, match="at least 2 points"):
        ResponseBand(t[:1], ones[:1], ones[:1], ones[:1])
    with pytest.raises(ValueError, match="lower shape does not match the grid"):
        ResponseBand(t, ones[:9], ones, ones)
    with pytest.raises(ValueError, match="strictly increasing"):
        ResponseBand(np.repeat(t, 2)[1:], *[np.ones(19)] * 3)  # starts at 0, repeats times


# --- ODE cross-check ---

def test_ode_starts_at_rest(demo_spec):
    t, v = simulate_ode_point(demo_spec, t_end=1e-3, dt=1e-6)
    assert v[0] == 0.0


def test_ode_matches_closed_form_at_peak(demo_spec, demo_params):
    t, v = simulate_ode_point(demo_spec, t_end=2 * TP_NOMINAL, dt=1e-7)
    k = round(TP_NOMINAL / 1e-7)
    ref = step_response_point(
        demo_params.xi_nominal, demo_params.omega0_nominal,
        demo_params.omegad_nominal, float(t[k]),
    )
    assert abs(v[k] - ref) < 1e-6


def test_ode_reaches_steady_state(demo_spec):
    t, v = simulate_ode_point(demo_spec, t_end=10 * TA_NOMINAL, dt=1e-5)
    assert abs(v[-1] - 1.0) < 1e-4


def test_ode_step_size_guards(demo_spec):
    with pytest.raises(ValueError):
        simulate_ode_point(demo_spec, t_end=1e-3, dt=0.0)
    with pytest.raises(ValueError):
        simulate_ode_point(demo_spec, t_end=1e-3, dt=1e-4)  # coarser than t_end/100
    with pytest.raises(ValueError):
        simulate_ode_point(demo_spec, t_end=1.0, dt=2e-5)  # dt*omega0 > 0.1


# --- CSV output ---

def test_band_csv_format(tmp_path, demo_band):
    path = tmp_path / "band.csv"
    write_band_csv(demo_band, path, tmp_path / "nominal.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,lower,nominal,upper"
    assert len(lines) == demo_band.t.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) <= 0.0 <= float(first[3])
    # 17 significant digits survive a round-trip
    row = lines[1000].split(",")
    assert float(row[2]) == demo_band.nominal[999]
