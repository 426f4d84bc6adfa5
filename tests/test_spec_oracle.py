"""Definition oracle: every interval that metrics prints for a component box
encloses the quantity it names, for real circuits in that box.

The boxes are the demo box and seeded boxes over the tolerance sweep's
ranges.  The circuits of a box are its corner (R.lo, L.hi, C.lo), which has
the box's smallest damping ratio and so its largest overshoot, and seeded
Monte-Carlo draws.  Each circuit's overshoot Mp (max v - 1), peak time tp
(its argmax) and rise time ts (first crossing of 1) come from their closed
forms.  Its settling time ta, the last exit from +/-2 % of the final value, is
found by dense sampling of the one window that can hold it: with
t_e = ln(50 / sqrt(1 - xi^2)) / sigma, every response stays within 2 % after
t_e, and |v - 1| touches its envelope once in every half period, so
ta lies in [t_e - pi/wd, t_e].

Two intervals miss, and their tests are strict xfails until mended: the
band overshoot, whose upper end is the band's maximum on the grid (ROADMAP
item 1b), and the 4/sigma settling time (ROADMAP item 12).
"""

import numpy as np
import pytest

from rlcband import CircuitSpec, default_time_grid, derive_params, step_response_band
from rlcband.metrics import overshoot_from_band, specs_from_params

SEED = 14
BOXES = 300
DRAWS = 20
# the closed forms in float64 are within a few ulp of exact; the misses
# this oracle looks for are many orders of magnitude larger
REL_SLACK = 1e-12


def _sweep_specs(rng, n):
    """Boxes over the tolerance sweep's ranges: L in [1 mH, 1 H] and C in
    [1 nF, 10 uF] (log-uniform), nominal xi in [0.02, 0.5], winding 2-20 % of
    the series resistance, each tolerance in [1 %, 20 %]."""
    l = 10.0 ** rng.uniform(-3.0, 0.0, n)
    c = 10.0 ** rng.uniform(-9.0, -5.0, n)
    xi = rng.uniform(0.02, 0.5, n)
    share = rng.uniform(0.02, 0.2, n)
    tol = rng.uniform(0.01, 0.2, (4, n))
    r = 2.0 * xi * np.sqrt(l / c)
    return [CircuitSpec(r[i] * (1.0 - share[i]), tol[0, i], r[i] * share[i], tol[1, i],
                        l[i], tol[2, i], c[i], tol[3, i]) for i in range(n)]


def _circuits(spec, rng, draws):
    """R, L and C of the box's corner (R.lo, L.hi, C.lo), then of draws
    circuits drawn uniformly from the box."""
    r, l, c = spec.resistance_interval(), spec.inductance_interval(), spec.capacitance_interval()
    return tuple(np.concatenate([[corner], rng.uniform(x.lo, x.hi, draws)])
                 for x, corner in ((r, r.lo), (l, l.hi), (c, c.lo)))


def _closed_forms(r, l, c):
    """xi, wd, sigma, Mp, tp and ts of each circuit."""
    xi = r / 2.0 * np.sqrt(c / l)
    root = np.sqrt(1.0 - xi * xi)
    wd = root / np.sqrt(l * c)
    sigma = r / (2.0 * l)
    return xi, wd, sigma, np.exp(-np.pi * xi / root), np.pi / wd, (np.pi - np.arccos(xi)) / wd


def _settling_times(xi, wd, sigma, samples=2001):
    """(earliest, latest) bounds of each circuit's last exit from +/-2 %,
    from samples points of [t_e - pi/wd, t_e]: the last sample outside the
    2 % band and the sample after it."""
    root = np.sqrt(1.0 - xi * xi)
    t_e = np.log(50.0 / root) / sigma
    t = np.linspace(t_e - np.pi / wd, t_e, samples, axis=1)
    w, s = wd[:, None], sigma[:, None]
    excess = np.exp(-s * t) * (np.cos(w * t) + (xi / root)[:, None] * np.sin(w * t))
    outside = np.abs(excess) > 0.02
    assert outside.any(axis=1).all()
    last = samples - 1 - np.argmax(outside[:, ::-1], axis=1)
    rows = np.arange(t.shape[0])
    return t[rows, last], t[rows, np.minimum(last + 1, samples - 1)]


def _assert_within(name, values, interval, box):
    slack = REL_SLACK * np.abs(values)
    below = values < interval.lo - slack
    above = values > interval.hi + slack
    assert not (below.any() or above.any()), (
        f"{name}: {int(below.sum())} below and {int(above.sum())} above {interval} "
        f"in box {box}")


@pytest.fixture(scope="module")
def boxes(demo_spec):
    """(box index, spec, circuits) of the demo box (index 0) and the seeded boxes."""
    rng = np.random.default_rng(SEED)
    specs = [demo_spec, *_sweep_specs(rng, BOXES)]
    return [(i, spec, _circuits(spec, rng, DRAWS)) for i, spec in enumerate(specs)]


def test_formula_specs_enclose_every_circuit(boxes):
    for i, spec, circuits in boxes:
        specs = specs_from_params(derive_params(spec))
        _, _, _, mp, tp, ts = _closed_forms(*circuits)
        _assert_within("Mp", mp, specs.mp, i)
        _assert_within("tp", tp, specs.tp, i)
        _assert_within("ts", ts, specs.ts_rise, i)


# Measured: at 400 points, 8 of the 300 seeded boxes have a circuit that peaks
# above the band Mp.hi, the worst by 0.0988, with 2.5-6.6 grid points per
# damped period; at 2 000 points one does (box 169, xi.lo 0.018, 12.7 points
# per period), by 3.2e-4.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the band Mp.hi is the grid maximum of the band, not its maximum "
                          "over t (ROADMAP items 1b and 14)")
@pytest.mark.parametrize("points", [400, 2000])
def test_band_overshoot_encloses_every_peak(boxes, points):
    for i, spec, circuits in boxes:
        params = derive_params(spec)
        band = step_response_band(params, default_time_grid(params, points))
        _assert_within(f"Mp at {points} points", _closed_forms(*circuits)[3],
                       overshoot_from_band(band), i)


# Measured: 17 of the 400 seeded draws settle before 6.361 ms, the lower end
# of ta = [6.361; 8.593] ms, the earliest at 6.187 ms.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ta is the textbook 4/sigma, not an enclosure of the last exit "
                          "from +/-2 % (ROADMAP item 12)")
def test_formula_settling_time_encloses_every_circuit(demo_spec, demo_params):
    xi, wd, sigma, *_ = _closed_forms(*_circuits(demo_spec, np.random.default_rng(SEED), 400))
    earliest, latest = _settling_times(xi, wd, sigma)
    ta = specs_from_params(demo_params).ta
    # a miss only where the whole sampled step lies outside ta
    assert not ((latest < ta.lo) | (earliest > ta.hi)).any(), (
        f"{int((latest < ta.lo).sum())} below and {int((earliest > ta.hi).sum())} above {ta}")
