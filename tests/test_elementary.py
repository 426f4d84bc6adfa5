"""Elementary interval enclosures against an extended-precision oracle.

Spot values are frozen from mpmath at 60 significant digits; the bulk
range-soundness sweeps live in the acceptance suite.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlcband import (
    DomainError,
    Interval,
    IntervalError,
    HALF_PI,
    PI,
    TWO_PI,
    iacos,
    icos,
    iexp,
    iln,
    isin,
    isqrt,
)
from rlcband.elementary import icos_array, iexp_array, isin_array
from rlcband.rounding import add_up

import reference
from reference import iatan

# mpmath oracle values (60 digits, rounded to nearest double here)
EXP_M0169586 = 0.8440141661408205  # exp(-0.169586)
LN_07125 = -0.3389753668393314  # log(0.7125)
SQRT_1EM8 = 1.0000000000000000104612804150642362829e-4  # sqrt(float 1e-8)
ACOS_00539 = 1.5168701941462525  # acos(0.0539)
COS_23172 = -0.6790029654055504  # cos(2.3172)
COS_42586 = -0.4383741800961960  # cos(4.2586)


def test_pi_enclosure_brackets_pi():
    # pi is irrational; math.pi is the nearest double below it
    assert PI.lo == math.pi
    assert PI.hi == math.nextafter(math.pi, math.inf)
    assert TWO_PI.lo <= 2 * math.pi <= TWO_PI.hi
    assert HALF_PI.lo <= math.pi / 2 <= HALF_PI.hi


# --- iexp ---

def test_iexp_at_zero():
    x = iexp(Interval.point(0.0))
    assert x.lo <= 1.0 <= x.hi
    assert add_up(x.hi, -x.lo) <= 4 * math.ulp(1.0)


def test_iexp_frozen_value():
    x = iexp(Interval.point(-0.169586))
    assert x.lo <= EXP_M0169586 <= x.hi
    assert add_up(x.hi, -x.lo) <= 4 * math.ulp(EXP_M0169586)


def test_iexp_monotone_range():
    x = iexp(Interval(0.0, 1.0))
    assert x.lo <= 1.0 and x.hi >= math.e
    assert x.lo <= 1.5 <= x.hi


def test_iexp_positive_and_underflow_clamps():
    assert iexp(Interval(-800.0, -700.0)).lo >= 0.0
    assert iexp(Interval(-800.0, 0.0)).lo >= 0.0


def test_iexp_overflow_is_error():
    with pytest.raises(IntervalError, match="exp overflows the double range"):
        iexp(Interval(0.0, 1000.0))


# --- isqrt ---

def test_isqrt_exact_roots():
    assert isqrt(Interval(4.0, 9.0)) == Interval(2.0, 3.0)


def test_isqrt_frozen_value():
    x = isqrt(Interval.point(1e-8))
    assert x.lo <= SQRT_1EM8 <= x.hi
    assert add_up(x.hi, -x.lo) <= 4 * math.ulp(1e-4)


def test_isqrt_negative_rejected():
    with pytest.raises(DomainError, match="sqrt requires a non-negative interval"):
        isqrt(Interval(-1.0, 1.0))


# --- iln ---

def test_iln_at_one():
    x = iln(Interval.point(1.0))
    assert x.lo <= 0.0 <= x.hi
    assert add_up(x.hi, -x.lo) <= 4 * math.ulp(1.0)


def test_iln_frozen_value():
    x = iln(Interval.point(0.7125))
    assert x.lo <= LN_07125 <= x.hi
    assert add_up(x.hi, -x.lo) <= 4 * math.ulp(LN_07125)


def test_iln_domain():
    with pytest.raises(DomainError, match="log requires a positive interval"):
        iln(Interval(0.0, 1.0))
    with pytest.raises(DomainError, match="log requires a positive interval"):
        iln(Interval(-2.0, -1.0))


# --- isin / icos ---

def test_isin_contains_maximum():
    x = isin(Interval(0.0, math.pi))
    assert x.hi == 1.0
    assert -1e-14 <= x.lo <= 0.0
    assert x.encloses(Interval(1e-16, 1.0 - 1e-16))


def test_icos_frozen_range():
    x = icos(Interval(2.3172, 4.2586))
    assert x.lo == -1.0  # pi lies inside the argument interval
    assert x.lo <= COS_23172 <= x.hi and x.lo <= COS_42586 <= x.hi
    assert abs(x.hi - COS_42586) <= 4 * math.ulp(1.0)


def test_icos_at_zero():
    x = icos(Interval.point(0.0))
    assert x.hi == 1.0
    assert 1.0 - x.lo <= 4 * math.ulp(1.0)


def test_trig_clamped_to_unit():
    for span in (Interval(-50.0, 50.0), Interval(0.0, 7.0), Interval(-4.0, -2.0)):
        for f in (isin, icos):
            y = f(span)
            assert -1.0 <= y.lo <= y.hi <= 1.0


def test_trig_full_period_is_unit():
    assert icos(Interval(0.0, 7.0)) == Interval(-1.0, 1.0)
    assert isin(Interval(-10.0, 10.0)) == Interval(-1.0, 1.0)


def test_trig_rejects_huge_arguments():
    with pytest.raises(DomainError, match=r"2\*\*52 rad loses all reduction precision"):
        icos(Interval(0.0, 2.0**53))
    with pytest.raises(DomainError, match=r"2\*\*52 rad loses all reduction precision"):
        isin(Interval(-(2.0**53), 0.0))


def test_isin_icos_range_soundness_sweep():
    # isin/icos are the array kernels on one element: sweep the kernels
    rng = np.random.default_rng(23)
    centers = rng.uniform(-40.0, 40.0, 3000)
    widths = rng.uniform(0.0, 9.0, 3000)
    points = rng.uniform(0.0, 1.0, 3000)
    lo = centers - widths / 2
    hi = centers + widths / 2
    inner = lo + points * (hi - lo)
    for f_array, f_exact in ((isin_array, math.sin), (icos_array, math.cos)):
        got_lo, got_hi = f_array(np.array([lo, hi]))
        exact = np.array([f_exact(x) for x in inner])
        assert np.all((got_lo <= exact) & (exact <= got_hi))


# --- iacos / iatan ---

def test_iacos_at_one():
    x = iacos(Interval.point(1.0))
    assert x.lo <= 0.0 <= x.hi
    assert add_up(x.hi, -x.lo) <= 4 * math.ulp(1.0) + 1e-300


def test_iacos_frozen_value():
    x = iacos(Interval.point(0.0539))
    assert x.lo <= ACOS_00539 <= x.hi
    assert add_up(x.hi, -x.lo) <= 4 * math.ulp(ACOS_00539)


def test_iacos_domain():
    with pytest.raises(DomainError, match="acos argument .* does not meet"):
        iacos(Interval(2.0, 3.0))
    # partial overlap is clamped, not rejected
    x = iacos(Interval(0.5, 2.0))
    assert x.lo <= 0.0 <= x.hi  # acos(1) = 0 is inside after clamping
    assert x.lo <= math.acos(0.75) <= x.hi


def test_iacos_antitone():
    x = iacos(Interval(-0.5, 0.5))
    assert x.lo <= math.acos(-0.5) <= x.hi and x.lo <= math.acos(0.5) <= x.hi
    assert x.lo < math.acos(0.5) < math.acos(-0.5) < x.hi + 1e-15


def _ln_acos_arguments():
    """Seeded (lo, hi) pairs: points, a few ulp wide and wide, ln's near 0
    and 1, acos's near -1 and 1 and partly outside [-1, 1]."""
    rng = np.random.default_rng(41)
    near_one = 1.0 - 10.0 ** rng.uniform(-17.0, -1.0, 300)
    ln = np.concatenate([10.0 ** rng.uniform(-323.0, 300.0, 300), near_one, 2.0 - near_one, [1.0]])
    acos = np.concatenate([near_one, -near_one, rng.uniform(-1.0, 1.0, 300), [1.0, -1.0, 0.0]])
    pairs = {}
    for name, centres, wide in (("ln", ln, 0.5 * ln), ("acos", acos, np.full(acos.size, 0.5))):
        w = rng.uniform(0.0, 1.0, centres.size) * wide
        up = np.nextafter(np.nextafter(centres, np.inf), np.inf)
        down = np.nextafter(centres, -np.inf)
        pairs[name] = [*zip(centres, centres), *zip(down, up), *zip(centres - w, centres + w)]
    return pairs


def test_iln_iacos_widen_libm_by_two_ulp():
    # the 2-ulp policy, bit for bit, on libm's log and acos
    pairs = _ln_acos_arguments()
    for lo, hi in pairs["ln"]:
        want = Interval(reference._down2(math.log(lo)), reference._up2(math.log(hi)))
        got = iln(Interval(lo, hi))
        assert (got.lo, got.hi) == (want.lo, want.hi), (lo, hi)
    for lo, hi in pairs["acos"]:
        x = Interval(lo, hi).intersect(Interval(-1.0, 1.0))
        want_lo = max(0.0, reference._down2(math.acos(x.hi)))
        want_hi = min(PI.hi, reference._up2(math.acos(x.lo)))
        got = iacos(Interval(lo, hi))
        assert (got.lo, got.hi) == (want_lo, want_hi), (lo, hi)


def test_iatan_monotone():
    x = iatan(Interval(-1.0, 1.0))
    assert x.lo <= -math.pi / 4 <= x.hi and x.lo <= math.pi / 4 <= x.hi
    assert add_up(x.hi, -x.lo) <= math.pi / 2 + 1e-12
    assert iatan(Interval(-1e9, 1e9)).encloses(Interval(-1.5, 1.5))


# --- shared tightness/isotonicity properties ---

@pytest.mark.parametrize(
    "f,ref,lo,hi",
    [
        (iexp, math.exp, -50.0, 50.0),
        (iln, math.log, 1e-6, 1e6),
        (isqrt, math.sqrt, 0.0, 1e12),
        (iacos, math.acos, -1.0, 1.0),
        (iatan, math.atan, -1e3, 1e3),
    ],
    ids=["exp", "ln", "sqrt", "acos", "atan"],
)
def test_monotone_tightness_on_points(f, ref, lo, hi):
    rng = np.random.default_rng(31)
    for x in rng.uniform(lo, hi, 2000):
        y = f(Interval.point(x))
        fx = ref(x)
        assert y.lo <= fx <= y.hi
        assert add_up(y.hi, -y.lo) <= 4 * math.ulp(abs(fx)) + 1e-320


@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_elementary_isotonicity(center, width, a, b):
    outer = Interval(center - width / 2, center + width / 2)
    a, b = min(a, b), max(a, b)
    lo = min(max(outer.lo + a * width, outer.lo), outer.hi)
    hi = min(max(outer.lo + b * width, lo), outer.hi)
    inner = Interval(lo, hi)
    assert iexp(outer).encloses(iexp(inner))
    assert isin(outer).encloses(isin(inner))
    assert icos(outer).encloses(icos(inner))
    assert iatan(outer).encloses(iatan(inner))


# --- array enclosures ---

def _ulp_error_within_one(f_numpy, f_exact, x):
    """Whether each numpy value lies strictly within 1 ulp of the exact one."""
    y = f_numpy(x)
    below = np.nextafter(y, -np.inf)
    above = np.nextafter(y, np.inf)
    with mpmath.workdps(50):
        return [
            mpmath.mpf(lo) < f_exact(mpmath.mpf(xi)) < mpmath.mpf(hi)
            for xi, lo, hi in zip(x, below, above)
        ]


def test_numpy_exp_cos_faithful():
    # The array enclosures widen numpy's exp and cos by 2 ulp, which is
    # rigorous only if the dispatched (possibly SIMD) kernels are within
    # 1 ulp; check that on band-typical arguments.
    rng = np.random.default_rng(41)
    assert all(_ulp_error_within_one(np.exp, mpmath.exp, rng.uniform(-50.0, 0.0, 10000)))
    assert all(_ulp_error_within_one(np.cos, mpmath.cos, rng.uniform(0.0, 1e4, 10000)))


def _scalar_enclosures(f, lo, hi):
    out = [f(Interval(a, b)) for a, b in zip(lo, hi)]
    return np.array([y.lo for y in out]), np.array([y.hi for y in out])


@pytest.mark.parametrize(
    "f_array,f,lo_range",
    [(iexp_array, reference.iexp, (-50.0, 5.0)), (icos_array, reference.icos, (-40.0, 1e4)),
     (isin_array, reference.isin, (-40.0, 1e4))],
    ids=["exp", "cos", "sin"],
)
def test_array_enclosures_match_scalar(f_array, f, lo_range):
    rng = np.random.default_rng(43)
    lo = rng.uniform(*lo_range, 3000)
    # widths from points to just over a period
    hi = lo + rng.choice([0.0, 1e-9, 0.1, 1.0, 3.0, 6.5], 3000) * rng.uniform(0.0, 1.0, 3000)
    got_lo, got_hi = f_array(np.array([lo, hi]))
    want_lo, want_hi = _scalar_enclosures(f, lo, hi)
    # numpy's exp/cos may differ from libm's by 1 ulp, and each is widened by 2
    scale = np.spacing(np.maximum(np.abs(want_lo), np.abs(want_hi)))
    assert np.all(np.abs(got_lo - want_lo) <= 2 * scale)
    assert np.all(np.abs(got_hi - want_hi) <= 2 * scale)
    assert np.all(got_lo <= got_hi)


def test_array_point_enclosures_contain_exact_values():
    # On degenerate intervals the endpoints are widened point values: only the
    # outward widening makes them contain the exact value every time.
    x = np.random.default_rng(47).uniform(-40.0, 40.0, 2000)
    with mpmath.workdps(50):
        for f_array, f_exact in ((iexp_array, mpmath.exp), (icos_array, mpmath.cos),
                                 (isin_array, mpmath.sin)):
            lo, hi = f_array(np.array([x, x]))
            assert all(mpmath.mpf(a) <= f_exact(mpmath.mpf(xi)) <= mpmath.mpf(b)
                       for xi, a, b in zip(x, lo, hi))


def test_array_trig_pins_extrema_and_range():
    lo = np.array([-0.5, 3.0, 0.0, 1.0, -7.0])
    hi = np.array([0.5, 3.5, 7.0, 1.0, -6.0])
    c_lo, c_hi = icos_array(np.array([lo, hi]))
    assert c_hi[0] == 1.0 and c_lo[1] == -1.0  # 0 and pi inside
    assert (c_lo[2], c_hi[2]) == (-1.0, 1.0)  # a full period
    assert c_lo[3] <= math.cos(1.0) <= c_hi[3]
    s_lo, s_hi = isin_array(np.array([lo, hi]))
    assert s_lo[4] <= math.sin(-6.5) <= s_hi[4]
    with pytest.raises(DomainError, match=r"2\*\*52 rad loses all reduction precision"):
        icos_array(np.array([[0.0], [2.0**53]]))
    with pytest.raises(DomainError, match=r"2\*\*52 rad loses all reduction precision"):
        isin_array(np.array([[-(2.0**53)], [0.0]]))
    with pytest.raises(IntervalError, match="exp overflows the double range"):
        iexp_array(np.array([[0.0], [800.0]]))


def _trig_cases():
    """1-D lo/hi: degenerate, narrow, just under and over 2*pi wide, starting
    anywhere, at multiples of pi (to a few ulp), and near +/-2**52."""
    rng = np.random.default_rng(53)
    n = 4000
    k_pi = rng.integers(-10**6, 10**6, n) * math.pi
    lo = np.concatenate([
        rng.uniform(-1e4, 1e4, n),
        k_pi + rng.integers(-4, 5, n) * np.spacing(k_pi),
        2.0**52 - rng.uniform(0.0, 64.0, n),
        -(2.0**52) + rng.uniform(4.0, 64.0, n),
    ])
    widths = [0.0, 1e-15, 1e-6, 1.0, math.pi, 6.283185307179585, TWO_PI.lo,
              math.nextafter(TWO_PI.hi, 0.0), TWO_PI.hi, 7.0]
    hi = np.minimum(lo + rng.choice(widths, lo.size), 2.0**52)
    return lo, hi


@pytest.mark.parametrize("f_array,f_loop", [
    (icos_array, reference.icos_array_loop), (isin_array, reference.isin_array_loop),
], ids=["cos", "sin"])
def test_batched_trig_matches_candidate_loop(f_array, f_loop):
    lo, hi = _trig_cases()
    got = f_array(np.array([lo, hi]))
    want = f_loop(lo, hi)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("f_array", [icos_array, isin_array], ids=["cos", "sin"])
def test_trig_of_2d_input_matches_rows(f_array):
    x = np.array(_trig_cases()).reshape(2, 8, -1)
    got = f_array(x)
    rows = [f_array(x[:, i]) for i in range(8)]
    assert got.shape == x.shape == (2, 8, 2000)
    assert got.tobytes() == np.stack(rows, axis=1).tobytes()


def test_scalar_kernels_are_a_column_of_the_row_kernels():
    trig = np.array(_trig_cases())[:, ::40]
    exp = np.sort(np.random.default_rng(59).uniform(-50.0, 5.0, (2, 400)), axis=0)
    for f, f_array, x in ((iexp, iexp_array, exp), (icos, icos_array, trig),
                          (isin, isin_array, trig)):
        want = f_array(x)
        got = [f(Interval(a, b)) for a, b in zip(*x)]
        assert np.array([[y.lo for y in got], [y.hi for y in got]]).tobytes() == want.tobytes()


def _pi_ends(k):
    """The pi endpoints whose directed products with k enclose k*pi."""
    return np.where(k >= 0.0, PI.lo, PI.hi), np.where(k >= 0.0, PI.hi, PI.lo)


def _meets(j, lo, hi):
    """Whether [lo, hi] meets the enclosure of k*pi, k = floor(lo/math.pi) + j."""
    k = np.floor(lo / math.pi) + j
    c_lo, c_hi = _pi_ends(k)
    return (reference.mul_down_array(k, c_lo) <= hi) & (reference.mul_up_array(k, c_hi) >= lo)


def _tie_cases():
    """1-D lo/hi that end one ulp outside a plain product k*pi endpoint, for
    k of both signs, then negative ones a period wide that start within a few
    ulp of k*pi or at the first double above k*pi.  Returns lo, hi and the k
    of each part."""
    rng = np.random.default_rng(71)
    n = 6000
    widths = np.array([0.0, 1e-9, 1.0, 3.0, 6.0])
    k = rng.integers(-2**40, 2**40, n).astype(np.float64)
    c_lo, c_hi = _pi_ends(k)
    below = np.nextafter(k * c_lo, -np.inf)  # hi == pred(fl(k*pi_lo))
    above = np.nextafter(k * c_hi, np.inf)  # lo == succ(fl(k*pi_hi))
    w = rng.choice(widths, n)
    kn = -rng.integers(1, 2**40, n).astype(np.float64)
    start = kn * math.pi + rng.integers(-6, 7, n) * np.spacing(kn * math.pi)
    ka = -rng.integers(1, 2**40, n).astype(np.float64)
    mpmath.mp.prec = 200
    first = []
    for kf in ka:
        x = float(kf * mpmath.pi)
        while mpmath.mpf(x) <= kf * mpmath.pi:
            x = math.nextafter(x, math.inf)
        while mpmath.mpf(math.nextafter(x, -math.inf)) > kf * mpmath.pi:
            x = math.nextafter(x, -math.inf)
        first.append(x)
    start = np.concatenate([start, first])
    lo = np.concatenate([below - w, above, start])
    hi = np.concatenate([below, above + w, start + math.nextafter(TWO_PI.hi, 0.0)])
    return lo, hi, (k, k, np.concatenate([kn, ka]))


def test_trig_ties_and_candidate_window_match_candidate_loop():
    lo, hi, (k_below, k_above, k_near) = _tie_cases()
    n, m = k_below.size, k_above.size
    # The set holds ties that the directed product decides the other way
    # than the plain one, on both ends and for k of both signs.
    c_lo, _ = _pi_ends(k_below)
    at = hi[:n] == np.nextafter(k_below * c_lo, -np.inf)
    flips = at & (reference.mul_down_array(k_below, c_lo) <= hi[:n])
    assert np.count_nonzero(flips & (k_below < 0)) > 50
    assert np.count_nonzero(flips & (k_below > 0)) > 50
    _, c_hi = _pi_ends(k_above)
    at = lo[n:n + m] == np.nextafter(k_above * c_hi, np.inf)
    flips = at & (reference.mul_up_array(k_above, c_hi) >= lo[n:n + m])
    assert np.count_nonzero(flips & (k_above < 0)) > 50
    assert np.count_nonzero(flips & (k_above > 0)) > 50
    # Where a negative lo lies above k*pi but below k*math.pi, lo/math.pi
    # lies below k, yet the division rounds back to k, so floor(lo/math.pi)
    # does not undercount ...
    lo_n, hi_n = lo[n + m:], hi[n + m:]
    mpmath.mp.prec = 200
    inside = np.array([k * mpmath.pi < x < k * mpmath.mpf(math.pi)
                       for x, k in zip(lo_n, k_near)])
    assert np.count_nonzero(inside) > 100
    assert np.all(np.floor(lo_n[inside] / math.pi) == k_near[inside])
    # ... and f + 3 is met where lo lies just below a multiple of pi, but
    # only together with f + 1, of the same parity, so the kernels test
    # f..f+2 alone; no argument meets f - 1 or f + 4.
    assert np.count_nonzero(_meets(3.0, lo_n, hi_n)) > 100
    assert np.all(_meets(1.0, lo, hi)[_meets(3.0, lo, hi)])
    assert not _meets(-1.0, lo, hi).any()
    assert not _meets(4.0, lo, hi).any()
    for f_array, f_loop in ((icos_array, reference.icos_array_loop),
                            (isin_array, reference.isin_array_loop)):
        got = f_array(np.array([lo, hi]))
        want = f_loop(lo, hi)
        assert got[0].tobytes() == want[0].tobytes(), f_array.__name__
        assert got[1].tobytes() == want[1].tobytes(), f_array.__name__
