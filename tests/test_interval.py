"""Interval type: construction, arithmetic, set operations, and the
soundness/isotonicity/dependency properties."""

import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlcband import (
    Interval,
    IntervalError,
    isqrt,
)
from rlcband.rounding import add_up

import reference

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw, lo=-1e12, hi=1e12):
    a = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
    b = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
    return Interval(min(a, b), max(a, b))


# --- construction ---

def test_make_basic():
    x = Interval(1.0, 2.0)
    assert (x.lo, x.hi) == (1.0, 2.0)


def test_make_degenerate():
    x = Interval(3.0, 3.0)
    assert x.lo == x.hi == 3.0


def test_make_rejects_misordered():
    with pytest.raises(IntervalError, match="lower endpoint exceeds upper"):
        Interval(2.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_make_rejects_non_finite(bad):
    with pytest.raises(IntervalError, match="endpoints must be finite"):
        Interval(bad, 1.0)
    with pytest.raises(IntervalError, match="endpoints must be finite"):
        Interval(0.0, bad)


def test_immutability():
    x = Interval(0.0, 1.0)
    with pytest.raises(AttributeError):
        x.lo = 5.0


# --- from_nominal_tolerance ---

def test_tolerance_resistor():
    x = Interval.from_nominal_tolerance(100.0, 0.05)
    assert x.lo <= 95.0 and x.hi >= 105.0
    assert abs(x.lo - 95.0) <= 4 * math.ulp(95.0)
    assert abs(x.hi - 105.0) <= 4 * math.ulp(105.0)


def test_tolerance_capacitor():
    x = Interval.from_nominal_tolerance(10e-9, 0.20)
    assert x.lo <= 8e-9 <= 12e-9 <= x.hi
    assert abs(x.lo - 8e-9) <= 4 * math.ulp(8e-9)
    assert abs(x.hi - 12e-9) <= 4 * math.ulp(12e-9)


def test_tolerance_zero_is_degenerate():
    x = Interval.from_nominal_tolerance(3.7, 0.0)
    assert x == Interval.point(3.7)


def test_tolerance_negative_rejected():
    with pytest.raises(ValueError):
        Interval.from_nominal_tolerance(100.0, -0.05)
    with pytest.raises(ValueError):
        Interval.from_nominal_tolerance(100.0, 1.0)


def test_tolerance_negative_nominal_orders_endpoints():
    x = Interval.from_nominal_tolerance(-10.0, 0.1)
    assert x.lo <= -11.0 <= -9.0 <= x.hi


# --- arithmetic examples ---

def test_add_exact_integers():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)


def test_add_identity():
    x = Interval(2.5, 7.25)
    assert x + Interval(0, 0) == x


def test_add_inexact_within_two_ulp():
    x = Interval(0.1, 0.1) + Interval(0.2, 0.2)
    exact = Fraction(0.1) + Fraction(0.2)
    assert Fraction(x.lo) <= exact <= Fraction(x.hi)
    assert add_up(x.hi, -x.lo) <= 2 * math.ulp(0.3)


def test_sub_examples():
    assert Interval(1, 2) - Interval(3, 4) == Interval(-3, -1)
    assert Interval(0, 1) - Interval(0, 1) == Interval(-1, 1)
    assert Interval(5, 5) - Interval(5, 5) == Interval(0, 0)


def test_mul_examples():
    assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)
    assert Interval(0, 0) * Interval(-3.7, 1e9) == Interval(0, 0)
    assert Interval(0, 1) * Interval(0, 1) == Interval(0, 1)


def test_div_examples():
    assert Interval(1, 2) / Interval(2, 4) == Interval(0.25, 1.0)
    x = Interval(-3.5, 11.0)
    assert x / Interval(1, 1) == x


def test_div_by_zero_containing_interval():
    with pytest.raises(IntervalError, match="contains zero"):
        Interval(1, 2) / Interval(-1, 1)
    with pytest.raises(IntervalError, match="contains zero"):
        Interval(1, 2) / Interval(0, 1)


def test_div_negative_divisor():
    x = Interval(1, 2) / Interval(-4, -2)
    assert x == Interval(-1.0, -0.25)


def test_scalar_mixing():
    x = Interval(0, 1)
    assert 1 - x == Interval(0, 1)
    assert x * 2 == Interval(0, 2)
    assert 1 / Interval(2, 4) == Interval(0.25, 0.5)
    assert x + 1 == Interval(1, 2)


def test_overflow_is_an_error():
    big = Interval.point(1e308)
    with pytest.raises(IntervalError, match="endpoint overflowed to infinity"):
        big + big
    with pytest.raises(IntervalError, match="endpoint overflowed to infinity"):
        big * big


# --- set operations ---

def test_intersect_overlap():
    assert Interval(0, 2).intersect(Interval(1, 3)) == Interval(1, 2)


def test_intersect_disjoint_is_none():
    assert Interval(0, 1).intersect(Interval(2, 3)) is None


def test_intersect_idempotent():
    x = Interval(-2.5, 4.0)
    assert x.intersect(x) == x


def test_hull_gap():
    assert Interval(0, 1).hull(Interval(2, 3)) == Interval(0, 3)


def test_hull_overlap_and_self():
    assert Interval(0, 2).hull(Interval(1, 3)) == Interval(0, 3)
    x = Interval(1.5, 1.75)
    assert x.hull(x) == x


# --- queries ---

def test_midpoint():
    assert Interval(95.0, 105.0).midpoint() == 100.0


def test_midpoint_clamped_for_huge_endpoints():
    x = Interval(-1.7e308, 1.7e308)
    m = x.midpoint()
    assert x.lo <= m <= x.hi


def test_render():
    assert str(Interval(95.0, 105.0)) == "[95; 105]"
    assert Interval(0.10729, 0.12848).render(4) == "[0.1073; 0.1285]"


# --- properties ---

@given(intervals(), intervals())
def test_add_mul_commute_exactly(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(intervals(-1e6, 1e6), intervals(-1e6, 1e6), intervals(-1e6, 1e6))
def test_subdistributivity(x, y, z):
    # holds for the exact interval semantics; allow a few ulp of outward
    # rounding slack on each side of the comparison
    left = x * (y + z)
    right = x * y + x * z
    pad = 4 * math.ulp(max(abs(right.lo), abs(right.hi), 1e-300))
    assert left.lo >= right.lo - pad
    assert left.hi <= right.hi + pad


@given(intervals(-1e6, 1e6), intervals(-1e6, 1e6), st.data())
def test_inclusion_isotonicity(x, y, data):
    # shrink x and y to random subintervals and compare all four operations
    def sub_interval(v):
        a = data.draw(st.floats(min_value=0.0, max_value=1.0))
        b = data.draw(st.floats(min_value=0.0, max_value=1.0))
        a, b = min(a, b), max(a, b)
        lo = min(max(v.lo + a * (v.hi - v.lo), v.lo), v.hi)
        hi = min(max(v.lo + b * (v.hi - v.lo), lo), v.hi)
        return Interval(lo, hi)

    xs, ys = sub_interval(x), sub_interval(y)
    assert (x + y).encloses(xs + ys)
    assert (x - y).encloses(xs - ys)
    assert (x * y).encloses(xs * ys)
    if y.lo > 1e-6 or y.hi < -1e-6:
        assert (x / y).encloses(xs / ys)


def test_underflow_keeps_sign():
    # both used to come back as [-5e-324; 5e-324]
    x = Interval(1e-200, 2e-200)
    square = x * x
    assert square == Interval(0.0, 5e-324)
    assert isqrt(square).encloses(Interval(0.0, 2e-162))
    assert Interval(1e-300, 2e-300) / Interval(1e300, 2e300) == Interval(0.0, 5e-324)
    assert -x * x == Interval(-5e-324, 0.0)


def test_dependency_widening_example():
    x = Interval(0.0, 1.0)
    factored = x * (1.0 - x)
    expanded = x - x * x
    assert factored == Interval(0.0, 1.0)
    assert expanded == Interval(-1.0, 1.0)
    assert expanded.encloses(factored)


def test_outward_rounding_never_shrinks_exact_hull():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b = sorted(rng.uniform(-1e3, 1e3, 2))
        c, d = sorted(rng.uniform(-1e3, 1e3, 2))
        x, y = Interval(a, b), Interval(c, d)
        fa, fb, fc, fd = map(Fraction, (a, b, c, d))
        cases = {
            "add": (x + y, (fa + fc, fb + fd)),
            "sub": (x - y, (fa - fd, fb - fc)),
            "mul": (
                x * y,
                (
                    min(fa * fc, fa * fd, fb * fc, fb * fd),
                    max(fa * fc, fa * fd, fb * fc, fb * fd),
                ),
            ),
        }
        for name, (got, (exact_lo, exact_hi)) in cases.items():
            assert Fraction(got.lo) <= exact_lo, name
            assert Fraction(got.hi) >= exact_hi, name
            assert exact_lo - Fraction(got.lo) <= 2 * Fraction(math.ulp(got.lo)), name
            assert Fraction(got.hi) - exact_hi <= 2 * Fraction(math.ulp(got.hi)), name


# Past this, the Dekker split in two_product overflows and a product's
# rounding error is unknown.
_SPLIT_EDGE = sys.float_info.max / 134217729.0
_nonnegative = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=sys.float_info.min),  # subnormal
    st.floats(min_value=sys.float_info.min, max_value=1e300),
    st.floats(min_value=1e300, max_value=sys.float_info.max),  # near overflow
    st.sampled_from([math.nextafter(_SPLIT_EDGE, 0.0), _SPLIT_EDGE,
                     math.nextafter(_SPLIT_EDGE, math.inf)]),
)


@st.composite
def nonnegative_intervals(draw):
    a = draw(_nonnegative)
    b = draw(_nonnegative)
    return Interval(min(a, b), max(a, b))


def _outcome(op, x, y):
    try:
        z = op(x, y)
    except IntervalError as exc:
        return "IntervalError", str(exc)
    return z.lo, z.hi


@given(nonnegative_intervals(), nonnegative_intervals())
def test_nonnegative_product_and_quotient_match_eight_products(x, y):
    # Non-negative operands take a two-product path; it must give what the
    # eight directed products give, values or error alike.
    assert _outcome(operator.mul, x, y) == _outcome(reference.mul_eight, x, y)
    assert _outcome(operator.truediv, x, y) == _outcome(reference.div_eight, x, y)
