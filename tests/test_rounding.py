"""Directed-rounding primitives against exact rational arithmetic."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from rlcband.rounding import (
    add_array,
    add_down,
    add_up,
    div_down,
    div_up,
    mul_array,
    mul_down,
    mul_up,
    sqrt_down,
    sqrt_up,
    two_product,
    two_sum,
)


def next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _random_values(n, seed):
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(-1e6, 1e6, n)
    exponent = rng.integers(-12, 13, n).astype(np.float64)
    return mantissa * 10.0**exponent


def test_two_sum_error_is_exact():
    a_vals = _random_values(20000, 1)
    b_vals = _random_values(20000, 2)
    for a, b in zip(a_vals, b_vals):
        s, e = two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_two_product_error_is_exact():
    a_vals = _random_values(20000, 3)
    b_vals = _random_values(20000, 4)
    for a, b in zip(a_vals, b_vals):
        p, e = two_product(a, b)
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@pytest.mark.parametrize(
    "down,up,op,sign_aware",
    [
        (add_down, add_up, lambda a, b: Fraction(a) + Fraction(b), True),
        (mul_down, mul_up, lambda a, b: Fraction(a) * Fraction(b), True),
        (div_down, div_up, lambda a, b: Fraction(a) / Fraction(b), False),
    ],
    ids=["add", "mul", "div"],
)
def test_directed_ops_bracket_exact(down, up, op, sign_aware):
    a_vals = _random_values(10000, 5)
    b_vals = _random_values(10000, 6)
    b_vals[b_vals == 0.0] = 1.0
    for a, b in zip(a_vals, b_vals):
        lo = down(a, b)
        hi = up(a, b)
        exact = op(a, b)
        assert Fraction(lo) <= exact <= Fraction(hi)
        if sign_aware:
            # error-sign-aware stepping never gives away a full ulp
            assert Fraction(next_up(lo)) > exact or Fraction(lo) == exact
            assert Fraction(next_down(hi)) < exact or Fraction(hi) == exact
        else:
            # blind 1-ulp stepping: bounds within two representable steps
            assert next_up(next_up(lo)) >= hi


def test_exact_operations_do_not_widen():
    assert add_down(1.0, 2.0) == 3.0 == add_up(1.0, 2.0)
    assert add_down(5.0, -5.0) == 0.0 == add_up(5.0, -5.0)
    assert mul_down(0.25, 8.0) == 2.0 == mul_up(0.25, 8.0)
    assert div_down(1.0, 4.0) == 0.25 == div_up(1.0, 4.0)
    assert sqrt_down(9.0) == 3.0 == sqrt_up(9.0)


def test_inexact_operations_step_outward():
    assert add_down(0.1, 0.2) < 0.1 + 0.2
    assert add_up(0.1, 0.2) == 0.1 + 0.2  # fl(0.1+0.2) rounds up, so it is the bound
    lo, hi = div_down(1.0, 3.0), div_up(1.0, 3.0)
    assert lo < hi
    assert Fraction(lo) < Fraction(1, 3) < Fraction(hi)
    assert sqrt_down(2.0) < math.sqrt(2.0) <= sqrt_up(2.0)


def test_sqrt_brackets_exact():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1e12, 20000):
        lo, hi = sqrt_down(x), sqrt_up(x)
        assert Fraction(lo) * Fraction(lo) <= Fraction(x) <= Fraction(hi) * Fraction(hi)
        # 1 ulp of blind outward slack on each side of the rounded root
        assert next_up(next_up(lo)) >= hi


def test_subnormal_products_stay_sound():
    tiny = 1e-200
    lo = mul_down(tiny, tiny)
    hi = mul_up(tiny, tiny)
    assert Fraction(lo) <= Fraction(tiny) * Fraction(tiny) <= Fraction(hi)


TINY = 5e-324  # smallest subnormal


def test_underflowed_products_keep_their_sign():
    # the exact product is positive (negative), so 0 bounds it from below (above)
    assert mul_down(1e-200, 2e-200) == 0.0 and mul_up(1e-200, 2e-200) == TINY
    assert mul_down(-1e-200, -2e-200) == 0.0 and mul_up(-1e-200, -2e-200) == TINY
    assert mul_down(-1e-200, 2e-200) == -TINY and mul_up(-1e-200, 2e-200) == 0.0
    assert mul_down(1e-200, -2e-200) == -TINY and mul_up(1e-200, -2e-200) == 0.0
    # a nonzero subnormal product still steps both ways
    assert mul_down(3e-162, 3e-162) < 9e-324 < mul_up(3e-162, 3e-162)


def test_underflowed_quotients_keep_their_sign():
    assert div_down(1e-300, 1e300) == 0.0 and div_up(1e-300, 1e300) == TINY
    assert div_down(-1e-300, 1e300) == -TINY and div_up(-1e-300, 1e300) == 0.0
    assert div_down(1e-300, -1e300) == -TINY and div_up(1e-300, -1e300) == 0.0


def _edge_values(n, seed):
    """Random values mixed with zeros, subnormal-range factors and huge ones."""
    rng = np.random.default_rng(seed)
    vals = _random_values(n, seed)
    pick = rng.integers(0, 5, n)
    vals[pick == 0] = 0.0
    vals[pick == 1] = rng.uniform(-1.0, 1.0, np.count_nonzero(pick == 1)) * 1e-160
    vals[pick == 2] = rng.uniform(-1.0, 1.0, np.count_nonzero(pick == 2)) * 1e300
    return vals


def _same_bits(got, want):
    """Elementwise: equal bit for bit (so -0.0 differs from 0.0), or both NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))


def test_array_ops_match_scalar_ops():
    # The edge values, plus pairs whose products overflow and pairs with
    # infinite or zero factors, whose products are infinite or NaN.
    rng = np.random.default_rng(12)
    huge = rng.uniform(1.0, 2.0, 400) * 10.0 ** rng.uniform(154.0, 308.0, 400)
    huge *= rng.choice([-1.0, 1.0], 400)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, np.finfo(float).max, 1e-300])
    a = np.concatenate([_edge_values(20000, 8), huge, np.repeat(special, special.size)])
    b = np.concatenate([_edge_values(20000, 9), huge[::-1], np.tile(special, special.size)])
    with np.errstate(over="ignore", invalid="ignore"):
        cases = [
            (add_array, -1.0, add_down),
            (add_array, 1.0, add_up),
            (mul_array, -1.0, mul_down),
            (mul_array, 1.0, mul_up),
        ]
        for array_op, direction, scalar_op in cases:
            got = array_op(a, b, direction)
            want = np.array([scalar_op(x, y) for x, y in zip(a.tolist(), b.tolist())])
            assert np.all(_same_bits(got, want)), scalar_op.__name__
        assert np.count_nonzero(np.isinf(a * b)) > 100  # the overflow arm ran


def test_overflow_steps_to_the_largest_double():
    big = sys.float_info.max
    assert mul_down(1e300, 1e300) == big and mul_up(1e300, 1e300) == math.inf
    assert -mul_up(-1e300, 1e300) == big and mul_down(-1e300, 1e300) == -math.inf
    assert div_down(1e300, 1e-300) == big and div_up(1e300, 1e-300) == math.inf
    assert div_up(-1e300, 1e-300) == -big and div_down(-1e300, 1e-300) == -math.inf


def test_array_ops_bracket_exact():
    a = _edge_values(3000, 10)
    b = _edge_values(3000, 11)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = mul_array(a, b, -1.0), mul_array(a, b, 1.0)
    for x, y, l, h in zip(a, b, lo, hi):
        if np.isfinite(l) and np.isfinite(h):
            assert Fraction(l) <= Fraction(x) * Fraction(y) <= Fraction(h)


def test_down_is_the_negated_up():
    # One body serves both directions: rounding down is rounding the negated
    # operation up, on the edge values that reach the subnormal and
    # split-overflow arms.
    a = _edge_values(20000, 8).tolist()
    b = _edge_values(20000, 9).tolist()
    for x, y in zip(a, b):
        assert add_down(x, y) == -add_up(-x, -y)
        assert mul_down(x, y) == -mul_up(-x, y)
        if y != 0.0:
            assert div_down(x, y) == -div_up(-x, y)
