"""Directed-rounding building blocks for outward-rounded interval endpoints.

Strategy: compute each endpoint with ordinary IEEE-754 double arithmetic,
decide via an error-free transformation whether the result is exact, and
when it is not, step one unit in the last place in the outward direction.
This avoids global rounding-mode state, costs at most 1 ulp of slack per
endpoint, and returns exact results exactly (e.g. 1 + 2 == 3, sqrt(4) == 2).

Two facts make this rigorous:

* two_sum / two_product return the floating-point result together with its
  *exact* rounding error, so the sign of the error tells on which side of
  the true value the rounded result lies.
* division and square root are correctly rounded by IEEE 754, so whenever
  the result is inexact the true value is strictly within 1 ulp.

The product error term is unreliable when the product underflows to the
subnormal range or the Dekker split overflows; both cases are treated as
inexact, which only ever widens the interval.  A product or quotient that
underflows to 0 keeps the sign of its operands, so it never steps across 0
on the side that sign rules out.

The EFTs and the step decisions use operators only, so they broadcast over
numpy arrays unchanged.  The scalar ops serve ``Interval``; ``add_array`` and
``mul_array`` evaluate many endpoints at once (in the style of Rump's
rounding-mode-free vector interval arithmetic) with ``np.nextafter`` for the
outward step.  They take the rounding direction as an array of -1 (down) and
+1 (up) that broadcasts, so one call rounds the lower-endpoint row of an
interval array down and its upper-endpoint row up.  A product's step is
the sign of its error term unless the product is subnormal or the split
overflowed; the rest of the rule runs only when some product is.
"""

import math
import sys

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant for binary64
_MIN_NORMAL = sys.float_info.min


def next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def two_sum(a: float, b: float):
    """Return (s, e) with s = fl(a + b) and a + b = s + e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def two_product(a: float, b: float):
    """Return (p, e) with p = fl(a * b) and a * b = p + e exactly.

    e is NaN when the split overflows; callers must treat that as inexact.
    """
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    d = _SPLITTER * b
    bh = d - (d - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def add_down(a: float, b: float) -> float:
    s, e = two_sum(a, b)
    if e < 0.0:
        return next_down(s)
    return s


def add_up(a: float, b: float) -> float:
    s, e = two_sum(a, b)
    if e > 0.0:
        return next_up(s)
    return s


def _product_unreliable(a, b, p, e):
    # NaN error term: the Dekker split overflowed.  Product in or below the
    # subnormal range with nonzero factors: the error term may itself have
    # been rounded, so the exactness test cannot be trusted.
    return (e != e) | ((abs(p) < _MIN_NORMAL) & (a != 0.0) & (b != 0.0))


def _blind_step(r, a, b, up):
    """Whether r, a rounded product or quotient of a and b whose error sign
    is unknown, must step one ulp down (``up`` false) or up.

    It must, unless r underflowed to 0: the exact result is nonzero with the
    sign of a*b, so 0 already bounds it on the side that sign rules out.
    """
    return (r != 0.0) | (((a < 0.0) != (b < 0.0)) != up)


def _mul_step(a, b, p, e, d):
    """Whether p = fl(a*b), with two_product error e, must step one ulp in
    direction d (-1 down, +1 up) to bound the exact product.

    Where p is normal and e finite, e is the exact error and its sign alone
    decides.  The mul ops test that case first and run this rule only where
    p is subnormal or zero, or the split overflowed.
    """
    # A nonzero e is a true error only for a normal product.
    return ((e * d > 0.0) & (abs(p) >= _MIN_NORMAL)) | (
        _product_unreliable(a, b, p, e) & _blind_step(p, a, b, d > 0.0)
    )


def mul_down(a: float, b: float) -> float:
    p, e = two_product(a, b)
    if math.isinf(p):
        return p
    if abs(p) >= _MIN_NORMAL and e == e:
        return next_down(p) if e < 0.0 else p
    return next_down(p) if _mul_step(a, b, p, e, -1.0) else p


def mul_up(a: float, b: float) -> float:
    p, e = two_product(a, b)
    if math.isinf(p):
        return p
    if abs(p) >= _MIN_NORMAL and e == e:
        return next_up(p) if e > 0.0 else p
    return next_up(p) if _mul_step(a, b, p, e, 1.0) else p


def _product_is(a: float, b: float, c: float) -> bool:
    p, e = two_product(a, b)
    return not _product_unreliable(a, b, p, e) and p == c and e == 0.0


def div_down(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q) or _product_is(q, b, a) or not _blind_step(q, a, b, False):
        return q
    return next_down(q)


def div_up(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q) or _product_is(q, b, a) or not _blind_step(q, a, b, True):
        return q
    return next_up(q)


def sqrt_down(x: float) -> float:
    r = math.sqrt(x)
    if _product_is(r, r, x):
        return r
    return next_down(r)


def sqrt_up(x: float) -> float:
    r = math.sqrt(x)
    if _product_is(r, r, x):
        return r
    return next_up(r)


# --- array endpoints: elementwise, same decisions as the scalar ops ---
# The direction d is -1 (round down) or +1 (round up) and broadcasts against
# the operands, so a (2, m) array with d = DOWN_UP holds an interval's
# lower endpoints in row 0 and its upper endpoints in row 1.  d stays +-1
# rather than +-inf: e * inf is NaN where e == 0.
# An infinite product steps to the largest finite double or stays infinite,
# which still bounds it; overflow is the caller's check.
DOWN_UP = np.array([[-1.0], [1.0]])


def add_array(a, b, d) -> np.ndarray:
    """a + b rounded in direction d."""
    s, e = two_sum(a, b)
    return np.nextafter(s, np.where(e * d > 0.0, d * np.inf, s))


def mul_array(a, b, d) -> np.ndarray:
    """a * b rounded in direction d."""
    p, e = two_product(a, b)
    step = e * d > 0.0
    # A zero factor gives an exact zero, which the sign of e (0) leaves in
    # place; testing for it keeps a grid's t = 0 off the full rule.
    if ((abs(p) < _MIN_NORMAL) | (e != e)).any() and _product_unreliable(a, b, p, e).any():
        step = _mul_step(a, b, p, e, d)
    return np.nextafter(p, np.where(step, d * np.inf, p))
