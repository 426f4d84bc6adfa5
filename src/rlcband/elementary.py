"""Rigorous interval enclosures for exp, ln, sqrt, sin, cos and arccos.

Policy: point evaluations of exp, ln, cos and arccos are assumed faithful
to 1 ulp and every inexact endpoint is widened by 2 ulp outward, so a
degenerate input yields an enclosure at most 4 ulp wide.  ``isqrt`` is the
exception: IEEE 754 requires a correctly rounded square root, so exact roots
are returned exactly and inexact ones widened by a single ulp.

sin and cos return exact range enclosures: the result is pinned to +/-1
whenever a maximiser/minimiser may lie inside the argument interval,
decided against a rigorous two-endpoint enclosure of pi, and clamped to
[-1, 1].  An argument narrower than 2*pi is tested against the three
candidate multiples k*pi from k = floor(lo/math.pi) on, with plain products.
The directed products that enclose k*pi can decide otherwise only where an
argument ends one ulp outside a plain product (a tie), so they run only
where an end lies within a few ulp of one.

exp, sin and cos have one implementation, on intervals given as lo/hi
float64 arrays (``iexp_array``, ``icos_array``, ``isin_array``) with numpy's
exp and cos, whose faithfulness is checked against mpmath in the test
suite.  ``iexp``, ``icos`` and ``isin`` run it on a 1-element array.
"""

import math

import numpy as np

from .errors import DomainError, IntervalError
from .interval import Interval
from .rounding import (
    DOWN_UP,
    add_array,
    mul_array,
    next_down,
    next_up,
    sqrt_down,
    sqrt_up,
)

# math.pi is the nearest double below the true pi, so [pi, nextafter(pi)]
# is a rigorous enclosure.
PI = Interval(math.pi, next_up(math.pi))
TWO_PI = PI * 2.0
HALF_PI = PI / 2.0

# The pi endpoints that bound k*pi below (row 0) and above (row 1) for k >= 0.
_PI_ROWS = np.array([[[PI.lo]], [[PI.hi]]])
_UNIT = Interval(-1.0, 1.0)
_MAX_TRIG_ARG = 2.0**52


def _down2(x: float) -> float:
    return next_down(next_down(x))


def _up2(x: float) -> float:
    return next_up(next_up(x))


def _down2_array(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, -np.inf), -np.inf)


def _up2_array(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, np.inf), np.inf)


def _check_trig_range(lo: np.ndarray, hi: np.ndarray) -> None:
    if max(np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0)) > _MAX_TRIG_ARG:
        raise DomainError(
            "trig argument beyond 2**52 rad loses all reduction precision"
        )


def iln(x: Interval) -> Interval:
    """Enclosure of ln(x) for strictly positive intervals."""
    if x.lo <= 0.0:
        raise DomainError(f"log requires a positive interval, got {x}")
    return Interval(_down2(math.log(x.lo)), _up2(math.log(x.hi)))


def isqrt(x: Interval) -> Interval:
    """Enclosure of sqrt(x); exact roots are returned exactly."""
    if x.lo < 0.0:
        raise DomainError(f"sqrt requires a non-negative interval, got {x}")
    return Interval(max(0.0, sqrt_down(x.lo)), sqrt_up(x.hi))


def iexp_array(lo: np.ndarray, hi: np.ndarray):
    """Enclosure of e**x over each interval [lo, hi] (monotone); returns (lo, hi)."""
    with np.errstate(over="ignore"):
        e_hi = _up2_array(np.exp(hi))
    if np.isinf(e_hi).any():
        raise IntervalError("exp overflows the double range")
    return np.maximum(0.0, _down2_array(np.exp(lo))), e_hi


def icos_array(lo: np.ndarray, hi: np.ndarray):
    """Exact range enclosure of cos over each interval [lo, hi]; returns (lo, hi).

    lo and hi may have any shape; the result has the same shape.
    """
    shape = np.shape(lo)
    lo = np.ravel(lo)
    hi = np.ravel(hi)
    _check_trig_range(lo, hi)
    out_lo = np.full(lo.shape, -1.0)
    out_hi = np.full(lo.shape, 1.0)
    # Arguments at least a period wide keep [-1, 1]; the rest are narrower
    # than 2*pi.
    part = np.flatnonzero(hi - lo < TWO_PI.hi)
    lo = lo[part]
    hi = hi[part]
    # Candidate multiples k of pi, one row each.  f = floor(lo/math.pi) is
    # floor(lo/pi) or one more: for lo > 0, lo/math.pi exceeds lo/pi, and for
    # lo < 0 it falls short of it by under half an ulp, so it never rounds
    # below the integer floor(lo/pi); |lo| <= 2**52 keeps it within 1 above.
    # An argument narrower than 2*pi meets true multiples of pi in f..f+2
    # only.  The slop of the pi enclosure can make f+3 look met, but only
    # where lo lies just below (f+1)*pi, and there f+1, of the same parity,
    # is met too; so rows f..f+2 decide every output.
    f = np.floor(lo / math.pi)
    k = f + np.arange(3.0)[:, None]
    # m holds the plain products of k with the pi endpoints c whose directed
    # products bound k*pi below (row 0) and above (row 1).  mul_down(k, c) is
    # m[0] or the double below it, so mul_down(k, c) <= hi and m[0] <= hi
    # differ only at a tie, hi == pred(m[0]); likewise mul_up(k, c) >= lo and
    # m[1] >= lo only where lo == succ(m[1]).  Neighbours differ exactly, by
    # at most |m| * 2**-52 < |k| * 2**-50, so the directed products run only
    # where the gap is that small (k = 0 has the exact product 0).
    c = np.where(k >= 0.0, _PI_ROWS, _PI_ROWS[::-1])
    m = k * c
    d = np.broadcast_to(DOWN_UP[:, None], m.shape)
    gap = d * (np.array([hi, lo])[:, None] - m)
    tie = (gap > 0.0) & (gap <= np.abs(k) * 2.0**-50)
    if tie.any():
        m[tie] = mul_array(np.broadcast_to(k, m.shape)[tie], c[tie], d[tie])
    hit = (m[0] <= hi) & (m[1] >= lo)
    # Rows 0 and 2 share the parity of f, row 1 has the other one.
    hit_f = hit[0] | hit[2]
    f_even = np.fmod(f, 2.0) == 0.0
    has_max = np.where(f_even, hit_f, hit[1])
    has_min = np.where(f_even, hit[1], hit_f)
    c_lo = np.cos(lo)
    c_hi = np.cos(hi)
    out_lo[part] = np.where(
        has_min, -1.0, np.maximum(-1.0, _down2_array(np.minimum(c_lo, c_hi)))
    )
    out_hi[part] = np.where(
        has_max, 1.0, np.minimum(1.0, _up2_array(np.maximum(c_lo, c_hi)))
    )
    return out_lo.reshape(shape), out_hi.reshape(shape)


def isin_array(lo: np.ndarray, hi: np.ndarray):
    """Range enclosure of sin over each [lo, hi] as cos(x - pi/2); returns (lo, hi)."""
    _check_trig_range(lo, hi)
    return icos_array(add_array(lo, -HALF_PI.hi, -1.0), add_array(hi, -HALF_PI.lo, 1.0))


def _on_arrays(kernel, x: Interval) -> Interval:
    """One interval through an array kernel, as a 1-element array."""
    lo, hi = kernel(np.array([x.lo]), np.array([x.hi]))
    return Interval(lo[0], hi[0])


def iexp(x: Interval) -> Interval:
    """Enclosure of e**x."""
    return _on_arrays(iexp_array, x)


def icos(x: Interval) -> Interval:
    """Exact range enclosure of cos over x, clamped to [-1, 1]."""
    return _on_arrays(icos_array, x)


def isin(x: Interval) -> Interval:
    """Exact range enclosure of sin over x."""
    return _on_arrays(isin_array, x)


def iacos(x: Interval) -> Interval:
    """Enclosure of arccos on x intersected with [-1, 1]; antitone."""
    clamped = x.intersect(_UNIT)
    if clamped is None:
        raise DomainError(f"acos argument {x} does not meet [-1, 1]")
    lo = max(0.0, _down2(math.acos(clamped.hi)))
    hi = min(PI.hi, _up2(math.acos(clamped.lo)))
    return Interval(lo, hi)
