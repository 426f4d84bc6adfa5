"""Rigorous interval enclosures for exp, ln, sqrt, sin, cos, arccos, arctan.

Policy: libm point evaluations are assumed faithful to 1 ulp and every
inexact endpoint is widened by 2 ulp outward, so a degenerate input yields
an enclosure at most 4 ulp wide.  ``isqrt`` is the exception: IEEE 754
requires a correctly rounded square root, so exact roots are returned
exactly and inexact ones widened by a single ulp.

sin and cos return exact range enclosures: the result is pinned to +/-1
whenever a maximiser/minimiser may lie inside the argument interval,
decided against a rigorous two-endpoint enclosure of pi, and clamped to
[-1, 1].

``iexp_array``, ``icos_array`` and ``isin_array`` apply the same policy to
intervals given as lo/hi float64 arrays, with numpy's exp and cos in place
of libm (their faithfulness is checked against mpmath in the test suite).
"""

import math

import numpy as np

from .errors import (
    DomainViolationError,
    IntervalOverflowError,
    NegativeArgumentError,
    NonPositiveArgumentError,
    PrecisionLossError,
)
from .interval import Interval
from .rounding import (
    add_down_array,
    add_up_array,
    mul_down,
    mul_down_array,
    mul_up,
    mul_up_array,
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


def _check_trig_range(magnitude: float, x) -> None:
    if magnitude > _MAX_TRIG_ARG:
        raise PrecisionLossError(
            f"trig argument beyond 2**52 rad loses all reduction precision: {x}"
        )


def iexp(x: Interval) -> Interval:
    """Enclosure of e**x; monotone, so endpoint evaluation suffices."""
    try:
        hi = _up2(math.exp(x.hi))
    except OverflowError:
        raise IntervalOverflowError(f"exp overflow on {x}") from None
    if math.isinf(hi):
        raise IntervalOverflowError(f"exp overflow on {x}")
    lo = max(0.0, _down2(math.exp(x.lo)))  # e**x > 0; underflow clamps to 0
    return Interval(lo, hi)


def iln(x: Interval) -> Interval:
    """Enclosure of ln(x) for strictly positive intervals."""
    if x.lo <= 0.0:
        raise NonPositiveArgumentError(f"log requires a positive interval, got {x}")
    return Interval(_down2(math.log(x.lo)), _up2(math.log(x.hi)))


def isqrt(x: Interval) -> Interval:
    """Enclosure of sqrt(x); exact roots are returned exactly."""
    if x.lo < 0.0:
        raise NegativeArgumentError(f"sqrt requires a non-negative interval, got {x}")
    return Interval(max(0.0, sqrt_down(x.lo)), sqrt_up(x.hi))


def _pi_multiple(k: int):
    """Rigorous enclosure of k*pi as an endpoint pair."""
    kf = float(k)
    if k >= 0:
        return mul_down(kf, PI.lo), mul_up(kf, PI.hi)
    return mul_down(kf, PI.hi), mul_up(kf, PI.lo)


def icos(x: Interval) -> Interval:
    """Exact range enclosure of cos over x, clamped to [-1, 1]."""
    _check_trig_range(max(abs(x.lo), abs(x.hi)), x)
    if x.hi - x.lo >= TWO_PI.hi:
        return Interval(-1.0, 1.0)
    # cos attains +1 at even multiples of pi and -1 at odd multiples.  Pin an
    # endpoint whenever the rigorous enclosure of such a multiple can
    # intersect x (conservative: never misses a contained extremum).
    has_max = has_min = False
    k_first = math.floor(x.lo / math.pi) - 1
    k_last = math.floor(x.hi / math.pi) + 1
    for k in range(k_first, k_last + 1):
        m_lo, m_hi = _pi_multiple(k)
        if m_lo <= x.hi and m_hi >= x.lo:
            if k % 2 == 0:
                has_max = True
            else:
                has_min = True
    c_lo = math.cos(x.lo)
    c_hi = math.cos(x.hi)
    lo = -1.0 if has_min else max(-1.0, _down2(min(c_lo, c_hi)))
    hi = 1.0 if has_max else min(1.0, _up2(max(c_lo, c_hi)))
    return Interval(lo, hi)


def isin(x: Interval) -> Interval:
    """Exact range enclosure of sin over x, via sin(x) = cos(x - pi/2)."""
    _check_trig_range(max(abs(x.lo), abs(x.hi)), x)
    return icos(x - HALF_PI)


def iexp_array(lo: np.ndarray, hi: np.ndarray):
    """Elementwise ``iexp`` of the intervals [lo, hi]; returns (lo, hi)."""
    with np.errstate(over="ignore"):
        e_hi = _up2_array(np.exp(hi))
    if np.isinf(e_hi).any():
        raise IntervalOverflowError("exp overflow on an array argument")
    return np.maximum(0.0, _down2_array(np.exp(lo))), e_hi


# An argument narrower than 2*pi meets at most 5 multiples of pi from
# floor(lo/pi) - 1 on; one more covers rounding in the division.
_PI_CANDIDATES = 6


def icos_array(lo: np.ndarray, hi: np.ndarray):
    """Elementwise ``icos`` of the intervals [lo, hi]; returns (lo, hi)."""
    magnitude = max(np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0))
    _check_trig_range(magnitude, "an array argument")
    out_lo = np.full(lo.shape, -1.0)
    out_hi = np.full(lo.shape, 1.0)
    # Arguments at least a period wide keep [-1, 1]; the rest are narrower
    # than 2*pi.
    part = np.flatnonzero(hi - lo < TWO_PI.hi)
    lo = lo[part]
    hi = hi[part]
    has_max = np.zeros(part.size, dtype=bool)
    has_min = np.zeros(part.size, dtype=bool)
    k_first = np.floor(lo / math.pi) - 1.0
    for j in range(_PI_CANDIDATES):
        k = k_first + j
        # k*pi enclosed as in _pi_multiple: the sign of k picks the endpoints.
        m_lo = mul_down_array(k, np.where(k >= 0.0, PI.lo, PI.hi))
        m_hi = mul_up_array(k, np.where(k >= 0.0, PI.hi, PI.lo))
        hit = (m_lo <= hi) & (m_hi >= lo)
        even = np.fmod(k, 2.0) == 0.0
        has_max |= hit & even
        has_min |= hit & ~even
    c_lo = np.cos(lo)
    c_hi = np.cos(hi)
    out_lo[part] = np.where(
        has_min, -1.0, np.maximum(-1.0, _down2_array(np.minimum(c_lo, c_hi)))
    )
    out_hi[part] = np.where(
        has_max, 1.0, np.minimum(1.0, _up2_array(np.maximum(c_lo, c_hi)))
    )
    return out_lo, out_hi


def isin_array(lo: np.ndarray, hi: np.ndarray):
    """Elementwise ``isin`` of the intervals [lo, hi], via cos(x - pi/2)."""
    magnitude = max(np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0))
    _check_trig_range(magnitude, "an array argument")
    return icos_array(add_down_array(lo, -HALF_PI.hi), add_up_array(hi, -HALF_PI.lo))


def iacos(x: Interval) -> Interval:
    """Enclosure of arccos on x intersected with [-1, 1]; antitone."""
    clamped = x.intersect(_UNIT)
    if clamped is None:
        raise DomainViolationError(f"acos argument {x} does not meet [-1, 1]")
    lo = max(0.0, _down2(math.acos(clamped.hi)))
    hi = min(PI.hi, _up2(math.acos(clamped.lo)))
    return Interval(lo, hi)


def iatan(x: Interval) -> Interval:
    """Enclosure of arctan; monotone."""
    lo = max(-HALF_PI.hi, _down2(math.atan(x.lo)))
    hi = min(HALF_PI.hi, _up2(math.atan(x.hi)))
    return Interval(lo, hi)
