"""Rigorous interval enclosures for exp, ln, sqrt, sin, cos and arccos.

Policy: point evaluations of exp, ln, cos and arccos are assumed faithful
to 1 ulp and every inexact endpoint is widened by 2 ulp outward, so a
degenerate input yields an enclosure at most 4 ulp wide.  ``isqrt`` is the
exception: IEEE 754 requires a correctly rounded square root, so exact roots
are returned exactly and inexact ones widened by a single ulp.

sin and cos return exact range enclosures: the result is pinned to +/-1
whenever a maximiser/minimiser may lie inside the argument interval,
decided against a rigorous two-endpoint enclosure of pi, and clamped to
[-1, 1].

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
    add_down_array,
    add_up_array,
    mul_down_array,
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


# An argument narrower than 2*pi meets at most 5 multiples of pi from
# floor(lo/pi) - 1 on; one more covers rounding in the division.
_PI_CANDIDATES = 6


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
    # One row per candidate multiple k of pi, one column per argument.
    k = np.floor(lo / math.pi) - 1.0 + np.arange(_PI_CANDIDATES)[:, None]
    # k*pi enclosed by directed products: the sign of k picks the endpoints.
    m_lo = mul_down_array(k, np.where(k >= 0.0, PI.lo, PI.hi))
    m_hi = mul_up_array(k, np.where(k >= 0.0, PI.hi, PI.lo))
    hit = (m_lo <= hi) & (m_hi >= lo)
    even = np.fmod(k, 2.0) == 0.0
    has_max = (hit & even).any(axis=0)
    has_min = (hit & ~even).any(axis=0)
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
    return icos_array(add_down_array(lo, -HALF_PI.hi), add_up_array(hi, -HALF_PI.lo))


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
