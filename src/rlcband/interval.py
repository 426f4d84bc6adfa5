"""Closed real intervals with outward-rounded arithmetic.

An ``Interval`` is an immutable pair ``[lo, hi]`` of finite doubles with
``lo <= hi``.  Every arithmetic operation returns an interval guaranteed to
contain the exact real-number result set; endpoints carry at most 1 ulp of
outward slack per constituent operation (see :mod:`rlcband.rounding`).

Scalars mix freely with intervals in arithmetic: ``x * 2`` and
``1 - x`` treat the number as a degenerate (point) interval.

The empty intersection is reported as ``None`` rather than an exception, so
callers branch on it.
"""

import math

from .errors import IntervalError
from .rounding import (
    add_down,
    add_up,
    div_down,
    div_up,
    mul_down,
    mul_up,
)


def _binary(op):
    """op as a method whose other operand is an Interval, or an int or float
    taken as its point interval; any other operand gets NotImplemented."""
    def method(self, other):
        if isinstance(other, Interval):
            return op(self, other)
        if isinstance(other, (int, float)):
            return op(self, Interval.point(float(other)))
        return NotImplemented
    return method


class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) intervals are exact reals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo) + 0.0  # normalise -0.0
        hi = float(hi) + 0.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalError(f"endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise IntervalError(f"lower endpoint exceeds upper: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    # --- constructors ---

    @classmethod
    def point(cls, value: float) -> "Interval":
        """Degenerate interval representing one exact double."""
        return cls(value, value)

    @classmethod
    def from_nominal_tolerance(cls, nominal: float, tol_fraction: float) -> "Interval":
        """[nominal*(1-tol), nominal*(1+tol)] with outward rounding.

        ``tol_fraction`` is a fraction (0.05 for 5 %), not a percentage.
        """
        if not math.isfinite(nominal):
            raise IntervalError(f"nominal must be finite, got {nominal}")
        if not (0.0 <= tol_fraction < 1.0):
            raise ValueError(f"tolerance fraction must be in [0, 1), got {tol_fraction}")
        return nominal * cls(add_down(1.0, -tol_fraction), add_up(1.0, tol_fraction))

    # --- arithmetic ---

    @_binary
    def __add__(self, o) -> "Interval":
        return Interval(add_down(self.lo, o.lo), add_up(self.hi, o.hi))

    __radd__ = __add__

    @_binary
    def __sub__(self, o) -> "Interval":
        return Interval(add_down(self.lo, -o.hi), add_up(self.hi, -o.lo))

    @_binary
    def __rsub__(self, o) -> "Interval":
        return o - self

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    @_binary
    def __mul__(self, o) -> "Interval":
        if self.lo >= 0.0 and o.lo >= 0.0:
            # Non-negative operands: lo*lo and hi*hi are the extreme exact
            # products, and their directed roundings stay the extremes.
            return Interval(mul_down(self.lo, o.lo), mul_up(self.hi, o.hi))
        # Min/max over the four endpoint products, each rounded outward.
        pairs = (
            (self.lo, o.lo),
            (self.lo, o.hi),
            (self.hi, o.lo),
            (self.hi, o.hi),
        )
        lo = min(mul_down(x, y) for x, y in pairs)
        hi = max(mul_up(x, y) for x, y in pairs)
        return Interval(lo, hi)

    __rmul__ = __mul__

    @_binary
    def __truediv__(self, o) -> "Interval":
        if o.lo <= 0.0 <= o.hi:
            raise IntervalError(f"divisor {o} contains zero")
        recip = Interval(div_down(1.0, o.hi), div_up(1.0, o.lo))
        return self.__mul__(recip)

    @_binary
    def __rtruediv__(self, o) -> "Interval":
        return o / self

    # --- set operations ---

    def intersect(self, other: "Interval"):
        """Intersection, or None when the intervals are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Interval hull (valid even for disjoint operands)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # --- queries ---

    def midpoint(self) -> float:
        m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    # --- rendering ---

    def render(self, digits: int = 17) -> str:
        """Textual form "[lo; hi]" with the given significant digits."""
        return f"[{self.lo:.{digits}g}; {self.hi:.{digits}g}]"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))
