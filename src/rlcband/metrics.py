"""Transient specifications: forward formulas, band extraction, and inverse
identification of the second-order parameters, in point and interval form.

Overshoot deliberately has two interval pipelines that do not agree:

* formula pipeline: exp(-pi*xi/sqrt(1-xi^2)) extended over the component-box
  damping ratio, and
* band pipeline: peak excess of the guaranteed response envelopes.

Every result is tagged with its pipeline so reports never silently mix them.
Overshoot values are fractions of the final value, not percentages.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import ResponseBand, SecondOrderParams, require_underdamped
from .elementary import PI, iacos, iexp, iln, isqrt
from .errors import DomainViolationError, PeakNotCoveredError
from .interval import Interval

_PI_SQUARED = PI * PI


class Pipeline(Enum):
    """Provenance of a set of transient specifications."""

    FROM_PARAMS = "params"
    FROM_BAND = "band"
    FROM_TRACE = "trace"


@dataclass(frozen=True)
class TransientSpecs:
    """Overshoot fraction, rise/peak/settling times, with pipeline provenance."""

    mp: Interval
    ts_rise: Interval
    tp: Interval
    ta: Interval
    pipeline: Pipeline

    def __post_init__(self):
        if self.mp.lo < 0.0:
            raise ValueError("overshoot cannot be negative")
        for name in ("ts_rise", "tp", "ta"):
            if getattr(self, name).lo <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


def _require_positive(x: Interval, name: str) -> None:
    if x.lo <= 0.0:
        raise DomainViolationError(f"{name} {x.render(6)} must be strictly positive")


def overshoot_from_xi(xi: Interval) -> Interval:
    """Overshoot fraction exp(-pi*xi/sqrt(1-xi^2)); antitone in xi."""
    require_underdamped(xi)
    one = Interval.point(1.0)
    exponent = (PI * xi) / isqrt(one - xi * xi)
    return iexp(-exponent)


def peak_time(omegad: Interval) -> Interval:
    """Time of the first overshoot peak, pi/omegad."""
    _require_positive(omegad, "damped frequency")
    return PI / omegad


def settling_time(xi: Interval, omega0: Interval) -> Interval:
    """Time to stay within +/-2 % of the final value: 4/(xi*omega0)."""
    product = xi * omega0
    _require_positive(product, "xi*omega0 =")
    return Interval.point(4.0) / product


def rise_time(xi: Interval, omegad: Interval) -> Interval:
    """First crossing of the final value: (pi - arccos(xi))/omegad.

    Exact for the underdamped closed form (no root finding needed).
    """
    require_underdamped(xi)
    _require_positive(omegad, "damped frequency")
    return (PI - iacos(xi)) / omegad


def specs_from_params(params: SecondOrderParams) -> TransientSpecs:
    """All four formula-pipeline specifications from interval parameters."""
    return TransientSpecs(
        mp=overshoot_from_xi(params.xi),
        ts_rise=rise_time(params.xi, params.omegad),
        tp=peak_time(params.omegad),
        ta=settling_time(params.xi, params.omega0),
        pipeline=Pipeline.FROM_PARAMS,
    )


def overshoot_from_band(band: ResponseBand) -> Interval:
    """Band-pipeline overshoot: [max lower - 1 (clamped at 0), max upper - 1].

    Requires the grid to cover the first peak with margin; a band whose
    nominal curve ends within 0.5 % of the final value and never rises above
    its last point (no overshoot) is accepted and yields a clamped lower
    endpoint.
    """
    i_peak = int(np.argmax(band.nominal))
    if i_peak == band.t.size - 1:
        # the last point is the highest: accepted only where the response has
        # settled at its final value without overshoot
        if not abs(band.nominal[-1] - 1.0) <= 0.005:
            raise PeakNotCoveredError(
                f"band grid ends at {band.t[-1]:.6g} before the nominal response "
                f"peaks (last value {band.nominal[-1]:.6g})"
            )
        # no-overshoot band: fall through with clamping
    elif band.t[-1] < 1.2 * band.t[i_peak]:
        raise PeakNotCoveredError(
            f"band grid must reach 1.2x the nominal peak time "
            f"(peak at {band.t[i_peak]:.6g}, grid ends {band.t[-1]:.6g})"
        )
    lo = max(0.0, float(np.max(band.lower)) - 1.0)
    hi = max(lo, float(np.max(band.upper)) - 1.0)
    return Interval(lo, hi)


def _xi_from_overshoot_thin(mp_value: float) -> Interval:
    """Rigorous thin enclosure of the damping ratio for one overshoot value."""
    lg = iln(Interval.point(mp_value))  # negative interval
    return (-lg) / isqrt(_PI_SQUARED + lg * lg)


def xi_from_overshoot(mp: Interval) -> Interval:
    """Invert the overshoot formula: xi = -ln(mp)/sqrt(pi^2 + ln(mp)^2).

    The map is antitone and the expression repeats ln(mp), so the natural
    interval extension widens noticeably; evaluating the two endpoints as
    thin intervals and taking the hull is rigorous (monotone endpoint
    evaluation) and tight.
    """
    if not (mp.lo > 0.0 and mp.hi < 1.0):
        raise DomainViolationError(f"overshoot {mp.render(6)} not in (0, 1)")
    return _xi_from_overshoot_thin(mp.lo).hull(_xi_from_overshoot_thin(mp.hi))


def identify(mp: Interval, tp: Interval) -> SecondOrderParams:
    """Recover xi, omegad, omega0 from measured overshoot and peak time.

    Inverts the overshoot and peak-time formulas: xi from mp (monotone
    endpoint evaluation), omegad = pi/tp, omega0 = omegad/sqrt(1-xi^2).
    """
    _require_positive(tp, "peak time")
    xi = xi_from_overshoot(mp)
    omegad = PI / tp
    omega0 = omegad / isqrt(Interval.point(1.0) - xi * xi)
    lg = math.log(mp.midpoint())
    xi_n = -lg / math.hypot(math.pi, lg)
    omegad_n = math.pi / tp.midpoint()
    omega0_n = omegad_n / math.sqrt(1.0 - xi_n * xi_n)
    return SecondOrderParams(
        xi=xi,
        omega0=omega0,
        omegad=omegad,
        xi_nominal=xi_n,
        omega0_nominal=omega0_n,
        omegad_nominal=omegad_n,
    )
