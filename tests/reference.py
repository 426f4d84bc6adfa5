"""Reference implementations the tests compare the library against.

* ``iexp``, ``icos`` and ``isin``: the scalar enclosures on libm's exp and
  cos, written independently of the array kernels that ``rlcband`` runs for
  every interval, with their own loop over candidate multiples of pi.
* ``iatan``: a libm arctan enclosure under the same 2-ulp policy.
* ``step_response_point``: the closed-form step response in point
  arithmetic.
* ``simulate_ode_point``: a fixed-step RK4 integration of the circuit ODE,
  an oracle independent of the closed form.
"""

import math

import numpy as np

from rlcband import HALF_PI, PI, TWO_PI, Interval, IntervalOverflowError, PrecisionLossError
from rlcband.circuit import require_underdamped
from rlcband.rounding import mul_down, mul_up, next_down, next_up


def _down2(x: float) -> float:
    return next_down(next_down(x))


def _up2(x: float) -> float:
    return next_up(next_up(x))


def _check_trig_range(x: Interval) -> None:
    if max(abs(x.lo), abs(x.hi)) > 2.0**52:
        raise PrecisionLossError(f"trig argument beyond 2**52 rad: {x}")


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


def _pi_multiple(k: int):
    """Rigorous enclosure of k*pi as an endpoint pair."""
    kf = float(k)
    if k >= 0:
        return mul_down(kf, PI.lo), mul_up(kf, PI.hi)
    return mul_down(kf, PI.hi), mul_up(kf, PI.lo)


def icos(x: Interval) -> Interval:
    """Exact range enclosure of cos over x, clamped to [-1, 1]."""
    _check_trig_range(x)
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
    _check_trig_range(x)
    return icos(x - HALF_PI)


def iatan(x: Interval) -> Interval:
    """Enclosure of arctan; monotone."""
    lo = max(-HALF_PI.hi, _down2(math.atan(x.lo)))
    hi = min(HALF_PI.hi, _up2(math.atan(x.hi)))
    return Interval(lo, hi)


def step_response_point(xi: float, omega0: float, omegad: float, t: float) -> float:
    """Closed-form unit-step response value at time t (point arithmetic)."""
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    require_underdamped(Interval.point(xi))
    damp = xi / math.sqrt(1.0 - xi * xi)
    return 1.0 - math.exp(-xi * omega0 * t) * (
        math.cos(omegad * t) + damp * math.sin(omegad * t)
    )


def simulate_ode_point(spec, t_end: float, dt: float):
    """Fixed-step RK4 integration of the two-state circuit ODE from rest.

    Independent cross-check of the closed form: integrates
    dv/dt = i/C, di/dt = (1 - R*i - v)/L under a unit step.
    Returns (times, capacitor voltage) arrays.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > t_end / 100.0:
        raise ValueError(f"dt = {dt} too coarse for t_end = {t_end} (need dt <= t_end/100)")
    omega0 = 1.0 / math.sqrt(spec.l_henries * spec.c_farads)
    if dt * omega0 > 0.1:
        raise ValueError(
            f"dt * omega0 = {dt * omega0:.3g} exceeds the accuracy guard of 0.1"
        )
    r = spec.r_total_nominal
    inv_c = 1.0 / spec.c_farads
    inv_l = 1.0 / spec.l_henries
    n = int(round(t_end / dt))
    out = np.empty(n + 1)
    out[0] = 0.0
    v = 0.0
    i = 0.0
    h = dt
    for k in range(n):
        k1v = i * inv_c
        k1i = (1.0 - r * i - v) * inv_l
        v2 = v + 0.5 * h * k1v
        i2 = i + 0.5 * h * k1i
        k2v = i2 * inv_c
        k2i = (1.0 - r * i2 - v2) * inv_l
        v3 = v + 0.5 * h * k2v
        i3 = i + 0.5 * h * k2i
        k3v = i3 * inv_c
        k3i = (1.0 - r * i3 - v3) * inv_l
        v4 = v + h * k3v
        i4 = i + h * k3i
        k4v = i4 * inv_c
        k4i = (1.0 - r * i4 - v4) * inv_l
        v += h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
        i += h * (k1i + 2.0 * (k2i + k3i) + k4i) / 6.0
        out[k + 1] = v
    times = np.arange(n + 1, dtype=np.float64) * dt
    return times, out
