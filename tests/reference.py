"""Reference implementations the tests compare the library against.

* ``iexp``, ``icos`` and ``isin``: the scalar enclosures on libm's exp and
  cos, written independently of the array kernels that ``rlcband`` runs for
  every interval, with their own loop over candidate multiples of pi.
* ``add_down_array``/``add_up_array``/``mul_down_array``/``mul_up_array``:
  the fixed-direction array endpoint ops, each evaluating the whole step
  rule at every element.
* ``icos_array_loop``/``isin_array_loop``: the array trig kernels on separate
  lo/hi arrays, with a Python loop over 6 candidate multiples of pi, one pair
  of directed products per candidate and their own 2-ulp helpers
  ``_down2_array``/``_up2_array``, which the batched kernels must match bit
  for bit.
* ``band_block``: the band kernel with one fixed-direction call per endpoint
  and the looped trig kernels, which ``circuit._band_block`` must match bit
  for bit.
* ``mul_eight``/``div_eight``: the interval product as min/max over all
  eight directed endpoint products, and the quotient through it.
* ``from_nominal_tolerance``: the toleranced interval with one pair of
  directed products per sign of the nominal.
* ``iatan``: a libm arctan enclosure under the same 2-ulp policy.
* ``step_response_point``: the closed-form step response in point
  arithmetic.
* ``simulate_ode_point``: a fixed-step RK4 integration of the circuit ODE,
  an oracle independent of the closed form.
"""

import math

import numpy as np

from rlcband import HALF_PI, PI, TWO_PI, DomainError, Interval, IntervalError
from rlcband.circuit import require_underdamped
from rlcband.elementary import iexp_array
from rlcband.rounding import (
    _MIN_NORMAL,
    add_down,
    add_up,
    div_down,
    div_up,
    mul_down,
    mul_up,
    two_product,
    two_sum,
)


def _down2(x: float) -> float:
    return math.nextafter(math.nextafter(x, -math.inf), -math.inf)


def _up2(x: float) -> float:
    return math.nextafter(math.nextafter(x, math.inf), math.inf)


def _down2_array(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, -np.inf), -np.inf)


def _up2_array(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, np.inf), np.inf)


def _check_trig_range(x: Interval) -> None:
    if max(abs(x.lo), abs(x.hi)) > 2.0**52:
        raise DomainError(f"trig argument beyond 2**52 rad: {x}")


def _check_trig_range_arrays(lo: np.ndarray, hi: np.ndarray) -> None:
    if max(np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0)) > 2.0**52:
        raise DomainError("trig argument beyond 2**52 rad loses all reduction precision")


def iexp(x: Interval) -> Interval:
    """Enclosure of e**x; monotone, so endpoint evaluation suffices."""
    try:
        hi = _up2(math.exp(x.hi))
    except OverflowError:
        raise IntervalError(f"exp overflow on {x}") from None
    if math.isinf(hi):
        raise IntervalError(f"exp overflow on {x}")
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


def add_down_array(a, b) -> np.ndarray:
    s, e = two_sum(a, b)
    return np.where(e < 0.0, np.nextafter(s, -np.inf), s)


def add_up_array(a, b) -> np.ndarray:
    s, e = two_sum(a, b)
    return np.where(e > 0.0, np.nextafter(s, np.inf), s)


def _mul_step(a, b, p, e, up):
    """The product step rule, with the subnormal/split-overflow arm everywhere."""
    known = (e > 0.0) if up else (e < 0.0)
    unreliable = (e != e) | ((abs(p) < _MIN_NORMAL) & (a != 0.0) & (b != 0.0))
    blind = (p != 0.0) | (((a < 0.0) != (b < 0.0)) != up)
    return (known & (abs(p) >= _MIN_NORMAL)) | (unreliable & blind)


def mul_down_array(a, b) -> np.ndarray:
    p, e = two_product(a, b)
    return np.where(_mul_step(a, b, p, e, False), np.nextafter(p, -np.inf), p)


def mul_up_array(a, b) -> np.ndarray:
    p, e = two_product(a, b)
    return np.where(_mul_step(a, b, p, e, True), np.nextafter(p, np.inf), p)


def icos_array_loop(lo: np.ndarray, hi: np.ndarray):
    """Range enclosure of cos over 1-D lo/hi arrays, one candidate at a time."""
    _check_trig_range_arrays(lo, hi)
    out_lo = np.full(lo.shape, -1.0)
    out_hi = np.full(lo.shape, 1.0)
    part = np.flatnonzero(hi - lo < TWO_PI.hi)
    lo = lo[part]
    hi = hi[part]
    has_max = np.zeros(part.size, dtype=bool)
    has_min = np.zeros(part.size, dtype=bool)
    k_first = np.floor(lo / math.pi) - 1.0
    for j in range(6):
        k = k_first + j
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


def isin_array_loop(lo: np.ndarray, hi: np.ndarray):
    """Range enclosure of sin over 1-D lo/hi arrays as cos(x - pi/2)."""
    _check_trig_range_arrays(lo, hi)
    return icos_array_loop(add_down_array(lo, -HALF_PI.hi), add_up_array(hi, -HALF_PI.lo))


def band_block(decay: Interval, omegad: Interval, damp: Interval, t: np.ndarray):
    """Endpoints of 1 - exp(-decay*t) * (cos(omegad*t) + damp*sin(omegad*t)),
    one fixed-direction call per endpoint of each interval operation."""
    env_lo, env_hi = iexp_array(np.array([-mul_up_array(decay.hi, t),
                                          -mul_down_array(decay.lo, t)]))
    phase_lo = mul_down_array(omegad.lo, t)
    phase_hi = mul_up_array(omegad.hi, t)
    cos_lo, cos_hi = icos_array_loop(phase_lo, phase_hi)
    sin_lo, sin_hi = isin_array_loop(phase_lo, phase_hi)
    osc_lo = add_down_array(
        cos_lo, mul_down_array(np.where(sin_lo >= 0.0, damp.lo, damp.hi), sin_lo)
    )
    osc_hi = add_up_array(
        cos_hi, mul_up_array(np.where(sin_hi >= 0.0, damp.hi, damp.lo), sin_hi)
    )
    decayed_lo = mul_down_array(np.where(osc_lo >= 0.0, env_lo, env_hi), osc_lo)
    decayed_hi = mul_up_array(np.where(osc_hi >= 0.0, env_hi, env_lo), osc_hi)
    return add_down_array(1.0, -decayed_hi), add_up_array(1.0, -decayed_lo)


def mul_eight(x: Interval, y: Interval) -> Interval:
    """x*y as min/max over the four endpoint pairs, each rounded both ways."""
    pairs = ((x.lo, y.lo), (x.lo, y.hi), (x.hi, y.lo), (x.hi, y.hi))
    lo = min(mul_down(a, b) for a, b in pairs)
    hi = max(mul_up(a, b) for a, b in pairs)
    return Interval(lo, hi)


def div_eight(x: Interval, y: Interval) -> Interval:
    """x/y as x times the outward-rounded reciprocal of y, through mul_eight."""
    if y.lo <= 0.0 <= y.hi:
        raise IntervalError(f"divisor {y} contains zero")
    return mul_eight(x, Interval(div_down(1.0, y.hi), div_up(1.0, y.lo)))


def from_nominal_tolerance(nominal: float, tol_fraction: float) -> Interval:
    """[nominal*(1-tol), nominal*(1+tol)], the endpoint products picked by
    the sign of the nominal."""
    f_lo = add_down(1.0, -tol_fraction)
    f_hi = add_up(1.0, tol_fraction)
    if nominal >= 0.0:
        return Interval(mul_down(nominal, f_lo), mul_up(nominal, f_hi))
    return Interval(mul_down(nominal, f_hi), mul_up(nominal, f_lo))


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
    r = spec.r_ohms + spec.rl_ohms
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
