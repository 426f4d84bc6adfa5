"""Series-RLC model: toleranced components to second-order parameters and
unit-step response, as point trajectories and guaranteed interval bands.

The circuit is driven by a unit voltage step from rest.  With effective
series resistance R (resistor plus inductor winding resistance), the
underdamped response of the capacitor voltage is

    v(t) = 1 - exp(-xi*w0*t) * (cos(wd*t) + xi/sqrt(1-xi^2) * sin(wd*t))

where xi = (R/2)*sqrt(C/L), w0 = 1/sqrt(L*C) and wd = w0*sqrt(1-xi^2).  The
decay rate xi*w0 equals R/(2L), which the band evaluates in that form.
Interval parameters propagate component tolerances and rounding through the
same closed form; the resulting band is a guaranteed enclosure of every
response the component box can produce.  The band is evaluated on float64
arrays of endpoint rows, one block of grid points at a time.
"""

import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .elementary import _MINUS_HALF_PI, icos_array, iexp_array, isqrt
# Not called here: the traced run of perfbench/worker.py looks these names up
# on this module (tests/test_benchmark_lookups.py pins that they resolve).
from .elementary import icos, iexp, isin  # noqa: F401
from .errors import ConfigError, DomainError
from .interval import Interval
from .rounding import DOWN_UP, add_array, mul_array, two_product

@dataclass(frozen=True)
class CircuitSpec:
    """Nominal component values with tolerance fractions.

    ``rl_ohms`` is the inductor's series (winding) resistance; it adds to the
    resistor to form the effective series resistance, each with its own
    tolerance.
    """

    r_ohms: float
    r_tol: float
    rl_ohms: float
    rl_tol: float
    l_henries: float
    l_tol: float
    c_farads: float
    c_tol: float

    def __post_init__(self):
        for name in ("r_ohms", "rl_ohms", "l_henries", "c_farads"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("r_tol", "rl_tol", "l_tol", "c_tol"):
            tol = getattr(self, name)
            if not (0.0 <= tol < 1.0):
                raise ValueError(f"{name} must be a fraction in [0, 1)")

    def resistance_interval(self) -> Interval:
        """Effective series resistance: toleranced resistor plus winding."""
        return Interval.from_nominal_tolerance(
            self.r_ohms, self.r_tol
        ) + Interval.from_nominal_tolerance(self.rl_ohms, self.rl_tol)

    def inductance_interval(self) -> Interval:
        return Interval.from_nominal_tolerance(self.l_henries, self.l_tol)

    def capacitance_interval(self) -> Interval:
        return Interval.from_nominal_tolerance(self.c_farads, self.c_tol)


# Config key of each CircuitSpec field, in field order: a tolerance field
# reads its percentage from key <field>_pct, any other field its own name.
_CONFIG_KEYS = {f.name + "_pct" if f.name.endswith("_tol") else f.name: f.name
                for f in fields(CircuitSpec)}


def load_circuit_spec(path) -> CircuitSpec:
    """Read a CircuitSpec from a JSON config.

    Expected keys: r_ohms, r_tol_pct, rl_ohms, rl_tol_pct, l_henries,
    l_tol_pct, c_farads, c_tol_pct.  Tolerances are percentages.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    missing = set(_CONFIG_KEYS) - set(raw)
    if missing:
        raise ConfigError(f"config {path}: missing keys {sorted(missing)}")
    kwargs = {}
    for key, field in _CONFIG_KEYS.items():
        value = raw[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config {path}: {key} must be a number")
        # json reads Infinity and NaN; the comparison also rejects an int too
        # large for a float, which float() would fail on
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"config {path}: {key} must be finite, got {value}")
        if key.endswith("_pct") and not 0.0 <= value < 100.0:
            raise ConfigError(f"config {path}: {key} must be a percentage in [0, 100), got {value}")
        kwargs[field] = value / 100.0 if key.endswith("_pct") else float(value)
    try:
        return CircuitSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def require_underdamped(xi: Interval) -> None:
    """Raise DomainError unless the damping ratio is inside (0, 1)."""
    if not (xi.lo > 0.0 and xi.hi < 1.0):
        raise DomainError(
            f"damping ratio {xi.render(6)} not strictly inside (0, 1)"
        )


def require_positive(x: Interval, name: str) -> None:
    """Raise DomainError unless the interval named name lies above 0."""
    if x.lo <= 0.0:
        raise DomainError(f"{name} {x.render(6)} must be strictly positive")


@dataclass(frozen=True)
class SecondOrderParams:
    """Damping ratio, natural and damped frequency, as intervals plus nominals,
    and the envelope's decay rate xi*omega0 as an interval: R/(2L) from
    derive_params, the product xi*omega0 from identify.

    Admissible only for the underdamped regime: xi strictly inside (0, 1).
    """

    xi: Interval
    omega0: Interval
    omegad: Interval
    xi_nominal: float
    omega0_nominal: float
    omegad_nominal: float
    decay: Interval

    def __post_init__(self):
        require_underdamped(self.xi)
        require_positive(self.omega0, "natural frequency")
        require_positive(self.omegad, "damped frequency")
        require_positive(self.decay, "decay rate")


def _param_intervals(r: Interval, l: Interval, c: Interval):
    xi = (r / 2.0) * isqrt(c / l)
    omega0 = 1.0 / isqrt(l * c)
    require_underdamped(xi)
    omegad = omega0 * isqrt(1.0 - xi * xi)
    return xi, omega0, omegad


def derive_params(spec: CircuitSpec) -> SecondOrderParams:
    """Map a toleranced circuit to second-order parameters.

    xi and omega0 name each component once and are monotone over positive
    boxes, so their natural interval extension is tight.  omegad = omega0 *
    sqrt(1 - xi^2) repeats L and C, so it is wider than the range (demo box:
    [8685.28; 11773.9] against the corner hull [8688.66; 11771.4]).  The
    decay rate is taken as R/(2L), which names each component once, and not
    as xi*omega0, which repeats L and C (demo box: [465.5; 628.833] against
    [380.079; 770.16]).  The nominal triple is computed through the same
    interval pipeline with degenerate inputs and taken at the midpoint.
    """
    r, l = spec.resistance_interval(), spec.inductance_interval()
    xi, omega0, omegad = _param_intervals(r, l, spec.capacitance_interval())
    r_nom = Interval.point(spec.r_ohms) + spec.rl_ohms
    xi_n, omega0_n, omegad_n = _param_intervals(
        r_nom, Interval.point(spec.l_henries), Interval.point(spec.c_farads)
    )
    return SecondOrderParams(
        xi=xi,
        omega0=omega0,
        omegad=omegad,
        xi_nominal=xi_n.midpoint(),
        omega0_nominal=omega0_n.midpoint(),
        omegad_nominal=omegad_n.midpoint(),
        decay=r / (2.0 * l),
    )


def step_response_curve(xi, omega0, omegad, t):
    """Vectorized closed-form unit-step response (numpy broadcasting)."""
    xi = np.asarray(xi, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    damp = xi / np.sqrt(1.0 - xi * xi)
    return 1.0 - np.exp(-xi * omega0 * t) * (
        np.cos(omegad * t) + damp * np.sin(omegad * t)
    )


@dataclass
class ResponseBand:
    """Guaranteed response envelope on a time grid, plus the nominal curve.

    Invariants: the grid is strictly increasing and starts at 0, and
    lower <= nominal <= upper holds at every grid point.
    """

    t: np.ndarray
    lower: np.ndarray
    nominal: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.nominal = np.asarray(self.nominal, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        n = self.t.size
        if n < 2:
            raise ValueError("band grid needs at least 2 points")
        for name in ("lower", "nominal", "upper"):
            if getattr(self, name).shape != self.t.shape:
                raise ValueError(f"{name} shape does not match the grid")
        if self.t[0] != 0.0:
            raise ValueError("band grid must start at t = 0")
        if not np.all(self.t[1:] > self.t[:-1]):
            raise ValueError("band grid must be strictly increasing")
        if not (
            np.all(self.lower <= self.nominal) and np.all(self.nominal <= self.upper)
        ):
            raise ValueError("band must satisfy lower <= nominal <= upper")


def default_time_grid(
    params: SecondOrderParams, points: int = 2000, t_end_mult: float = 5.0
) -> np.ndarray:
    """Uniform grid over [0, t_end_mult * nominal settling time]."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if not t_end_mult > 0.0:
        raise ValueError("t_end_mult must be positive")
    t_end = t_end_mult * (4.0 / (params.xi_nominal * params.omega0_nominal))
    if not math.isfinite(t_end):
        raise ValueError("the grid end overflows")
    return np.linspace(0.0, t_end, points)


# Grid points or table rows per array operation, in the band and in
# write_csv: it keeps numpy's temporaries under the C allocator's 128 KB mmap
# threshold.  Past it each temporary is mapped and faulted in afresh, and
# twice as many values per call cost about twice as much per value.
_BLOCK = 4096


# The four products with t: decay.hi*t up and decay.lo*t down, whose
# negations bound -decay*t, then omegad.lo*t down and omegad.hi*t up.
_T_DIRS = np.array([[1.0], [-1.0], [-1.0], [1.0]])


def _band_block(decay: Interval, omegad: Interval, damp: Interval, t: np.ndarray):
    """Endpoints of 1 - exp(-decay*t) * (cos(omegad*t) + damp*sin(omegad*t)).

    decay, omegad and damp are positive, t >= 0 and the envelope is >= 0, so
    each interval product has its extremes at known endpoints: two directed
    products each, where a general interval product needs eight.  Each
    interval operation is one call on a (2, m) array of endpoint rows.
    """
    by_t = mul_array(np.array([[decay.hi], [decay.lo], [omegad.lo], [omegad.hi]]), t, _T_DIRS)
    env = iexp_array(-by_t[:2])
    phase = by_t[2:]
    # One call for cos and sin, as sin(x) = cos(x - pi/2), on (2, 2, m) rows.
    trig = icos_array(np.stack([phase, add_array(phase, _MINUS_HALF_PI, DOWN_UP)], axis=1))
    cos, sin = trig[:, 0], trig[:, 1]
    # damp > 0: an endpoint of sin pairs with the damp endpoint of its sign.
    damp_rows = np.where(sin >= 0.0, [[damp.lo], [damp.hi]], [[damp.hi], [damp.lo]])
    osc = add_array(cos, mul_array(damp_rows, sin, DOWN_UP), DOWN_UP)
    # envelope >= 0: likewise for the oscillation's endpoints.
    decayed = mul_array(np.where(osc >= 0.0, env, env[::-1]), osc, DOWN_UP)
    return add_array(1.0, -decayed[::-1], DOWN_UP)


def step_response_band(params: SecondOrderParams, grid) -> ResponseBand:
    """Evaluate the closed form in interval arithmetic at every grid time.

    Grid times are treated as exact (degenerate intervals).  Dependency
    widening from repeated parameter occurrences is expected and accepted;
    the band is an enclosure, not the exact reachable range.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid < 0.0):
        raise ValueError("band grid times must be non-negative")
    damp = params.xi / isqrt(1.0 - params.xi * params.xi)
    lower = np.empty(grid.size)
    upper = np.empty(grid.size)
    # The Dekker split of a grid time near 1e300 overflows; mul_array already
    # treats the NaN error term it leaves as unreliable, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, grid.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            lower[block], upper[block] = _band_block(params.decay, params.omegad, damp, grid[block])
    nominal = step_response_curve(
        params.xi_nominal, params.omega0_nominal, params.omegad_nominal, grid
    )
    return ResponseBand(t=grid, lower=lower, nominal=nominal, upper=upper)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# --- exact %.17g text of float64 blocks, many values per numpy call ---
#
# A field's text is laid out in four little-endian uint64 words (32 bytes),
# whose NUL bytes are dropped when a block is written.  In a %.17g field,
# word 0 ends with the first digit (byte 7), led by the sign and, for a
# fixed-form number below 1, by "0." and zeros; words 1-3 hold the other
# digits, the decimal point and the exponent "e+XX", then NULs: at most 24
# bytes in all.  A bool field is its digit 0 or 1 at byte 7 of word 0.
# Bytes 5-7 of word 3 hold the separator or line end after the field.  So
# each field's text is one run of bytes.
_SLOT = 4


def _ten_powers(exponents):
    """10**k for each k as double-double arrays hi, lo: hi + lo is 10**k to
    about 2**-106 relative.  Built from Python ints: float() and the true
    quotient of two ints are correctly rounded, and hi's integer ratio gives
    the exact remainder of 1 / 10**j."""
    hi, lo = [], []
    for k in exponents:
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            h = 1 / 10**-k
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * 10**-k) / (den * 10**-k))
    return np.array(hi), np.array(lo)


# A value of magnitude in [1e-30, 1e30) is scaled by 10**(16 - e), for e its
# decimal exponent, or log10's estimate of it, which may be one off.
_E_MIN, _E_MAX = -32, 32
_TEN_HI, _TEN_LO = _ten_powers(range(16 - _E_MIN, 16 - _E_MAX - 1, -1))
# Widest error of a scaled value's residual that still settles a rounding or
# an exponent: the residual is within about 1e-14 of exact.
_GUARD = 1e-6


def _bytes_to_words(b):
    return np.ascontiguousarray(b).view(np.uint64)


_FIRST_DIGIT = (np.arange(10, dtype=np.uint64) + 0x30) << 56


def _group_words(n):
    """The 16 digits of each int64 n < 10**16, zero-filled, as ASCII in two
    words, and the four 4-digit groups."""
    hi = n // 10**8
    lo = n - hi * 10**8
    g = [hi // 10**4, None, lo // 10**4, None]
    g[1] = hi - g[0] * 10**4
    g[3] = lo - g[2] * 10**4
    text = [_GROUP_TEXT.take(group) for group in g]
    return text[0] | (text[1] << 32), text[2] | (text[3] << 32), g


def _g17_layouts():
    """Layouts of %.17g text for each key ((e - _E_MIN) * 17 + nd - 1) * 2 + neg:
    decimal exponent e, significant digits nd and sign.  Each is three words
    of byte masks and constant bytes: keep (bytes kept from the digit words),
    shifted (bytes taken one place later, after the point) and marks (sign,
    "0.000" prefix, point and exponent)."""
    key = np.arange((_E_MAX - _E_MIN + 1) * 17 * 2)
    e, nd, neg = key // 34 + _E_MIN, key // 2 % 17 + 1, key % 2
    # %g: fixed form for -4 <= e < 17, where a whole number keeps its zeros;
    # else the exponent form.  The point follows digit point (counted from 0).
    fixed = (e >= -4) & (e < 17)
    shown = np.where(fixed & (e >= 0), np.maximum(nd, e + 1), nd)
    point = np.where(fixed, e, 0)
    point = np.where((point < nd - 1) & ~(fixed & (e < 0)), point, -1)[:, None]
    # the "0.000" prefix of a fixed number below 1 ends at byte 6, led by the sign
    prefix = np.where(fixed & (e < 0), 1 - e, 0)
    # the end of the digits and point, in bytes from word 1
    ends = (shown - 1 + (point[:, 0] >= 0))[:, None]
    rel = np.arange(8 * _SLOT) - 8
    keep = (rel >= 0) & (rel < np.where(point >= 0, point, ends))
    shifted = (point >= 0) & (rel > point) & (rel < ends)
    marks = np.zeros((key.size, 8 * _SLOT), np.uint8)
    marks[point[:, 0] >= 0, 8 + point[point >= 0]] = ord(".")
    for length in range(2, 6):
        marks[prefix == length, 7 - length:7] = np.frombuffer(b"0.000"[:length], np.uint8)
    marks[neg == 1, (6 - prefix)[neg == 1]] = ord("-")
    rows = np.flatnonzero(~fixed)
    for i, char in enumerate((ord("e"), np.where(e[rows] < 0, ord("-"), ord("+")),
                              abs(e[rows]) // 10 + 0x30, abs(e[rows]) % 10 + 0x30)):
        marks[rows, 8 + ends[rows, 0] + i] = char
    return (_bytes_to_words(keep * np.uint8(0xFF)), _bytes_to_words(shifted * np.uint8(0xFF)),
            _bytes_to_words(marks))


# The kernel's lookup tables.  For each 4-digit group: its ASCII in bytes 0-3
# of a word, and for each w the place after its last nonzero digit, counted
# from the first digit of a 16-digit number whose group w it is (0 where the
# group is 0).  Then the %.17g layouts by key.  They are built at import, in
# about 2 ms: built on first use, they would land in the middle of a large
# write and pin the top of the C heap, which then cannot shrink (it raised
# scope_ingest's peak RSS from 54.6 to 61.3 MB).
_GROUP = np.arange(10**4)
_GROUP_TEXT = sum((_GROUP // 10**(3 - i) % 10 + 0x30) << (8 * i) for i in range(4)).astype(np.uint64)
_GROUP_SHOWN = np.where(_GROUP > 0, 4 - (_GROUP % 10 == 0) - (_GROUP % 100 == 0) - (_GROUP % 1000 == 0), -16)
_GROUP_END = [np.maximum(_GROUP_SHOWN + 4 * w, 0) for w in range(4)]
_G17_LAYOUTS = _g17_layouts()


def _scaled(a, e):
    """a * 10**(16 - e) as p + r, p the rounded product with 10**(16 - e)'s
    hi part; and that power's lo part."""
    lo = _TEN_LO[e - _E_MIN]
    p, err = two_product(a, _TEN_HI[e - _E_MIN])
    return p, err + a * lo, lo


def _g17_words(x, out):
    """Write the %.17g text of each float64 of x (one dimension) to out
    (x.shape + (_SLOT,) uint64 words); return the indexes of the values left
    to Python's %.

    Each value a = |x| gets its 17-digit integer d and decimal exponent e: a
    is scaled by a double-double 10**(16 - e) through two_product, and d is
    the scaled value rounded to an integer.  Left to % are zeros, non-finite
    values, |x| outside [1e-30, 1e30), and values whose residual lies within
    _GUARD of a rounding tie or of a power of ten that decides e.
    """
    a = np.abs(x)
    fast = (a >= 1e-30) & (a < 1e30)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r, lo = _scaled(a, e)
    # e is right iff 1e16 <= a * 10**(16 - e) < 1e17, and d < 1e17 unless it
    # carries; both are sure where p lies further from the ends than r reaches.
    near = np.flatnonzero((p < 1e16 + 64) | (p > 1e17 - 256))
    if near.size:
        pn, rn = p[near], r[near]
        below = (pn - 1e16) + rn
        above = (pn - 1e17) + rn
        # the tests are exact where the power of ten is
        fast[near[((abs(below) <= _GUARD) | (abs(above) <= _GUARD)) & (lo[near] != 0.0)]] = False
        e[near] += (above >= 0.0).astype(np.int64) - (below < 0.0)
        p[near], r[near], _ = _scaled(a[near], e[near])
    whole = np.rint(r)
    fast &= abs(r - whole) < 0.5 - _GUARD
    d = p.astype(np.int64) + whole.astype(np.int64)
    carry = near[d[near] == 10**17]
    d[carry] = 10**16
    e[carry] += 1
    first = d // 10**16
    high, low, groups = _group_words(d - first * 10**16)
    ends = [row.take(g) for row, g in zip(_GROUP_END, groups)]
    nd = 1 + np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    key = ((e - _E_MIN) * 17 + nd - 1) * 2 + (x < 0.0)
    keep, shifted, marks = (np.take(t, key, axis=0) for t in _G17_LAYOUTS)
    out[:, 0] = marks[:, 0] | _FIRST_DIGIT[first]
    out[:, 1] = (high & keep[:, 1]) | ((high << 8) & shifted[:, 1]) | marks[:, 1]
    out[:, 2] = (low & keep[:, 2]) | (((low << 8) | (high >> 56)) & shifted[:, 2]) | marks[:, 2]
    out[:, 3] = ((low >> 56) & shifted[:, 3]) | marks[:, 3]
    return np.flatnonzero(~fast)


def _format(x, out) -> None:
    """Write the text of each value of the float64 or bool column x to out:
    %.17g, Python's % text where the kernel leaves a value, or 0 or 1."""
    if x.dtype == bool:
        out[:, 0] = (x.astype(np.uint64) + 0x30) << 56
        out[:, 1:] = 0
        return
    for i in _g17_words(x, out):
        out[i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(8 * _SLOT, b"\0"), np.uint64)


def _write_rows(outs, columns, start: int, stop: int) -> None:
    """Write rows start..stop-1 to each (file, column indexes, line end) of
    outs: the fields of those columns, joined by commas, then the line end.
    Each block of rows is formatted once, one kernel call per column, into
    buffers reused for every block; each file gets the non-NUL bytes of its
    columns' fields, copied to rows."""
    rows = min(_BLOCK, stop - start)
    words = np.empty((len(columns), rows, _SLOT), np.uint64)
    layouts = []  # (file, indexes, row-major buffer, word 3 bits of each field's end)
    for fh, indexes, line_end in outs:
        ends = np.full(len(indexes), ord(","), np.uint64)
        ends[-1] = int.from_bytes(line_end.encode(), "little")
        layouts.append((fh, list(indexes), np.empty((rows, len(indexes), _SLOT), np.uint64),
                        ends << 40))
    keep = np.empty(max(buf.size for _, _, buf, _ in layouts) * 8, bool)
    for begin in range(start, stop, _BLOCK):
        m = min(_BLOCK, stop - begin)
        for column, out in zip(columns, words):
            _format(column[begin:begin + m], out[:m])
        for fh, indexes, buf, ends in layouts:
            block = buf[:m]
            np.copyto(block, words[indexes, :m].transpose(1, 0, 2))
            block[:, :, 3] |= ends
            text = block.reshape(-1).view(np.uint8)
            np.not_equal(text, 0, out=keep[:text.size])
            fh.write(text[keep[:text.size]])


def write_csv(columns, outputs) -> None:
    """Write CSV files from columns of equal length, each float64 or bool.
    Each (path, header, indexes, line_end) of outputs is one file: its
    header, then for each row the fields of the columns at indexes, joined
    by commas and ended by line_end (at most 3 bytes).  A float64 field is
    Python's %.17g text, byte for byte: a numpy kernel writes each field, and
    leaves to % only values it cannot prove.  A bool field is 0 or 1, as %d
    gives.  Each value is formatted once, whichever outputs show it.

    The rows are split into P contiguous parts, one per usable CPU but none
    under _BLOCK rows; P is 1 where os.fork is missing.  Forked
    children format parts 1..P-1 into anonymous binary temporary files, one
    per output, while this process formats part 0 into the outputs, then the
    parts are appended in order, so the bytes do not depend on P.  A child
    flushes its temporary files and leaves only by os._exit, so it never
    flushes a buffer it inherited.  A failed child raises OSError; any
    exception here kills and reaps the children first.
    """
    rows = len(columns[0])
    parts = 1
    if hasattr(os, "fork"):
        parts = max(1, min(_usable_cpus(), rows // _BLOCK))
    ends = [rows * k // parts for k in range(parts + 1)]
    with contextlib.ExitStack() as files:
        outs = []
        for path, header, indexes, line_end in outputs:
            fh = files.enter_context(open(path, "wb"))
            fh.write(header.encode())
            outs.append((fh, indexes, line_end))
        temps = [[(files.enter_context(tempfile.TemporaryFile()), indexes, line_end)
                  for _, indexes, line_end in outs] for _ in range(parts - 1)]
        children = []
        try:
            for k, part in enumerate(temps, 1):
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        _write_rows(part, columns, ends[k], ends[k + 1])
                        for tmp, _, _ in part:
                            tmp.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append(pid)
            _write_rows(outs, columns, 0, ends[1])
            for k, part in enumerate(temps, 1):
                _, status = os.waitpid(children[0], 0)
                del children[0]
                if status != 0:
                    raise OSError(f"writing rows {ends[k]}..{ends[k + 1] - 1} of {outputs[0][0]}: "
                                  f"child exited with status {os.waitstatus_to_exitcode(status)}")
                for (tmp, _, _), (fh, _, _) in zip(part, outs):
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
        except BaseException:
            import signal  # not loaded at start-up, and needed only here

            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise


def write_band_csv(band: ResponseBand, band_path, nominal_path) -> None:
    """Write band.csv (t,lower,nominal,upper) and nominal.csv (t,v) in one
    pass, 17 significant digits: nominal.csv's rows reuse band.csv's t and
    nominal fields."""
    write_csv((band.t, band.lower, band.nominal, band.upper),
              [(band_path, "t,lower,nominal,upper\r\n", (0, 1, 2, 3), "\r\n"),
               (nominal_path, "t,v\n", (0, 2), "\n")])
