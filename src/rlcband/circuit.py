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

import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .elementary import _MINUS_HALF_PI, icos_array, iexp_array, isqrt
# Not called here: the traced run of perfbench/worker.py looks these names up
# on this module (tests/test_benchmark_lookups.py pins that they resolve).
from .elementary import icos, iexp, isin  # noqa: F401
from .errors import ConfigError, DomainError
from .interval import Interval
from .rounding import DOWN_UP, add_array, mul_array

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
    if t_end_mult <= 0.0:
        raise ValueError("t_end_mult must be positive")
    t_end = t_end_mult * (4.0 / (params.xi_nominal * params.omega0_nominal))
    if not math.isfinite(t_end):
        raise ValueError("the grid end overflows")
    return np.linspace(0.0, t_end, points)


# Grid points per array evaluation: bounds the temporaries of a long grid.
_BAND_BLOCK = 4096


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
        for start in range(0, grid.size, _BAND_BLOCK):
            block = slice(start, start + _BAND_BLOCK)
            lower[block], upper[block] = _band_block(params.decay, params.omegad, damp, grid[block])
    nominal = step_response_curve(
        params.xi_nominal, params.omega0_nominal, params.omegad_nominal, grid
    )
    return ResponseBand(t=grid, lower=lower, nominal=nominal, upper=upper)


# Rows per formatting operation: bounds the text and tuple of a long table.
_CSV_BLOCK = 4096
# Fewest values (rows times columns) in a part of write_csv.  Forking,
# reaping and copying back a part cost about 1.5 ms from a 50 MB process, and
# %.17g about 0.33 us per value, so two parts broke even at about 10 000
# values in all (2-core VM, Python 3.11).
_PART_MIN_VALUES = 6144


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_rows(outs, row_format: str, columns, start: int, stop: int) -> None:
    """Write rows start..stop-1 to each (file, cut) of outs.  One %-operation
    formats a block of rows; a file with a cut gets cut(text) of that text."""
    for begin in range(start, stop, _CSV_BLOCK):
        end = min(begin + _CSV_BLOCK, stop)
        values = np.column_stack([column[begin:end] for column in columns]).ravel().tolist()
        text = (row_format * (end - begin)) % tuple(values)
        for fh, cut in outs:
            fh.write((cut(text) if cut else text).encode())


def write_csv(path, header: str, row_format: str, columns, cuts=()) -> None:
    """Write header, then row_format (a conversion per column and the line
    terminator) for each row, as bytes.  The rows are formatted from float64
    values, so a %d column holds booleans or integers below 2**53.  Each
    (path, header, cut) of cuts is one more file: its header, then cut(text)
    of each block's text, so that file formats no value again.

    The rows are split into P contiguous parts, one per usable CPU but none
    under _PART_MIN_VALUES values; P is 1 where os.fork is missing.  Forked
    children format parts 1..P-1 into anonymous binary temporary files, one
    per output, while this process formats part 0 into the outputs, then the
    parts are appended in order, so the bytes do not depend on P.  A child
    flushes its temporary files and leaves only by os._exit, so it never
    flushes a buffer it inherited.  A failed child raises OSError; any
    exception here kills and reaps the children first.
    """
    # numpy has imported these already, so they cost nothing at start-up.
    import contextlib
    import os
    import shutil
    import tempfile

    outputs = [(path, header, None), *cuts]
    rows = len(columns[0])
    parts = 1
    if hasattr(os, "fork"):
        parts = max(1, min(_usable_cpus(), rows * len(columns) // _PART_MIN_VALUES))
    ends = [rows * k // parts for k in range(parts + 1)]
    with contextlib.ExitStack() as files:
        outs = []
        for out_path, out_header, cut in outputs:
            fh = files.enter_context(open(out_path, "wb"))
            fh.write(out_header.encode())
            outs.append((fh, cut))
        temps = [[(files.enter_context(tempfile.TemporaryFile()), cut) for _, _, cut in outputs]
                 for _ in range(parts - 1)]
        children = []
        try:
            for k, part in enumerate(temps, 1):
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        _write_rows(part, row_format, columns, ends[k], ends[k + 1])
                        for tmp, _ in part:
                            tmp.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append(pid)
            _write_rows(outs, row_format, columns, 0, ends[1])
            for k, part in enumerate(temps, 1):
                _, status = os.waitpid(children[0], 0)
                del children[0]
                if status != 0:
                    raise OSError(f"writing rows {ends[k]}..{ends[k + 1] - 1} of {path}: "
                                  f"child exited with status {os.waitstatus_to_exitcode(status)}")
                for (tmp, _), (fh, _) in zip(part, outs):
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
        except BaseException:
            import signal  # not loaded at start-up, and needed only here

            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise


def _nominal_rows(text: str) -> str:
    """nominal.csv's t,v rows (LF) cut from band.csv's t,lower,nominal,upper
    rows (CRLF): fields 0 and 2 of each."""
    fields = text.replace("\r\n", ",").split(",")
    rows = len(fields) // 4
    fields[1::4] = [","] * rows
    fields[3::4] = ["\n"] * rows
    return "".join(fields)


def write_band_csv(band: ResponseBand, band_path, nominal_path) -> None:
    """Write band.csv (t,lower,nominal,upper) and nominal.csv (t,v) in one
    pass, 17 significant digits: nominal.csv's rows are cut from band.csv's."""
    write_csv(band_path, "t,lower,nominal,upper\r\n", "%.17g,%.17g,%.17g,%.17g\r\n",
              (band.t, band.lower, band.nominal, band.upper),
              [(nominal_path, "t,v\n", _nominal_rows)])
