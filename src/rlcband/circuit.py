"""Series-RLC model: toleranced components to second-order parameters and
unit-step response, as point trajectories and guaranteed interval bands.

The circuit is driven by a unit voltage step from rest.  With effective
series resistance R (resistor plus inductor winding resistance), the
underdamped response of the capacitor voltage is

    v(t) = 1 - exp(-xi*w0*t) * (cos(wd*t) + xi/sqrt(1-xi^2) * sin(wd*t))

where xi = (R/2)*sqrt(C/L), w0 = 1/sqrt(L*C) and wd = w0*sqrt(1-xi^2).
Interval parameters propagate component tolerances and rounding through the
same closed form; the resulting band is a guaranteed enclosure of every
response the component box can produce.  The band is evaluated on float64
arrays of endpoint rows, one block of grid points at a time.
"""

import json
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .elementary import _MINUS_HALF_PI, icos_array, iexp_array, isqrt
# Not called here: the traced run of perfbench/worker.py looks these names up
# on this module (tests/test_benchmark_lookups.py pins that they resolve).
from .elementary import icos, iexp, isin  # noqa: F401
from .errors import ConfigError, DomainError
from .interval import Interval
from .rounding import DOWN_UP, add_array, mul_array

_CONFIG_KEYS = {
    "r_ohms": "r_ohms",
    "r_tol_pct": "r_tol",
    "rl_ohms": "rl_ohms",
    "rl_tol_pct": "rl_tol",
    "l_henries": "l_henries",
    "l_tol_pct": "l_tol",
    "c_farads": "c_farads",
    "c_tol_pct": "c_tol",
}


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


@dataclass(frozen=True)
class SecondOrderParams:
    """Damping ratio, natural and damped frequency, as intervals plus nominals.

    Admissible only for the underdamped regime: xi strictly inside (0, 1).
    """

    xi: Interval
    omega0: Interval
    omegad: Interval
    xi_nominal: float
    omega0_nominal: float
    omegad_nominal: float

    def __post_init__(self):
        require_underdamped(self.xi)
        if not (self.omega0.lo > 0.0 and self.omegad.lo > 0.0):
            raise DomainError(
                f"natural {self.omega0.render(6)} and damped {self.omegad.render(6)} "
                "frequencies must be strictly positive"
            )


def _param_intervals(r: Interval, l: Interval, c: Interval):
    one = Interval.point(1.0)
    xi = (r / 2.0) * isqrt(c / l)
    omega0 = one / isqrt(l * c)
    require_underdamped(xi)
    omegad = omega0 * isqrt(one - xi * xi)
    return xi, omega0, omegad


def derive_params(spec: CircuitSpec) -> SecondOrderParams:
    """Map a toleranced circuit to second-order parameters.

    xi and omega0 name each component once and are monotone over positive
    boxes, so their natural interval extension is tight.  omegad = omega0 *
    sqrt(1 - xi^2) repeats L and C, so it is wider than the range (demo box:
    [8685.28; 11773.9] against the corner hull [8688.66; 11771.4]), as is
    the band's decay rate xi*omega0.  The nominal triple is computed through
    the same interval pipeline with degenerate inputs and taken at the
    midpoint.
    """
    xi, omega0, omegad = _param_intervals(
        spec.resistance_interval(),
        spec.inductance_interval(),
        spec.capacitance_interval(),
    )
    r_nom = Interval.point(spec.r_ohms) + Interval.point(spec.rl_ohms)
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
    t_settle = 4.0 / (params.xi_nominal * params.omega0_nominal)
    return np.linspace(0.0, t_end_mult * t_settle, points)


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
    one = Interval.point(1.0)
    decay = params.xi * params.omega0
    damp = params.xi / isqrt(one - params.xi * params.xi)
    lower = np.empty(grid.size)
    upper = np.empty(grid.size)
    # The Dekker split of a grid time near 1e300 overflows; mul_array already
    # treats the NaN error term it leaves as unreliable, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, grid.size, _BAND_BLOCK):
            block = slice(start, start + _BAND_BLOCK)
            lower[block], upper[block] = _band_block(decay, params.omegad, damp, grid[block])
    nominal = step_response_curve(
        params.xi_nominal, params.omega0_nominal, params.omegad_nominal, grid
    )
    return ResponseBand(t=grid, lower=lower, nominal=nominal, upper=upper)


# Rows per formatting operation: bounds the text and tuple of a long table.
_CSV_BLOCK = 4096


def write_csv(path, header: str, row_format: str, columns) -> None:
    """Write header, then row_format (a conversion per column and the line
    terminator) for each row; one %-operation formats a block of rows."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            block = [column[start:start + _CSV_BLOCK].tolist() for column in columns]
            fh.write((row_format * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


def write_band_csv(band: ResponseBand, path) -> None:
    """Write the band as CSV with header t,lower,nominal,upper (17 sig. digits)."""
    write_csv(path, "t,lower,nominal,upper\r\n", "%.17g,%.17g,%.17g,%.17g\r\n",
              (band.t, band.lower, band.nominal, band.upper))
