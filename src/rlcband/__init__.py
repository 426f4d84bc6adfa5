"""Validated numerics for the series-RLC unit-step response.

Propagates component tolerances and floating-point rounding through the
closed-form second-order step response with outward-rounded interval
arithmetic, producing guaranteed enclosures of the response band and of the
transient specifications, and verifying experimental traces against them.
"""

from .errors import ConfigError, DomainError, IntervalError, RlcBandError, TraceError
from .interval import Interval
from .elementary import HALF_PI, PI, TWO_PI, iacos, icos, iexp, iln, isin, isqrt
from .circuit import (
    CircuitSpec,
    ResponseBand,
    SecondOrderParams,
    default_time_grid,
    derive_params,
    load_circuit_spec,
    step_response_band,
    step_response_curve,
    write_band_csv,
)
from .metrics import (
    Pipeline,
    TransientSpecs,
    identify,
    overshoot_from_band,
    overshoot_from_xi,
    peak_time,
    rise_time,
    settling_time,
    specs_from_params,
    xi_from_overshoot,
)
from .trace import (
    EnclosureReport,
    Trace,
    check_enclosure,
    load_trace,
    measure_specs,
    normalize,
    write_verdicts_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "PI",
    "TWO_PI",
    "HALF_PI",
    "iexp",
    "iln",
    "isqrt",
    "isin",
    "icos",
    "iacos",
    "CircuitSpec",
    "SecondOrderParams",
    "ResponseBand",
    "load_circuit_spec",
    "derive_params",
    "default_time_grid",
    "step_response_curve",
    "step_response_band",
    "write_band_csv",
    "Pipeline",
    "TransientSpecs",
    "overshoot_from_xi",
    "xi_from_overshoot",
    "peak_time",
    "settling_time",
    "rise_time",
    "specs_from_params",
    "overshoot_from_band",
    "identify",
    "Trace",
    "EnclosureReport",
    "load_trace",
    "normalize",
    "measure_specs",
    "check_enclosure",
    "write_verdicts_csv",
    "RlcBandError",
    "IntervalError",
    "DomainError",
    "TraceError",
    "ConfigError",
]
