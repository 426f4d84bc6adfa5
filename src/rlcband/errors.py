"""Exception hierarchy.

Three broad families: interval arithmetic violations, mathematical domain
violations, and trace/input problems.  The CLI maps each family to a
distinct exit code.
"""


class RlcBandError(Exception):
    """Base class for all library errors."""


# --- interval arithmetic ---

class IntervalError(RlcBandError):
    """Base class for interval construction/arithmetic errors."""


class InvalidIntervalError(IntervalError):
    """Endpoints out of order, or not finite real numbers."""


class IntervalOverflowError(IntervalError):
    """An endpoint computation overflowed to infinity (finite-endpoint policy)."""


class DivisionByZeroIntervalError(IntervalError):
    """Divisor interval contains zero."""


# --- mathematical domains ---

class DomainError(RlcBandError):
    """Base class for math-domain violations."""


class NegativeArgumentError(DomainError):
    """sqrt of an interval with a negative lower endpoint."""


class NonPositiveArgumentError(DomainError):
    """log of an interval that is not strictly positive."""


class DomainViolationError(DomainError):
    """Argument interval outside the function's domain (e.g. acos beyond [-1, 1])."""


class PrecisionLossError(DomainError):
    """Trig argument so large that range reduction is meaningless."""


class NotUnderdampedError(DomainViolationError):
    """Damping ratio not strictly inside (0, 1), or a frequency not positive."""


class PeakNotCoveredError(DomainError):
    """Response band grid ends before the first overshoot peak."""


# --- traces and input files ---

class TraceError(RlcBandError):
    """Base class for experimental-trace problems."""


class TraceFormatError(TraceError):
    """Malformed trace file (reported with line number)."""


class NonMonotoneTimeError(TraceError):
    """Trace timestamps are not strictly increasing."""


class TooFewSamplesError(TraceError):
    """Trace has fewer samples than required."""


class NotSettledError(TraceError):
    """Trace does not settle to a steady final value."""


class NoStepDetectedError(TraceError):
    """No step transition found in the trace."""


class OverdampedTraceError(TraceError):
    """Trace shows no usable overshoot; out of the underdamped scope."""


class TimeRangeMismatchError(TraceError):
    """Trace and band time ranges do not overlap."""


class ConfigError(RlcBandError):
    """Bad or missing run configuration."""
