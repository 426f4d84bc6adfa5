"""Exception hierarchy.

Four families under ``RlcBandError``, one per way a caller can act on a
fault; the message says which check failed.  The CLI exits 1 on
``ConfigError`` and ``TraceError`` (fix the input) and 3 on ``DomainError``
and ``IntervalError`` (the numbers leave a formula's domain).
"""


class RlcBandError(Exception):
    """Base class for all library errors."""


class IntervalError(RlcBandError):
    """Bad interval endpoints, an endpoint overflow, or a divisor containing zero."""


class DomainError(RlcBandError):
    """An argument outside a function's or formula's domain, such as a damping
    ratio outside (0, 1) or a trig argument too large to reduce."""


class TraceError(RlcBandError):
    """A trace that is malformed or cannot be normalized, measured or checked."""


class ConfigError(RlcBandError):
    """Bad or missing run configuration."""
