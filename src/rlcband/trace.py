"""Experimental step-response traces: ingestion, unit-step normalization,
spec measurement, and enclosure verification against a response band.

A raw capture is whatever the oscilloscope produced: arbitrary offset,
amplitude, and trigger position.  ``normalize`` rescales it to unit-step
coordinates (baseline 0, steady state 1, onset at t = 0) using only the
data itself; ``measure_specs`` then reads the transient specifications off
the normalized samples, and ``check_enclosure`` verifies sample-by-sample
containment in a guaranteed band.
"""

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import ResponseBand, write_csv
from .errors import (
    NonMonotoneTimeError,
    NoStepDetectedError,
    NotSettledError,
    OverdampedTraceError,
    TimeRangeMismatchError,
    TooFewSamplesError,
    TraceFormatError,
)
from .interval import Interval
from .metrics import Pipeline, TransientSpecs

MIN_SAMPLES = 50


@dataclass
class Trace:
    """Sampled voltage trace with strictly increasing timestamps."""

    t: np.ndarray
    v: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.t.ndim != 1 or self.t.shape != self.v.shape:
            raise TraceFormatError("trace needs matching 1-D time and value arrays")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.v))):
            raise TraceFormatError("trace contains non-finite values")
        if self.t.size < MIN_SAMPLES:
            raise TooFewSamplesError(
                f"trace has {self.t.size} samples, need at least {MIN_SAMPLES}"
            )
        if not np.all(np.diff(self.t) > 0.0):
            raise NonMonotoneTimeError("trace timestamps must be strictly increasing")

    @property
    def n(self) -> int:
        return int(self.t.size)


def load_trace(path) -> Trace:
    """Read a trace from a CSV file with header ``t,v`` (format in README)."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
    if not first:
        raise TraceFormatError(f"{path}: empty file")
    header = next(csv.reader([first]), [])
    # an unclosed quote would run on into the body
    if [col.strip().lower() for col in header] != ["t", "v"] or first.count('"') % 2:
        raise TraceFormatError(f"{path}:1: header must be 't,v', got {header!r}")
    try:
        with warnings.catch_warnings():  # a header-only file: Trace reports it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy reads a path in large chunks, an open file line by line
            data = np.loadtxt(path, skiprows=1, delimiter=",", comments=None,
                              quotechar='"', dtype=np.float64, ndmin=2)
        if data.size and data.shape[1] != 2:
            raise ValueError(f"expected 2 columns, got {data.shape[1]}")
    except ValueError as exc:  # numpy's UnicodeDecodeError is one too
        _locate_format_error(path)
        raise TraceFormatError(f"{path}: {exc}") from None
    t, v = data.reshape(-1, 2).T  # a header-only file reads as shape (0, 1)
    return Trace(t, v, label=path.name)


def _locate_format_error(path) -> None:
    """Raise the error of the first malformed line; line numbers count blank lines.

    A byte that is not UTF-8 reads as U+FFFD, which no field or header accepts.
    """
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if row and len(row) != 2:
                raise TraceFormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            for field in row:
                value = field.strip()
                try:
                    if "_" in value or not value.isascii():  # not read by np.loadtxt
                        raise ValueError
                    float(value)
                except ValueError:
                    raise TraceFormatError(
                        f"{path}:{lineno}: could not convert string to float: {field!r}"
                    ) from None


def _refine_baseline(v: np.ndarray, i_exceed: int):
    """Iteratively estimate the pre-step baseline and the onset sample.

    Starting from the mean of everything before the first threshold
    crossing, repeatedly drop the rising samples above the current estimate
    and re-average.  On a clean capture this converges to the plateau mean
    and the last at-or-below-baseline sample, which is the step onset.
    """
    pre = v[:i_exceed]
    baseline = float(pre.mean())
    onset = -1
    for _ in range(100):
        at_or_below = np.nonzero(pre <= baseline)[0]
        # the mean of a set is never below its minimum, so this is non-empty
        j = int(at_or_below[-1])
        if j == onset:
            break
        onset = j
        baseline = float(v[: j + 1].mean())
    return baseline, onset


def normalize(trace: Trace, step_fraction: float = 0.10) -> Trace:
    """Rescale a capture to unit-step coordinates.

    baseline = mean of the pre-step samples (everything before the first
    sample exceeding ``step_fraction`` of the full range, iteratively
    refined), steady = mean of the final 10 %, and time is shifted so the
    detected step onset is t = 0.
    """
    v = trace.v
    vmin = float(v.min())
    vmax = float(v.max())
    span = vmax - vmin
    if span <= 0.0:
        raise NoStepDetectedError("constant trace has no step")
    threshold = vmin + step_fraction * span
    i_exceed = int(np.argmax(v > threshold))  # first True; v.max() > threshold
    if i_exceed == 0:
        raise NoStepDetectedError("no pre-step samples before the threshold crossing")
    n_tail = max(1, trace.n // 10)
    tail = v[-n_tail:]
    steady = float(tail.mean())
    if not float(tail.std()) < 0.05 * abs(steady):
        raise NotSettledError(
            "final 10 % of the trace is not steady (std >= 5 % of mean)"
        )
    baseline, onset = _refine_baseline(v, i_exceed)
    scale = steady - baseline
    if scale <= 0.0:
        raise NoStepDetectedError("no upward step from baseline to steady state")
    return Trace(
        t=trace.t - trace.t[onset],
        v=(v - baseline) / scale,
        label=trace.label,
    )


def measure_specs(trace: Trace, settle_fraction: float = 0.02) -> TransientSpecs:
    """Read the transient specifications off a normalized trace.

    Overshoot is the sample maximum minus 1, peak time its timestamp, rise
    time the first linearly interpolated crossing of 1, and settling time
    the last entry into the +/-``settle_fraction`` band around 1.
    """
    t = trace.t
    v = trace.v
    mp = float(v.max()) - 1.0
    if mp < 0.01:
        raise OverdampedTraceError(
            f"overshoot {mp:.4f} below 0.01; trace is not usefully underdamped"
        )
    i_peak = int(np.argmax(v))
    tp = float(t[i_peak])
    above = np.nonzero(v >= 1.0)[0]
    j = int(above[0])
    if j == 0:
        raise NoStepDetectedError("trace begins at or above the final value")
    ts = float(
        t[j - 1] + (1.0 - v[j - 1]) / (v[j] - v[j - 1]) * (t[j] - t[j - 1])
    )
    outside = np.nonzero(np.abs(v - 1.0) > settle_fraction)[0]
    k = int(outside[-1])  # the peak itself is outside, so non-empty
    if k == trace.n - 1:
        raise NotSettledError("trace never enters the settling band for good")
    bound = 1.0 + settle_fraction if v[k] > 1.0 else 1.0 - settle_fraction
    ta = float(t[k] + (bound - v[k]) / (v[k + 1] - v[k]) * (t[k + 1] - t[k]))
    return TransientSpecs(
        mp=Interval.point(mp),
        ts_rise=Interval.point(ts),
        tp=Interval.point(tp),
        ta=Interval.point(ta),
        pipeline=Pipeline.FROM_TRACE,
    )


@dataclass
class EnclosureReport:
    """Per-sample containment verdicts of a trace against a band."""

    total: int
    inside: int
    fraction_inside: float
    worst_violation: "tuple[float, float] | None"  # (time, distance in band widths)
    times: np.ndarray
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    verdicts: np.ndarray
    excluded: int  # samples outside the band's time range

    def __post_init__(self):
        if self.inside > self.total:
            raise ValueError("inside count cannot exceed total")


def check_enclosure(
    trace: Trace, band: ResponseBand, slack: float = 1e-9
) -> EnclosureReport:
    """Verify each trace sample lies inside the band.

    Band bounds are linearly interpolated at the sample times, so verdicts
    inherit grid-resolution error; sample traces near the band's grid
    spacing (and normalize first so t = 0 is the onset).  Samples outside
    the band's time range are excluded from the verdict count.  A sample is
    inside iff lower - slack <= v <= upper + slack.
    """
    if trace.t[-1] < band.t[0] or trace.t[0] > band.t[-1]:
        raise TimeRangeMismatchError(
            f"trace spans [{trace.t[0]:.6g}, {trace.t[-1]:.6g}] but the band "
            f"covers [{band.t[0]:.6g}, {band.t[-1]:.6g}]"
        )
    mask = (trace.t >= band.t[0]) & (trace.t <= band.t[-1])
    if not mask.any():
        raise TimeRangeMismatchError("no trace samples fall inside the band grid")
    times = trace.t[mask]
    values = trace.v[mask]
    lower = np.interp(times, band.t, band.lower)
    upper = np.interp(times, band.t, band.upper)
    verdicts = (values >= lower - slack) & (values <= upper + slack)
    total = int(times.size)
    inside = int(verdicts.sum())
    worst = None
    if inside < total:
        widths = np.maximum(upper - lower, np.finfo(np.float64).tiny)
        distance = np.maximum(lower - values, values - upper) / widths
        distance[verdicts] = -np.inf
        w = int(np.argmax(distance))
        worst = (float(times[w]), float(distance[w]))
    return EnclosureReport(
        total=total,
        inside=inside,
        fraction_inside=inside / total,
        worst_violation=worst,
        times=times,
        values=values,
        lower=lower,
        upper=upper,
        verdicts=verdicts,
        excluded=trace.n - total,
    )


def write_verdicts_csv(report: EnclosureReport, path) -> None:
    """Write per-sample verdicts as CSV: t,v,lower,upper,inside."""
    write_csv(path, "t,v,lower,upper,inside\r\n", "%.17g,%.17g,%.17g,%.17g,%d\r\n",
              (report.times, report.values, report.lower, report.upper, report.verdicts))
