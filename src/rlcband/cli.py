"""Command-line front end.

Subcommands:
  simulate         write the guaranteed response band and nominal curve as CSV
  metrics          report transient specs and dynamics parameters (3 columns)
  identify         invert overshoot / peak time into xi, omegad, omega0
  check            verify a measured trace is enclosed by the band
  demo-dependency  show that equivalent real expressions differ in intervals

Exit codes: 0 success, 1 config/input error, 2 usage error, 3 math-domain
error, 4 enclosure failure.
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .circuit import (
    default_time_grid,
    derive_params,
    load_circuit_spec,
    step_response_band,
    write_band_csv,
)
from .errors import ConfigError, DomainError, IntervalError, TraceError
from .interval import Interval
from .metrics import (
    Pipeline,
    identify,
    overshoot_from_band,
    specs_from_params,
    xi_from_overshoot,
)
from .trace import check_enclosure, load_trace, measure_specs, normalize, write_verdicts_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_ENCLOSURE = 4

# The most significant digits a double's exact decimal expansion has.
MAX_PRECISION = 767
# The largest band grid: 320 MB of arrays and about 0.7 GB of band.csv.
MAX_GRID_POINTS = 10_000_000


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _parse_interval_flag(text: str, name: str) -> Interval:
    """Parse 'x' as a point or 'lo,hi' as an interval."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return Interval.point(float(parts[0]))
        if len(parts) == 2:
            return Interval(float(parts[0]), float(parts[1]))
    except (ValueError, IntervalError) as exc:
        raise ConfigError(f"bad {name} value {text!r}: {exc}") from exc
    raise ConfigError(f"bad {name} value {text!r}: expected 'x' or 'lo,hi'")


def _band_from_args(args):
    if not (math.isfinite(args.t_end_mult) and args.t_end_mult > 0.0):
        raise ConfigError(f"--t-end-mult must be positive and finite, got {args.t_end_mult}")
    spec = load_circuit_spec(args.config)
    params = derive_params(spec)
    try:
        grid = default_time_grid(params, points=args.grid_points, t_end_mult=args.t_end_mult)
    except ValueError as exc:  # both flags are checked already: only the end is left
        raise ConfigError(f"--t-end-mult {args.t_end_mult} is too large: {exc}") from exc
    if not (grid[1:] > grid[:-1]).all():
        raise ConfigError(f"--t-end-mult {args.t_end_mult} is too small: "
                          f"the {args.grid_points}-point grid repeats a time")
    return params, step_response_band(params, grid)


def _cmd_simulate(args) -> int:
    _, band = _band_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    band_path = out / "band.csv"
    nominal_path = out / "nominal.csv"
    write_band_csv(band, band_path, nominal_path)
    print(f"wrote {band_path}")
    print(f"wrote {nominal_path}")
    return EXIT_OK


# (label, attribute) of the TransientSpecs and the SecondOrderParams rows.
_SPEC_ROWS = (("Mp", "mp"), ("ts", "ts_rise"), ("tp", "tp"), ("ta", "ta"))
_PARAM_ROWS = (("xi", "xi"), ("wd", "omegad"), ("w0", "omega0"))


def _nominal_view(params):
    """Degenerate-interval view of the nominal parameter triple."""
    return dataclasses.replace(params, **{
        attr: Interval.point(getattr(params, attr + "_nominal")) for _, attr in _PARAM_ROWS},
        decay=Interval.point(params.xi_nominal) * params.omega0_nominal)


def _metrics_rows(params, band, trace_specs, trace_params, p):
    specs = specs_from_params(params)
    mp_band = overshoot_from_band(band)
    try:
        xi_band = xi_from_overshoot(mp_band).render(p)
    except DomainError:
        # a wide box: the band's overshoot reaches 0 or 1, so xi is not defined
        xi_band = f"none: Mp {mp_band.render(p)} not in (0, 1)"
    nominal = specs_from_params(_nominal_view(params))
    rows = [(label, _fmt(getattr(nominal, attr).midpoint(), p),
             _fmt(getattr(trace_specs, attr).midpoint(), p) if trace_specs else "",
             getattr(specs, attr).render(p), Pipeline.FROM_PARAMS.value)
            for label, attr in _SPEC_ROWS]
    rows.insert(1, ("Mp", "", "", mp_band.render(p), Pipeline.FROM_BAND.value))
    dyn = [(label, _fmt(getattr(params, attr + "_nominal"), p),
            _fmt(getattr(trace_params, attr + "_nominal"), p) if trace_params else "",
            getattr(params, attr).render(p), "components")
           for label, attr in _PARAM_ROWS]
    dyn.insert(1, ("xi", "", "", xi_band, "band-inverted"))
    return rows, dyn


def _print_table(title, rows):
    print(title)
    header = ("quantity", "nominal", "trace", "interval", "pipeline")
    widths = [10, 14, 14, 30, 14]
    for row in (header, *rows):
        # a cell that fills its column still gets one space after it
        print("  " + "".join(f"{c:<{w - 1}} " for c, w in zip(row, widths)))


def _cmd_metrics(args) -> int:
    params, band = _band_from_args(args)
    trace_specs = None
    trace_params = None
    if args.trace:
        tr = normalize(load_trace(args.trace))
        trace_specs = measure_specs(tr)
        trace_params = identify(trace_specs.mp, trace_specs.tp)
    rows, dyn = _metrics_rows(params, band, trace_specs, trace_params, args.precision)
    _print_table("transient response specifications", rows)
    print()
    _print_table("system dynamics parameters", dyn)
    return EXIT_OK


def _cmd_identify(args) -> int:
    mp = _parse_interval_flag(args.mp, "--mp")
    p = args.precision
    if args.tp is None:
        rows = [("xi", xi_from_overshoot(mp), "")]
    else:
        params = identify(mp, _parse_interval_flag(args.tp, "--tp"))
        rows = [(label, getattr(params, attr), "" if attr == "xi" else " rad/s")
                for label, attr in _PARAM_ROWS]
    for label, x, unit in rows:
        print(f"{label} = {x.render(p)}{unit} (midpoint {_fmt(x.midpoint(), p)})")
    return EXIT_OK


def _cmd_check(args) -> int:
    _, band = _band_from_args(args)
    tr = normalize(load_trace(args.trace))
    report = check_enclosure(tr, band)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    verdicts_path = out / "verdicts.csv"
    write_verdicts_csv(report, verdicts_path)
    print(f"samples checked: {report.total} (excluded outside grid: {report.excluded})")
    print(f"fraction inside: {report.fraction_inside:.6f}")
    if report.worst_violation is not None:
        t_bad, dist = report.worst_violation
        print(f"worst violation: {dist:.4g} band-widths at t = {t_bad:.6g} s")
    print(f"wrote {verdicts_path}")
    return EXIT_OK if report.fraction_inside == 1.0 else EXIT_ENCLOSURE


def _cmd_demo_dependency(args) -> int:
    x = Interval(0.0, 1.0)
    factored = x * (1.0 - x)
    expanded = x - x * x
    print(f"X                = {x.render(6)}")
    print(f"X * (1 - X)      = {factored.render(6)}")
    print(f"X - X * X        = {expanded.render(6)}")
    print(f"factored form is a subset of the expanded form: {expanded.encloses(factored)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlcband",
        description="Guaranteed interval enclosures for the step response of a "
        "toleranced series RLC circuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="write band.csv and nominal.csv")
    metrics = sub.add_parser("metrics", help="report specs and parameters")
    check = sub.add_parser("check", help="verify trace enclosure")
    ident = sub.add_parser("identify", help="invert overshoot/peak time")
    for p in (simulate, metrics, check):
        p.add_argument("--config", required=True, help="circuit JSON config path")
        p.add_argument("--grid-points", type=int, default=2000, help="band grid size")
        p.add_argument("--t-end-mult", type=float, default=5.0,
                       help="grid end as a multiple of the nominal settling time")
    metrics.add_argument("--trace", help="trace CSV path")
    check.add_argument("--trace", required=True, help="trace CSV path")
    for p in (simulate, check):
        p.add_argument("--out", default=".", help="output directory")
    ident.add_argument("--mp", required=True,
                       help="overshoot fraction: 'x' or 'lo,hi'")
    ident.add_argument("--tp", help="peak time in seconds: 'x' or 'lo,hi'")
    for p in (metrics, ident):
        p.add_argument("--precision", type=int, default=4,
                       help="significant digits in reports")

    sub.add_parser("demo-dependency", help="interval dependency demonstration")
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "metrics": _cmd_metrics,
    "identify": _cmd_identify,
    "check": _cmd_check,
    "demo-dependency": _cmd_demo_dependency,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "grid_points", 100) < 100:
        parser.error("--grid-points must be at least 100")
    if getattr(args, "grid_points", 100) > MAX_GRID_POINTS:
        parser.error(f"--grid-points must be at most {MAX_GRID_POINTS}")
    if getattr(args, "precision", 0) < 0:
        parser.error("--precision must not be negative")
    if getattr(args, "precision", 0) > MAX_PRECISION:
        parser.error(f"--precision must be at most {MAX_PRECISION}")
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, IntervalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    sys.exit(main())
