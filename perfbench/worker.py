"""One workload's timed loop, in a process of its own.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) lists the rounds of operations. The worker runs
one untimed warm-up operation, then whole rounds until the run length has
passed, and writes every operation's time, exit codes, printed output and
output digest to RESULT.json. It judges nothing: run.py does that with the
oracle once this process has ended, so the oracle's memory never counts in
this process's peak resident set.

In a traced run every second operation is traced: the calls rlcband.cli
makes into the library, and the library calls tolerance_sweep makes itself,
go through wrappers that time them. Nothing inside rlcband is instrumented.
"""

import contextlib
import collections
import hashlib
import io
import json
import os
import resource
import sys
import time
import timeit
from pathlib import Path

import numpy as np

from rlcband import circuit, cli, metrics
from rlcband.elementary import icos, iexp, isin, isqrt
from rlcband.interval import Interval
from rlcband.rounding import add_up, mul_up

# Library names rlcband.cli calls; in a traced run each becomes a span.
CLI_CALLS = ("load_circuit_spec", "derive_params", "default_time_grid", "step_response_band",
             "write_band_csv", "load_trace", "normalize", "measure_specs", "check_enclosure",
             "write_verdicts_csv", "specs_from_params", "overshoot_from_band",
             "xi_from_overshoot", "identify")
SWEEP_CALLS = {"derive_params": circuit, "default_time_grid": circuit,
               "step_response_band": circuit, "specs_from_params": metrics,
               "overshoot_from_band": metrics, "identify": metrics}
INTERVAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__")
ELEMENTARY = ("iexp", "icos", "isin", "isqrt")


# Counts taken after a traced call returns, outside its span's clock.
def _after_band(counts, args, result):
    counts["circuit.band_points"] += len(args[1])


def _after_write_band(counts, args, result):
    counts["circuit.write_band_csv_bytes"] += os.path.getsize(args[1])


def _after_load(counts, args, result):
    counts["trace.samples_loaded"] += result.n


def _after_check(counts, args, result):
    counts["trace.check_input_samples"] += args[0].n
    counts["trace.samples_checked"] += result.total
    counts["trace.samples_flagged"] += result.total - result.inside


def _after_write_verdicts(counts, args, result):
    counts["trace.verdict_rows"] += args[0].total
    counts["trace.write_verdicts_csv_bytes"] += os.path.getsize(args[1])


AFTER = {"step_response_band": _after_band, "write_band_csv": _after_write_band,
         "load_trace": _after_load, "check_enclosure": _after_check,
         "write_verdicts_csv": _after_write_verdicts}


class Spans:
    """Inclusive and self wall time of traced calls, per operation."""

    def __init__(self):
        self.times = None   # span name -> seconds, while an operation is traced
        self.counts = None
        self._covered = []  # time covered by child spans, one entry per open span

    def begin(self):
        self.times, self.counts = {}, collections.defaultdict(int)

    def end(self):
        out = {"times": self.times, "counts": dict(self.counts)}
        self.times = self.counts = None
        return out

    def call(self, name, fn, *args, after=None, **kwargs):
        if self.times is None:
            return fn(*args, **kwargs)
        self._covered.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            covered = self._covered.pop()
            if self._covered:
                self._covered[-1] += dt
            self.times[name] = self.times.get(name, 0.0) + dt
            self.times[name + ".self"] = self.times.get(name + ".self", 0.0) + dt - covered
        if after is not None:
            after(self.counts, args, result)
        return result

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, after=after, **kwargs)
        return traced


def _span_name(fn, name):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"


def _describe(exc):
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    where = tb.tb_frame.f_code.co_name if tb is not None else "?"
    return f"{type(exc).__name__} in {where}: {exc}"


def _digest_dir(path):
    h = hashlib.sha1()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        h.update(Path(path, name).read_bytes())
    return h.hexdigest()


class CliOps:
    """lab_check and scope_ingest: each operation is a sequence of cli.main calls."""

    def __init__(self, spans):
        self.spans = spans
        if spans is not None:
            for name in CLI_CALLS:
                fn = getattr(cli, name)
                setattr(cli, name, spans.wrap(_span_name(fn, name), fn, AFTER.get(name)))

    def run(self, op):
        rcs, printed = [], []
        for argv in op["argv"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if self.spans is None:
                    rcs.append(cli.main(argv))
                else:
                    rcs.append(self.spans.call(f"cli.{argv[0]}", cli.main, argv))
            printed.append(buf.getvalue())
        return {"rc": rcs, "stdout": printed}

    def post(self, op, out, first):
        out["digest"] = _digest_dir(op["out"])
        return out


class SweepOps:
    """tolerance_sweep: each operation is one circuit through the library API."""

    def __init__(self, spans, plan):
        self.points = plan["sweep_points"]
        self.specs = {op["id"]: circuit.load_circuit_spec(op["config"])
                      for op in plan["rounds"][0]}
        self.f = {}
        for name, module in SWEEP_CALLS.items():
            fn = getattr(module, name)
            self.f[name] = fn if spans is None else spans.wrap(
                _span_name(fn, name), fn, AFTER.get(name))

    def run(self, op):
        f = self.f
        params = f["derive_params"](self.specs[op["id"]])
        specs = f["specs_from_params"](params)
        band = f["step_response_band"](params, f["default_time_grid"](params, self.points))
        mp_band = f["overshoot_from_band"](band)
        ident = f["identify"](specs.mp, specs.tp)
        return params, specs, band, mp_band, ident

    def post(self, op, out, first):
        params, specs, band, mp_band, ident = out
        values = {
            "xi": [params.xi.lo, params.xi.hi], "omega0": [params.omega0.lo, params.omega0.hi],
            "omegad": [params.omegad.lo, params.omegad.hi], "mp": [specs.mp.lo, specs.mp.hi],
            "tp": [specs.tp.lo, specs.tp.hi], "mp_band": [mp_band.lo, mp_band.hi],
            "ident_xi": [ident.xi.lo, ident.xi.hi],
            "ident_omegad": [ident.omegad.lo, ident.omegad.hi],
        }
        h = hashlib.sha1(repr(sorted(values.items())).encode())
        for column in (band.t, band.lower, band.nominal, band.upper):
            h.update(column.tobytes())
        record = {"digest": h.hexdigest()}
        if first:
            # The band goes to a file, so that it does not weigh on this
            # process's peak resident set.
            np.save(op["band"], np.stack((band.t, band.lower, band.nominal, band.upper)))
            record["values"] = values
        return record


def kernel_params(plan):
    """Interval parameters of the workload's first circuit."""
    op = plan["rounds"][0][0]
    return circuit.derive_params(circuit.load_circuit_spec(op["config"]))


def kernel_costs(params):
    """Per-call cost of the band's kernel operations at band-typical arguments.

    The arguments are those of the band at one fifth of the default grid, where
    the phase interval is already wider than the sine's period for most
    circuits, as at most points of a band.
    """
    one = Interval.point(1.0)
    tt = Interval.point(0.2 * float(circuit.default_time_grid(params)[-1]))
    decay = params.xi * params.omega0
    phase = params.omegad * tt
    radicand = one - params.xi * params.xi
    root = isqrt(radicand)
    term = (params.xi / root) * isin(phase)
    cases = {
        "interval.mul_us": ("a * b", {"a": decay, "b": tt}, 1e6),
        "interval.add_us": ("a + b", {"a": icos(phase), "b": term}, 1e6),
        "interval.div_us": ("a / b", {"a": params.xi, "b": root}, 1e6),
        "elementary.iexp_us": ("f(a)", {"f": iexp, "a": -(decay * tt)}, 1e6),
        "elementary.icos_us": ("f(a)", {"f": icos, "a": phase}, 1e6),
        "elementary.isin_us": ("f(a)", {"f": isin, "a": phase}, 1e6),
        "elementary.isqrt_us": ("f(a)", {"f": isqrt, "a": radicand}, 1e6),
        "rounding.mul_up_ns": ("f(a, b)", {"f": mul_up, "a": decay.hi, "b": tt.hi}, 1e9),
        "rounding.add_up_ns": ("f(a, b)", {"f": add_up, "a": 1.0, "b": term.hi}, 1e9),
    }
    out = {}
    for name, (stmt, env, scale) in cases.items():
        timer = timeit.Timer(stmt, globals=env)
        number = 2000
        out[name] = scale * min(timer.repeat(repeat=7, number=number)) / number
    return out


def kernel_counts(params, points=1000):
    """Interval operator and elementary calls per band point, counted by wrapping."""
    counts = {"interval": 0, "elementary": 0}

    def counting(fn, kind):
        def counted(*args):
            counts[kind] += 1
            return fn(*args)
        return counted

    saved_ops = {name: Interval.__dict__[name] for name in INTERVAL_OPS}
    saved_fns = {name: getattr(circuit, name) for name in ELEMENTARY}
    try:
        for name, fn in saved_ops.items():
            setattr(Interval, name, counting(fn, "interval"))
        for name, fn in saved_fns.items():
            setattr(circuit, name, counting(fn, "elementary"))
        grid = circuit.default_time_grid(params, points=points)
        circuit.step_response_band(params, grid)
    finally:
        for name, fn in saved_ops.items():
            setattr(Interval, name, fn)
        for name, fn in saved_fns.items():
            setattr(circuit, name, fn)
    return {"interval.ops_per_band_point": counts["interval"] / points,
            "elementary.calls_per_band_point": counts["elementary"] / points}


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    spans = Spans() if plan["trace"] else None
    if plan["workload"] == "tolerance_sweep":
        ops = SweepOps(spans, plan)
    else:
        ops = CliOps(spans)
    rounds = plan["rounds"]
    warm = rounds[0][0]
    try:
        ops.post(warm, ops.run(warm), first=False)
    except (Exception, SystemExit):
        pass  # the same operation fails again in the loop, where it is recorded

    log = []
    seen = set()
    n_rounds = 0
    start = time.perf_counter()
    while True:
        for op in rounds[n_rounds % len(rounds)]:
            traced = spans is not None and len(log) % 2 == 1
            record = {"id": op["id"], "traced": traced}
            if traced:
                spans.begin()
            t0 = time.perf_counter()
            try:
                out = ops.run(op)
            except (Exception, SystemExit) as exc:  # a failed operation is data
                record["error"] = _describe(exc)
            else:
                record["seconds"] = time.perf_counter() - t0
            finally:
                if traced:
                    record["spans"] = spans.end()
            if "seconds" in record:
                record.update(ops.post(op, out, first=op["id"] not in seen))
                seen.add(op["id"])
            log.append(record)
        n_rounds += 1
        if time.perf_counter() - start >= plan["seconds"]:
            break
    wall = time.perf_counter() - start
    result = {"ops": log, "wall_s": wall, "rounds": n_rounds,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spans is not None:
        params = kernel_params(plan)
        result["kernel"] = {**kernel_costs(params), **kernel_counts(params)}
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
