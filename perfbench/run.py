#!/usr/bin/env python3
"""Benchmark of rlcband: three workloads, each judged by an independent oracle.

Run from the root of the repository:

    python3 perfbench/run.py --workload lab_check --seed 1 --seconds 15 --trace 0

Workloads: lab_check, scope_ingest, tolerance_sweep (see README.md). The
run builds its seeded inputs in a work directory, times the set-up of fresh
interpreters, runs the workload's loop in a worker process of its own, judges
every output with the oracle and prints, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``, named and with the units declared in BENCHMARK.json.
Failures are listed on standard error.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, set before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 12
SETUP_SAMPLES_TRACED = 6
WORKER_TIMEOUT_S = 150

# Per-layer metrics: span totals per traced operation (medians over operations).
SPAN_METRICS = ("circuit.step_response_band", "circuit.write_band_csv", "trace.load_trace",
                "trace.write_verdicts_csv", "trace.normalize", "trace.measure_specs",
                "trace.check_enclosure", "circuit.derive_params", "metrics.specs_from_params",
                "metrics.overshoot_from_band", "metrics.identify", "cli.check", "cli.simulate",
                "cli.metrics")
# name: (span, count, scale): span seconds per counted unit, over all traced operations.
RATE_METRICS = {
    "circuit.band_us_per_point": ("circuit.step_response_band", "circuit.band_points", 1e6),
    "trace.load_us_per_sample": ("trace.load_trace", "trace.samples_loaded", 1e6),
    "trace.write_verdicts_us_per_row": ("trace.write_verdicts_csv", "trace.verdict_rows", 1e6),
    "trace.check_ns_per_sample": ("trace.check_enclosure", "trace.check_input_samples", 1e9),
}
COUNT_METRICS = ("circuit.write_band_csv_bytes", "trace.write_verdicts_csv_bytes",
                 "trace.samples_checked", "trace.samples_flagged")
def child_env(root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_samples(root, config, n, split, untimed=0):
    """Wall times of n fresh set-up probes, after `untimed` ones, and their splits."""
    cmd = [sys.executable, str(HERE / "probe.py"), config] + (["--split"] if split else [])
    env = child_env(root)
    walls, splits = [], []
    for i in range(untimed + n):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True, timeout=60)
        if i >= untimed:
            walls.append(time.perf_counter() - t0)
            if split:
                splits.append(json.loads(done.stdout))
    return walls, splits


def run_worker(root, work, plan):
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                   env=child_env(root), stdout=subprocess.DEVNULL, check=True,
                   timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(result, setup, band_width):
    times = [r["seconds"] for r in result["ops"] if "seconds" in r]
    return {
        "setup_s": median(setup),
        "op_p50_s": median(times),
        "ops_per_s": len(times) / result["wall_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "band_mean_width": band_width,
    }


def per_layer(result, splits):
    returned = [r for r in result["ops"] if "seconds" in r]
    traced = [r for r in returned if r["traced"]]
    times = [r["spans"]["times"] for r in traced]
    counts = [r["spans"]["counts"] for r in traced]
    out = {f"{name}_s": median([t.get(name, 0.0) for t in times]) for name in SPAN_METRICS}
    out["cli.self_s"] = median([sum(v for k, v in t.items()
                                    if k.startswith("cli.") and k.endswith(".self"))
                                for t in times])
    for name, (span, count, scale) in RATE_METRICS.items():
        units = sum(c.get(count, 0) for c in counts)
        out[name] = scale * sum(t.get(span, 0.0) for t in times) / units if units else 0.0
    for name in COUNT_METRICS:
        out[name] = median([c.get(name, 0) for c in counts])
    for name in ("cli.import_s", "circuit.load_circuit_spec_s"):
        out[name] = median([s[name] for s in splits])
    out.update(result.get("kernel", {}))
    out["bench.tracing_overhead_s"] = (median([r["seconds"] for r in traced])
                                       - median([r["seconds"] for r in returned
                                                 if not r["traced"]]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rlcband" / "__init__.py").is_file():
        print(f"error: {root} holds no rlcband source tree (src/rlcband)", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work, root)
        # Set-up is sampled before and after the worker, so that a slow spell
        # of the machine weighs on setup_s no more than on the operations.
        n_setup = SETUP_SAMPLES_TRACED if args.trace else SETUP_SAMPLES
        setup, splits = setup_samples(root, workload.setup_config, n_setup // 2, args.trace,
                                      untimed=1)
        plan = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                "rounds": workload.rounds(), "sweep_points": workloads.SWEEP_POINTS}
        result = run_worker(root, work, plan)
        more = setup_samples(root, workload.setup_config, n_setup - n_setup // 2, args.trace)
        setup, splits = setup + more[0], splits + more[1]
        failures, band_width = workload.judge(result["ops"])
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = 0
    correct = True
    for op_id, (reasons, named) in failures.items():
        n = sum(1 for r in result["ops"] if r["id"] == op_id)
        failed += n
        correct &= named
        label = "known fault" if named else "FAILED"
        for reason in reasons:
            print(f"{label}: {args.workload}/{op_id} ({n} operations): {reason}", file=sys.stderr)
    values = per_layer(result, splits) if args.trace else end_to_end(result, setup, band_width)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(values))} are computed "
                         "or declared in BENCHMARK.json, but not both")
    print(json.dumps({"correct": correct, "attempted": len(result["ops"]), "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
