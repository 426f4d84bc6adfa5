#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench for one workload.

Usage:

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload tolerance_sweep [--metric op_p50_s] --pairs 10 --seed 701

DIR is the root of a checkout (each runs its own perfbench/run.py, from its
own root). Pair i runs both sides with seed SEED + i; odd pairs run the
parent first, even pairs the change first. The script prints each pair's
values of the metric (of every end-to-end metric without --metric) and its
failed operations, and each side's median and quartiles of every metric the
runs report.

Before the first pair and after the last, it times perfbench/README's
host-speed loop (the sum of i * i for i below 300 000) in three 1 s windows
and prints the loops per second of each. The host runs at two speeds: when
the two readings differ widely, the pairs may span a change of speed and
compare the host, not the code.

It then prints one no-regression verdict per end-to-end metric of
BENCHMARK.json that the runs report (those of a --trace 0 run):

* worse: the change's median is worse than the parent's by more than the
  metric's bound, a fraction of the parent's median;
* unresolved: it is not, but the parent's interquartile range is wider than
  the bound, and not every change run beats every parent run;
* ok: otherwise.

With --metric it also prints how many pairs the change wins on that metric
and whether the gain rule holds there: the change wins at least 9 in 10
pairs (ties count for neither) and its median beats the parent's by more
than the parent's interquartile range. The exit status is 1 on any worse
verdict, or when the gain rule on --metric does not hold, else 0. Whether
lower or higher is better comes from the change's BENCHMARK.json.

Each perfbench run gets a fresh, empty bytecode cache of its own: the
script unsets PYTHONDONTWRITEBYTECODE and points PYTHONPYCACHEPREFIX at a
temporary directory, removed after the run. So perfbench's untimed first
set-up probe compiles and caches the same modules on both sides, and
setup_s compares cached imports, whatever __pycache__ either checkout
holds. Nothing under either checkout is written or changed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def run_side(root, workload, seed, seconds, trace):
    """One perfbench run in the checkout at root, with a fresh bytecode
    cache; its JSON report."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory() as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=30 * seconds + 600)
    if done.returncode != 0:
        raise SystemExit(f"error: {root}: perfbench exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_speed(windows=3):
    """Loops per second of the host-speed loop, one reading per 1 s window."""
    speeds = []
    for _ in range(windows):
        loops = 0
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < 1.0:
            sum(i * i for i in range(300_000))
            loops += 1
        speeds.append(loops / elapsed)
    return speeds


def print_host_speed(when):
    speeds = host_speed()
    print(f"host speed {when}: " + ", ".join(f"{v:.1f}" for v in speeds)
          + " loops/s", flush=True)
    return float(np.median(speeds))


def quartiles(values):
    return tuple(float(q) for q in np.percentile(values, [25, 50, 75]))


def verdict(parent, change, sign, bound):
    """ok, worse or unresolved for one metric's parent and change runs."""
    p25, p50, p75 = quartiles(parent)
    c50 = quartiles(change)[1]
    if sign * (p50 - c50) > bound * abs(p50):
        return "worse"
    if p75 - p25 > bound * abs(p50) and not all(
            sign * (c - p) > 0.0 for c in change for p in parent):
        return "unresolved"
    return "ok"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout root")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", help="metric the gain rule is tested on")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    better = {m["name"]: m["better"] for m in declared[kind]}
    if args.metric is not None and args.metric not in better:
        parser.error(f"{args.metric} is not a {kind} metric of BENCHMARK.json")
    shown = [args.metric] if args.metric else list(better)

    before = print_host_speed("before the pairs")
    reports = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            sides.reverse()
        for name, root in sides:
            report = run_side(root, args.workload, seed, args.seconds, args.trace)
            reports[name].append(report)
            flags = "" if report["correct"] else " (incorrect)"
            values = ", ".join(f"{m} {report['metrics'][m]['value']:.6g}"
                               for m in shown if m in report["metrics"])
            print(f"pair {i + 1} seed {seed} {name}: {values}, failed "
                  f"{report['failed']}/{report['attempted']}{flags}", flush=True)

    after = print_host_speed("after the pairs")
    print(f"host speed change: {100.0 * (after - before) / before:+.1f} % (medians)")

    def runs(name, metric):
        return [r["metrics"][metric]["value"] for r in reports[name]]

    for metric in reports["parent"][0]["metrics"]:
        both = [quartiles(runs(name, metric)) for name in ("parent", "change")]
        print(f"{metric}: " + " -> ".join(f"{q50:.6g} ({q25:.6g}/{q75:.6g})"
                                          for q25, q50, q75 in both))
    status = 0
    for m in declared["end_to_end"]:
        if m["name"] in reports["parent"][0]["metrics"]:
            sign = -1.0 if m["better"] == "lower" else 1.0
            found = verdict(runs("parent", m["name"]), runs("change", m["name"]), sign,
                            m["bound"])
            print(f"no-regression {m['name']} (bound {m['bound']:.0%}): {found}")
            status |= found == "worse"
    if args.metric is None:
        return status

    sign = -1.0 if better[args.metric] == "lower" else 1.0
    parent = runs("parent", args.metric)
    change = runs("change", args.metric)
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p25, p50, p75 = quartiles(parent)
    c25, c50, c75 = quartiles(change)
    print(f"parent: median {p50:.6g}, quartiles {p25:.6g}/{p75:.6g}")
    print(f"change: median {c50:.6g}, quartiles {c25:.6g}/{c75:.6g} "
          f"({100.0 * (c50 - p50) / p50:+.1f} %)")
    need = math.ceil(0.9 * args.pairs)
    holds = wins >= need and sign * (c50 - p50) > p75 - p25
    print(f"change better in {wins} of {args.pairs} pairs (need {need}); median gap "
          f"{abs(c50 - p50):.6g} against parent IQR {p75 - p25:.6g}: gain rule "
          f"{'holds' if holds else 'does not hold'}")
    return 1 if status or not holds else 0


if __name__ == "__main__":
    sys.exit(main())
