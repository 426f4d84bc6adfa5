#!/usr/bin/env python3
"""Self-test of the oracle: it passes rlcband's real outputs and fails faked ones.

Run from the root of the repository:

    python3 perfbench/selftest.py

It builds the demo circuit's 20 000-point band and the verdicts for the
bundled capture with rlcband, checks that the oracle accepts them, then
injects three faults and checks that the oracle rejects each one: the band
shrunk inward by 1e-6, the nominal curve shifted by 1e-9, and one verdict row
flipped. Exit status 0 means every case behaved; anything else is printed.
"""

import os
import shutil
import sys
from pathlib import Path

import numpy as np

import inputs
import oracle
import workloads


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from rlcband import (check_enclosure, default_time_grid, derive_params, load_circuit_spec,
                         load_trace, normalize, step_response_band, write_verdicts_csv)

    params = derive_params(load_circuit_spec(root / "data" / "demo_circuit.json"))
    band = step_response_band(params, default_time_grid(params, points=workloads.LAB_POINTS))
    trace_path = root / "data" / "experiment_trace.csv"
    report = check_enclosure(normalize(load_trace(trace_path)), band)
    work = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        write_verdicts_csv(report, work / "verdicts.csv")
        verdicts = oracle.read_csv(work / "verdicts.csv", "t,v,lower,upper,inside")
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    capture_t = oracle.read_csv(trace_path, "t,v")[:, 0]
    expect_rows = oracle.samples_in_grid(capture_t, inputs.DEMO)

    def band_check(lower, nominal, upper):
        rng = np.random.default_rng(0)
        return oracle.check_band(inputs.DEMO, band.t, lower, nominal, upper, rng,
                                 workloads.LAB_POINTS)

    flipped = verdicts.copy()
    flipped[len(flipped) // 2, 4] = 1.0 - flipped[len(flipped) // 2, 4]
    cases = [
        ("genuine band", band_check(band.lower, band.nominal, band.upper), False),
        ("band shrunk inward by 1e-6",
         band_check(band.lower + 1e-6, band.nominal, band.upper - 1e-6), True),
        ("nominal curve shifted by 1e-9",
         band_check(band.lower, band.nominal + 1e-9, band.upper), True),
        ("genuine verdicts", oracle.check_verdicts(verdicts, expect_rows), False),
        ("one verdict row flipped", oracle.check_verdicts(flipped, expect_rows), True),
    ]
    ok = True
    for name, reasons, should_fail in cases:
        behaved = bool(reasons) == should_fail
        ok &= behaved
        verdict = "rejected" if reasons else "accepted"
        print(f"{'ok  ' if behaved else 'FAIL'} {name}: {verdict}")
        for reason in reasons:
            print(f"       {reason}")
    if not ok:
        print("oracle self-test FAILED: a check is vacuous or rejects real output")
        return 1
    print("oracle self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
