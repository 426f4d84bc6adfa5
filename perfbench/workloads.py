"""The three workloads: the operations each one runs and how its outputs are judged.

Each workload builds its seeded inputs, lists its rounds of operations for
worker.py, and judges the worker's log with the oracle. ``judge`` returns
``(failures, band_mean_width)`` where ``failures`` maps an operation id to
``(reasons, named)``; ``named`` is true when the failure is one of the two
known faults of rlcband that scope_ingest is built to show.
"""

from pathlib import Path

import numpy as np

import inputs
import oracle

LAB_POINTS = 20000
DEFAULT_POINTS = 2000      # rlcband's default band grid, used by scope_ingest
SWEEP_POINTS = 400
INTERPOLATION_FAULT = ("judged outside at the default grid: trace.check_enclosure "
                       "interpolates the band linearly between grid points")
PLATEAU_FAULT = "IndexError in _refine_baseline"


def _returned(log, op_id):
    return [r for r in log if r["id"] == op_id and "seconds" in r]


def _errors(log, op_id):
    """The distinct exceptions the operation raised, in any round."""
    return sorted({r["error"] for r in log if r["id"] == op_id and "error" in r})


def _repeatable(records, keys):
    """Reasons if the same operation gave different results in different rounds."""
    return [f"{key} differs between rounds" for key in keys
            if len({repr(r[key]) for r in records}) > 1]


def _read(reader, *args):
    try:
        return reader(*args), []
    except (OSError, ValueError) as exc:
        return None, [f"unreadable output: {exc}"]


class LabCheck:
    """The paper's experiment: simulate, then check a capture, at 20 000 points."""

    name = "lab_check"

    def __init__(self, seed, work, root):
        self.work = work
        self.pairs = inputs.lab(seed, work, root)
        self.setup_config = self.pairs[0]["config"]
        self.seed = seed

    def rounds(self):
        rounds = []
        for pair in self.pairs:
            out = str(self.work / f"out_{pair['id']}")
            grid = ["--grid-points", str(LAB_POINTS), "--out", out]
            rounds.append([{"id": pair["id"], "config": pair["config"], "out": out, "argv": [
                ["simulate", "--config", pair["config"]] + grid,
                ["check", "--config", pair["config"], "--trace", pair["capture"]] + grid]}])
        return rounds

    def judge(self, log):
        rng = np.random.default_rng([self.seed, 11])
        failures, widths = {}, {}
        for pair, (op,) in zip(self.pairs, self.rounds()):
            errors = _errors(log, pair["id"])
            if errors:
                failures[pair["id"]] = (errors, False)
                continue
            records = _returned(log, pair["id"])
            if not records:
                continue
            reasons = _repeatable(records, ("rc", "digest"))
            if records[0]["rc"] != [0, 0]:
                reasons.append(f"exit codes {records[0]['rc']}, expected [0, 0]")
            out = Path(op["out"])
            band, bad = _read(oracle.read_csv, out / "band.csv", "t,lower,nominal,upper")
            reasons += bad
            if band is not None:
                t, lower, nom, upper = band.T
                widths[pair["id"]] = float(np.mean(upper - lower))
                reasons += oracle.check_band(pair["circuit"], t, lower, nom, upper, rng, LAB_POINTS)
                curve, bad = _read(oracle.read_csv, out / "nominal.csv", "t,v")
                reasons += bad
                if curve is not None and not (np.array_equal(curve[:, 0], t)
                                              and np.array_equal(curve[:, 1], nom)):
                    reasons.append("nominal.csv differs from the band's nominal column")
            capture = oracle.read_csv(pair["capture"], "t,v")
            verdicts, bad = _read(oracle.read_csv, out / "verdicts.csv", "t,v,lower,upper,inside")
            reasons += bad
            if verdicts is not None:
                expect = oracle.samples_in_grid(capture[:, 0], pair["circuit"])
                reasons += oracle.check_verdicts(verdicts, expect)
            if reasons:
                failures[pair["id"]] = (reasons, False)
        return failures, widths.get("demo", float("nan"))


class ScopeIngest:
    """Deep captures: metrics --trace, then check at the default grid."""

    name = "scope_ingest"

    def __init__(self, seed, work, root):
        self.work = work
        self.captures = inputs.scope(seed, work)
        self.setup_config = self.captures[0]["config"]

    def rounds(self):
        ops = []
        for cap in self.captures:
            out = str(self.work / f"out_{cap['id']}")
            ops.append({"id": cap["id"], "config": cap["config"], "out": out, "argv": [
                ["metrics", "--config", cap["config"], "--trace", cap["capture"],
                 "--precision", "10"],
                ["check", "--config", cap["config"], "--trace", cap["capture"], "--out", out]]})
        return [ops]

    def judge(self, log):
        failures, widths = {}, []
        for cap, op in zip(self.captures, self.rounds()[0]):
            errors = _errors(log, cap["id"])
            if errors:
                named = all(e.startswith(PLATEAU_FAULT) for e in errors)
                failures[cap["id"]] = (errors, named)
                continue
            records = _returned(log, cap["id"])
            if not records:
                continue
            reasons = _repeatable(records, ("rc", "digest", "stdout"))
            rc_metrics, rc_check = records[0]["rc"]
            if rc_metrics != 0:
                reasons.append(f"metrics exit code {rc_metrics}, expected 0")
            reasons += oracle.check_trace_metrics(records[0]["stdout"][0], cap["xi"],
                                                  cap["omega0"], cap["dt"])
            verdicts, bad = _read(oracle.read_csv, Path(op["out"]) / "verdicts.csv",
                                  "t,v,lower,upper,inside")
            reasons += bad
            named = False
            if verdicts is not None:
                widths.append(float(np.mean(verdicts[:, 3] - verdicts[:, 2])))
                capture = oracle.read_csv(cap["capture"], "t,v")
                expect = oracle.samples_in_grid(capture[:, 0], cap["circuit"])
                reasons += oracle.check_verdicts(verdicts, expect, all_inside=False)
                flagged_t = verdicts[verdicts[:, 4] != 1.0, 0]
                # The capture is inside the box by construction. Over the first
                # grid interval the chord of the band's lower bound lies above
                # every in-box response, so samples flagged there, and only
                # there, with every other output right, are the interpolation
                # fault. A sample flagged later is a real loss of enclosure.
                first_step = oracle.grid_end(cap["circuit"]) / (DEFAULT_POINTS - 1)
                late = int(np.count_nonzero(flagged_t >= first_step))
                if flagged_t.size and not late and rc_check == 4 and not reasons:
                    reasons.append(f"in-box capture {INTERPOLATION_FAULT} "
                                   f"({flagged_t.size} of {len(verdicts)} samples flagged, "
                                   f"all before the first grid step)")
                    named = True
                elif flagged_t.size or rc_check != 0:
                    reasons.append(f"check exit code {rc_check} with {flagged_t.size} samples "
                                   f"flagged, {late} of them after the first grid step")
            if reasons:
                failures[cap["id"]] = (reasons, named)
        return failures, float(np.mean(widths)) if widths else float("nan")


class ToleranceSweep:
    """Many small problems through the library API, no I/O."""

    name = "tolerance_sweep"

    def __init__(self, seed, work, root):
        self.work = work
        self.circuits, self.configs = inputs.sweep(seed, work)
        self.setup_config = self.configs[0]
        self.seed = seed

    def rounds(self):
        return [[{"id": i, "config": config, "band": str(self.work / f"band{i}.npy")}
                 for i, config in enumerate(self.configs)]]

    def judge(self, log):
        rng = np.random.default_rng([self.seed, 13])
        failures, widths = {}, []
        for op, circuit in zip(self.rounds()[0], self.circuits):
            i = op["id"]
            errors = _errors(log, i)
            if errors:
                failures[i] = (errors, False)
                continue
            records = _returned(log, i)
            if not records:
                continue
            reasons = _repeatable(records, ("digest",))
            values = next(r["values"] for r in records if "values" in r)
            t, lower, nom, upper = np.load(op["band"])
            widths.append(float(np.mean(upper - lower)))
            reasons += oracle.check_params(circuit, values["xi"], values["omega0"],
                                           values["omegad"], rng)
            reasons += oracle.check_band(circuit, t, lower, nom, upper, rng, SWEEP_POINTS)
            reasons += oracle.check_specs(circuit, values, t, rng)
            if reasons:
                failures[i] = (reasons, False)
        return failures, float(np.mean(widths))


WORKLOADS = {w.name: w for w in (LabCheck, ScopeIngest, ToleranceSweep)}
