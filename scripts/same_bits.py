#!/usr/bin/env python3
"""Compare the outputs of two checkouts of rlcband, bit for bit.

Usage:

    python3 scripts/same_bits.py --parent DIR --change DIR

DIR is the root of a checkout. Each side runs in its own subprocesses with
its own ``src`` on PYTHONPATH and its own ``data/`` inputs; everything they
write goes to a temporary directory, which is removed afterwards. The
script prints one line per artefact, ``equal`` or ``different``, and exits 1
if any artefact differs, else 0. The artefacts:

* ``simulate`` on the demo circuit at 2 000, 5 000, 12 289 and 20 000 grid
  points: ``band.csv`` and ``nominal.csv``. On two CPUs the 12 289 rows
  are two parts split at row 6 144, off a 4 096-row block seam, and the
  5 000 rows are one part, where the former split rule (a part per 6 144
  values) made two;
* ``check`` of the bundled trace at both grids: ``verdicts.csv``, and the
  exit code with stdout;
* ``check`` of a deep capture at the default grid: ``verdicts.csv`` (99 201
  rows, enough for ``write_csv`` to split them over forked children), and the
  exit code with stdout. The capture is the bundled trace's closed form
  sampled 8 times finer (107 201 samples), with no randomness; this script
  writes it, the same for both sides;
* the exit code and stdout of ``metrics --trace ... --precision 17`` and of
  two ``identify --precision 17`` runs, one with ``--tp`` and one without;
* one SHA-1 per quantity of a seeded sweep of 128 toleranced circuits:
  the parameters, each formula spec, the 400-point band and its nominal
  curve, the band overshoot and ``identify`` from the formula Mp and tp. The
  parameters are hashed by all their fields: the intervals xi, omega0,
  omegad and decay, and the three nominals;
* one SHA-1 per scalar directed op and direction (``add``/``mul``/``div``/
  ``sqrt``, down and up: eight in all) on 90 000 operand pairs that
  include +-0, subnormals, +-max and +-inf;
* one SHA-1 per scalar interval function (``iexp``, ``iln``, ``isqrt``,
  ``icos``, ``isin``, ``iacos``) and one for
  ``Interval.from_nominal_tolerance``, on seeded inputs: degenerate, narrow
  and wide intervals, ``ln`` near 0 and 1, ``acos`` near +-1, trig near
  multiples of pi, nominals of both signs and zero;
* one SHA-1 of ``write_csv``'s bytes for a seeded 100 000-row table of three
  ``%.17g`` columns and a bool column: raw 64-bit patterns, one value in ten
  a special one (+-0, +-inf, NaN, subnormals, +-max, ties, and the powers of
  ten from 1e-31 to 1e31 and the edges of the text kernel's fast range, each
  with both neighbours), then seeded flags written 0 or 1. On two CPUs it is
  written in two parts.

NaN results count as one value, and an operation that raises counts as its
exception's name. The hashing code is this script's, on both sides: the
sweep subprocesses import it from this script's directory.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GRIDS = (2000, 20000)
# simulate only, on two CPUs: 5 000 rows in one part, where the former split
# rule made two, and 12 289 rows in two parts split at row 6 144, mid-block
SIMULATE_GRIDS = (5000, 12289)
# write_csv's text kernel: rows of the edge table, two parts on two CPUs
EDGE_ROWS = 100_000
SWEEP_CIRCUITS = 128
SWEEP_POINTS = 400
SWEEP_SEED = 17
IDENTIFY_ARGS = (
    ("--mp", "0.6656,0.9230", "--tp", "3.1e-4,3.2e-4"),
    ("--mp", "0.05,0.6"),
)


def _sweep_circuits():
    """Underdamped circuits: L in [1 mH, 1 H], C in [1 nF, 10 uF] (log-uniform),
    nominal xi in [0.02, 0.5], winding 2-20 % of the series resistance, each
    tolerance in [1 %, 20 %]."""
    from rlcband.circuit import CircuitSpec

    rng = np.random.default_rng(SWEEP_SEED)
    n = SWEEP_CIRCUITS
    l = 10.0 ** rng.uniform(-3.0, 0.0, n)
    c = 10.0 ** rng.uniform(-9.0, -5.0, n)
    xi = rng.uniform(0.02, 0.5, n)
    share = rng.uniform(0.02, 0.2, n)
    tol = rng.uniform(0.01, 0.2, (4, n))
    r_total = 2.0 * xi * np.sqrt(l / c)
    return [CircuitSpec(r_total[i] * (1.0 - share[i]), tol[0, i], r_total[i] * share[i], tol[1, i],
                        l[i], tol[2, i], c[i], tol[3, i]) for i in range(n)]


def _intervals(*xs):
    return " ".join(f"{x.lo.hex()},{x.hi.hex()}" for x in xs)


def _params_text(p):
    return (_intervals(p.xi, p.omega0, p.omegad, p.decay) + " "
            + " ".join(float(v).hex() for v in (p.xi_nominal, p.omega0_nominal, p.omegad_nominal)))


def sweep_digests():
    """{quantity: SHA-1} over the sweep circuits, in this process's rlcband."""
    from rlcband.circuit import default_time_grid, derive_params, step_response_band
    from rlcband.metrics import identify, overshoot_from_band, specs_from_params

    hashes = {}

    def record(name, compute):
        try:
            text = compute()
        except Exception as exc:  # the error is an output too
            text = type(exc).__name__
        hashes.setdefault(name, hashlib.sha1()).update(text.encode() + b"\n")

    for spec in _sweep_circuits():
        params = derive_params(spec)  # every sweep circuit is underdamped
        record("params", lambda: _params_text(params))
        specs = specs_from_params(params)
        for attr in ("mp", "ts_rise", "tp", "ta"):
            record(f"formula {attr}", lambda: _intervals(getattr(specs, attr)))
        band = step_response_band(params, default_time_grid(params, SWEEP_POINTS))
        record("band", lambda: (band.lower.tobytes() + band.upper.tobytes()).hex())
        record("nominal", lambda: (band.t.tobytes() + band.nominal.tobytes()).hex())
        record("band Mp", lambda: _intervals(overshoot_from_band(band)))
        record("identify", lambda: _params_text(identify(specs.mp, specs.tp)))
    return {f"sweep {name}": h.hexdigest() for name, h in hashes.items()}


def _special_values():
    """+-0, +-inf, NaN, the extremes, the kernel's fast-range edges and every
    power of ten from 1e-31 to 1e31 with both neighbours, and true ties."""
    edges = np.array([5e-324, np.finfo(float).tiny, 1e-30, 1e30, 2.0**53,
                      *(float(f"1e{k}") for k in range(-31, 32))])
    values = [0.0, np.inf, np.nan, np.finfo(float).max, 1e15 + 0.25, 1e15 + 0.75, 3 * 2.0**-24,
              *np.nextafter(edges, 0.0), *edges, *np.nextafter(edges, np.inf)]
    return np.array(values + [-v for v in values])


def kernel_edges_digest():
    """{"write_csv kernel edges": SHA-1} of write_csv's bytes, in this
    process's rlcband, for a seeded EDGE_ROWS-row table of three %.17g
    columns, raw 64-bit patterns with one value in ten replaced by a special
    one, and a column of seeded flags."""
    from rlcband.circuit import write_csv

    rng = np.random.default_rng(SWEEP_SEED)
    columns = rng.integers(0, 2**64, (3, EDGE_ROWS), dtype=np.uint64).view(np.float64)
    special = _special_values()
    columns.flat[rng.integers(0, columns.size, columns.size // 10)] = rng.choice(special, columns.size // 10)
    flags = rng.integers(0, 2, EDGE_ROWS).astype(bool)
    path = Path("kernel_edges.csv")
    write_csv((*columns, flags), [(path, "a,b,c,flag\n", range(4), "\n")])
    digest = hashlib.sha1(path.read_bytes()).hexdigest()
    path.unlink()
    return {"write_csv kernel edges": digest}


def _operands():
    """300 doubles: +-0, +-smallest subnormal, +-smallest normal, +-max, +-inf,
    a few exact small values and random ones over every binary exponent."""
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, tiny, np.finfo(float).tiny, np.finfo(float).max, np.inf, 1.0, 3.0, 0.1, 2.5]
    rng = np.random.default_rng(SWEEP_SEED)
    n = 300 - 2 * len(special)
    random = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n))
    random *= rng.choice([-1.0, 1.0], n)
    return [float(v) for v in special] + [-float(v) for v in special] + random.tolist()


def _hex(r):
    return "nan" if r != r else r.hex()


def scalar_ops_digests():
    """{"scalar OP DIRECTION": SHA-1} of each directed op on every operand pair."""
    from rlcband import rounding

    values = _operands()
    hashes = {}
    for name in ("add", "mul", "div", "sqrt"):
        pairs = [(a,) for a in values] if name == "sqrt" else [(a, b) for a in values for b in values]
        for direction in ("down", "up"):
            op = getattr(rounding, f"{name}_{direction}")
            h = hashes[f"scalar {name} {direction}"] = hashlib.sha1()
            for args in pairs:
                try:
                    text = _hex(op(*args))
                except (ArithmeticError, ValueError) as exc:
                    text = type(exc).__name__
                h.update(text.encode() + b"\n")
    return {name: h.hexdigest() for name, h in hashes.items()}


def _around(rng, centres, rel, width=0.0, ulps=8):
    """(lo, hi) pairs per centre c: [c, c], c widened 1..ulps ulp each way,
    and c widened by up to rel * |c| + width each way."""
    out = []
    for c in centres:
        c = float(c)
        n = int(rng.integers(1, ulps + 1))
        lo = hi = c
        for _ in range(n):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        w = float(rng.uniform(0.0, 1.0)) * (rel * abs(c) + width)
        out += [(c, c), (lo, hi), (c - w, c + w)]
    return out


def _elementary_inputs():
    """{function name: [(lo, hi), ...]} of seeded argument intervals."""
    rng = np.random.default_rng(SWEEP_SEED)
    n = 200
    near_one = 1.0 - 10.0 ** rng.uniform(-17.0, -1.0, n)
    multiples = rng.integers(-200, 201, n) * math.pi + rng.uniform(-1e-12, 1e-12, n)
    trig = [*multiples, *(rng.integers(-200, 201, n) * (math.pi / 2)),
            *rng.uniform(-1e6, 1e6, n), 2.0**52, -(2.0**52), 0.0]
    return {
        "iexp": _around(rng, [*rng.uniform(-746.0, 711.0, n), 0.0, -745.2, 709.78, 709.79], 0.0, 2.0),
        "iln": _around(rng, [*10.0 ** rng.uniform(-323.0, -1.0, n), *near_one, *(2.0 - near_one),
                             *10.0 ** rng.uniform(-300.0, 300.0, n), 1.0, 0.0, -1.0], 0.5),
        "isqrt": _around(rng, [*10.0 ** rng.uniform(-323.0, 300.0, n), 0.0, 0.25, 4.0, 9.0, -1.0], 0.5),
        "icos": _around(rng, trig, 0.0, 4.0),
        "isin": _around(rng, trig, 0.0, 4.0),
        "iacos": _around(rng, [*near_one, *-near_one, *rng.uniform(-1.0, 1.0, n),
                               1.0, -1.0, 0.0, 1.5, -1.5, 2.5], 0.0, 0.5),
    }


def elementary_digests():
    """{name: SHA-1} of each scalar interval function and of
    Interval.from_nominal_tolerance, on seeded inputs."""
    import rlcband
    from rlcband import Interval

    def text(f, *args):
        try:
            y = f(*args)
        except Exception as exc:  # the error is an output too
            return type(exc).__name__
        return f"{_hex(y.lo)},{_hex(y.hi)}"

    out = {}
    for name, pairs in _elementary_inputs().items():
        f = getattr(rlcband, name)
        lines = [text(f, Interval(lo, hi)) for lo, hi in pairs]
        out[name] = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    rng = np.random.default_rng(SWEEP_SEED)
    n = 2000
    nominals = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n)) * rng.choice([-1.0, 1.0], n)
    nominals = [*nominals.tolist(), *rng.uniform(-10.0, 10.0, 200).tolist(), 0.0, -0.0, 1.0, -1.0,
                float(np.finfo(float).max), -float(np.finfo(float).max)]
    tols = [*rng.uniform(0.0, 1.0, len(nominals) - 6).tolist(), 0.0, 0.05, 0.5, 1.0 - 2.0**-53, 0.0, 0.2]
    lines = [text(Interval.from_nominal_tolerance, v, tol) for v, tol in zip(nominals, tols)]
    out["Interval.from_nominal_tolerance"] = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    return out


# The closed form of scripts/generate_demo_trace.py: xi, omegad, the step
# and offset in volts, and the capture's start and end in seconds.
DEMO_XI = 0.10727654785269201
DEMO_OMEGA_D = 9951.196
DEMO_SCALE_V, DEMO_OFFSET_V = 2.0, 0.2
DEMO_T_PRE, DEMO_T_POST = 2e-3, 24.8e-3
DEEP_DT = 0.25e-6


def write_deep_capture(path):
    """Write the deep capture, a t,v trace CSV of the demo's closed form."""
    t = np.arange(-round(DEMO_T_PRE / DEEP_DT), round(DEMO_T_POST / DEEP_DT) + 1) * DEEP_DT
    after = t >= 0.0
    ta = t[after]
    root = math.sqrt(1.0 - DEMO_XI * DEMO_XI)
    omega0 = DEMO_OMEGA_D / root
    v = np.full(t.size, DEMO_OFFSET_V)
    v[after] += DEMO_SCALE_V * (1.0 - np.exp(-DEMO_XI * omega0 * ta) * (
        np.cos(DEMO_OMEGA_D * ta) + DEMO_XI / root * np.sin(DEMO_OMEGA_D * ta)))
    with open(path, "w", newline="") as fh:
        fh.write("t,v\n" + "".join(f"{a:.10g},{b:.10g}\n" for a, b in zip(t.tolist(), v.tolist())))
    return path


def _python(root, code, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(Path(__file__).parent)]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def _cli(root, work, *args):
    """Exit code and stdout of one rlcband command."""
    done = _python(root, "from rlcband.cli import run; run()", *args, cwd=work)
    return f"exit {done.returncode}\n{done.stdout}"


def _read(path):
    return path.read_bytes() if path.exists() else None


def artefacts(root, work):
    """{artefact name: text or bytes} of the checkout at root, written under work."""
    root = Path(root).resolve()
    work.mkdir()
    config = str(root / "data" / "demo_circuit.json")
    trace = str(root / "data" / "experiment_trace.csv")
    out = {}
    for points in (*GRIDS, *SIMULATE_GRIDS):
        grid = ("--config", config, "--grid-points", str(points))
        _cli(root, work, "simulate", *grid, "--out", f"sim{points}")
        for name in ("band.csv", "nominal.csv"):
            out[f"simulate {points} {name}"] = _read(work / f"sim{points}" / name)
    for points in GRIDS:
        grid = ("--config", config, "--grid-points", str(points))
        status = _cli(root, work, "check", *grid, "--trace", trace, "--out", f"check{points}")
        out[f"check {points} verdicts.csv"] = _read(work / f"check{points}" / "verdicts.csv")
        out[f"check {points} exit and stdout"] = status
    deep = str(write_deep_capture(work / "deep_capture.csv"))
    status = _cli(root, work, "check", "--config", config, "--trace", deep, "--out", "deep")
    out["check deep capture verdicts.csv"] = _read(work / "deep" / "verdicts.csv")
    out["check deep capture exit and stdout"] = status
    out["metrics --trace stdout"] = _cli(root, work, "metrics", "--config", config,
                                         "--trace", trace, "--precision", "17")
    for args in IDENTIFY_ARGS:
        out[f"identify {' '.join(args)} stdout"] = _cli(root, work, "identify", *args,
                                                        "--precision", "17")
    code = ("import json, same_bits; print(json.dumps({**same_bits.sweep_digests(), "
            "**same_bits.scalar_ops_digests(), **same_bits.elementary_digests(), "
            "**same_bits.kernel_edges_digest()}))")
    done = _python(root, code, cwd=work)
    if done.returncode != 0:
        raise SystemExit(f"error: {root}: sweep exited {done.returncode}:\n{done.stderr}")
    out.update(json.loads(done.stdout))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent = artefacts(args.parent, Path(tmp) / "parent")
        change = artefacts(args.change, Path(tmp) / "change")
    differ = 0
    for name in sorted(parent.keys() | change.keys()):
        same = name in parent and name in change and parent[name] == change[name]
        differ += not same
        print(f"{'equal' if same else 'different':<10} {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
