"""Seeded inputs for the three workloads: circuit configs and scope captures.

Everything is written under the run's work directory, never into data/.
Captures follow the layout of data/experiment_trace.csv: a constant 0.2 V
plateau up to and including the onset sample at t = 0, then a 2 V step
response, with 10 significant digits per value. The generating circuit is
drawn strictly inside the capture's component box, so the guaranteed band
must enclose the normalized capture.
"""

import json

import numpy as np

import oracle

DEMO = {"r_ohms": 100.0, "r_tol_pct": 5.0, "rl_ohms": 7.8, "rl_tol_pct": 5.0,
        "l_henries": 0.1, "l_tol_pct": 10.0, "c_farads": 100e-9, "c_tol_pct": 20.0}
# The system identified from the bench capture that data/experiment_trace.csv
# stands in for; see scripts/generate_demo_trace.py.
BUNDLED_XI = 0.10727654785269201
BUNDLED_WD = 9951.196

OFFSET_V = 0.2
STEP_V = 2.0
PLATEAU = 1000             # samples before the onset sample, as bundled
LAB_DT = 2e-6
LAB_POST = 12400
LAB_SEEDED = 2             # seeded circuit/capture pairs next to the demo pair
LAB_JITTER = 0.15          # seeded nominals are the demo's times U(1 -/+ jitter)
SCOPE_SAMPLES = 270_000
SCOPE_IN_GRID = 200_000    # capture samples inside the default band grid
SCOPE_DT = (0.1e-6, 0.4e-6)
SCOPE_SEEDED = 2
# Plateau length on which rlcband's baseline refinement raises IndexError:
# the float mean of 1241 copies of 0.2 rounds below 0.2.
FAULT_PLATEAU = 1240
SWEEP_CIRCUITS = 128


def write_config(path, circuit):
    path.write_text(json.dumps(circuit, indent=1))
    return str(path)


def write_capture(path, xi, omega0, dt, plateau, post):
    """Scope capture of the given system; returns the sample times."""
    t = np.arange(-plateau, post + 1, dtype=np.float64) * dt
    v = np.full(t.size, OFFSET_V)
    after = t > 0.0
    v[after] = OFFSET_V + STEP_V * oracle.response(xi, omega0, t[after])
    with open(path, "w") as fh:
        fh.write("t,v\n")
        np.savetxt(fh, np.column_stack((t, v)), fmt="%.10g", delimiter=",")
    return t


def in_box_system(circuit, rng):
    """(xi, omega0) of one circuit drawn strictly inside the component box."""
    r_total, l, c = oracle.draw_inside(circuit, rng, 1)
    xi, omega0, _ = oracle.second_order(r_total[0], l[0], c[0])
    return float(xi), float(omega0)


def _lab_circuit(rng):
    """The demo board with each nominal value jittered; demo tolerances."""
    circuit = dict(DEMO)
    for key in ("r_ohms", "rl_ohms", "l_henries", "c_farads"):
        circuit[key] = DEMO[key] * rng.uniform(1.0 - LAB_JITTER, 1.0 + LAB_JITTER)
    return circuit


def lab(seed, work, root):
    """Demo circuit with the bundled capture, plus seeded in-box pairs."""
    rng = np.random.default_rng([seed, 1])
    pairs = [{"id": "demo", "circuit": DEMO, "config": str(root / "data" / "demo_circuit.json"),
              "capture": str(root / "data" / "experiment_trace.csv"), "in_box": False}]
    for i in range(LAB_SEEDED):
        circuit = _lab_circuit(rng)
        xi, omega0 = in_box_system(circuit, rng)
        capture = work / f"lab{i}.csv"
        write_capture(capture, xi, omega0, LAB_DT, PLATEAU, LAB_POST)
        pairs.append({"id": f"lab{i}", "circuit": circuit, "in_box": True,
                      "config": write_config(work / f"lab{i}.json", circuit),
                      "capture": str(capture)})
    return pairs


def scope(seed, work):
    """Deep in-box captures of the demo board, time-scaled to their sampling.

    Each capture has SCOPE_SAMPLES samples at a seeded interval in SCOPE_DT
    (stratified, one stratum per capture). Its box is the demo box with L and
    C divided by one factor, chosen so that the default band grid covers
    SCOPE_IN_GRID samples: the band is the demo band in scaled time, and every
    capture costs the same to check. The last capture is the plateau fault:
    the bundled system in the bundled layout with a FAULT_PLATEAU plateau.
    """
    rng = np.random.default_rng([seed, 2])
    demo_end = oracle.grid_end(DEMO)
    captures = []
    lo, hi = SCOPE_DT
    for i in range(SCOPE_SEEDED):
        dt = lo + (hi - lo) * (i + rng.uniform()) / SCOPE_SEEDED
        k = demo_end / (SCOPE_IN_GRID * dt)
        circuit = dict(DEMO, l_henries=DEMO["l_henries"] / k, c_farads=DEMO["c_farads"] / k)
        xi, omega0 = in_box_system(circuit, rng)
        path = work / f"scope{i}.csv"
        write_capture(path, xi, omega0, dt, PLATEAU, SCOPE_SAMPLES - PLATEAU - 1)
        captures.append({"id": f"scope{i}", "circuit": circuit, "xi": xi, "omega0": omega0,
                         "dt": dt, "config": write_config(work / f"scope{i}.json", circuit),
                         "capture": str(path), "in_box": True})
    omega0 = BUNDLED_WD / np.sqrt(1.0 - BUNDLED_XI ** 2)
    path = work / "plateau_fault.csv"
    write_capture(path, BUNDLED_XI, omega0, LAB_DT, FAULT_PLATEAU, LAB_POST)
    captures.append({"id": "plateau_fault", "circuit": DEMO, "xi": BUNDLED_XI,
                     "omega0": float(omega0), "dt": LAB_DT, "in_box": False,
                     "config": write_config(work / "plateau_fault.json", DEMO),
                     "capture": str(path)})
    return captures


def _strata(rng, n):
    """Latin-hypercube column: one uniform draw in each of n equal strata."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def sweep(seed, work):
    """SWEEP_CIRCUITS underdamped circuits over realistic ranges (Latin hypercube).

    Returns the circuits and the paths of their configs.

    L in [1 mH, 1 H] and C in [1 nF, 10 uF] (log-uniform), nominal xi in
    [0.02, 0.5], winding resistance 2-20 % of the series resistance, and each
    tolerance in [1 %, 20 %]. The worst box has xi.hi < 0.75, so every box is
    underdamped.
    """
    rng = np.random.default_rng([seed, 3])
    n = SWEEP_CIRCUITS
    l = 10.0 ** (-3.0 + 3.0 * _strata(rng, n))
    c = 10.0 ** (-9.0 + 4.0 * _strata(rng, n))
    xi = 0.02 + 0.48 * _strata(rng, n)
    share = 0.02 + 0.18 * _strata(rng, n)
    tols = {name: 1.0 + 19.0 * _strata(rng, n) for name in ("r", "rl", "l", "c")}
    r_total = 2.0 * xi * np.sqrt(l / c)
    circuits, configs = [], []
    for i in range(n):
        circuits.append({
            "r_ohms": float(r_total[i] * (1.0 - share[i])), "r_tol_pct": float(tols["r"][i]),
            "rl_ohms": float(r_total[i] * share[i]), "rl_tol_pct": float(tols["rl"][i]),
            "l_henries": float(l[i]), "l_tol_pct": float(tols["l"][i]),
            "c_farads": float(c[i]), "c_tol_pct": float(tols["c"][i]),
        })
        configs.append(write_config(work / f"sweep{i}.json", circuits[i]))
    return circuits, configs
