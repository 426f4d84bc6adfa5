"""Block-formatted CSV writers against the per-row writers they replaced.

The references below are the per-row writers of band.csv, nominal.csv and
verdicts.csv as they were before the writers formatted whole blocks of rows.
Every output must stay byte-identical to them, terminators included, also
across the edges of the writer's row blocks.
"""

import csv
import json

import numpy as np
import pytest

from rlcband import (
    check_enclosure,
    default_time_grid,
    derive_params,
    load_circuit_spec,
    step_response_band,
    write_band_csv,
    write_verdicts_csv,
)
from rlcband.circuit import _CSV_BLOCK, write_csv
from rlcband.cli import main

from conftest import make_step_trace

# two full blocks and one row more
ROWS = 2 * _CSV_BLOCK + 1

DEMO_CONFIG = {
    "r_ohms": 100.0, "r_tol_pct": 5.0,
    "rl_ohms": 7.8, "rl_tol_pct": 5.0,
    "l_henries": 0.1, "l_tol_pct": 10.0,
    "c_farads": 100e-9, "c_tol_pct": 20.0,
}


def _reference_band_csv(band, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lower", "nominal", "upper"])
        for i in range(band.t.size):
            writer.writerow(
                [
                    f"{band.t[i]:.17g}",
                    f"{band.lower[i]:.17g}",
                    f"{band.nominal[i]:.17g}",
                    f"{band.upper[i]:.17g}",
                ]
            )


def _reference_nominal_csv(band, path):
    with open(path, "w", newline="") as fh:
        fh.write("t,v\n")
        for i in range(band.t.size):
            fh.write(f"{band.t[i]:.17g},{band.nominal[i]:.17g}\n")


def _reference_verdicts_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "v", "lower", "upper", "inside"])
        for i in range(report.total):
            writer.writerow(
                [
                    f"{report.times[i]:.17g}",
                    f"{report.values[i]:.17g}",
                    f"{report.lower[i]:.17g}",
                    f"{report.upper[i]:.17g}",
                    int(report.verdicts[i]),
                ]
            )


def test_simulate_outputs_match_per_row_writers(tmp_path):
    config = tmp_path / "circuit.json"
    config.write_text(json.dumps(DEMO_CONFIG))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config), "--out", str(out),
               "--grid-points", str(ROWS)])
    assert rc == 0
    params = derive_params(load_circuit_spec(config))
    band = step_response_band(params, default_time_grid(params, points=ROWS))
    _reference_band_csv(band, tmp_path / "band.csv")
    _reference_nominal_csv(band, tmp_path / "nominal.csv")
    assert (out / "band.csv").read_bytes() == (tmp_path / "band.csv").read_bytes()
    assert (out / "nominal.csv").read_bytes() == (tmp_path / "nominal.csv").read_bytes()
    write_band_csv(band, tmp_path / "direct.csv")
    assert (tmp_path / "direct.csv").read_bytes() == (out / "band.csv").read_bytes()


def test_verdicts_match_per_row_writer(tmp_path, demo_params, demo_band):
    # damping tripled: outside the box, so the report mixes both verdicts
    xi = 3.0 * demo_params.xi_nominal
    w0 = demo_params.omega0_nominal
    tr = make_step_trace(xi, w0, w0 * np.sqrt(1.0 - xi * xi), dt=3e-6, t_end=0.03)
    report = check_enclosure(tr, demo_band)
    assert report.total > ROWS
    assert 0 < report.inside < report.total
    verdicts, reference = tmp_path / "verdicts.csv", tmp_path / "reference.csv"
    write_verdicts_csv(report, verdicts)
    _reference_verdicts_csv(report, reference)
    assert verdicts.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_write_csv_special_values(tmp_path, rows):
    special = [0.0, -0.0, 5e-324, -1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1]
    x = np.resize(np.array(special), rows)
    flags = np.arange(rows) % 3 == 0
    path = tmp_path / "x.csv"
    write_csv(path, "x,flag\n", "%.17g,%d\n", (x, flags))
    expected = "x,flag\n" + "".join(f"{a:.17g},{int(b)}\n" for a, b in zip(x, flags))
    assert path.read_bytes() == expected.encode()
