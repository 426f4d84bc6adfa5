"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from rlcband.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_ENCLOSURE,
    EXIT_OK,
    main,
)

from conftest import make_step_trace, write_trace_csv

XI_NOMINAL = 0.05389999999999999720
W0_NOMINAL = 9999.99999999999995


DEMO_CONFIG = {
    "r_ohms": 100.0, "r_tol_pct": 5.0,
    "rl_ohms": 7.8, "rl_tol_pct": 5.0,
    "l_henries": 0.1, "l_tol_pct": 10.0,
    "c_farads": 100e-9, "c_tol_pct": 20.0,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(DEMO_CONFIG))
    return path


@pytest.fixture()
def zero_tol_config(tmp_path):
    data = dict(DEMO_CONFIG)
    for key in list(data):
        if key.endswith("_pct"):
            data[key] = 0.0
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(data))
    return path


def _in_box_trace_csv(tmp_path):
    r, rl, l, c = 98.0, 8.0, 0.104, 1.1e-7
    xi = float((r + rl) / 2.0 * np.sqrt(c / l))
    w0 = float(1.0 / np.sqrt(l * c))
    wd = float(w0 * np.sqrt(1.0 - xi * xi))
    tr = make_step_trace(xi, w0, wd, dt=2e-5, t_end=0.035, t_pre=2e-3)
    return write_trace_csv(tmp_path / "inbox.csv", tr)


def _out_of_box_trace_csv(tmp_path):
    xi3 = 3.0 * XI_NOMINAL
    wd3 = float(W0_NOMINAL * np.sqrt(1.0 - xi3 * xi3))
    tr = make_step_trace(xi3, W0_NOMINAL, wd3, dt=2e-5, t_end=0.035, t_pre=2e-3)
    return write_trace_csv(tmp_path / "triple_r.csv", tr)


# --- simulate ---

def test_simulate_writes_band_and_nominal(tmp_path, config_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert rc == EXIT_OK
    band_lines = (out / "band.csv").read_text().splitlines()
    assert band_lines[0] == "t,lower,nominal,upper"
    first = band_lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) <= 0.0 <= float(first[3])
    nominal_lines = (out / "nominal.csv").read_text().splitlines()
    assert nominal_lines[0] == "t,v"
    assert len(nominal_lines) == len(band_lines) == 2001


def test_simulate_zero_tolerance_band_is_thin(tmp_path, zero_tol_config):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(zero_tol_config), "--out", str(out),
               "--grid-points", "400"])
    assert rc == EXIT_OK
    rows = (out / "band.csv").read_text().splitlines()[1:]
    widths = [float(r.split(",")[3]) - float(r.split(",")[1]) for r in rows]
    assert max(widths) <= 1e-12


def test_simulate_not_underdamped_exit_code(tmp_path):
    data = dict(DEMO_CONFIG)
    data["r_ohms"] = 10000.0
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(data))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DOMAIN


def test_simulate_missing_config_exit_code(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "none.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [
    ("r_ohms", float("inf")),   # json writes and reads Infinity
    ("l_tol_pct", float("nan")),  # and NaN
    ("c_farads", 10 ** 400),    # an int too large for a float
], ids=["Infinity", "NaN", "huge-int"])
def test_simulate_non_finite_config_exit_code(tmp_path, capsys, key, value):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(dict(DEMO_CONFIG, **{key: value})))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{key} must be finite" in err[0]


def test_simulate_bad_t_end_mult_exit_code(tmp_path, config_path, capsys):
    for value in ("-1", "0", "nan", "inf"):
        rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path),
                   "--t-end-mult", value])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --t-end-mult")


def test_simulate_deterministic(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out2)]) == 0
    assert (out1 / "band.csv").read_bytes() == (out2 / "band.csv").read_bytes()
    assert (out1 / "nominal.csv").read_bytes() == (out2 / "nominal.csv").read_bytes()


def test_grid_points_floor(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config_path), "--grid-points", "50"])
    assert exc.value.code == 2


# --- metrics ---

def test_metrics_reproduces_reference_columns(config_path, capsys):
    rc = main(["metrics", "--config", str(config_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "0.844" in out          # nominal overshoot fraction
    assert "0.0539" in out         # nominal damping ratio
    assert "[0.6454; 0.9231]" in out   # band overshoot interval
    assert "band-inverted" in out
    assert "components" in out
    assert "1e+04" in out          # nominal natural frequency, 4 sig digits


def test_metrics_wide_box_degrades_one_row(tmp_path, capsys):
    # band Mp reaches past 1 here, so only the band-inverted xi is undefined
    data = dict(DEMO_CONFIG, c_tol_pct=60.0, l_tol_pct=40.0)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    rc = main(["metrics", "--config", str(path)])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    xi_band = next(l for l in lines if "band-inverted" in l)
    assert "none: Mp [0; 1.048] not in (0, 1)" in xi_band
    assert sum("components" in l for l in lines) == 3
    assert sum("params" in l for l in lines) == 4


def test_metrics_grid_before_final_value_exit_code(config_path, capsys):
    rc = main(["metrics", "--config", str(config_path), "--t-end-mult", "0.01"])
    assert rc == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: band grid ends at")


def test_metrics_with_trace_column(tmp_path, config_path, capsys):
    tr = make_step_trace(
        0.10727654785269201, 10008.955478186701, 9951.196,
        dt=1e-6, t_end=0.025, t_pre=2e-3, scale=2.0, offset=0.2,
    )
    trace_path = write_trace_csv(tmp_path / "exp.csv", tr)
    rc = main(["metrics", "--config", str(config_path), "--trace", str(trace_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "0.7125" in out   # measured overshoot
    assert "0.1073" in out   # identified damping ratio
    # identified damped frequency carries the peak-time sampling quantization
    wd_line = next(l for l in out.splitlines() if l.strip().startswith("wd"))
    wd_trace = float(wd_line.split()[2])
    assert abs(wd_trace - 9951.2) < 40.0


# --- identify ---

def test_identify_point(capsys):
    rc = main(["identify", "--mp", "0.7125", "--tp", "0.00031570000767644344",
               "--precision", "7"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "0.1072765" in out
    assert "9951.196" in out
    assert "10008.96" in out


def test_identify_interval_mp_only(capsys):
    rc = main(["identify", "--mp", "0.6656,0.9230", "--precision", "7"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "0.0254966" in out
    assert "0.128499" in out


def test_identify_domain_error_exit():
    assert main(["identify", "--mp", "1.5"]) == EXIT_DOMAIN


def test_identify_bad_flag_value_exit():
    assert main(["identify", "--mp", "zero"]) == EXIT_CONFIG


# --- check ---

def test_check_in_box_trace_passes(tmp_path, config_path, capsys):
    trace_path = _in_box_trace_csv(tmp_path)
    out = tmp_path / "out"
    rc = main(["check", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(out)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "fraction inside: 1.000000" in stdout
    assert (out / "verdicts.csv").exists()


def test_check_out_of_box_trace_fails(tmp_path, config_path, capsys):
    trace_path = _out_of_box_trace_csv(tmp_path)
    rc = main(["check", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_ENCLOSURE
    stdout = capsys.readouterr().out
    assert "worst violation" in stdout


@pytest.mark.parametrize("command", ["check", "metrics"])
@pytest.mark.parametrize("lineno", [1, 41], ids=["header", "body"])
def test_non_utf8_trace_exit_code(tmp_path, config_path, capsys, command, lineno):
    lines = _in_box_trace_csv(tmp_path).read_bytes().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:1] + b"\xff" + lines[lineno - 1][1:]
    trace_path = tmp_path / "latin.csv"
    trace_path.write_bytes(b"\n".join(lines))
    rc = main([command, "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {trace_path}:{lineno}: ")


def test_non_utf8_config_exit_code(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_bytes(json.dumps(DEMO_CONFIG).encode().replace(b"r_ohms", b"r_\xffohms"))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {path} ")


def test_check_requires_trace_flag(config_path):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", str(config_path)])
    assert exc.value.code == 2  # argparse usage error


# --- demo-dependency ---

def test_demo_dependency_output(capsys):
    rc = main(["demo-dependency"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "X * (1 - X)      = [0; 1]" in out
    assert "X - X * X        = [-1; 1]" in out
    assert "subset" in out and "True" in out
