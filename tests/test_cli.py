"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

import rlcband
from rlcband import cli
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


@pytest.mark.parametrize("command", ["metrics", "simulate"])
def test_tiny_resistance_reports_one_error_line(tmp_path, capsys, command):
    # The decay rate is so small that grid times reach 1e300, where the
    # Dekker split of a grid time overflows; no numpy warning may leak.
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(dict(DEMO_CONFIG, r_ohms=1e-300, rl_ohms=1e-300)))
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_DOMAIN
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: trig argument beyond 2**52 rad loses all reduction precision"]


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


@pytest.mark.parametrize("command", ["simulate", "metrics", "check"])
@pytest.mark.parametrize("points", [10**13, 10**20])
def test_grid_points_above_bound_is_usage_error(config_path, tmp_path, capsys, monkeypatch,
                                                command, points):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "default_time_grid", no_grid)
    argv = [command, "--config", str(config_path), "--grid-points", str(points)]
    if command == "check":
        argv += ["--trace", str(tmp_path / "missing.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"rlcband: error: --grid-points must be at most {cli.MAX_GRID_POINTS}"]


def test_grid_points_bound_is_accepted(config_path, monkeypatch):
    seen = []

    def grid(params, points, t_end_mult):
        seen.append(points)

    def no_band(params, grid):
        raise rlcband.DomainError("stop after the grid")

    monkeypatch.setattr(cli, "default_time_grid", grid)
    monkeypatch.setattr(cli, "step_response_band", no_band)
    argv = ["metrics", "--config", str(config_path), "--grid-points", str(cli.MAX_GRID_POINTS)]
    assert main(argv) == 3
    assert seen == [cli.MAX_GRID_POINTS]


@pytest.mark.parametrize("argv", [
    ["identify", "--mp", "0.5", "--precision", "-1"],
    ["metrics", "--config", "CONFIG", "--precision", "-2"],
], ids=["identify", "metrics"])
def test_negative_precision_is_usage_error(config_path, capsys, argv):
    argv = [str(config_path) if a == "CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["rlcband: error: --precision must not be negative"]


@pytest.mark.parametrize("argv", [
    ["identify", "--mp", "0.5", "--precision", "2147483648"],
    ["identify", "--mp", "0.5", "--precision", "768"],
    ["metrics", "--config", "CONFIG", "--precision", "768"],
], ids=["identify-2**31", "identify-768", "metrics-768"])
def test_precision_above_767_is_usage_error(config_path, capsys, argv):
    argv = [str(config_path) if a == "CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["rlcband: error: --precision must be at most 767"]


def test_precision_767_is_accepted(capsys):
    assert main(["identify", "--mp", "0.5", "--precision", "767"]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "CONFIG", "--precision", "6"],
    ["check", "--config", "CONFIG", "--trace", "t.csv", "--precision", "6"],
    ["metrics", "--config", "CONFIG", "--out", "o"],
], ids=["simulate-precision", "check-precision", "metrics-out"])
def test_unread_flags_are_rejected(config_path, capsys, argv):
    argv = [str(config_path) if a == "CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


EXIT_BY_FAMILY = {
    rlcband.ConfigError: EXIT_CONFIG,
    rlcband.TraceError: EXIT_CONFIG,
    rlcband.DomainError: EXIT_DOMAIN,
    rlcband.IntervalError: EXIT_DOMAIN,
}
# every exported exception class but the base, which is never raised itself
EXPORTED_ERRORS = [obj for obj in (getattr(rlcband, name) for name in rlcband.__all__)
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj is not rlcband.RlcBandError]


@pytest.mark.parametrize("error", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_exported_error_exit_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("the message")

    monkeypatch.setitem(cli._HANDLERS, "demo-dependency", fail)
    assert main(["demo-dependency"]) == EXIT_BY_FAMILY.get(error)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the message"]


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


@pytest.mark.parametrize("mult", ["1e-9", "1e-10", "1e-300"])
def test_metrics_grid_before_nominal_rises_exit_code(config_path, capsys, mult):
    # the grid ends before the nominal leaves 0 (or rounding noise near it)
    rc = main(["metrics", "--config", str(config_path), "--t-end-mult", mult])
    assert rc == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: band grid ends at")
    assert "before the nominal response peaks" in err[0]


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
    out = ["--out", str(tmp_path / "out")] if command == "check" else []
    rc = main([command, "--config", str(config_path), "--trace", str(trace_path), *out])
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
