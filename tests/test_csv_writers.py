"""Block-formatted CSV writers against the per-row writers they replaced.

The references below are the per-row writers of band.csv, nominal.csv and
verdicts.csv as they were before the writers formatted whole blocks of rows.
Every output must stay byte-identical to them, terminators included, also
across the edges of the writer's row blocks and for every number of parts
that write_csv formats in forked children.
"""

import csv
import dataclasses
import io
import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlcband import (
    check_enclosure,
    default_time_grid,
    derive_params,
    load_circuit_spec,
    step_response_band,
    write_band_csv,
    write_verdicts_csv,
)
from rlcband import circuit
from rlcband.circuit import _BLOCK, write_csv
from rlcband.cli import main

from conftest import DEMO_CONFIG, make_step_trace

# two full blocks and one row more
ROWS = 2 * _BLOCK + 1


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


@pytest.fixture
def fork_count(monkeypatch):
    """Counts os.fork calls in this process; the children run as usual."""
    counter = {"forks": 0}
    fork = os.fork

    def counted():
        counter["forks"] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return counter


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks(rows, cpus):
    """Children write_csv forks for a table of rows: a part per whole block
    of rows, CPUs permitting."""
    return max(1, min(cpus, rows // _BLOCK)) - 1


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
    write_band_csv(band, tmp_path / "direct.csv", tmp_path / "direct_nominal.csv")
    assert (tmp_path / "direct.csv").read_bytes() == (out / "band.csv").read_bytes()
    assert (tmp_path / "direct_nominal.csv").read_bytes() == (out / "nominal.csv").read_bytes()


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


# one part up to 2 * _BLOCK - 1 rows, then 2 and 4 parts, odd rows in the last
@pytest.mark.parametrize("rows", [0, 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK // 2 + 1, 2 * _BLOCK + 1,
                                  6 * _BLOCK + 3])
def test_write_csv_special_values(tmp_path, monkeypatch, fork_count, rows):
    monkeypatch.setattr(circuit, "_usable_cpus", lambda: 4)
    special = [0.0, -0.0, 5e-324, -1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1]
    x = np.resize(np.array(special), rows)
    flags = np.arange(rows) % 3 == 0
    path, flipped = tmp_path / "x.csv", tmp_path / "flipped.csv"
    # the second output shows the columns the other way round, one set of parts for both
    write_csv((x, flags), [(path, "x,flag\n", (0, 1), "\n"),
                           (flipped, "flag,x\r\n", (1, 0), "\r\n")])
    pairs = list(zip(x.tolist(), flags.tolist()))
    expected = "x,flag\n" + "".join("%.17g,%d\n" % (a, b) for a, b in pairs)
    assert path.read_bytes() == expected.encode()
    expected = "flag,x\r\n" + "".join("%d,%.17g\r\n" % (b, a) for a, b in pairs)
    assert flipped.read_bytes() == expected.encode()
    assert fork_count["forks"] == _forks(rows, 4)
    _assert_no_children()


# The split rule before parts of whole blocks: a part per 6 144 values.  Its
# crossovers stay among the sizes below, now one part across a block edge or
# parts with odd remainders.
_FORMER_PART_VALUES = 6144


def _straddling_rows(*columns):
    """Row counts at and around each part-count crossover, parts * _BLOCK,
    and on both sides of the former rule's crossovers."""
    rows = set()
    for parts in (2, 3, 4):
        rows |= {parts * _BLOCK - 1, parts * _BLOCK, parts * _BLOCK + 1}
        for c in columns:
            least = -(-parts * _FORMER_PART_VALUES // c)
            rows |= {least - 1, least}
    return sorted(rows)


@pytest.mark.parametrize("rows", _straddling_rows(4, 2))
def test_simulate_outputs_match_per_row_writers_in_parts(tmp_path, monkeypatch, fork_count, rows):
    config = tmp_path / "circuit.json"
    config.write_text(json.dumps(DEMO_CONFIG))
    params = derive_params(load_circuit_spec(config))
    band = step_response_band(params, default_time_grid(params, points=rows))
    _reference_band_csv(band, tmp_path / "band.csv")
    _reference_nominal_csv(band, tmp_path / "nominal.csv")
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(circuit, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"out{cpus}"
        forks = fork_count["forks"]
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--grid-points", str(rows)]) == 0
        # one set of parts writes both files
        assert fork_count["forks"] - forks == _forks(rows, cpus)
        for name in ("band.csv", "nominal.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), (cpus, name)
        assert sorted(os.listdir(out)) == ["band.csv", "nominal.csv"]
        _assert_no_children()


@pytest.fixture(scope="module")
def mixed_report(demo_params, demo_band):
    """A verdict report of 20 001 rows that mixes both verdicts."""
    xi = 3.0 * demo_params.xi_nominal
    w0 = demo_params.omega0_nominal
    tr = make_step_trace(xi, w0, w0 * np.sqrt(1.0 - xi * xi), dt=1.5e-6, t_end=0.03)
    return check_enclosure(tr, demo_band)


@pytest.mark.parametrize("rows", _straddling_rows(5))
def test_verdicts_match_per_row_writer_in_parts(tmp_path, monkeypatch, fork_count, mixed_report,
                                                rows):
    report = dataclasses.replace(
        mixed_report, total=rows, inside=int(mixed_report.verdicts[:rows].sum()),
        **{name: getattr(mixed_report, name)[:rows]
           for name in ("times", "values", "lower", "upper", "verdicts")})
    assert 0 < report.inside < report.total
    reference = tmp_path / "reference.csv"
    _reference_verdicts_csv(report, reference)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(circuit, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"out{cpus}"
        out.mkdir()
        forks = fork_count["forks"]
        write_verdicts_csv(report, out / "verdicts.csv")
        assert fork_count["forks"] - forks == _forks(rows, cpus)
        assert (out / "verdicts.csv").read_bytes() == reference.read_bytes(), cpus
        assert os.listdir(out) == ["verdicts.csv"]
        _assert_no_children()


def _no_fork():
    pytest.fail("write_csv forked")


@pytest.mark.parametrize("cpus, rows", [(1, 6 * _BLOCK), (4, 2 * _BLOCK - 1)])
def test_one_part_does_not_fork(tmp_path, monkeypatch, cpus, rows):
    monkeypatch.setattr(circuit, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", _no_fork)
    x = np.arange(rows) / 7.0
    write_csv((x,), [(tmp_path / "x.csv", "x\n", (0,), "\n")])
    assert (tmp_path / "x.csv").read_text() == "x\n" + "".join(f"{a:.17g}\n" for a in x)


@pytest.mark.parametrize("columns, rows", [(1, 2 * _BLOCK - 1), (1, 2 * _BLOCK),
                                           (5, 2 * _BLOCK - 1), (5, 2 * _BLOCK)],
                         ids=["1-column-2-blocks-1", "1-column-2-blocks",
                              "5-columns-2-blocks-1", "5-columns-2-blocks"])
def test_parts_are_whole_blocks(tmp_path, monkeypatch, fork_count, columns, rows):
    # on 2 CPUs the second part starts with 2 * _BLOCK rows, however wide the table
    monkeypatch.setattr(circuit, "_usable_cpus", lambda: 2)
    x = np.arange(rows) / 7.0
    write_csv((x,) * columns, [(tmp_path / "x.csv", "x\n", range(columns), "\n")])
    assert fork_count["forks"] == (rows == 2 * _BLOCK)
    assert (tmp_path / "x.csv").read_bytes() == b"x\n" + _percent_bytes("\n", *(x,) * columns)
    _assert_no_children()


def test_without_fork_writes_one_part(tmp_path, monkeypatch):
    monkeypatch.setattr(circuit, "_usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    x = np.arange(4 * _BLOCK) / 7.0
    write_csv((x,), [(tmp_path / "x.csv", "x\n", (0,), "\n")])
    assert (tmp_path / "x.csv").read_text() == "x\n" + "".join(f"{a:.17g}\n" for a in x)


def _failing_in_parts(monkeypatch, fail_start):
    """write_csv in 4 parts whose row writer raises for parts at fail_start."""
    write_rows = circuit._write_rows

    def failing(outs, columns, start, stop):
        if fail_start(start):
            raise OSError("part failed")
        write_rows(outs, columns, start, stop)

    monkeypatch.setattr(circuit, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(circuit, "_write_rows", failing)


def test_failing_child_raises_oserror(tmp_path, monkeypatch):
    _failing_in_parts(monkeypatch, lambda start: start > 0)
    x = np.arange(4 * _BLOCK) / 7.0
    with pytest.raises(OSError, match="child exited with status 1"):
        write_csv((x,), [(tmp_path / "x.csv", "x\n", (0,), "\n")])
    _assert_no_children()
    assert os.listdir(tmp_path) == ["x.csv"]


def test_failing_child_exits_cli_with_one_line(tmp_path, monkeypatch, capsys):
    _failing_in_parts(monkeypatch, lambda start: start > 0)
    config = tmp_path / "circuit.json"
    config.write_text(json.dumps(DEMO_CONFIG))
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out"),
               "--grid-points", str(4 * _BLOCK)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    _assert_no_children()


def test_parent_raise_kills_children(tmp_path, monkeypatch):
    write_rows = circuit._write_rows

    def slow_children(outs, columns, start, stop):
        if start > 0:
            time.sleep(60.0)  # in a child: only a kill ends it early
        write_rows(outs, columns, start, stop)
        raise KeyboardInterrupt  # in the parent, after its own part: not an Exception

    monkeypatch.setattr(circuit, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(circuit, "_write_rows", slow_children)
    x = np.arange(4 * _BLOCK) / 7.0
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        write_csv((x,), [(tmp_path / "x.csv", "x\n", (0,), "\n")])
    assert time.perf_counter() - t0 < 30.0
    _assert_no_children()


# --- the text kernel against Python's % on every kind of double ---

def _kernel_bytes(line_end, *columns):
    """The bytes write_csv's row writer gives for columns, in this process."""
    buf = io.BytesIO()
    circuit._write_rows([(buf, range(len(columns)), line_end)], columns, 0, len(columns[0]))
    return buf.getvalue()


def _percent_bytes(line_end, *columns):
    """Rows of %.17g for each float column and %d for each bool column."""
    row_format = ",".join("%d" if c.dtype == bool else "%.17g" for c in columns) + line_end
    return "".join(row_format % row for row in zip(*(c.tolist() for c in columns))).encode()


def _assert_like_percent(line_end, *columns):
    got, want = _kernel_bytes(line_end, *columns), _percent_bytes(line_end, *columns)
    if got != want:
        rows = zip(got.splitlines(), want.splitlines(), zip(*columns))
        bad = next((g, w, v) for g, w, v in rows if g != w)
        pytest.fail(f"kernel {bad[0]!r} != % {bad[1]!r} for {bad[2]!r}")


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


# Exact ties of %.17g whose power of ten is inexact: 18 significant digits
# ending in 5, such as 3 * 2**-24 = 1.78813934326171875e-07.
DYADIC_TIES = [p * 2.0**-q for q in (24, 25) for p in range(1, 16, 2)]

# Doubles a few units of 2**-53 off a tie once scaled, such as
# 4.910296614260184349999...98e-08: the residual must not be rounded as a tie.
NEAR_TIES = [float.fromhex(h) for h in ("0x1.a5ca9080b933ep-25", "0x1.516eda0094298p-28",
                                         "0x1.545bb680250a6p-28", "0x1.55d224bfed7adp-28",
                                         "0x1.1174ea3324624p-31")]

FIXED_CASES = {
    "powers of ten": _with_neighbours([float(f"1e{k}") for k in range(-31, 32)]),
    "true ties": np.array([1e15 + 0.25, 1e15 + 0.75, *DYADIC_TIES]),
    "near ties": np.array(NEAR_TIES),
    "2**53 and the fast range": _with_neighbours([2.0**53, 1e-30, 1e30]),
    "extremes": np.array([5e-324, np.finfo(float).max, np.finfo(float).tiny, 0.0, -0.0,
                          np.inf, -np.inf, np.nan]),
}


@pytest.mark.parametrize("name", FIXED_CASES)
def test_kernel_fixed_cases(name):
    x = FIXED_CASES[name]
    _assert_like_percent("\r\n", x, -x)


def test_kernel_seeded_wide_range():
    rng = np.random.default_rng(26)
    n = 50_000
    x = np.concatenate([
        np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-110, 110, n)),
        rng.integers(1, 10**6, n) * 10.0 ** rng.integers(-36, 30, n),
    ]) * rng.choice([-1.0, 1.0], 2 * n)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    _assert_like_percent("\n", np.concatenate([x, bits]))


@given(st.lists(st.floats(), min_size=1, max_size=200))
def test_kernel_matches_percent_on_floats(values):
    x = np.array(values, dtype=np.float64)
    _assert_like_percent("\n", x, x[::-1])


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_kernel_matches_percent_on_bit_patterns(bits):
    _assert_like_percent("\n", np.array(bits, dtype=np.uint64).view(np.float64))


@given(st.lists(st.tuples(st.floats(), st.booleans()), min_size=1, max_size=200))
def test_bool_column_matches_percent(rows):
    x = np.array([v for v, _ in rows], dtype=np.float64)
    flags = np.array([flag for _, flag in rows], dtype=bool)
    _assert_like_percent("\r\n", x, flags)
