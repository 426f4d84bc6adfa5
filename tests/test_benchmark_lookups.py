"""The benchmark harness looks library names up by string; pin that they resolve.

``perfbench/worker.py --trace 1`` wraps the names in ``CLI_CALLS`` on
``rlcband.cli``, those in ``SWEEP_CALLS`` on their modules and those in
``ELEMENTARY`` on ``rlcband.circuit``. A refactor that renames or stops
importing one of them breaks the traced run without failing anything else.
The traced run also counts band.csv's bytes from the second argument of
``cli.write_band_csv``, so ``simulate`` must pass that path there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from rlcband import circuit, cli

from conftest import DEMO_CONFIG

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    # importing the worker runs nothing: its loop is under the __main__ check
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_calls_resolve_on_cli(worker):
    assert [name for name in worker.CLI_CALLS if not callable(getattr(cli, name, None))] == []


def test_sweep_calls_resolve_on_their_modules(worker):
    missing = [name for name, module in worker.SWEEP_CALLS.items()
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_elementary_names_resolve_on_circuit(worker):
    missing = [name for name in worker.ELEMENTARY if not callable(getattr(circuit, name, None))]
    assert missing == []


def test_simulate_band_bytes_come_from_one_traced_call(worker, tmp_path, monkeypatch):
    # the traced run counts band.csv's bytes from args[1] of cli.write_band_csv
    calls = []
    write_band_csv = cli.write_band_csv

    def recorded(*args):
        calls.append(args)
        return write_band_csv(*args)

    for name in worker.CLI_CALLS:
        monkeypatch.setattr(cli, name, getattr(cli, name))  # undone after the test
    monkeypatch.setattr(cli, "write_band_csv", recorded)
    spans = worker.Spans()
    ops = worker.CliOps(spans)
    config = tmp_path / "circuit.json"
    config.write_text(json.dumps(DEMO_CONFIG))
    out = tmp_path / "out"
    spans.begin()
    assert ops.run({"argv": [["simulate", "--config", str(config), "--out", str(out)]]})["rc"] == [0]
    counts = spans.end()["counts"]
    assert [Path(args[1]) for args in calls] == [out / "band.csv"]
    assert counts["circuit.write_band_csv_bytes"] == (out / "band.csv").stat().st_size
