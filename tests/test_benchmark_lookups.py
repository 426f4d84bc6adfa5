"""The benchmark harness looks library names up by string; pin that they resolve.

``perfbench/worker.py --trace 1`` wraps the names in ``CLI_CALLS`` on
``rlcband.cli``, those in ``SWEEP_CALLS`` on their modules and those in
``ELEMENTARY`` on ``rlcband.circuit``. A refactor that renames or stops
importing one of them breaks the traced run without failing anything else.
"""

import importlib.util
from pathlib import Path

import pytest

from rlcband import circuit, cli

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
