"""Set-up probe: what every rlcband CLI run does before its subcommand.

Usage: python3 probe.py CONFIG [--split]

A fresh interpreter imports rlcband's CLI module (and with it the package and
numpy), loads the config and derives the interval parameters. run.py times
the whole process from outside. With --split the probe prints the time of
each step as JSON.
"""

import sys
import time

t0 = time.perf_counter()
from rlcband import cli  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
spec = cli.load_circuit_spec(sys.argv[1])
t2 = time.perf_counter()
cli.derive_params(spec)
t3 = time.perf_counter()
if "--split" in sys.argv[2:]:
    import json

    print(json.dumps({"cli.import_s": t1 - t0, "circuit.load_circuit_spec_s": t2 - t1,
                      "circuit.derive_params_s": t3 - t2}))
