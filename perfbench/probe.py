"""Time one cold set-up: import the package and resolve a workload's spec.

``python3 perfbench/probe.py listing|sweep SPEC_JSON`` prints the seconds
from before ``import repro`` until the spec is resolved (``listing``: the
run spec's algorithm and workload are looked up and the algorithm built;
``sweep``: the sweep spec's cells are built and a two-worker
``SweepRunner`` constructed), the set-up a ``repro run`` or ``repro
sweep`` user pays before the first operation.
"""

import sys
import time

start = time.perf_counter()
import json  # noqa: E402

from repro.analysis import SweepRunner  # noqa: E402
from repro.api import load_spec  # noqa: E402

kind, document = sys.argv[1], sys.argv[2]
spec = load_spec(document)
if kind == "listing":
    spec.algorithm.entry()
    spec.workload.entry()
    spec.algorithm.build()
else:
    spec.require_sweepable()
    spec.cells()
    SweepRunner(max_workers=2).close()
print(json.dumps({"setup_s": time.perf_counter() - start}))
