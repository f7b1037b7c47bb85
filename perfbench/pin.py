"""Regenerate pinned.json: record digests of the serial reference engine.

``python3 perfbench/pin.py`` runs the first listing operations and sweep
grids of seed 1 serially (``RunSpec.run`` and ``run_sweep``
without a runner) and stores the sha256 of each record's canonical JSON
and of each sweep store file.  The benchmark compares every run at that
seed against them, so the pool and fleet engines are checked against the
serial one and against each other.  Re-pin only when a change is meant
to alter records.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
LISTING_PINS = 8
SWEEP_PINS = 6


def main() -> int:
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.api import canonical_json, run_sweep

    from perfbench import workloads

    listing = []
    for index in range(LISTING_PINS):
        record = workloads.listing_spec(SEED, index).run()
        listing.append(workloads.sha256(canonical_json(record.to_dict())))
        print(f"listing {index}: {listing[-1][:12]}", flush=True)
    sweeps = []
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for index in range(SWEEP_PINS):
            path = Path(workdir) / f"sweep-{index}.jsonl"
            run_sweep(workloads.sweep_spec(SEED, index), path)
            data = path.read_bytes()
            records = [
                workloads.sha256(canonical_json(line["record"]))
                for line in map(json.loads, data.decode("utf-8").splitlines())
                if line.get("kind") == "record"
            ]
            sweeps.append({"store": hashlib.sha256(data).hexdigest(), "records": records})
            print(f"sweep {index}: {sweeps[-1]['store'][:12]}", flush=True)
    document = {"seed": SEED, "listing": listing, "sweep": sweeps}
    workloads.PINNED_PATH.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
