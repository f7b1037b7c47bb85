"""Benchmark: the default-parameter Theorem-2 listing path, end to end.

Every other protocol benchmark pins a hand-picked configuration
(``repetitions=1``, the asymptotic ε).  This one measures what ``repro
run`` does with **default parameters**: the registered
``theorem2-listing`` :class:`repro.api.RunSpec` with no overrides on the
paper's sparse regime ``G(n, √n/n)``, including workload generation, the
``⌈c log n⌉`` repetitions, verification and the ``ExperimentRecord``.

With default parameters the listing ε clamps to 0, so A2's hash range is
1 and every node ships its whole neighbour row; step 3 then has to list
every receiver's ``F_i`` without an n² scan per receiver.  The gate is
machine-independent: the wall-time exponent fitted across the sizes
must stay at or below ``MAX_EXPONENT`` (an n² zero-pair scan per
receiver fits ≈ 3).  Absolute seconds and peak RSS go to
``results/BENCH_default_listing.json`` for the trajectory gate, together
with the sha256 of every record's canonical JSON so a speedup can be
checked against byte-identical output.

Set ``DEFAULT_LISTING_QUICK=1`` (CI does) for the smaller size pair.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

from repro.analysis import fit_power_law
from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec, canonical_json

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("DEFAULT_LISTING_QUICK", "") not in ("", "0")
SIZES = [300, 600] if QUICK else [600, 1500]
SEED = 3
#: Ceiling on the fitted wall-time exponent (machine-independent gate).
MAX_EXPONENT = 2.5


def default_spec(num_nodes: int) -> RunSpec:
    """Default ``theorem2-listing`` on ``gnp(n, √n/n)`` — no parameter set."""
    return RunSpec(
        algorithm=AlgorithmSpec("theorem2-listing", {}),
        workload=WorkloadSpec(
            "gnp",
            {"num_nodes": num_nodes, "edge_probability": math.sqrt(num_nodes) / num_nodes},
        ),
        seed=SEED,
    )


def test_default_listing_scaling(benchmark):
    """Default Theorem-2 runs: sound, complete, sub-cubic wall time."""

    def sweep():
        runs = []
        for num_nodes in SIZES:
            start = time.perf_counter()
            record = default_spec(num_nodes).run()
            runs.append((record, time.perf_counter() - start))
        return runs

    runs = run_once(benchmark, sweep)
    seconds = [elapsed for _, elapsed in runs]
    digests = [
        hashlib.sha256(canonical_json(record.to_dict()).encode("utf-8")).hexdigest()
        for record, _ in runs
    ]
    fit = fit_power_law([float(n) for n in SIZES], seconds)
    lines = [
        f"default theorem2-listing on G(n, √n/n), seed={SEED}, quick={QUICK}",
        f"  {'n':>6} {'seconds':>9} {'rounds':>7} {'recall':>7}  record sha256",
    ]
    for num_nodes, (record, elapsed), digest in zip(SIZES, runs, digests):
        lines.append(
            f"  {num_nodes:>6} {elapsed:>9.2f} {record.rounds:>7} "
            f"{record.recall:>7.3f}  {digest[:16]}"
        )
    lines.append(
        f"  fitted wall-time exponent: {fit.exponent:.2f} (required ≤{MAX_EXPONENT})"
    )
    table = "\n".join(lines)
    record_table("default_listing", table)
    record_json(
        "default_listing",
        {
            "benchmark": "default_listing",
            "quick": QUICK,
            "sizes": SIZES,
            "seed": SEED,
            **{f"n{n}_seconds": elapsed for n, elapsed in zip(SIZES, seconds)},
            "total_seconds": sum(seconds),
            "rounds": [record.rounds for record, _ in runs],
            "record_sha256": digests,
            "fit_exponent": fit.exponent,
            "max_exponent": MAX_EXPONENT,
        },
    )

    for record, _ in runs:
        assert record.sound
        assert record.solves_listing
    assert fit.exponent <= MAX_EXPONENT, table
