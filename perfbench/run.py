"""Benchmark of the repro package's default user paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload listing-run --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): ``listing-run``, ``finding-sweep``,
``fleet-submit`` and ``query-mixed``.  The package is imported from the
checkout's ``src/``.  Every input is generated from ``--seed``; the run
measures for about ``--seconds`` seconds (at least one operation), checks
every output, prints a readable summary and, as its last line, one JSON
object::

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the same inputs untraced and then traced, and reports
the per-layer metrics (plus the tracing overhead and span coverage); its
spans are written as trace-event JSON under ``.perfbench-out/``.
Metric definitions and the layer-to-end-to-end map are in METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.csr_s": "s",
    "graphs.share_s": "s",
    "graphs.attach_s": "s",
    "hashing.sample_s": "s",
    "core.a1_s": "s",
    "core.a2_s": "s",
    "core.a3_s": "s",
    "core.baseline_s": "s",
    "core.self_s": "s",
    "core.output_s": "s",
    "core.passes": "count",
    "core.dup_frac": "fraction",
    "congest.exchange_s": "s",
    "congest.phases": "count",
    "congest.rounds": "count",
    "congest.messages": "count",
    "congest.bits": "bits",
    "analysis.verify_s": "s",
    "api.record_s": "s",
    "service.execute_s": "s",
    "service.lease_wait_s": "s",
    "service.retry_frac": "fraction",
    "service.wire_ms": "ms",
    "dynamic.build_s": "s",
    "dynamic.query_ms": "ms",
    "dynamic.apply_ms": "ms",
    "dynamic.oracle_apply_ms": "ms",
    "dynamic.delta_apply_ms": "ms",
    "dynamic.compactions": "count",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("listing-run", "finding-sweep", "fleet-submit", "query-mixed"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # A SIGTERM unwinds like an error, so the servers and pools the run
    # started are stopped by their own cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One BLAS thread per process, so pools and fleets do not oversubscribe
    # the cores; no fault plane, plane override or preload from outside.
    for key in [key for key in os.environ if key.startswith(("REPRO_", "PERFBENCH_"))]:
        del os.environ[key]
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", TMPDIR=str(work))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import tracing, workloads

    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.spans:
        tracing.write_trace_events(outcome.spans, OUT / f"{tag}.trace.json")
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: float(outcome.metrics.get(name, 0.0)) for name in units}
    correct = outcome.failed == 0 and not outcome.broken

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for name, value in outcome.details.items():
        print(f"  {name:34s} {value}")
    if outcome.layers:
        print(f"  {'layer':12s} {'busy_s':>12s} {'self_s':>12s} {'spans':>8s}   (per operation, {outcome.ops} traced)")
        for layer, row in sorted(outcome.layers.items()):
            busy, own = row["busy_s"] / outcome.ops, row["self_s"] / outcome.ops
            print(f"  {layer:12s} {busy:12.4f} {own:12.4f} {row['calls']:8d}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed} failed_frac={outcome.failed / max(outcome.attempted, 1):.4g}")
    for problem in outcome.problems + outcome.broken:
        print(f"  problem: {problem}")
    summary = {"metrics": metrics, "details": outcome.details, "layers": outcome.layers,
               "problems": outcome.problems, "broken": outcome.broken}
    (OUT / f"{tag}.json").write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
