"""The benchmark's four workloads: what each runs, times and checks.

Every workload drives the package only through its public entry points
and makes all of its inputs from the benchmark seed:

* ``listing-run``: serial ``RunSpec.run`` of default ``theorem2-listing``
  (the ``repro run`` path), one fresh ``gnp`` graph per operation.
* ``finding-sweep``: ``run_sweep`` of a three-algorithm grid over four
  graphs with a cold two-worker ``SweepRunner`` per sweep.
* ``fleet-submit``: the same grids submitted to ``repro serve --workers 2``
  through ``ServiceClient.submit`` / ``wait_job``.
* ``query-mixed``: a query server over ``gnp(4000, 0.01)`` with a
  closed-loop reader and an open-loop writer on two connections.

Each function returns an :class:`Outcome`.  Untraced runs fill the
end-to-end metrics; traced runs split the time budget between an
untraced and a traced pass over the same inputs and fill the per-layer
metrics, the tracing overhead and the coverage.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import SweepRunner, experiments
from repro.api import (
    AlgorithmSpec,
    QuerySpec,
    RunSpec,
    SweepSpec,
    WorkloadSpec,
    canonical_json,
    get_algorithm,
    run_sweep,
)
from repro.dynamic import QueryClient
from repro.errors import ServiceError
from repro.service import ServiceClient

from perfbench import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
PINNED_PATH = BENCH / "pinned.json"

WORKERS = 2
#: One cold set-up is well under a second; the median of this many is steady.
SETUP_PROBES = 5
#: Service launches per run: set-up and stop are medians over these.
SERVICE_LIFECYCLES = 3
#: How often the benchmark polls a starting or stopping server.  Polls
#: cost the server CPU, so they are not much faster than the timings need.
POLL_SECONDS = 0.02

#: ``listing-run`` graph size.  A default Theorem-2 run at n=600 takes
#: 21-31 s, too long to repeat within one run; n=300 takes about 4 s on
#: the same path (A2's dense pair matrices, the default repetitions).
LISTING_NODES = 300
SWEEP_NODES = 1000
SWEEP_GRAPHS = 4
#: Cheap cells first inside each graph's group of cells.
SWEEP_ALGORITHMS = ("naive-two-hop", "dolev-clique-listing", "theorem1-finding")

QUERY_NODES = 4000
QUERY_P = 0.01
READ_NODES = 32
READ_EDGES = 32
#: Base edges the writer never deletes, so edge-support reads ask about
#: edges that are live at every version.
READ_EDGE_POOL = 8 * READ_EDGES
BATCH_INSERTS = 60
BATCH_DELETES = 40
BATCH_RATE = 10.0
#: How long ``query-mixed`` keeps the benchmark and its server on one CPU
#: before it moves both to the next (see :func:`one_cpu`).
CPU_TURN_SECONDS = 1.0

#: Graph size of the untimed warm-up operation each batch workload runs
#: first, so lazy first-use costs in the benchmark process and its
#: workers stay out of the timed operations.
WARMUP_NODES = 60

#: Seed streams, so each kind of input is drawn independently.
STREAM_LISTING, STREAM_SWEEP, STREAM_QUERY_GRAPH, STREAM_QUERY_OPS, STREAM_WARMUP = 1, 2, 3, 4, 5


def derive(seed: int, stream: int, index: int) -> int:
    """A reproducible 32-bit seed for input ``index`` of ``stream``."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest process it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: End-to-end metrics (untraced runs) or per-layer metrics (traced runs).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific figures printed beside the metrics.
    details: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer busy/self table of a traced run, over ``ops`` operations.
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    ops: int = 1
    #: ``(pid, span)`` pairs of a traced run, for the trace-event file.
    spans: List[Any] = field(default_factory=list)
    #: A check that fails the whole run, beyond single failed operations.
    broken: List[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path

    def env(self, **extra: str) -> Dict[str, str]:
        """Environment of every process the benchmark starts."""
        env = {key: value for key, value in os.environ.items() if not key.startswith(("REPRO_", "PERFBENCH_"))}
        env.update(
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            TMPDIR=str(self.work),
        )
        env.update(extra)
        return env


def _pinned() -> Dict[str, Any]:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def timed_loop(seconds: float, operation: Callable[[int], Any]) -> List[Any]:
    """Run ``operation(0), operation(1), ...`` until ``seconds`` have passed."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(operation(len(results)))
    return results


def probe_setup(ctx: Context, kind: str, spec: Any) -> float:
    """One cold set-up in a fresh interpreter (see probe.py)."""
    completed = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), kind, spec.to_json()],
        env=ctx.env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def check_record(outcome: Outcome, label: str, record: Dict[str, Any], digest: str, pinned: Optional[str]) -> None:
    """A record must be sound, solve its algorithm's problem and match its pin."""
    kind = get_algorithm(label).kind
    solved = record["solves_listing"] if kind == "listing" else record["solves_finding"]
    problem = ""
    if not record["sound"]:
        problem = f"{label} seed {record['seed']}: reported a non-triangle"
    elif not solved:
        problem = f"{label} seed {record['seed']}: did not solve {kind}"
    elif pinned is not None and digest != pinned:
        problem = f"{label} seed {record['seed']}: record digest {digest[:12]} != pinned {pinned[:12]}"
    outcome.op(not problem, problem)


def layer_metrics(spans, counts: Dict[str, int], ops: int) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics of a traced pass with ``ops`` operations.

    Times ending in ``_s`` are per operation (summed over processes);
    ``dynamic.*_ms`` are per call.
    """
    table = tracing.summarize(spans)

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0) / ops

    def per_call_ms(name: str) -> float:
        row = table.get(name)
        return 1000.0 * row["busy_s"] / row["calls"] if row else 0.0

    passes = ("core.a1", "core.a2", "core.a3", "core.baseline")
    metrics = {
        "graphs.build_s": busy("graphs.build"),
        "graphs.csr_s": busy("graphs.csr"),
        "graphs.share_s": busy("graphs.share"),
        "graphs.attach_s": busy("graphs.attach"),
        "hashing.sample_s": busy("hashing.sample"),
        "core.a1_s": busy("core.a1"),
        "core.a2_s": busy("core.a2"),
        "core.a3_s": busy("core.a3"),
        "core.baseline_s": busy("core.baseline"),
        "core.self_s": sum(table.get(name, {}).get("self_s", 0.0) for name in passes) / ops,
        "core.output_s": busy("core.output"),
        "core.passes": counts["passes"] / ops,
        "core.dup_frac": counts["repeats"] / counts["reports"] if counts["reports"] else 0.0,
        "congest.exchange_s": busy("congest.exchange"),
        "congest.phases": table.get("congest.exchange", {}).get("calls", 0) / ops,
        "analysis.verify_s": busy("analysis.verify"),
        "api.record_s": busy("api.record"),
        "service.execute_s": busy("service.execute"),
        "dynamic.build_s": table.get("dynamic.build", {}).get("busy_s", 0.0),
        "dynamic.query_ms": per_call_ms("dynamic.query"),
        "dynamic.apply_ms": per_call_ms("dynamic.apply"),
        "dynamic.oracle_apply_ms": per_call_ms("dynamic.oracle_apply"),
        "dynamic.delta_apply_ms": per_call_ms("dynamic.delta_apply"),
        "trace.spans": len(spans) / ops,
    }
    layers = {key[6:]: row for key, row in table.items() if key.startswith("layer:")}
    return metrics, layers


def record_totals(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Rounds, messages and bits summed over the first traced operation's
    records, which are the same for every run at one seed."""
    return {f"congest.{name}": sum(record[name] for record in records) for name in ("rounds", "messages", "bits")}


def paired_overhead(untraced: List[float], traced: List[float]) -> float:
    """Traced minus untraced time over the operations both passes ran."""
    common = min(len(untraced), len(traced))
    return sum(traced[:common]) / sum(untraced[:common]) - 1.0


# ---------------------------------------------------------------------------
# listing-run
# ---------------------------------------------------------------------------


def gnp_sqrt(nodes: int) -> WorkloadSpec:
    """``gnp(n, √n/n)``, the paper's sparse regime."""
    return WorkloadSpec("gnp", {"num_nodes": nodes, "edge_probability": math.sqrt(nodes) / nodes})


def listing_spec(seed: int, index: int) -> RunSpec:
    return RunSpec(
        algorithm=AlgorithmSpec("theorem2-listing", {}),
        workload=gnp_sqrt(LISTING_NODES),
        seed=derive(seed, STREAM_LISTING, index),
    )


def listing_warmup(seed: int) -> None:
    RunSpec(
        algorithm=AlgorithmSpec("theorem2-listing", {}),
        workload=gnp_sqrt(WARMUP_NODES),
        seed=derive(seed, STREAM_WARMUP, 0),
    ).run()


def listing_run(ctx: Context) -> Outcome:
    outcome = Outcome()
    pinned = _pinned()
    pins = pinned["listing"] if ctx.seed == pinned["seed"] else []
    tracer: Optional[tracing.Tracer] = None
    records: List[Dict[str, Any]] = []

    def operation(index: int) -> Tuple[float, str]:
        spec = listing_spec(ctx.seed, index)
        scope = tracer.span("bench.op", op=f"listing:{index}") if tracer else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            record = spec.run()
            elapsed = time.perf_counter() - start
            # What `repro run --json` does with the record.
            encode = tracer.span("api.record") if tracer else contextlib.nullcontext()
            with encode:
                document = record.to_dict()
                digest = sha256(canonical_json(document))
        if tracer and index == 0:
            records.append(document)
        check_record(outcome, "theorem2-listing", document, digest, pins[index] if index < len(pins) else None)
        return elapsed, digest

    if not ctx.trace:
        setups = [probe_setup(ctx, "listing", listing_spec(ctx.seed, 0)) for _ in range(SETUP_PROBES)]
        listing_warmup(ctx.seed)
        results = timed_loop(ctx.seconds, operation)
        times = [elapsed for elapsed, _ in results]
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "op_ms": 1000 * statistics.median(times),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.details = {
            "run_s": statistics.median(times),
            "run_s_each": [round(t, 3) for t in times],
            "run_s_max": max(times),
            "records_per_s": len(times) / sum(times),
            "runs": len(times),
            "setup_s_each": [round(t, 3) for t in setups],
        }
        return outcome

    listing_warmup(ctx.seed)
    untraced = timed_loop(ctx.seconds / 2, operation)
    tracer = tracing.install()
    traced = timed_loop(ctx.seconds / 2, operation)
    for index, ((_, plain), (_, with_spans)) in enumerate(zip(untraced, traced)):
        if plain != with_spans:
            outcome.broken.append(f"listing op {index}: traced record differs from the untraced one")
    spans = [(os.getpid(), span) for span in tracer.spans()]
    ops = len(traced)
    metrics, outcome.layers = layer_metrics(spans, tracer.counts, ops)
    outcome.ops = ops
    metrics.update(record_totals(records))
    wall = sum(elapsed for elapsed, _ in traced)
    metrics["trace.coverage"] = tracing.top_level_seconds(spans, ("bench.op",)) / wall
    metrics["trace.overhead_frac"] = paired_overhead([t for t, _ in untraced], [t for t, _ in traced])
    outcome.metrics = metrics
    outcome.details = {"traced_runs": ops, "untraced_runs": len(untraced)}
    outcome.spans = spans
    return outcome


# ---------------------------------------------------------------------------
# finding-sweep and fleet-submit
# ---------------------------------------------------------------------------


def sweep_spec(seed: int, index: int) -> SweepSpec:
    return SweepSpec(
        experiment="perfbench-sweep",
        algorithms=tuple(AlgorithmSpec(name, {}) for name in SWEEP_ALGORITHMS),
        workload=gnp_sqrt(SWEEP_NODES),
        seeds=tuple(derive(seed, STREAM_SWEEP, SWEEP_GRAPHS * index + k) for k in range(SWEEP_GRAPHS)),
    )


def sweep_warmup_spec(seed: int) -> SweepSpec:
    return SweepSpec(
        experiment="perfbench-warmup",
        algorithms=tuple(AlgorithmSpec(name, {}) for name in SWEEP_ALGORITHMS),
        workload=gnp_sqrt(WARMUP_NODES),
        seeds=tuple(derive(seed, STREAM_WARMUP, k) for k in range(WORKERS)),
    )


def check_store(ctx: Context, outcome: Outcome, index: int, path: Path, spec: SweepSpec) -> Tuple[str, List[Dict[str, Any]]]:
    """Check every record of a sweep store; return its digest and records.

    At the pinned seed each record and the whole file must match the
    digests of the serial reference engine, so pool and fleet stores are
    byte-identical to each other as well.
    """
    data = path.read_bytes()
    lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    entries = [line for line in lines if line.get("kind") == "record"]
    pinned = _pinned()
    pins = pinned["sweep"][index] if ctx.seed == pinned["seed"] and index < len(pinned["sweep"]) else None
    expected = len(spec.cells())
    if len(entries) != expected:
        outcome.broken.append(f"sweep {index}: {len(entries)} records in the store, expected {expected}")
    for position, entry in enumerate(entries):
        digest = sha256(canonical_json(entry["record"]))
        check_record(outcome, entry["label"], entry["record"], digest, pins["records"][position] if pins else None)
    store_digest = hashlib.sha256(data).hexdigest()
    if pins and store_digest != pins["store"]:
        outcome.broken.append(f"sweep {index}: store digest {store_digest[:12]} != pinned {pins['store'][:12]}")
    return store_digest, [entry["record"] for entry in entries]


def finding_sweep(ctx: Context) -> Outcome:
    outcome = Outcome()
    tracer: Optional[tracing.Tracer] = None
    planes: List[Dict[str, Any]] = []
    records: List[Dict[str, Any]] = []

    def operation(index: int) -> Tuple[float, float, str]:
        spec = sweep_spec(ctx.seed, index)
        path = ctx.work / f"sweep-{index}-{'traced' if tracer else 'plain'}.jsonl"
        first: List[float] = []
        # Each sweep starts like a fresh `repro sweep` process, with an empty
        # per-process workload cache for the runner to build graphs into.
        getattr(experiments, "_GRAPH_CACHE", {}).clear()
        start = time.perf_counter()

        def progress(done: int, total: int) -> None:
            if done and not first:
                first.append(time.perf_counter() - start)

        with SweepRunner(max_workers=WORKERS) as runner:
            scope = tracer.span("bench.op", op=f"sweep:{index}") if tracer else contextlib.nullcontext()
            with scope:
                run_sweep(spec, path, runner=runner, progress=progress)
            elapsed = time.perf_counter() - start
            planes.append(dict(runner.last_plane or {}))
        digest, stored = check_store(ctx, outcome, index, path, spec)
        if tracer and index == 0:
            records.extend(stored)
        return elapsed, first[0], digest

    def warmup() -> None:
        with SweepRunner(max_workers=WORKERS) as runner:
            run_sweep(sweep_warmup_spec(ctx.seed), ctx.work / "warmup.jsonl", runner=runner)

    if not ctx.trace:
        setups = [probe_setup(ctx, "sweep", sweep_spec(ctx.seed, 0)) for _ in range(SETUP_PROBES)]
        warmup()
        results = timed_loop(ctx.seconds, operation)
        times = [elapsed for elapsed, _, _ in results]
        firsts = [first for _, first, _ in results]
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "op_ms": 1000 * statistics.median(times),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.details = {
            "sweep_s": statistics.median(times),
            "first_record_s": statistics.median(firsts),
            "sweep_s_each": [round(t, 3) for t in times],
            "sweep_s_max": max(times),
            "records_per_s": len(SWEEP_ALGORITHMS) * SWEEP_GRAPHS * len(times) / sum(times),
            "first_record_s_each": [round(t, 3) for t in firsts],
            "sweeps": len(times),
            "setup_probes": len(setups),
        }
        return outcome

    warmup()
    untraced = timed_loop(ctx.seconds / 2, operation)
    trace_dir = ctx.work / "spans"
    trace_dir.mkdir()
    tracer = tracing.install(child_dir=trace_dir)
    planes.clear()
    traced = timed_loop(ctx.seconds / 2, operation)
    for index, (plain, with_spans) in enumerate(zip(untraced, traced)):
        if plain[2] != with_spans[2]:
            outcome.broken.append(f"sweep {index}: traced store differs from the untraced one")
    spans, counts = tracing.load_spans(tracer.spans(), trace_dir)
    for key, value in tracer.counts.items():
        counts[key] += value
    ops = len(traced)
    metrics, outcome.layers = layer_metrics(spans, counts, ops)
    outcome.ops = ops
    metrics.update(record_totals(records))
    wall = sum(elapsed for elapsed, _, _ in traced)
    # Both workers are busy for the whole sweep when nothing is missing.
    metrics["trace.coverage"] = tracing.top_level_seconds(spans, ("bench.op",)) / (WORKERS * wall)
    metrics["trace.overhead_frac"] = paired_overhead([t for t, _, _ in untraced], [t for t, _, _ in traced])
    outcome.metrics = metrics
    outcome.details = {"traced_sweeps": ops, "untraced_sweeps": len(untraced), **_plane_details(planes)}
    outcome.spans = spans
    return outcome


def _plane_details(planes: List[Dict[str, Any]]) -> Dict[str, float]:
    """``SweepRunner.last_plane`` diagnostics, averaged over the traced sweeps."""
    return {
        "pickled_bytes_per_cell": statistics.fmean(p.get("pickled_bytes_per_cell", 0.0) for p in planes),
        "workloads_shared": statistics.fmean(p.get("workloads_shared", 0) for p in planes),
    }


class _Server:
    """A server process the benchmark started, with its log and client."""

    root: Path
    process: subprocess.Popen
    client: ServiceClient

    def stop(self) -> float:
        """Ask for shutdown; seconds until the process exits and ``service.json`` is gone."""
        start = time.perf_counter()
        try:
            self.client.shutdown()
            self.client.close()
            self.process.wait(timeout=120)
            while (self.root / "service.json").exists():
                if time.perf_counter() - start > 120:
                    raise ServiceError(f"{self.root}/service.json outlived its server")
                time.sleep(POLL_SECONDS)
        except BaseException:
            self.kill()
            raise
        elapsed = time.perf_counter() - start
        self._log.close()
        return elapsed

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()


class Fleet(_Server):
    """One ``repro serve`` lifecycle: launch, submit, stop."""

    def __init__(self, ctx: Context, name: str, trace_dir: Optional[Path] = None) -> None:
        self.root = ctx.work / name
        traced = {} if trace_dir is None else {"REPRO_PRELOAD": "perfbench.preload", tracing.TRACE_DIR_ENV: str(trace_dir)}
        self._log = (ctx.work / f"{name}.log").open("ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.root), "--workers", str(WORKERS)],
            env=ctx.env(**traced),
            cwd=ROOT,
            stdout=self._log,
            stderr=self._log,
        )
        try:
            self.client = ServiceClient.connect(self.root, timeout=60, poll=POLL_SECONDS)
            while sum(w["state"] != "starting" for w in self.client.status()["workers"]) < WORKERS:
                if time.perf_counter() - start > 60:
                    raise ServiceError("fleet workers did not connect within 60 s")
                time.sleep(POLL_SECONDS)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def submit(self, spec: SweepSpec, out: Path) -> Tuple[float, Dict[str, Any]]:
        """Submit and wait; returns the job's submit-to-last-record seconds.

        The dispatcher times the job itself, so the client can poll slowly
        and leave the two cores to the workers.
        """
        job = self.client.submit(spec.to_dict(), out=out)
        job = self.client.wait_job(job["id"], poll=0.1, timeout=170)
        return job["elapsed_seconds"], job


def fleet_submit(ctx: Context) -> Outcome:
    outcome = Outcome()
    records: List[Dict[str, Any]] = []
    starts: List[int] = []

    def session(fleet: Fleet, seconds: float, tag: str, keep: bool) -> List[Tuple[float, Dict[str, Any], str]]:
        fleet.submit(sweep_warmup_spec(ctx.seed), ctx.work / f"fleet-warmup-{tag}.jsonl")
        starts.append(time.perf_counter_ns())

        def operation(index: int):
            spec = sweep_spec(ctx.seed, index)
            path = ctx.work / f"fleet-{index}-{tag}.jsonl"
            elapsed, job = fleet.submit(spec, path)
            digest, stored = check_store(ctx, outcome, index, path, spec)
            if keep and index == 0:
                records.extend(stored)
            return elapsed, job, digest

        return timed_loop(seconds, operation)

    if not ctx.trace:
        setups, stops = [], []
        for cycle in range(SERVICE_LIFECYCLES - 1):
            fleet = Fleet(ctx, f"fleet-idle-{cycle}")
            setups.append(fleet.setup_s)
            stops.append(fleet.stop())
        fleet = Fleet(ctx, "fleet")
        setups.append(fleet.setup_s)
        try:
            results = session(fleet, ctx.seconds, "plain", keep=False)
        finally:
            stops.append(fleet.stop())
        times = [elapsed for elapsed, _, _ in results]
        firsts = [job["first_record_seconds"] for _, job, _ in results]
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "op_ms": 1000 * statistics.median(times),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.details = {
            "sweep_s": statistics.median(times),
            "first_record_s": statistics.median(firsts),
            "sweep_s_each": [round(t, 3) for t in times],
            "sweep_s_max": max(times),
            "records_per_s": len(SWEEP_ALGORITHMS) * SWEEP_GRAPHS * len(times) / sum(times),
            "first_record_s_each": [round(t, 3) for t in firsts],
            "stop_s": statistics.median(stops),
            "stop_s_each": [round(t, 3) for t in stops],
            "setup_s_each": [round(t, 3) for t in setups],
            "jobs": len(times),
            "lifecycles": len(setups),
        }
        return outcome

    plain_fleet = Fleet(ctx, "fleet-plain")
    try:
        untraced = session(plain_fleet, ctx.seconds / 2, "plain", keep=False)
    finally:
        plain_fleet.stop()
    trace_dir = ctx.work / "spans"
    trace_dir.mkdir()
    traced_fleet = Fleet(ctx, "fleet-traced", trace_dir=trace_dir)
    try:
        traced = session(traced_fleet, ctx.seconds / 2, "traced", keep=True)
    finally:
        traced_fleet.stop()
    for index, (plain, with_spans) in enumerate(zip(untraced, traced)):
        if plain[2] != with_spans[2]:
            outcome.broken.append(f"fleet job {index}: traced store differs from the untraced one")
    spans, counts = tracing.load_spans([], trace_dir, since=starts[-1])
    ops = len(traced)
    metrics, outcome.layers = layer_metrics(spans, counts, ops)
    outcome.ops = ops
    metrics.update(record_totals(records))
    walls = [elapsed for elapsed, _, _ in traced]
    executed = sum(job["executed"] for _, job, _ in traced)
    retries = sum(job["retries"] + job["expired_leases"] for _, job, _ in traced)
    metrics["service.retry_frac"] = retries / (executed + retries) if executed + retries else 0.0
    # Each worker is either executing a lease (attach included) or waiting.
    metrics["service.lease_wait_s"] = max(WORKERS * sum(walls) / ops - metrics["service.execute_s"], 0.0)
    metrics["trace.coverage"] = tracing.top_level_seconds(spans, ("bench.op",)) / (WORKERS * sum(walls))
    metrics["trace.overhead_frac"] = paired_overhead([t for t, _, _ in untraced], walls)
    outcome.metrics = metrics
    outcome.details = {"traced_jobs": ops, "untraced_jobs": len(untraced)}
    outcome.spans = spans
    return outcome


# ---------------------------------------------------------------------------
# query-mixed
# ---------------------------------------------------------------------------


@dataclass
class QueryInputs:
    graph_seed: int
    batches: List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]
    node_sets: List[List[int]]
    edge_sets: List[List[List[int]]]


def query_inputs(seed: int, batches: int) -> QueryInputs:
    """The base graph's seed plus every write batch and read argument.

    Batches are effective by construction: inserts are absent edges,
    deletes are present ones, tracked across the whole schedule.
    """
    graph_seed = derive(seed, STREAM_QUERY_GRAPH, 0)
    n = QUERY_NODES
    csr = WorkloadSpec("gnp", {"num_nodes": n, "edge_probability": QUERY_P}).build(seed=graph_seed).csr()
    keys = (csr.edge_u.astype(np.int64) * n + csr.edge_v).tolist()
    rng = np.random.default_rng(derive(seed, STREAM_QUERY_OPS, 0))
    order = rng.permutation(len(keys))
    protected = [keys[j] for j in order[:READ_EDGE_POOL]]
    deletable = [keys[j] for j in order[READ_EDGE_POOL:]]
    present = set(keys)
    schedule = []
    for _ in range(batches):
        deletes = []
        for _ in range(BATCH_DELETES):
            j = int(rng.integers(len(deletable)))
            deletes.append(deletable[j])
            deletable[j] = deletable[-1]
            deletable.pop()
        inserts: List[int] = []
        while len(inserts) < BATCH_INSERTS:
            u, v = (int(x) for x in rng.integers(n, size=2))
            key = min(u, v) * n + max(u, v)
            if u != v and key not in present and key not in inserts:
                inserts.append(key)
        present.difference_update(deletes)
        present.update(inserts)
        deletable.extend(inserts)
        schedule.append(([divmod(k, n) for k in inserts], [divmod(k, n) for k in deletes]))
    node_sets = [sorted(int(x) for x in rng.choice(n, READ_NODES, replace=False)) for _ in range(8)]
    edge_sets = [
        [list(divmod(k, n)) for k in protected[i : i + READ_EDGES]]
        for i in range(0, READ_EDGE_POOL, READ_EDGES)
    ]
    return QueryInputs(graph_seed, schedule, node_sets, edge_sets)


class QueryService(_Server):
    """One query-server lifecycle through the benchmark's launcher."""

    def __init__(self, ctx: Context, name: str, graph_seed: int, trace_dir: Optional[Path] = None) -> None:
        self.root = ctx.work / name
        command = [
            sys.executable,
            str(BENCH / "query_server.py"),
            str(self.root),
            "--nodes", str(QUERY_NODES),
            "--p", str(QUERY_P),
            "--seed", str(graph_seed),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self._log = (ctx.work / f"{name}.log").open("ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(command, env=ctx.env(), cwd=ROOT, stdout=self._log, stderr=self._log)
        try:
            self.client = QueryClient.connect(self.root, timeout=60, poll=POLL_SECONDS)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start


@dataclass
class QuerySession:
    reads: List[float] = field(default_factory=list)
    #: Time of each whole pass through the read mix (four round trips).
    passes: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    window: float = 0.0
    compactions: int = 0


def pin_threads(pids: List[int], cpu: int) -> None:
    """Move every thread of the processes ``pids`` to ``cpu``."""
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with contextlib.suppress(OSError):  # the thread has just exited
                os.sched_setaffinity(int(tid), {cpu})


def query_session(
    service: QueryService, inputs: QueryInputs, seconds: float, outcome: Outcome, cpus: List[int]
) -> QuerySession:
    """Reader and writer connections for ``seconds``, then the server's verify.

    Every ``CPU_TURN_SECONDS`` the reader moves this process and the server
    together to the next of ``cpus`` (none: no moves).
    """
    session = QuerySession()
    reader_client = QueryClient(service.root)
    writer_client = service.client
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.05
    stop_at = start + seconds
    lock = threading.Lock()

    def record(ok: bool, problem: str = "") -> None:
        with lock:
            outcome.op(ok, problem)

    def reader() -> None:
        last = 0
        index = 0
        turn = 0
        while time.perf_counter() < stop_at:
            kind = index % 4
            if kind == 0:
                if cpus and time.perf_counter() - start >= (turn + 1) * CPU_TURN_SECONDS:
                    turn += 1
                    pin_threads([os.getpid(), service.process.pid], cpus[turn % len(cpus)])
                pass_start, pass_ok = time.perf_counter(), True
                spec = QuerySpec("count")
            elif kind == 1:
                spec = QuerySpec("node-counts", {"nodes": inputs.node_sets[index // 4 % len(inputs.node_sets)]})
            elif kind == 2:
                spec = QuerySpec("edge-support", {"edges": inputs.edge_sets[index // 4 % len(inputs.edge_sets)]})
            else:
                spec = QuerySpec("delta-since", {"version": last})
            index += 1
            sent = time.perf_counter()
            try:
                result = reader_client.query(spec)
            except ServiceError as exc:
                record(False, f"{spec.kind}: error frame: {exc}")
                pass_ok = False
                continue
            done = time.perf_counter()
            session.reads.append(done - sent)
            if kind == 3 and pass_ok:
                session.passes.append(done - pass_start)
            if result.version < last:
                record(False, f"{spec.kind}: version went back from {last} to {result.version}")
            elif spec.kind == "edge-support" and None in result.payload["support"]:
                record(False, "edge-support: a never-deleted edge was reported absent")
            else:
                record(True)
            last = result.version

    def writer() -> None:
        version = 0
        for index, (inserts, deletes) in enumerate(inputs.batches):
            due = start + index / BATCH_RATE
            if due >= stop_at:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                delta = writer_client.apply(inserts, deletes)
            except ServiceError as exc:
                record(False, f"apply: error frame: {exc}")
                continue
            done = time.perf_counter()
            session.writes.append(done - due)
            session.lateness.append(sent - due)
            effective = len(delta["inserted"]) == BATCH_INSERTS and len(delta["deleted"]) == BATCH_DELETES
            if delta["version"] != version + 1:
                record(False, f"apply: version {delta['version']} after {version}")
            elif not effective:
                record(False, f"apply: batch {index} was not fully effective")
            else:
                record(True)
            version = delta["version"]
        errors.append(RuntimeError("the write schedule ran out before the window ended"))

    def guarded(target: Callable[[], None]) -> Callable[[], None]:
        def body() -> None:
            try:
                target()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        return body

    threads = [threading.Thread(target=guarded(reader)), threading.Thread(target=guarded(writer))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    reader_client.close()
    if errors:
        raise errors[0]
    session.window = time.perf_counter() - start
    try:
        writer_client.verify()
    except ServiceError as exc:
        outcome.broken.append(f"server verify failed: {exc}")
    status = writer_client.request({"type": "status"})
    session.compactions = int(status["compactions"])
    if status["version"] != len(session.writes):
        outcome.broken.append(f"server at version {status['version']} after {len(session.writes)} batches")
    return session


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the servers it launches, on one CPU at a time.

    Yields the CPUs this process may use, lowest first, and keeps it on the
    first of them; servers launched inside inherit that.  The reader and
    the server hand each request back and forth.  On one CPU each hand-off
    is a context switch.  Left to the scheduler, the two often sat on
    different CPUs, and then every hand-off woke the other CPU with an
    interrupt, whose cost on a shared virtual machine follows the host's
    load.  The two virtual CPUs also run at speeds that change every few
    seconds and hardly together, so :func:`query_session` moves reader and
    server to the next CPU every ``CPU_TURN_SECONDS``: a run samples every
    CPU alike.  Yields no CPUs where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield []
        return
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, set(cpus))


def query_mixed(ctx: Context) -> Outcome:
    with one_cpu() as cpus:
        return _query_mixed(ctx, cpus)


def _query_mixed(ctx: Context, cpus: List[int]) -> Outcome:
    outcome = Outcome()
    inputs = query_inputs(ctx.seed, int(ctx.seconds * BATCH_RATE) + 2)

    if not ctx.trace:
        setups, stops = [], []
        for cycle in range(SERVICE_LIFECYCLES - 1):
            service = QueryService(ctx, f"query-idle-{cycle}", inputs.graph_seed)
            setups.append(service.setup_s)
            stops.append(service.stop())
        service = QueryService(ctx, "query", inputs.graph_seed)
        setups.append(service.setup_s)
        try:
            session = query_session(service, inputs, ctx.seconds, outcome, cpus)
        finally:
            stops.append(service.stop())
        reads, writes = session.reads, session.writes
        # The gated operation is the write, timed from its due time, at
        # its 90th percentile: the tail that overlay growth and compaction
        # make.  Reads are pure interpreter and socket work and follow this
        # host's speed more closely than applies, whose oracle and overlay
        # updates run largely in numpy (see METRICS.md).
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "op_ms": 1000 * float(np.quantile(writes, 0.9)),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.details = {
            "pass_p50_ms": 1000 * statistics.median(session.passes),
            "mix_passes": len(session.passes),
            "read_p50_ms": 1000 * statistics.median(reads),
            "read_p99_ms": 1000 * float(np.quantile(reads, 0.99)),
            "reads": len(reads),
            "reads_per_s": len(reads) / session.window,
            "write_p50_ms": 1000 * statistics.median(writes),
            "writes": len(writes),
            "write_lateness_p50_ms": 1000 * statistics.median(session.lateness),
            "write_lateness_max_ms": 1000 * max(session.lateness),
            "compactions": session.compactions,
            "stop_s": statistics.median(stops),
            "setup_s_each": [round(t, 3) for t in setups],
            "lifecycles": len(setups),
        }
        return outcome

    plain = QueryService(ctx, "query-plain", inputs.graph_seed)
    try:
        untraced = query_session(plain, inputs, ctx.seconds / 2, outcome, cpus)
    finally:
        plain.stop()
    trace_dir = ctx.work / "spans"
    trace_dir.mkdir()
    service = QueryService(ctx, "query-traced", inputs.graph_seed, trace_dir=trace_dir)
    try:
        traced = query_session(service, inputs, ctx.seconds / 2, outcome, cpus)
    finally:
        service.stop()
    spans, counts = tracing.load_spans([], trace_dir)
    metrics, outcome.layers = layer_metrics(spans, counts, 1)
    table = tracing.summarize(spans)
    engine_reads = table.get("dynamic.query", {"busy_s": 0.0, "calls": 1})
    metrics["service.wire_ms"] = 1000 * (
        statistics.fmean(traced.reads) - engine_reads["busy_s"] / max(engine_reads["calls"], 1)
    )
    metrics["dynamic.compactions"] = traced.compactions
    served = sum(traced.reads) + sum(traced.writes)
    metrics["trace.coverage"] = (
        table.get("dynamic.query", {}).get("busy_s", 0.0) + table.get("dynamic.apply", {}).get("busy_s", 0.0)
    ) / served
    metrics["trace.overhead_frac"] = statistics.median(traced.reads) / statistics.median(untraced.reads) - 1.0
    outcome.metrics = metrics
    outcome.details = {"traced_reads": len(traced.reads), "untraced_reads": len(untraced.reads)}
    outcome.spans = spans
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "listing-run": listing_run,
    "finding-sweep": finding_sweep,
    "fleet-submit": fleet_submit,
    "query-mixed": query_mixed,
}
