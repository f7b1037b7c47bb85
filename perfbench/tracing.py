"""Span recorder and layer wrappers for the traced benchmark run.

The repro package has no trace plane of its own yet, so the traced run
wraps public functions at each layer boundary from here, outside the
package.  A wrapper records one span per call: name, start, end, parent
span and an operation id shared by the spans of one record or request.
Spans stay in memory; processes other than the benchmark's own (pool
workers, fleet processes, the query server) append theirs to
``spans-<pid>.jsonl`` files in the trace directory, once per finished
top-level span and at exit.  :func:`load_spans` merges them and
:func:`summarize` turns them into busy and self times per layer.

Span names are ``<layer>.<what>``; the layer is a module of the repro
package (``graphs``, ``hashing``, ``core``, ``congest``, ``analysis``,
``api``, ``service``, ``dynamic``).  The benchmark's own operation spans
use the layer ``bench``.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Set in the environment of every process that should record spans.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: (module, attribute path, span name) of every wrapped function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.specs", "WorkloadSpec.build", "graphs.build"),
    ("repro.graphs.graph", "Graph.csr", "graphs.csr"),
    ("repro.graphs.shm", "share_csr", "graphs.share"),
    ("repro.graphs.shm", "attach_shared_graph", "graphs.attach"),
    ("repro.hashing.kwise", "KWiseIndependentFamily.sample", "hashing.sample"),
    ("repro.core.a1_sampling", "HeavySamplingFinder.run", "core.a1"),
    ("repro.core.a2_heavy", "HeavyHashingLister.run", "core.a2"),
    ("repro.core.a3_light", "LightTrianglesLister.run", "core.a3"),
    ("repro.core.baselines", "NaiveTwoHopListing.run", "core.baseline"),
    ("repro.core.clique_dolev", "DolevCliqueListing.run", "core.baseline"),
    ("repro.core.finding", "TriangleFinding.run", "core.theorem"),
    ("repro.core.listing", "TriangleListing.run", "core.theorem"),
    ("repro.core.output", "TriangleOutput.from_contexts", "core.output"),
    ("repro.core.output", "TriangleOutput.merged_with", "core.output"),
    ("repro.congest.simulator", "CongestSimulator.exchange_phase", "congest.exchange"),
    ("repro.congest.simulator", "CongestSimulator.run_phase", "congest.exchange"),
    ("repro.analysis.verification", "verify_result", "analysis.verify"),
    # The process pool's per-cell entry point: the root span of a cell in
    # a pool worker, after which the worker flushes its spans.
    ("repro.analysis.experiments", "_execute_cell", "analysis.cell"),
    ("repro.api.store", "RecordStore.append", "api.record"),
    ("repro.service.worker", "execute_lease", "service.execute"),
    ("repro.dynamic.engine", "TriangleQueryEngine.__init__", "dynamic.build"),
    ("repro.dynamic.engine", "TriangleQueryEngine.query", "dynamic.query"),
    ("repro.dynamic.engine", "TriangleQueryEngine.apply_batch", "dynamic.apply"),
    ("repro.dynamic.engine", "TriangleQueryEngine.verify_against_recompute", "dynamic.verify"),
    ("repro.dynamic.oracle", "IncrementalTriangleOracle.apply_batch", "dynamic.oracle_apply"),
    ("repro.dynamic.delta", "DeltaGraph.apply_batch", "dynamic.delta_apply"),
)

#: Algorithm passes whose reports are checked for repeats (``core.dup_frac``).
PASS_SPANS = ("core.a1", "core.a2", "core.a3")

# A finished span: (id, parent id or -1, name, start ns, end ns, op, thread).
Span = Tuple[int, int, str, int, int, str, int]


class Tracer:
    """Per-process span recorder.

    ``flush_dir`` set means the process is not the benchmark's own: process
    exit, and with ``flush_roots`` each finished top-level span, append the
    buffered spans to ``<flush_dir>/spans-<pid>.jsonl``.  Workers need
    ``flush_roots``, because they can end without running exit handlers.
    """

    def __init__(self, flush_dir: Optional[Path] = None, flush_roots: bool = True) -> None:
        self.flush_dir = flush_dir
        self.flush_roots = flush_roots
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._spans: List[Span] = []
        self._seen: Dict[int, set] = {}
        self.counts: Dict[str, int] = {"passes": 0, "reports": 0, "repeats": 0}

    def after_fork(self, flush_dir: Path) -> None:
        """Start empty in a forked child, which flushes like any worker."""
        self._reset()
        self.flush_dir = flush_dir

    def _stack(self) -> List[Tuple[int, str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[str] = None) -> Tuple[int, int, str]:
        """Open a span; returns ``(id, parent, op)`` for :meth:`end`."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if stack:
            parent, op, _ = stack[-1]
        else:
            parent = -1
            op = op if op is not None else f"{os.getpid()}:{span_id}"
        stack.append((span_id, op, name))
        return span_id, parent, op

    def end(self, name: str, opened: Tuple[int, int, str], start: int) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        span = (opened[0], opened[1], name, start, end, opened[2], threading.get_ident())
        with self._lock:
            self._spans.append(span)
        if not stack and self.flush_roots and self.flush_dir is not None:
            self.flush()

    def span(self, name: str, op: Optional[str] = None) -> "_SpanContext":
        """Context manager recording one span (the benchmark's op spans)."""
        return _SpanContext(self, name, op)

    def count_pass(self, result: Any) -> None:
        """Count one algorithm pass and the reports it repeats.

        Repeats are judged within the innermost open Theorem run (the
        repetitions of the paper's algorithms); a pass outside one is its
        own scope.
        """
        found = result.triangles_found()
        scope = next(
            (entry[0] for entry in reversed(self._stack()) if entry[2] == "core.theorem"),
            None,
        )
        seen = self._seen.setdefault(scope, set()) if scope is not None else set()
        self.counts["passes"] += 1
        self.counts["reports"] += len(found)
        self.counts["repeats"] += len(found & seen)
        seen |= found

    def close_scope(self, span_id: int) -> None:
        self._seen.pop(span_id, None)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def flush(self) -> None:
        with self._lock:
            spans, self._spans = self._spans, []
            counts = dict(self.counts)
            for key in self.counts:
                self.counts[key] = 0
        if not spans and not any(counts.values()):
            return
        path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
        line = json.dumps(
            {"pid": os.getpid(), "at": time.perf_counter_ns(), "spans": spans, "counts": counts}
        )
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, op: Optional[str]) -> None:
        self._tracer = tracer
        self._name = name
        self._op = op

    def __enter__(self) -> "_SpanContext":
        self._opened = self._tracer.begin(self._name, self._op)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.end(self._name, self._opened, self._start)


def _wrap(tracer: Tracer, function: Callable, name: str) -> Callable:
    is_pass = name in PASS_SPANS
    is_theorem = name == "core.theorem"

    @functools.wraps(function)
    def traced(*args, **kwargs):
        opened = tracer.begin(name)
        start = time.perf_counter_ns()
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(name, opened, start)
            if is_theorem:
                tracer.close_scope(opened[0])
        if is_pass:
            tracer.count_pass(result)
        return result

    return traced


def _patch(tracer: Tracer, module_name: str, path: str, name: str) -> None:
    module = importlib.import_module(module_name)
    owner: Any = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        raw = None
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(tracer, raw.__func__, name)))
        else:
            setattr(owner, attr, _wrap(tracer, raw, name))
        return
    original = getattr(owner, attr)
    traced = _wrap(tracer, original, name)
    # Modules that imported the function by name hold their own binding.
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and getattr(
            loaded, attr, None
        ) is original:
            setattr(loaded, attr, traced)


def install(
    flush_dir: Optional[Path] = None, child_dir: Optional[Path] = None, flush_roots: bool = True
) -> Tracer:
    """Wrap every target and return the process's tracer.

    ``flush_dir`` is for processes other than the benchmark's own (see
    :class:`Tracer` for ``flush_roots``).  In the benchmark's process,
    ``child_dir`` is where pool workers forked after this call flush their
    spans.
    """
    tracer = Tracer(flush_dir, flush_roots)
    for module_name, path, name in TARGETS:
        _patch(tracer, module_name, path, name)
    if flush_dir is not None:
        atexit.register(tracer.flush)
    elif child_dir is not None:
        def _in_child() -> None:
            tracer.after_fork(child_dir)
            atexit.register(tracer.flush)

        os.register_at_fork(after_in_child=_in_child)
    return tracer


def install_from_env() -> Optional[Tracer]:
    """Install in a child process when the trace directory is set."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    return install(Path(directory))


# ---------------------------------------------------------------------------
# merging and summaries
# ---------------------------------------------------------------------------


def load_spans(
    own: List[Span], directory: Optional[Path], since: int = 0
) -> Tuple[List[Tuple[int, Span]], Dict[str, int]]:
    """Merge the benchmark's own spans with every flushed child file.

    Child spans that started, and counters flushed, before ``since`` (a
    ``perf_counter_ns`` reading, comparable across processes on Linux)
    belong to a warm-up and are left out.  Returns ``(pid, span)`` pairs
    and the summed pass counters.
    """
    merged = [(os.getpid(), span) for span in own]
    counts = {"passes": 0, "reports": 0, "repeats": 0}
    if directory is not None:
        for path in sorted(directory.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                chunk = json.loads(line)
                merged.extend(
                    (chunk["pid"], tuple(span)) for span in chunk["spans"] if span[3] >= since
                )
                if chunk["at"] >= since:
                    for key, value in chunk["counts"].items():
                        counts[key] += value
    return merged, counts


def self_times(spans: List[Tuple[int, Span]]) -> Dict[Tuple[int, int], float]:
    """Span duration minus the part its child spans cover, in seconds.

    Children of one span run one after another on the parent's thread, so
    their durations add up to the interval they cover.
    """
    covered: Dict[Tuple[int, int], int] = {}
    for pid, span in spans:
        if span[1] >= 0:
            key = (pid, span[1])
            covered[key] = covered.get(key, 0) + span[4] - span[3]
    return {
        (pid, span[0]): max(span[4] - span[3] - covered.get((pid, span[0]), 0), 0) / 1e9
        for pid, span in spans
    }


def summarize(spans: List[Tuple[int, Span]]) -> Dict[str, Dict[str, float]]:
    """Busy time, self time and call count per span name and per layer.

    A layer's busy time counts only its outermost spans, so a layer
    calling itself is not counted twice.
    """
    selfs = self_times(spans)
    by_id = {(pid, span[0]): span for pid, span in spans}
    table: Dict[str, Dict[str, float]] = {}

    def row(key: str) -> Dict[str, float]:
        return table.setdefault(key, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})

    for pid, span in spans:
        duration = (span[4] - span[3]) / 1e9
        layer = span[2].split(".", 1)[0]
        entry = row(span[2])
        entry["busy_s"] += duration
        entry["self_s"] += selfs[(pid, span[0])]
        entry["calls"] += 1
        outermost = True
        parent = span[1]
        while parent >= 0:
            ancestor = by_id.get((pid, parent))
            if ancestor is None:
                break
            if ancestor[2].split(".", 1)[0] == layer:
                outermost = False
                break
            parent = ancestor[1]
        layer_row = row("layer:" + layer)
        layer_row["self_s"] += selfs[(pid, span[0])]
        layer_row["calls"] += 1
        if outermost:
            layer_row["busy_s"] += duration
    return table


def top_level_seconds(spans: List[Tuple[int, Span]], roots: Iterable[str]) -> float:
    """Time in spans that are direct children of a span named in ``roots``,
    or themselves top-level spans outside the benchmark's own process."""
    root_names = set(roots)
    by_id = {(pid, span[0]): span for pid, span in spans}
    total = 0
    for pid, span in spans:
        if span[2] in root_names:
            continue
        parent = by_id.get((pid, span[1])) if span[1] >= 0 else None
        if (parent is None and pid != os.getpid()) or (
            parent is not None and parent[2] in root_names
        ):
            total += span[4] - span[3]
    return total / 1e9


def write_trace_events(spans: List[Tuple[int, Span]], path: Path) -> None:
    """Write the spans as Chrome trace-event JSON (``ph: X`` events)."""
    events = [
        {
            "name": span[2],
            "cat": span[2].split(".", 1)[0],
            "ph": "X",
            "ts": span[3] / 1000.0,
            "dur": (span[4] - span[3]) / 1000.0,
            "pid": pid,
            "tid": span[6],
            "args": {"id": span[0], "parent": span[1], "op": span[5]},
        }
        for pid, span in spans
    ]
    path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
