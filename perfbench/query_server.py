"""Launch a triangle query server over a generated ``gnp`` graph.

The same launcher serves the untraced and the traced benchmark runs, so
the two differ only in the span wrappers::

    python3 perfbench/query_server.py ROOT --nodes 4000 --p 0.01 --seed 7 \\
        [--trace-dir DIR]

It builds the graph through the public workload registry, indexes it in a
``TriangleQueryEngine``, serves it with ``QueryServer`` until a client
sends ``shutdown`` (or SIGTERM arrives), then stops the server.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root")
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    if args.trace_dir:
        from perfbench.tracing import install

        # One span per request: flushing each would put file writes on the
        # request path, so the spans are written once, at exit.
        install(flush_dir=Path(args.trace_dir), flush_roots=False)
    from repro.api import WorkloadSpec
    from repro.dynamic import QueryServer, TriangleQueryEngine

    workload = WorkloadSpec("gnp", {"num_nodes": args.nodes, "edge_probability": args.p})
    engine = TriangleQueryEngine(workload.build(seed=args.seed))
    server = QueryServer(args.root, engine, source={"workload": workload.to_dict(), "seed": args.seed})
    server.start()
    signal.signal(signal.SIGTERM, lambda *_: server.request_stop())
    try:
        server.wait()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    raise SystemExit(main())
