"""A2 step 3 on the dense precompute: which route runs, and route parity.

The direct kernel lists every receiver's ``F_i`` either triangle-first
(G's triangles against the shipping and hash-zero matrices) or with the
fused zero-pair scan, whichever its cost model prices cheaper.  These
tests pin the choice on the two regimes that motivate it and check that
forcing either route on the same seeded run lists identical per-node keys.
"""

import math

import numpy as np
import pytest

from repro.core import HeavyHashingLister
from repro.core import a2_heavy
from repro.graphs import gnp_random_graph


def record_routes(monkeypatch):
    """Wrap the route chooser so a test can read back every decision."""
    routes = []
    choose = a2_heavy._step3_route

    def spy(*args):
        routes.append(choose(*args))
        return routes[-1]

    monkeypatch.setattr(a2_heavy, "_step3_route", spy)
    return routes


def test_default_schedule_lists_triangle_first(monkeypatch):
    # ε = 0 is what every default Theorem-2 run uses: hash range 1.
    routes = record_routes(monkeypatch)
    graph = gnp_random_graph(300, math.sqrt(300) / 300, seed=4)
    HeavyHashingLister(epsilon=0.0).run(graph, seed=1)
    assert routes == ["triangle-first"]


def test_dense_graph_at_analysis_epsilon_keeps_fused_scan(monkeypatch):
    routes = record_routes(monkeypatch)
    graph = gnp_random_graph(240, 0.5, seed=5)
    HeavyHashingLister(epsilon=0.6).run(graph, seed=1)
    assert routes == ["fused"]


@pytest.mark.parametrize("epsilon", [0.0, 0.4, 1.0])
def test_routes_list_identical_node_keys(monkeypatch, epsilon):
    graph = gnp_random_graph(60, 0.3, seed=6)
    outputs = {}
    for route in ("triangle-first", "fused"):
        monkeypatch.setattr(a2_heavy, "_step3_route", lambda *args, route=route: route)
        outputs[route] = HeavyHashingLister(epsilon=epsilon).run(graph, seed=2).output
    assert outputs["triangle-first"].total_reported() > 0
    for node in range(graph.num_nodes):
        assert np.array_equal(
            outputs["triangle-first"].node_keys(node), outputs["fused"].node_keys(node)
        )
