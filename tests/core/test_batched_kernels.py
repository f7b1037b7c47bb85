"""Differential tests: batched phase kernels vs the reference closures.

The CONGEST accounting discipline must not drift when a protocol's message
production moves from per-node Python closures to whole-network array
programs over the typed columnar plane.  These tests pin all three kernels
together on every workload family — ``reference`` (per-node closures),
``pernode`` (columnar staging, per-node inbox views) and ``batched`` (the
direct-exchange path with fused whole-network receivers) — asserting
identical per-phase round counts, link-bit maxima, message counts and bit
totals, and identical per-node triangle output sets, for the same seed.
"""

import math

import pytest

from repro.core import (
    DolevCliqueListing,
    HeavyHashingLister,
    HeavySamplingFinder,
    LightTrianglesLister,
    TriangleFinding,
    TriangleListing,
)
from repro.core.a3_light import run_axr
from repro.congest import CongestSimulator
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    complete_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    lollipop_graph,
    planted_triangle_graph,
    random_regular_graph,
    triangle_free_bipartite,
    union_of_cliques,
)

#: Every workload family the generators produce, at differential-test size.
WORKLOADS = [
    pytest.param(lambda: gnp_random_graph(40, 0.4, seed=11), id="gnp-dense"),
    pytest.param(lambda: gnp_random_graph(48, 0.08, seed=12), id="gnp-sparse"),
    pytest.param(lambda: complete_graph(20), id="clique"),
    pytest.param(lambda: barabasi_albert_graph(48, 4, seed=13), id="barabasi-albert"),
    pytest.param(lambda: random_regular_graph(40, 4, seed=14), id="random-regular"),
    pytest.param(lambda: triangle_free_bipartite(36, seed=15), id="triangle-free"),
    pytest.param(lambda: planted_triangle_graph(40, 5, seed=16)[0], id="planted"),
    pytest.param(lambda: heavy_edge_gadget(36, 10)[0], id="heavy-gadget"),
    pytest.param(lambda: lollipop_graph(10, 12), id="lollipop"),
    pytest.param(lambda: union_of_cliques([8, 6, 5]), id="clique-union"),
    pytest.param(lambda: Graph(7, []), id="edgeless"),
]


def assert_identical_execution(
    make_algorithm, graph, seeds=(0, 3), kernels=("batched", "pernode")
):
    """Run every kernel and assert the executions are indistinguishable."""
    for seed in seeds:
        reference = make_algorithm("reference").run(graph, seed=seed)
        reference_phases = [
            (phase.name, phase.rounds, phase.max_link_bits, phase.bits, phase.messages)
            for phase in reference.metrics.phases
        ]
        for kernel in kernels:
            run = make_algorithm(kernel).run(graph, seed=seed)
            assert run.cost == reference.cost, kernel
            assert run.truncated == reference.truncated, kernel
            run_phases = [
                (
                    phase.name,
                    phase.rounds,
                    phase.max_link_bits,
                    phase.bits,
                    phase.messages,
                )
                for phase in run.metrics.phases
            ]
            assert run_phases == reference_phases, kernel
            assert run.output.union() == reference.output.union(), kernel
            for node in range(graph.num_nodes):
                assert run.output.node_output(node) == reference.output.node_output(
                    node
                ), kernel


@pytest.mark.parametrize("make_graph", WORKLOADS)
class TestKernelEquivalence:
    def test_a1_sampling(self, make_graph):
        assert_identical_execution(
            lambda kernel: HeavySamplingFinder(epsilon=0.3, kernel=kernel),
            make_graph(),
        )

    def test_a2_heavy_hashing(self, make_graph):
        assert_identical_execution(
            lambda kernel: HeavyHashingLister(epsilon=0.4, kernel=kernel),
            make_graph(),
        )

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_a2_heavy_hashing_extreme_epsilon(self, make_graph, epsilon):
        # ε = 0 (hash range 1) is the default Theorem-2 regime; ε = 1 is
        # the widest hash range.
        assert_identical_execution(
            lambda kernel: HeavyHashingLister(epsilon=epsilon, kernel=kernel),
            make_graph(),
        )

    def test_a3_light_listing(self, make_graph):
        assert_identical_execution(
            lambda kernel: LightTrianglesLister(epsilon=0.3, kernel=kernel),
            make_graph(),
        )

    def test_dolev_clique_baseline(self, make_graph):
        assert_identical_execution(
            lambda kernel: DolevCliqueListing(kernel=kernel), make_graph(), seeds=(0,)
        )

    def test_theorem2_listing(self, make_graph):
        assert_identical_execution(
            lambda kernel: TriangleListing(
                repetitions=2, epsilon=0.5, kernel=kernel
            ),
            make_graph(),
            seeds=(1,),
        )


class TestCompositionsAndEdgeCases:
    def test_theorem1_finding_identical(self):
        graph = gnp_random_graph(36, 0.3, seed=21)
        assert_identical_execution(
            lambda kernel: TriangleFinding(
                repetitions=2, epsilon=0.4, kernel=kernel
            ),
            graph,
            seeds=(2,),
        )

    def test_theorem2_default_parameters_identical(self):
        # Default parameters on the √n schedule: the listing ε clamps to 0.
        graph = gnp_random_graph(100, math.sqrt(100) / 100, seed=22)
        assert_identical_execution(
            lambda kernel: TriangleListing(kernel=kernel), graph, seeds=(3,)
        )

    def test_axr_explicit_landmarks_identical(self):
        # Drive A(X, r) directly with a fixed landmark set on both kernels.
        graph = gnp_random_graph(24, 0.35, seed=8)
        results = {}
        for kernel in ("reference", "batched"):
            simulator = CongestSimulator(graph, seed=5)
            for context in simulator.contexts:
                context.state["in_X"] = context.node_id in {0, 3, 7}
            stopped = run_axr(simulator, goodness_threshold=6.0, kernel=kernel)
            results[kernel] = (
                stopped,
                simulator.total_rounds,
                simulator.collect_outputs(),
            )
        assert results["batched"] == results["reference"]

    def test_axr_zero_threshold_stops_early_on_both_kernels(self):
        graph = complete_graph(6)
        for kernel in ("reference", "batched"):
            simulator = CongestSimulator(graph, seed=0)
            for context in simulator.contexts:
                context.state["in_X"] = False
            assert run_axr(simulator, goodness_threshold=0.0, kernel=kernel) is True

    def test_a3_budget_truncation_identical(self):
        # A tight budget truncates both kernels at the same point.
        graph = complete_graph(14)
        assert_identical_execution(
            lambda kernel: LightTrianglesLister(
                epsilon=0.0, budget_constant=0.05, kernel=kernel
            ),
            graph,
            seeds=(0, 1),
        )

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            HeavyHashingLister(epsilon=0.4, kernel="vectorised")
        with pytest.raises(ValueError):
            TriangleListing(kernel="fast")

    def test_axr_pernode_explicit_landmarks_identical(self):
        # Drive A(X, r) with a fixed landmark set on all three kernels.
        graph = gnp_random_graph(24, 0.35, seed=8)
        results = {}
        for kernel in ("reference", "pernode", "batched"):
            simulator = CongestSimulator(graph, seed=5)
            for context in simulator.contexts:
                context.state["in_X"] = context.node_id in {0, 3, 7}
            stopped = run_axr(simulator, goodness_threshold=6.0, kernel=kernel)
            results[kernel] = (
                stopped,
                simulator.total_rounds,
                simulator.collect_outputs(),
            )
        assert results["batched"] == results["reference"]
        assert results["pernode"] == results["reference"]

    def test_a3_sparse_fallback_matches_reference(self):
        # A workload sparse enough that the direct kernel takes the
        # sender-major (no dense matrices) step-4.1 path.
        graph = gnp_random_graph(120, 0.03, seed=9)
        assert_identical_execution(
            lambda kernel: LightTrianglesLister(epsilon=0.2, kernel=kernel),
            graph,
            seeds=(0,),
        )

    def test_a2_sparse_fallback_matches_reference(self):
        graph = gnp_random_graph(120, 0.03, seed=10)
        assert_identical_execution(
            lambda kernel: HeavyHashingLister(epsilon=0.2, kernel=kernel),
            graph,
            seeds=(0,),
        )
