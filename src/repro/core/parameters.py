"""Parameter selection for the paper's algorithms.

Every algorithm in Section 3 is parameterised by the heaviness exponent
``ε`` (and, for Algorithm A3, the goodness threshold ``r`` and a round
budget).  The theorems fix ε as a function of ``n``:

* Theorem 1 (finding):   ``n^ε = n^{1/3} / (log n)^{2/3}``,
* Theorem 2 (listing):   ``n^ε = n^{1/2} / (log n)^{2}``,

and the component analyses use

* Proposition 1 (A1): sample cap ``4 n^{1-ε}``,
* Proposition 2 (A2): hash range ``⌊n^{ε/2}⌋`` and edge-set cap
  ``8 + 4n / ⌊n^{ε/2}⌋``,
* Proposition 3 (A3): landmark probability ``1 / (9 n^ε)``, goodness
  threshold ``r = sqrt(54 n^{1+ε} log n)`` and round budget
  ``c (n^{1-ε} + n^{(1+ε)/2} log n)``.

The paper is asymptotic and leaves logarithm bases and constants free; this
module fixes concrete, documented choices (base-2 logarithms, explicit
constants) and clamps the formulas so they remain meaningful at the small
``n`` a Python simulator can reach.  All experiments read their parameters
from here so the choices live in exactly one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dataclasses_replace
from typing import TYPE_CHECKING

from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.graph import Graph


def _log(n: int) -> float:
    """The logarithm used throughout the parameter formulas (base 2).

    Clamped below at 1.0 so tiny networks do not blow up the formulas
    (``log 2 = 1``; the paper's asymptotics only make sense for large n).
    """
    return max(1.0, math.log2(max(2, n)))


def heaviness_threshold_finding(num_nodes: int) -> float:
    """Return the Theorem-1 heaviness threshold ``n^ε = n^{1/3}/(log n)^{2/3}``.

    Clamped below at 1.0: a threshold under one triangle is meaningless.
    """
    if num_nodes < 1:
        raise AnalysisError(f"num_nodes must be positive, got {num_nodes}")
    value = num_nodes ** (1.0 / 3.0) / _log(num_nodes) ** (2.0 / 3.0)
    return max(1.0, value)


def heaviness_threshold_listing(num_nodes: int) -> float:
    """Return the Theorem-2 heaviness threshold ``n^ε = n^{1/2}/(log n)^{2}``.

    Clamped below at 1.0.
    """
    if num_nodes < 1:
        raise AnalysisError(f"num_nodes must be positive, got {num_nodes}")
    value = math.sqrt(num_nodes) / _log(num_nodes) ** 2
    return max(1.0, value)


def epsilon_from_threshold(num_nodes: int, threshold: float) -> float:
    """Convert a heaviness threshold ``n^ε`` back to the exponent ε.

    The exponent is clamped to ``[0, 1]`` which is the domain required by the
    ε-heavy definition.
    """
    if threshold < 1.0:
        raise AnalysisError(f"threshold must be at least 1, got {threshold}")
    if num_nodes < 2:
        return 0.0
    epsilon = math.log(threshold) / math.log(num_nodes)
    return min(1.0, max(0.0, epsilon))


def finding_epsilon(num_nodes: int) -> float:
    """Return the ε used by the Theorem-1 finding algorithm."""
    return epsilon_from_threshold(num_nodes, heaviness_threshold_finding(num_nodes))


def listing_epsilon(num_nodes: int) -> float:
    """Return the ε used by the Theorem-2 listing algorithm.

    ``√n / log² n`` stays at or below 1 for ``3 <= n <= 2¹⁶``, so ε clamps to
    0 there and is still only about 0.012 at ``n = 10⁵``.  A2's hash range
    ``⌊n^{ε/2}⌋`` is therefore 1 for every ``n`` below about 3.6 million,
    i.e. for every size this repository runs (see :func:`a2_hash_range`).
    """
    return epsilon_from_threshold(num_nodes, heaviness_threshold_listing(num_nodes))


def finding_epsilon_asymptotic() -> float:
    """Return the asymptotic Theorem-1 exponent ``ε = 1/3`` (log factors dropped).

    The paper's exact choice ``n^ε = n^{1/3}/(log n)^{2/3}`` is only
    meaningful once ``n^{1/3}`` dominates ``(log n)^{2/3}``; at the network
    sizes a Python simulator can reach the clamped formula collapses to
    ``ε = 0`` and hides the polynomial exponent the theorem is about.  The
    scaling experiments therefore use this asymptotic exponent (the choice
    only differs from the paper's by polylogarithmic factors).
    """
    return 1.0 / 3.0


def listing_epsilon_asymptotic() -> float:
    """Return the asymptotic Theorem-2 exponent ``ε = 1/2`` (log factors dropped).

    See :func:`finding_epsilon_asymptotic` for why the experiments prefer
    the asymptotic exponent at simulator-scale ``n``.
    """
    return 0.5


def a1_sampling_probability(num_nodes: int, epsilon: float) -> float:
    """Return A1's per-neighbour sampling probability ``n^{-ε}`` (clamped to 1)."""
    _validate_epsilon(epsilon)
    if num_nodes < 1:
        raise AnalysisError(f"num_nodes must be positive, got {num_nodes}")
    return min(1.0, float(num_nodes) ** (-epsilon))


def a1_sample_cap(num_nodes: int, epsilon: float) -> float:
    """Return A1's sample-size cap ``4 n^{1-ε}`` (Proposition 1)."""
    _validate_epsilon(epsilon)
    return 4.0 * float(num_nodes) ** (1.0 - epsilon)


def a2_hash_range(num_nodes: int, epsilon: float) -> int:
    """Return A2's hash range size ``⌊n^{ε/2}⌋`` (Figure 1), at least 1.

    At the Theorem-2 default ε (:func:`listing_epsilon`) this is 1 for
    every ``n`` below about 3.6 million: every hash maps every vertex to
    0 and each node ships its whole neighbour row.
    """
    _validate_epsilon(epsilon)
    return max(1, math.floor(float(num_nodes) ** (epsilon / 2.0)))


def a2_edge_set_cap(num_nodes: int, epsilon: float) -> float:
    """Return A2's per-neighbour edge-set cap ``8 + 4n/⌊n^{ε/2}⌋`` (Figure 1)."""
    return 8.0 + 4.0 * num_nodes / a2_hash_range(num_nodes, epsilon)


def a3_landmark_probability(num_nodes: int, epsilon: float) -> float:
    """Return A3's landmark-selection probability ``1 / (9 n^ε)`` (Lemma 2)."""
    _validate_epsilon(epsilon)
    if num_nodes < 1:
        raise AnalysisError(f"num_nodes must be positive, got {num_nodes}")
    return min(1.0, 1.0 / (9.0 * float(num_nodes) ** epsilon))


def a3_goodness_threshold(num_nodes: int, epsilon: float) -> float:
    """Return A3's goodness threshold ``r = sqrt(54 n^{1+ε} log n)`` (Lemma 3)."""
    _validate_epsilon(epsilon)
    return math.sqrt(54.0 * float(num_nodes) ** (1.0 + epsilon) * _log(num_nodes))


def a3_round_budget(num_nodes: int, epsilon: float, budget_constant: float = 8.0) -> int:
    """Return A3's round budget ``c (n^{1-ε} + n^{(1+ε)/2} log n)``.

    The paper requires "some large enough constant c"; the default of 8 is
    comfortably above what the simulator needs on the workloads in the test
    suite while still aborting runaway executions.
    """
    _validate_epsilon(epsilon)
    if budget_constant <= 0:
        raise AnalysisError(f"budget_constant must be positive, got {budget_constant}")
    n = float(num_nodes)
    budget = budget_constant * (n ** (1.0 - epsilon) + n ** ((1.0 + epsilon) / 2.0) * _log(num_nodes))
    return max(1, math.ceil(budget))


def listing_repetitions(num_nodes: int, repetition_constant: float = 1.0) -> int:
    """Return the Theorem-2 repetition count ``⌈c log n⌉``.

    The paper's proof needs a "large constant" c to drive the per-triangle
    failure probability below ``1/n^4``; for experiments the constant is
    configurable because the asymptotically safe value makes small-n
    simulations needlessly slow.  The default of 1 already achieves empirical
    full recall on the workloads in the benchmark suite.
    """
    if repetition_constant <= 0:
        raise AnalysisError(
            f"repetition_constant must be positive, got {repetition_constant}"
        )
    return max(1, math.ceil(repetition_constant * _log(num_nodes)))


def finding_repetitions(success_probability: float = 0.9, single_run_success: float = 0.25) -> int:
    """Return how many (A1, A3) repetitions drive finding success to a target.

    Theorem 1 amplifies a constant single-run success probability to
    ``1 - δ`` by ``c`` independent repetitions; this helper computes the
    smallest c for a given (assumed) single-run success probability.
    """
    if not 0.0 < success_probability < 1.0:
        raise AnalysisError(
            f"success_probability must lie in (0, 1), got {success_probability}"
        )
    if not 0.0 < single_run_success < 1.0:
        raise AnalysisError(
            f"single_run_success must lie in (0, 1), got {single_run_success}"
        )
    failure_target = 1.0 - success_probability
    repetitions = math.log(failure_target) / math.log(1.0 - single_run_success)
    return max(1, math.ceil(repetitions))


@dataclass(frozen=True)
class FindingParameters:
    """The full parameter set of the Theorem-1 finding algorithm."""

    num_nodes: int
    epsilon: float
    heaviness_threshold: float
    sampling_probability: float
    sample_cap: float
    landmark_probability: float
    goodness_threshold: float
    round_budget: int
    repetitions: int

    @classmethod
    def for_graph_size(
        cls,
        num_nodes: int,
        repetitions: int | None = None,
        budget_constant: float = 8.0,
        epsilon: float | None = None,
    ) -> "FindingParameters":
        """Instantiate the Theorem-1 parameters for an n-node network.

        ``epsilon`` overrides the paper's formula (used by the scaling
        experiments, which prefer the asymptotic exponent — see
        :func:`finding_epsilon_asymptotic`).
        """
        if epsilon is None:
            epsilon = finding_epsilon(num_nodes)
        _validate_epsilon(epsilon)
        return cls(
            num_nodes=num_nodes,
            epsilon=epsilon,
            heaviness_threshold=float(num_nodes) ** epsilon,
            sampling_probability=a1_sampling_probability(num_nodes, epsilon),
            sample_cap=a1_sample_cap(num_nodes, epsilon),
            landmark_probability=a3_landmark_probability(num_nodes, epsilon),
            goodness_threshold=a3_goodness_threshold(num_nodes, epsilon),
            round_budget=a3_round_budget(num_nodes, epsilon, budget_constant),
            repetitions=repetitions if repetitions is not None else finding_repetitions(),
        )

    @classmethod
    def for_graph(
        cls,
        graph: "Graph",
        repetitions: int | None = None,
        budget_constant: float = 8.0,
        epsilon: float | None = None,
    ) -> "FindingParameters":
        """Instantiate the Theorem-1 parameters for a concrete workload.

        Reads ``n`` and the degree array from the graph's immutable CSR
        view and tightens the *recorded* sample cap with the observed
        maximum degree: a node can never sample more neighbours than it
        has, so ``min(4 n^{1-ε}, d_max)`` bounds the same executions while
        keeping the cap reported in experiment records meaningful on
        sparse workloads.  (A1 itself recomputes its cap from ε and ``n``;
        the clamp only ever lowers the cap into the region where it
        provably cannot bind, so execution is unchanged by construction.)
        """
        csr = graph.csr()
        parameters = cls.for_graph_size(
            csr.num_nodes,
            repetitions=repetitions,
            budget_constant=budget_constant,
            epsilon=epsilon,
        )
        d_max = csr.max_degree()
        if d_max and d_max < parameters.sample_cap:
            parameters = dataclasses_replace(parameters, sample_cap=float(d_max))
        return parameters


@dataclass(frozen=True)
class ListingParameters:
    """The full parameter set of the Theorem-2 listing algorithm."""

    num_nodes: int
    epsilon: float
    heaviness_threshold: float
    hash_range: int
    edge_set_cap: float
    landmark_probability: float
    goodness_threshold: float
    round_budget: int
    repetitions: int

    @classmethod
    def for_graph_size(
        cls,
        num_nodes: int,
        repetitions: int | None = None,
        repetition_constant: float = 1.0,
        budget_constant: float = 8.0,
        epsilon: float | None = None,
    ) -> "ListingParameters":
        """Instantiate the Theorem-2 parameters for an n-node network.

        ``epsilon`` overrides the paper's formula (used by the scaling
        experiments, which prefer the asymptotic exponent — see
        :func:`listing_epsilon_asymptotic`).
        """
        if epsilon is None:
            epsilon = listing_epsilon(num_nodes)
        _validate_epsilon(epsilon)
        return cls(
            num_nodes=num_nodes,
            epsilon=epsilon,
            heaviness_threshold=float(num_nodes) ** epsilon,
            hash_range=a2_hash_range(num_nodes, epsilon),
            edge_set_cap=a2_edge_set_cap(num_nodes, epsilon),
            landmark_probability=a3_landmark_probability(num_nodes, epsilon),
            goodness_threshold=a3_goodness_threshold(num_nodes, epsilon),
            round_budget=a3_round_budget(num_nodes, epsilon, budget_constant),
            repetitions=(
                repetitions
                if repetitions is not None
                else listing_repetitions(num_nodes, repetition_constant)
            ),
        )

    @classmethod
    def for_graph(
        cls,
        graph: "Graph",
        repetitions: int | None = None,
        repetition_constant: float = 1.0,
        budget_constant: float = 8.0,
        epsilon: float | None = None,
    ) -> "ListingParameters":
        """Instantiate the Theorem-2 parameters for a concrete workload.

        Reads ``n`` and the degree array from the graph's immutable CSR
        view and tightens the *recorded* per-link edge-set cap with the
        observed maximum degree: a node's filtered edge set is a subset of
        its incident edges, so ``min(8 + 4n/⌊n^{ε/2}⌋, d_max)`` bounds the
        same executions while keeping the cap reported in experiment
        records meaningful on sparse workloads.  (A2 itself recomputes its
        cap from ε and ``n``; the clamp only ever lowers the cap into the
        region where it provably cannot bind, so execution is unchanged by
        construction.)
        """
        csr = graph.csr()
        parameters = cls.for_graph_size(
            csr.num_nodes,
            repetitions=repetitions,
            repetition_constant=repetition_constant,
            budget_constant=budget_constant,
            epsilon=epsilon,
        )
        d_max = csr.max_degree()
        if d_max and d_max < parameters.edge_set_cap:
            parameters = dataclasses_replace(parameters, edge_set_cap=float(d_max))
        return parameters


def _validate_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise AnalysisError(f"epsilon must lie in [0, 1], got {epsilon}")
