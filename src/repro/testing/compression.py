"""Test-suite compression (paper, Sections 4-5).

Given the rule-query bipartite graph, find a minimum-cost subgraph in which
every rule node keeps degree ``k``.  The problem is NP-hard (reduction from
Set Cover, Appendix A); this module implements:

* **BASELINE** (Section 2.3): no compression -- each rule executes its own
  generated suite TS_i;
* **SMC** (Figure 5): the greedy Constrained Set Multicover adaptation;
  ignores edge costs, exploits query sharing;
* **TOPK** (Figure 6): TopKIndependent -- per rule, the k cheapest edges;
  ignores sharing but is a factor-2 approximation of the optimum;
* the **monotonicity** optimization (Section 5.3.1) that prunes edge-cost
  computations for TOPK using ``Cost(q) <= Cost(q, ¬R)``;
* the Section 7 **no-sharing variant**, solved exactly as a min-cost
  bipartite matching.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.testing.suite import CostOracle, RuleNode, SuiteQuery, TestSuite


@dataclass
class CompressionPlan:
    """A chosen subgraph: per rule node, the k queries that validate it."""

    method: str
    assignments: Dict[RuleNode, List[int]]  # rule node -> query ids
    node_costs: Dict[int, float]  # query id -> Cost(q)
    edge_costs: Dict[Tuple[RuleNode, int], float]  # (rule, q) -> Cost(q, ¬R)
    #: True when Plan(q) is executed once per *distinct* query (sharing);
    #: False for BASELINE, which re-executes per rule suite.
    shares_queries: bool = True

    @property
    def selected_query_ids(self) -> Set[int]:
        return {
            query_id
            for ids in self.assignments.values()
            for query_id in ids
        }

    @property
    def total_cost(self) -> float:
        """The paper's objective: node costs plus edge costs.

        With sharing, each distinct selected query pays Cost(q) once; the
        BASELINE pays Cost(q) once per suite occurrence.
        """
        edge_total = sum(
            self.edge_costs[(node, query_id)]
            for node, ids in self.assignments.items()
            for query_id in ids
        )
        if self.shares_queries:
            node_total = sum(
                self.node_costs[query_id]
                for query_id in self.selected_query_ids
            )
        else:
            node_total = sum(
                self.node_costs[query_id]
                for ids in self.assignments.values()
                for query_id in ids
            )
        return node_total + edge_total

    def validates_each_rule_k_times(self, k: int) -> bool:
        return all(
            len(set(ids)) == k for ids in self.assignments.values()
        )


class CompressionError(Exception):
    """Raised when no valid plan exists (e.g. too few covering queries)."""


def _tracer(oracle: CostOracle):
    """The oracle's service tracer, or None for plain test doubles."""
    service = getattr(oracle, "service", None)
    tracer = getattr(service, "tracer", None)
    return tracer if tracer is not None and tracer.enabled else None


def _batched_edge_costs(
    oracle: CostOracle, pairs: List[Tuple[SuiteQuery, RuleNode]]
) -> Dict[Tuple[RuleNode, int], float]:
    """Compute every ``Cost(q, ¬R)`` edge of ``pairs`` in one service batch."""
    batch = getattr(oracle, "cost_without_many", None)
    if batch is None:  # plain per-edge oracle (e.g. a test double)
        costs = [oracle.cost_without(query, node) for query, node in pairs]
    else:
        costs = batch(pairs)
    return {
        (node, query.query_id): cost
        for (query, node), cost in zip(pairs, costs)
    }


def _trace_plan(oracle: CostOracle, plan: "CompressionPlan") -> "CompressionPlan":
    """Emit one summary event per constructed compression plan."""
    tracer = _tracer(oracle)
    if tracer is not None:
        tracer.event(
            "compression.plan", cat="testing",
            method=plan.method,
            queries=len(plan.selected_query_ids),
            edges=len(plan.edge_costs),
            total_cost=round(plan.total_cost, 6),
        )
    return plan


# ---------------------------------------------------------------- BASELINE


def baseline_plan(suite: TestSuite, oracle: CostOracle) -> CompressionPlan:
    """No compression: each rule node runs its own generated suite TS_i.

    Cost = sum over rules of sum over TS_i of Cost(q) + Cost(q, ¬R) --
    exactly the Total_Cost formula of Section 2.3.
    """
    assignments: Dict[RuleNode, List[int]] = {}
    node_costs: Dict[int, float] = {}
    pairs: List[Tuple[SuiteQuery, RuleNode]] = []
    for node in suite.rule_nodes:
        own = suite.generated_suite(node)
        if len(own) < suite.k:
            raise CompressionError(
                f"rule node {node} has only {len(own)} generated queries"
            )
        chosen = own[: suite.k]
        assignments[node] = [query.query_id for query in chosen]
        for query in chosen:
            node_costs[query.query_id] = query.cost
            pairs.append((query, node))
    edge_costs = _batched_edge_costs(oracle, pairs)
    return _trace_plan(oracle, CompressionPlan(
        method="BASELINE",
        assignments=assignments,
        node_costs=node_costs,
        edge_costs=edge_costs,
        shares_queries=False,
    ))


# --------------------------------------------------------------------- SMC


def set_multicover_plan(
    suite: TestSuite, oracle: CostOracle
) -> CompressionPlan:
    """The greedy SetMultiCover adaptation (paper, Figure 5).

    Picks, at each step, the query with the highest benefit = number of
    *remaining* rule nodes covered divided by Cost(q).  Edge costs are NOT
    modelled during selection (the algorithm's known weakness, visible in
    Figures 12-13); they are still paid at execution time, so the returned
    plan's total cost includes them.
    """
    k = suite.k
    remaining: Dict[RuleNode, int] = {node: k for node in suite.rule_nodes}
    assignments: Dict[RuleNode, List[int]] = {
        node: [] for node in suite.rule_nodes
    }
    unpicked: Set[int] = {query.query_id for query in suite.queries}

    while any(count > 0 for count in remaining.values()):
        best_query: Optional[SuiteQuery] = None
        best_benefit = 0.0
        for query_id in unpicked:
            query = suite.query(query_id)
            covered = sum(
                1
                for node, count in remaining.items()
                if count > 0 and query.exercises(node)
            )
            if covered == 0:
                continue
            benefit = covered / max(query.cost, 1e-9)
            if benefit > best_benefit:
                best_benefit = benefit
                best_query = query
        if best_query is None:
            raise CompressionError(
                "SMC: remaining rule nodes cannot be covered by unpicked "
                "queries"
            )
        unpicked.discard(best_query.query_id)
        for node, count in remaining.items():
            if count > 0 and best_query.exercises(node):
                assignments[node].append(best_query.query_id)
                remaining[node] = count - 1

    node_costs = {
        query.query_id: query.cost for query in suite.queries
    }
    edge_costs = _batched_edge_costs(
        oracle,
        [
            (suite.query(query_id), node)
            for node, ids in assignments.items()
            for query_id in ids
        ],
    )
    return _trace_plan(oracle, CompressionPlan(
        method="SMC",
        assignments=assignments,
        node_costs=node_costs,
        edge_costs=edge_costs,
    ))


# -------------------------------------------------------------------- TOPK


@dataclass
class TopKStats:
    """Bookkeeping for the monotonicity experiment (Figure 14)."""

    edge_costs_computed: int = 0
    edge_costs_skipped: int = 0


def top_k_independent_plan(
    suite: TestSuite,
    oracle: CostOracle,
    use_monotonicity: bool = False,
    stats: Optional[TopKStats] = None,
) -> CompressionPlan:
    """TopKIndependent (paper, Figure 6): per rule node, the k queries with
    the cheapest edge cost Cost(q, ¬R).  Factor-2 approximation.

    With ``use_monotonicity`` (Section 5.3.1), candidate queries are visited
    in increasing Cost(q); once the next candidate's Cost(q) is at least the
    k-th smallest edge cost found so far, no later candidate can improve the
    answer (because Cost(q) <= Cost(q, ¬R)), and the remaining optimizer
    invocations are skipped.
    """
    stats = stats if stats is not None else TopKStats()
    k = suite.k
    assignments: Dict[RuleNode, List[int]] = {}
    edge_costs: Dict[Tuple[RuleNode, int], float] = {}

    candidates_by_node: Dict[RuleNode, List[SuiteQuery]] = {}
    for node in suite.rule_nodes:
        candidates = suite.queries_for(node)
        if len(candidates) < k:
            raise CompressionError(
                f"rule node {node}: only {len(candidates)} covering queries "
                f"for k={k}"
            )
        candidates_by_node[node] = candidates

    if not use_monotonicity:
        # Without pruning every (rule node, candidate) edge is needed, so
        # construct the whole bipartite graph in one batch -- the service
        # can fan it over its worker pool.
        pairs = [
            (query, node)
            for node, candidates in candidates_by_node.items()
            for query in candidates
        ]
        graph = _batched_edge_costs(oracle, pairs)
        stats.edge_costs_computed += len(pairs)

    for node, candidates in candidates_by_node.items():
        if use_monotonicity:
            chosen = _top_k_with_monotonicity(
                node, candidates, k, oracle, stats
            )
        else:
            scored = sorted(
                (graph[(node, query.query_id)], query.query_id)
                for query in candidates
            )
            chosen = scored[:k]
        assignments[node] = [query_id for _, query_id in chosen]
        for cost, query_id in chosen:
            edge_costs[(node, query_id)] = cost

    node_costs = {query.query_id: query.cost for query in suite.queries}
    return _trace_plan(oracle, CompressionPlan(
        method="TOPK" + ("+MONO" if use_monotonicity else ""),
        assignments=assignments,
        node_costs=node_costs,
        edge_costs=edge_costs,
    ))


def _top_k_with_monotonicity(
    node: RuleNode,
    candidates: List[SuiteQuery],
    k: int,
    oracle: CostOracle,
    stats: TopKStats,
) -> List[Tuple[float, int]]:
    ordered = sorted(candidates, key=lambda query: query.cost)
    # Max-heap (negated) of the k smallest edge costs seen so far.
    heap: List[Tuple[float, int]] = []
    for index, query in enumerate(ordered):
        if len(heap) == k and query.cost >= -heap[0][0]:
            # Every remaining candidate has Cost(q) >= current k-th best
            # edge cost, and Cost(q, ¬R) >= Cost(q): safe to stop.
            stats.edge_costs_skipped += len(ordered) - index
            break
        cost = oracle.cost_without(query, node)
        stats.edge_costs_computed += 1
        entry = (-cost, query.query_id)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif cost < -heap[0][0]:
            heapq.heapreplace(heap, entry)
    return sorted((-negated, query_id) for negated, query_id in heap)


# ------------------------------------------------- external selections


def selection_plan(
    suite: TestSuite,
    oracle: CostOracle,
    assignments: Dict[RuleNode, Sequence[int]],
    method: str = "DETECT",
) -> CompressionPlan:
    """Materialize an externally chosen assignment as an executable plan.

    The detection-aware objective (:mod:`repro.testing.detection`) selects
    query ids from the mutant x query kill matrix rather than from this
    module's cost-only algorithms; this bridge prices the chosen edges
    through the same :class:`CostOracle` batch path so the result is a
    first-class :class:`CompressionPlan` the
    :class:`~repro.testing.correctness.CorrectnessRunner` can execute.
    """
    normalized: Dict[RuleNode, List[int]] = {}
    pairs: List[Tuple[SuiteQuery, RuleNode]] = []
    for node, query_ids in assignments.items():
        chosen = sorted(set(query_ids))
        for query_id in chosen:
            query = suite.query(query_id)
            if not query.exercises(node):
                raise CompressionError(
                    f"query {query_id} does not exercise rule node {node}"
                )
            pairs.append((query, node))
        normalized[node] = chosen
    node_costs = {query.query_id: query.cost for query in suite.queries}
    edge_costs = _batched_edge_costs(oracle, pairs)
    return _trace_plan(oracle, CompressionPlan(
        method=method,
        assignments=normalized,
        node_costs=node_costs,
        edge_costs=edge_costs,
    ))


# ----------------------------------------------------- Section 7: matching


def matching_plan(
    suite: TestSuite, oracle: CostOracle
) -> CompressionPlan:
    """The no-sharing variant (Section 7): map each rule node to k queries
    such that **no query is shared between rule nodes**, minimizing total
    cost.  Reduces to min-cost bipartite matching between (rule, slot)
    pairs and queries; solved exactly with the Hungarian algorithm.
    """
    # numpy/scipy are imported here, their only use, so that campaigns and
    # the CLI (which never take this path) do not pay for loading them.
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    k = suite.k
    slots: List[RuleNode] = [
        node for node in suite.rule_nodes for _ in range(k)
    ]
    queries = suite.queries
    if len(queries) < len(slots):
        raise CompressionError(
            f"matching needs at least {len(slots)} queries, suite has "
            f"{len(queries)}"
        )
    big_m = 1e15
    matrix = np.full((len(slots), len(queries)), big_m)
    for row, node in enumerate(slots):
        for query in queries:
            if query.exercises(node):
                cost = query.cost + oracle.cost_without(query, node)
                matrix[row, query.query_id] = cost
    rows, cols = linear_sum_assignment(matrix)
    assignments: Dict[RuleNode, List[int]] = {
        node: [] for node in suite.rule_nodes
    }
    edge_costs: Dict[Tuple[RuleNode, int], float] = {}
    for row, col in zip(rows, cols):
        if matrix[row, col] >= big_m:
            raise CompressionError(
                "matching infeasible: a rule slot has no unshared query"
            )
        node = slots[row]
        query = suite.query(int(col))
        assignments[node].append(query.query_id)
        edge_costs[(node, query.query_id)] = oracle.cost_without(query, node)
    node_costs = {query.query_id: query.cost for query in queries}
    return _trace_plan(oracle, CompressionPlan(
        method="MATCHING",
        assignments=assignments,
        node_costs=node_costs,
        edge_costs=edge_costs,
        shares_queries=False,  # by construction no query repeats
    ))
