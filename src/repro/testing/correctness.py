"""Test-suite execution for correctness testing (paper, Sections 2.3 / 4).

For every selected query the runner executes ``Plan(q)`` once; for every
(rule node, query) edge of the compression plan it executes
``Plan(q, ¬R)`` and compares the two results as bags.  A mismatch is a
correctness bug in (at least one of) the disabled rules.

Per the paper's footnote, when the two plans are structurally identical the
execution/comparison is skipped -- the results are guaranteed equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.config import ExecutionConfig
from repro.engine.executor import ExecutionError, execute_plan
from repro.engine.results import QueryResult, diff_summary, results_identical
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.optimizer.result import OptimizationError
from repro.rules.registry import RuleRegistry
from repro.service import PlanService
from repro.storage.database import Database
from repro.testing.compression import CompressionPlan
from repro.testing.suite import RuleNode, SuiteQuery, TestSuite


@dataclass
class CorrectnessIssue:
    """One detected correctness bug."""

    rule_node: RuleNode
    query_id: int
    sql: str
    detail: str

    def __str__(self) -> str:
        rules = " + ".join(self.rule_node)
        return f"[{rules}] query {self.query_id}: {self.detail}"


@dataclass(frozen=True)
class ComparisonRecord:
    """Per-edge verdict: what happened for one ``(rule node, query)`` pair.

    ``outcome`` is one of ``"identical"`` (plans matched, execution
    skipped), ``"equal"`` (executed, bags matched), ``"mismatch"``
    (executed, bags differed -- a correctness bug) or ``"error"``
    (optimization or execution failed).  Baseline failures are recorded
    with an empty rule node.  The mutation campaign derives per-suite
    kill verdicts from these records without re-executing anything.
    """

    rule_node: RuleNode
    query_id: int
    outcome: str
    detail: str = ""


@dataclass
class CorrectnessReport:
    """Outcome of executing one compression plan."""

    issues: List[CorrectnessIssue] = field(default_factory=list)
    queries_executed: int = 0
    disabled_plans_executed: int = 0
    comparisons: int = 0
    skipped_identical_plans: int = 0
    errors: List[str] = field(default_factory=list)
    records: List[ComparisonRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.issues and not self.errors


class CorrectnessRunner:
    """Executes a compression plan against the test database."""

    def __init__(
        self,
        database: Database,
        registry: RuleRegistry,
        config: Optional[OptimizerConfig] = None,
        monotonicity_guard=None,
        service: Optional[PlanService] = None,
        execution: Optional[ExecutionConfig] = None,
        batched: bool = True,
    ) -> None:
        self.database = database
        self.registry = registry
        self.config = config or DEFAULT_CONFIG
        self.service = service or PlanService(
            database, registry=registry, config=self.config
        )
        #: Optional :class:`repro.analysis.sanitize.MonotonicityGuard`; when
        #: set, every baseline/disabled cost pair is asserted against the
        #: ``Cost(q) <= Cost(q, not R)`` invariant.
        self.monotonicity_guard = monotonicity_guard
        #: Executor selection; ``None`` resolves the process default
        #: (the columnar executor) per execution.
        self.execution = execution
        #: Batched mode routes all plan executions through
        #: ``PlanService.execute_many`` (scan sharing, coalescing, the
        #: cross-batch result cache).  Verdicts and record order are
        #: identical to the serial path, which is kept for A/B
        #: benchmarking and as a fallback oracle.
        self.batched = batched

    def _optimize(self, query: SuiteQuery, rules_off: RuleNode = ()):
        return self.service.optimize(
            query.tree, self.config.with_disabled(rules_off)
        )

    def run(self, plan: CompressionPlan, suite: TestSuite) -> CorrectnessReport:
        """Execute the test suite described by ``plan``."""
        with self.service.tracer.span(
            "correctness.run", cat="testing",
            method=plan.method, queries=len(plan.selected_query_ids),
        ):
            return self._run(plan, suite)

    def _prewarm(self, plan: CompressionPlan, suite: TestSuite) -> None:
        """Batch every Plan(q) / Plan(q, ¬R) the run will need through
        ``optimize_many`` so distinct plans compute in parallel (when the
        service has workers) and the serial loop below is all cache hits."""
        requests = [
            (suite.query(query_id).tree, self.config.with_disabled(()))
            for query_id in sorted(plan.selected_query_ids)
        ]
        for node, query_ids in plan.assignments.items():
            config = self.config.with_disabled(node)
            requests.extend(
                (suite.query(query_id).tree, config)
                for query_id in query_ids
            )
        self.service.optimize_many(requests, return_errors=True)

    def _run(self, plan: CompressionPlan, suite: TestSuite) -> CorrectnessReport:
        if self.batched:
            return self._run_batched(plan, suite)
        return self._run_serial(plan, suite)

    def _run_batched(
        self, plan: CompressionPlan, suite: TestSuite
    ) -> CorrectnessReport:
        """Batched flow: optimize/classify first, execute in bulk, then
        emit records in the serial path's exact iteration order."""
        tracer = self.service.tracer
        report = CorrectnessReport()
        baseline_results: Dict[int, QueryResult] = {}
        baseline_plans: Dict[int, object] = {}
        baseline_costs: Dict[int, float] = {}

        self._prewarm(plan, suite)

        # Baseline pass A: optimize every selected query in order.
        baseline_ids = sorted(plan.selected_query_ids)
        baseline_opt: Dict[int, object] = {}
        opt_errors: Dict[int, str] = {}
        pending: List[int] = []
        for query_id in baseline_ids:
            try:
                baseline_opt[query_id] = self._optimize(suite.query(query_id))
                pending.append(query_id)
            except OptimizationError as exc:
                opt_errors[query_id] = str(exc)
        executed = self.service.execute_many(
            [
                (baseline_opt[q].plan, baseline_opt[q].output_columns)
                for q in pending
            ],
            database=self.database,
            execution=self.execution,
        )
        exec_items = dict(zip(pending, executed))

        # Baseline pass B: emit errors/results in sorted-query order.
        for query_id in baseline_ids:
            if query_id in opt_errors:
                message = opt_errors[query_id]
                report.errors.append(f"query {query_id}: {message}")
                report.records.append(
                    ComparisonRecord((), query_id, "error", message)
                )
                continue
            item = exec_items[query_id]
            if item.error is not None:
                message = str(item.error)
                report.errors.append(f"query {query_id}: {message}")
                report.records.append(
                    ComparisonRecord((), query_id, "error", message)
                )
                continue
            result = baseline_opt[query_id]
            baseline_plans[query_id] = result.plan
            baseline_costs[query_id] = result.cost
            baseline_results[query_id] = item.result
            report.queries_executed += 1

        # Disabled pass A: optimize and classify every (node, query) edge.
        entries: List[tuple] = []  # (node, query_id, kind, payload)
        requests: List[tuple] = []
        for node, query_ids in plan.assignments.items():
            for query_id in query_ids:
                if query_id not in baseline_results:
                    continue
                try:
                    disabled = self._optimize(suite.query(query_id), node)
                except OptimizationError as exc:
                    entries.append((node, query_id, "opt_error", str(exc)))
                    continue
                if self.monotonicity_guard is not None:
                    self.monotonicity_guard.observe(
                        f"query {query_id}",
                        baseline_costs[query_id],
                        disabled.cost,
                        node,
                    )
                if disabled.plan == baseline_plans[query_id]:
                    # Identical plans guarantee identical results (paper,
                    # footnote 1): skip execution.
                    entries.append((node, query_id, "identical", None))
                    if tracer.enabled:
                        tracer.event(
                            "correctness.identical_plan", cat="testing",
                            query=query_id, rules=",".join(node),
                        )
                    continue
                entries.append((node, query_id, "execute", disabled))
                requests.append((disabled.plan, disabled.output_columns))
        disabled_items = iter(
            self.service.execute_many(
                requests, database=self.database, execution=self.execution
            )
        )

        # Disabled pass B: compare and emit in the serial iteration order.
        for node, query_id, kind, payload in entries:
            if kind == "opt_error":
                report.errors.append(f"query {query_id} ¬{node}: {payload}")
                report.records.append(
                    ComparisonRecord(node, query_id, "error", payload)
                )
                continue
            if kind == "identical":
                report.skipped_identical_plans += 1
                report.records.append(
                    ComparisonRecord(node, query_id, "identical")
                )
                continue
            item = next(disabled_items)
            if item.error is not None:
                message = str(item.error)
                report.errors.append(f"query {query_id} ¬{node}: {message}")
                report.records.append(
                    ComparisonRecord(node, query_id, "error", message)
                )
                continue
            report.disabled_plans_executed += 1
            report.comparisons += 1
            if tracer.enabled:
                tracer.event(
                    "correctness.comparison", cat="testing",
                    query=query_id, rules=",".join(node),
                )
            expected = baseline_results[query_id]
            alternative = item.result
            if not results_identical(expected, alternative):
                detail = diff_summary(expected, alternative)
                report.issues.append(
                    CorrectnessIssue(
                        rule_node=node,
                        query_id=query_id,
                        sql=suite.query(query_id).sql,
                        detail=detail,
                    )
                )
                report.records.append(
                    ComparisonRecord(node, query_id, "mismatch", detail)
                )
            else:
                report.records.append(
                    ComparisonRecord(node, query_id, "equal")
                )
        return report

    def _run_serial(
        self, plan: CompressionPlan, suite: TestSuite
    ) -> CorrectnessReport:
        tracer = self.service.tracer
        report = CorrectnessReport()
        baseline_results: Dict[int, QueryResult] = {}
        baseline_plans: Dict[int, object] = {}
        baseline_costs: Dict[int, float] = {}

        self._prewarm(plan, suite)
        for query_id in sorted(plan.selected_query_ids):
            query = suite.query(query_id)
            try:
                result = self._optimize(query)
                baseline_plans[query_id] = result.plan
                baseline_costs[query_id] = result.cost
                baseline_results[query_id] = execute_plan(
                    result.plan, self.database, result.output_columns,
                    config=self.execution,
                )
                report.queries_executed += 1
            except (OptimizationError, ExecutionError) as exc:
                report.errors.append(f"query {query_id}: {exc}")
                report.records.append(
                    ComparisonRecord((), query_id, "error", str(exc))
                )

        for node, query_ids in plan.assignments.items():
            for query_id in query_ids:
                if query_id not in baseline_results:
                    continue
                query = suite.query(query_id)
                try:
                    disabled = self._optimize(query, node)
                except OptimizationError as exc:
                    report.errors.append(
                        f"query {query_id} ¬{node}: {exc}"
                    )
                    report.records.append(
                        ComparisonRecord(node, query_id, "error", str(exc))
                    )
                    continue
                if self.monotonicity_guard is not None:
                    self.monotonicity_guard.observe(
                        f"query {query_id}",
                        baseline_costs[query_id],
                        disabled.cost,
                        node,
                    )
                if disabled.plan == baseline_plans[query_id]:
                    # Identical plans guarantee identical results (paper,
                    # footnote 1): skip execution.
                    report.skipped_identical_plans += 1
                    report.records.append(
                        ComparisonRecord(node, query_id, "identical")
                    )
                    if tracer.enabled:
                        tracer.event(
                            "correctness.identical_plan", cat="testing",
                            query=query_id, rules=",".join(node),
                        )
                    continue
                try:
                    alternative = execute_plan(
                        disabled.plan, self.database, disabled.output_columns,
                        config=self.execution,
                    )
                except ExecutionError as exc:
                    report.errors.append(
                        f"query {query_id} ¬{node}: {exc}"
                    )
                    report.records.append(
                        ComparisonRecord(node, query_id, "error", str(exc))
                    )
                    continue
                report.disabled_plans_executed += 1
                report.comparisons += 1
                if tracer.enabled:
                    tracer.event(
                        "correctness.comparison", cat="testing",
                        query=query_id, rules=",".join(node),
                    )
                expected = baseline_results[query_id]
                if not results_identical(expected, alternative):
                    detail = diff_summary(expected, alternative)
                    report.issues.append(
                        CorrectnessIssue(
                            rule_node=node,
                            query_id=query_id,
                            sql=query.sql,
                            detail=detail,
                        )
                    )
                    report.records.append(
                        ComparisonRecord(node, query_id, "mismatch", detail)
                    )
                else:
                    report.records.append(
                        ComparisonRecord(node, query_id, "equal")
                    )
        return report
