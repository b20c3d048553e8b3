"""The four benchmark workloads, driven through the program's public API.

Each workload builds its inputs from the run seed, then runs *passes*.  A
pass is one whole user-visible run -- fresh plan services and caches, the
campaign/mutation/differential run, the rendered report -- and is what
``wall_s`` times.  After each pass the workload's known-answer checks run
(untimed) and a sha256 of its deterministic artifact is taken.

What the seed changes: the order of every table's rows (see
:func:`shuffled_tpch`).  The table contents are fixed -- TPC-H data seed 0,
the CLI default, and for ``mutate`` data seed 1 with generation seeds
11/23/37, the calibrated kill configuration, because whether a fault is
caught depends on the data.  Table statistics do not depend on row order,
so every seed generates the same queries and the optimizer does the same
work, while execution reads the rows in another order.  Query results are
compared as bags, so every known answer holds for every seed.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import create_backends
from repro.obs import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.service.cache import cache_stats
from repro.storage.database import Database
from repro.testing.compression import baseline_plan
from repro.testing.correctness import CorrectnessRunner
from repro.testing.differential import AGREE, ERROR, SKIP, DifferentialRunner
from repro.testing.mutation import KILLED, MutationCampaign
from repro.testing.report import run_campaign
from repro.testing.suite import CostOracle, TestSuiteBuilder, singleton_nodes
from repro.workloads import tpch_database

#: Mutant ids of the four handwritten faults (``repro.rules.faults``),
#: each of which the calibrated configuration must kill under FULL.
HANDWRITTEN_KILLS = (
    "DistinctRemoveOnKey:handwritten",
    "GbAggEagerBelowJoin:handwritten",
    "LojToJoinOnNullReject:handwritten",
    "SelectPushBelowJoinRight:handwritten",
)

#: Report lines that legitimately differ between a cold and a warm-cache
#: campaign: timing and the plan-service traffic summary.
_VOLATILE_PREFIXES = ("- total wall-clock:", "- plan service:")
#: Present only when a metrics registry is attached (traced passes); it
#: counts optimizations actually run, which a warm cache reduces.
_RULE_TOTALS_HEADING = "## Rule firing totals"


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does.  ``FULL`` is the benchmark; ``SMOKE``
    runs every code path in seconds for the benchmark's own tests."""

    campaign_rules: int
    campaign_k: int
    extend_fill_rules: int
    mutate_rules: Tuple[str, ...]
    mutate_operators: Tuple[str, ...]
    mutate_sample: int
    mutate_pool: int
    mutate_handwritten: bool
    diff_rules: int
    diff_k: int
    diff_scale: float


FULL = Sizes(
    campaign_rules=10,
    campaign_k=3,
    extend_fill_rules=5,
    mutate_rules=(
        "SelectPushBelowJoinLeft", "SelectMerge", "JoinLeftAssociativity",
        "SelectPushBelowJoinRight", "SelectIntoJoinPredicate",
    ),
    mutate_operators=("widen-join-kind", "drop-conjunct"),
    mutate_sample=2,
    mutate_pool=8,
    mutate_handwritten=True,
    diff_rules=24,
    diff_k=2,
    diff_scale=10.0,
)

SMOKE = Sizes(
    campaign_rules=2,
    campaign_k=1,
    extend_fill_rules=1,
    mutate_rules=("SelectMerge",),
    mutate_operators=("drop-conjunct",),
    mutate_sample=1,
    mutate_pool=2,
    mutate_handwritten=False,
    diff_rules=2,
    diff_k=1,
    diff_scale=1.0,
)

#: Fixed generation seed of the campaign and diff workloads.
GENERATION_SEED = 0
#: The calibrated kill configuration of the handwritten faults.
CALIBRATED_DATA_SEED = 1
CALIBRATED_POOL_SEEDS = (11, 23, 37)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    """What one pass produced, for checks, artifacts and metrics."""

    texts: List[str]
    attempted: int
    failed: int
    #: Workload-specific ratios (``suite_cost_ratio``, ``detect_frac``).
    ratios: Dict[str, float] = field(default_factory=dict)
    #: Objects the known-answer checks inspect.
    facts: Dict[str, object] = field(default_factory=dict)

    def artifact_sha256(self) -> str:
        digest = hashlib.sha256()
        for text in self.texts:
            digest.update(text.encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()


def normalized_campaign_report(markdown: str) -> str:
    """The campaign report without the lines a disk cache may change."""
    kept = []
    skipping = False
    for line in markdown.splitlines():
        if line.startswith("## "):
            skipping = line.startswith(_RULE_TOTALS_HEADING)
        if skipping or line.startswith(_VOLATILE_PREFIXES):
            continue
        kept.append(line)
    return "\n".join(kept)


def shuffled_tpch(data_seed: int, scale: float, order_seed: int) -> Database:
    """The TPC-H database of ``data_seed`` with every table's rows in an
    order drawn from ``order_seed``."""
    source = tpch_database(seed=data_seed, scale=scale)
    database = Database(source.catalog)
    rng = random.Random(order_seed)
    for table in source.tables():
        rows = list(table.rows)
        rng.shuffle(rows)
        database.insert(table.name, rows)
    return database


@dataclass
class PassInputs:
    """Inputs of one pass, made before its timer starts."""

    database: Database
    cache_dir: Optional[str] = None


class Workload:
    """Base class: inputs made once per run, then timed passes."""

    name = ""
    #: TPC-H data seed of the database under test.
    data_seed = 0

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.registry = default_registry()

    @classmethod
    def database_spec(cls, sizes: Sizes) -> Tuple[int, float]:
        """``(data seed, scale)`` of the database under test."""
        return cls.data_seed, 1.0

    def database(self) -> Database:
        data_seed, scale = self.database_spec(self.sizes)
        return shuffled_tpch(data_seed, scale, self.seed)

    def begin_pass(self) -> PassInputs:
        """Untimed: build one pass's inputs.  Each pass gets a fresh
        database (same rows in the same order), so no column snapshot or
        statistic survives from the previous pass."""
        return PassInputs(database=self.database())

    def end_pass(self, inputs: PassInputs) -> None:
        if inputs.cache_dir is not None:
            shutil.rmtree(inputs.cache_dir, ignore_errors=True)

    def run_pass(self, inputs: PassInputs, tracer=NULL_TRACER,
                 metrics: Optional[MetricsRegistry] = None) -> PassResult:
        raise NotImplementedError

    def checks(self, result: PassResult) -> List[Check]:
        raise NotImplementedError

    def _fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)


class CampaignWorkload(Workload):
    """``repro campaign``: generation, compression, correctness, report.

    Plan service as the CLI builds it: one worker, memory cache on, disk
    cache in a fresh empty directory (the write path).
    """

    name = "campaign"

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        super().__init__(seed, sizes, workdir)
        self.rule_names = list(
            self.registry.exploration_rule_names[: sizes.campaign_rules]
        )

    def begin_pass(self) -> PassInputs:
        inputs = super().begin_pass()
        inputs.cache_dir = self._fresh_dir("cache-")
        return inputs

    def _campaign(self, database, rule_names: Sequence[str],
                  cache_dir: Optional[str], tracer=NULL_TRACER, metrics=None):
        service = PlanService(
            database, registry=self.registry, workers=1,
            cache_dir=cache_dir, memory_cache=True,
            tracer=tracer, metrics=metrics,
        )
        result = run_campaign(
            database, self.registry, rule_names=rule_names,
            k=self.sizes.campaign_k, seed=GENERATION_SEED, service=service,
        )
        return result, result.to_markdown(), service

    def run_pass(self, inputs, tracer=NULL_TRACER, metrics=None) -> PassResult:
        result, markdown, service = self._campaign(
            inputs.database, self.rule_names, inputs.cache_dir, tracer, metrics
        )
        uncovered = list(result.coverage.uncovered)
        correctness = result.correctness
        baseline = result.plans["BASELINE"].total_cost
        cheapest = min(plan.total_cost for plan in result.plans.values())
        return PassResult(
            texts=[normalized_campaign_report(markdown)],
            attempted=len(self.rule_names) + correctness.queries_executed,
            failed=len(uncovered) + len(correctness.errors),
            ratios={"suite_cost_ratio": cheapest / baseline},
            facts={
                "uncovered": uncovered,
                "correctness_passed": correctness.passed,
                "service": service.counters.as_dict(),
            },
        )

    def checks(self, result: PassResult, expected_uncovered=()) -> List[Check]:
        facts = result.facts
        return [
            Check(
                "uncovered rules as expected",
                list(facts["uncovered"]) == list(expected_uncovered),
                f"uncovered: {facts['uncovered']}",
            ),
            Check("correctness run passed", bool(facts["correctness_passed"])),
        ]


class CampaignExtendWorkload(CampaignWorkload):
    """``repro campaign`` rerun after the rule set grew.

    A campaign over the first half of the rules fills a disk cache once
    per run (untimed); every pass runs the whole campaign against an
    identical copy of it.  The report must equal a cold campaign's over
    the same rules and data, made once per run.
    """

    name = "campaign-extend"

    def __init__(self, seed: int, sizes: Sizes, workdir: str,
                 reference: Optional[str] = None) -> None:
        super().__init__(seed, sizes, workdir)
        database = self.database()
        self.filled = self._fresh_dir("filled-")
        self._campaign(
            database, self.rule_names[: sizes.extend_fill_rules], self.filled
        )
        if reference is None:
            cold = self._fresh_dir("cold-")
            _, markdown, _ = self._campaign(database, self.rule_names, cold)
            shutil.rmtree(cold)
            reference = normalized_campaign_report(markdown)
        self.reference = reference

    def begin_pass(self) -> PassInputs:
        inputs = super().begin_pass()
        shutil.copytree(self.filled, inputs.cache_dir, dirs_exist_ok=True)
        return inputs

    def checks(self, result: PassResult) -> List[Check]:
        checks = super().checks(result)
        checks.append(Check(
            "report equals the cold campaign's (minus timing/cache lines)",
            result.texts[0] == self.reference,
            "stale-cache finding: the warm-cache report differs",
        ))
        disk_hits = result.facts["service"]["disk_hits"]
        checks.append(Check(
            "the pre-filled cache was read", disk_hits > 0,
            f"disk hits: {disk_hits}",
        ))
        return checks


class MutateWorkload(Workload):
    """``repro mutate``: the handwritten faults under the calibrated kill
    configuration, then a stride sample of generated mutants.

    Each mutant gets a cold memory-only plan service inside the program;
    ``workers`` is 2 (never more than the machine's cores).
    """

    name = "mutate"
    data_seed = CALIBRATED_DATA_SEED

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        super().__init__(seed, sizes, workdir)
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def _campaign(self, database, metrics) -> MutationCampaign:
        return MutationCampaign(
            database, self.registry, pool=self.sizes.mutate_pool, k=2,
            seeds=CALIBRATED_POOL_SEEDS, extra_operators=2,
            workers=self.workers, metrics=metrics,
        )

    def run_pass(self, inputs, tracer=NULL_TRACER, metrics=None) -> PassResult:
        # The CLI always attaches a registry to mutation campaigns.
        metrics = metrics if metrics is not None else MetricsRegistry()
        reports = []
        if self.sizes.mutate_handwritten:
            reports.append(
                self._campaign(inputs.database, metrics).run(
                    operators=["handwritten"]
                )
            )
        reports.append(
            self._campaign(inputs.database, metrics).run(
                list(self.sizes.mutate_rules),
                operators=list(self.sizes.mutate_operators),
                sample=self.sizes.mutate_sample,
            )
        )
        texts = [report.to_json() for report in reports]
        outcomes = [o for report in reports for o in report.outcomes]
        expected = [o for o in outcomes if o.expected_detectable]
        detected = [o for o in expected if o.detected("FULL")]
        ratios = {}
        if expected:
            ratios["detect_frac"] = len(detected) / len(expected)
        return PassResult(
            texts=texts,
            attempted=len(outcomes),
            failed=0,
            ratios=ratios,
            facts={
                "full_status": {
                    o.mutant_id: o.status("FULL") for o in outcomes
                },
                "handwritten": self.sizes.mutate_handwritten,
            },
        )

    def checks(self, result: PassResult,
               expected_kills: Sequence[str] = HANDWRITTEN_KILLS) -> List[Check]:
        if not result.facts["handwritten"]:
            return [Check("mutants evaluated", result.attempted > 0)]
        status = result.facts["full_status"]
        return [
            Check(
                f"FULL kills {mutant_id}", status.get(mutant_id) == KILLED,
                f"status: {status.get(mutant_id)}",
            )
            for mutant_id in expected_kills
        ]


class DiffWorkload(Workload):
    """``repro diff`` on TPC-H scale 10: the engine against sqlite, then a
    BASELINE correctness pass over the same suite."""

    name = "diff-sf10"

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        super().__init__(seed, sizes, workdir)
        self.rule_names = list(
            self.registry.exploration_rule_names[: sizes.diff_rules]
        )

    @classmethod
    def database_spec(cls, sizes: Sizes) -> Tuple[int, float]:
        return cls.data_seed, sizes.diff_scale

    def run_pass(self, inputs, tracer=NULL_TRACER, metrics=None) -> PassResult:
        database = inputs.database
        service = PlanService(
            database, registry=self.registry, workers=1,
            cache_dir=None, tracer=tracer, metrics=metrics,
        )
        suite = TestSuiteBuilder(
            database, self.registry, seed=GENERATION_SEED,
            extra_operators=2, service=service,
        ).build(singleton_nodes(self.rule_names), k=self.sizes.diff_k)
        backends, skipped = create_backends(
            ["engine", "sqlite"], database,
            registry=self.registry, service=service,
        )
        try:
            runner = DifferentialRunner(
                database, backends, skipped_backends=skipped,
                tracer=tracer,
                metrics=metrics if metrics is not None else MetricsRegistry(),
            )
            report = runner.run(suite, suite_info={
                "rules": self.rule_names, "k": self.sizes.diff_k,
            })
            artifact = report.to_json()
            report.to_text()  # what the CLI prints by default
        finally:
            for backend in backends:
                backend.close()
        oracle = CostOracle(database, self.registry, service=service)
        correctness = CorrectnessRunner(
            database, self.registry, service=service
        ).run(baseline_plan(suite, oracle), suite)
        failed = sum(1 for o in report.outcomes if o.outcome in (ERROR, SKIP))
        agree = sum(1 for o in report.outcomes if o.outcome == AGREE)
        return PassResult(
            texts=[artifact],
            attempted=len(report.outcomes),
            failed=failed,
            ratios={"agree_frac": agree / max(1, len(report.outcomes))},
            facts={
                "disagreements": len(report.disagreements),
                "errors": len(report.errors),
                "passed": report.passed,
                "skipped": dict(skipped),
                "correctness_passed": correctness.passed,
                "correctness_errors": list(correctness.errors),
            },
        )

    def checks(self, result: PassResult, expected_disagreements: int = 0
               ) -> List[Check]:
        facts = result.facts
        return [
            Check("sqlite backend available", not facts["skipped"],
                  f"skipped: {facts['skipped']}"),
            Check(
                "disagreements against sqlite",
                facts["disagreements"] == expected_disagreements,
                f"{facts['disagreements']} disagreements",
            ),
            Check("no backend errors", facts["errors"] == 0 and facts["passed"],
                  f"{facts['errors']} errors"),
            Check("BASELINE correctness pass succeeded",
                  bool(facts["correctness_passed"]),
                  f"errors: {facts['correctness_errors']}"),
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        CampaignWorkload, CampaignExtendWorkload, MutateWorkload,
        DiffWorkload,
    )
}


def disk_bytes(inputs: PassInputs) -> int:
    """Bytes held by a pass's plan disk cache (0 without one)."""
    if inputs.cache_dir is None:
        return 0
    return int(cache_stats(Path(inputs.cache_dir))["bytes"])
