"""Unit tests for the columnar execution layer (docs/EXECUTION.md).

Covers the pieces the differential suites exercise only indirectly: the
NULLS-FIRST ordering contract, ``ExecutionConfig`` and its environment
overrides, bag digests, the table column-snapshot cache, batched
execution with coalescing, the ``PlanService`` cross-batch result cache,
``EngineBackend.run_many``, batched-vs-serial ``CorrectnessRunner``
record identity, and the self-check mode.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Catalog, ColumnDef, DataType, TableDef
from repro.engine import (
    COLUMNAR,
    ITERATOR,
    BagDigest,
    ExecutionConfig,
    ExecutionError,
    default_execution_config,
    digest_rows,
    execute_many,
    execute_plan,
)
from repro.engine.digest import EMPTY_DIGEST, digest_canonical_rows
from repro.obs import MetricsRegistry
from repro.optimizer.engine import Optimizer
from repro.rules.registry import default_registry
from repro.sql.binder import sql_to_tree
from repro.storage.database import Database

COLUMNAR_CONFIG = ExecutionConfig(executor=COLUMNAR)
ITERATOR_CONFIG = ExecutionConfig(executor=ITERATOR)


@pytest.fixture()
def sort_db():
    table = TableDef(
        name="t",
        columns=[
            ColumnDef("a", DataType.INT, nullable=False),
            ColumnDef("b", DataType.INT, nullable=True),
        ],
        primary_key=("a",),
    )
    database = Database(Catalog([table]))
    database.insert("t", [(1, 3), (2, None), (3, 1), (4, None), (5, 2)])
    return database


def _plan_for(sql, database):
    registry = default_registry()
    optimizer = Optimizer(
        database.catalog, database.stats_repository(), registry
    )
    result = optimizer.optimize(sql_to_tree(sql, database.catalog))
    return result.plan, result.output_columns


# --------------------------------------------------- NULLS-FIRST ordering


class TestNullOrdering:
    """NULL sorts as the smallest value: first ascending, last
    descending — on both executors, pinned exactly."""

    @pytest.mark.parametrize("config", [COLUMNAR_CONFIG, ITERATOR_CONFIG])
    def test_nulls_first_ascending(self, sort_db, config):
        plan, outputs = _plan_for("SELECT a, b FROM t ORDER BY b, a", sort_db)
        result = execute_plan(plan, sort_db, outputs, config=config)
        assert result.rows == [
            (2, None), (4, None), (3, 1), (5, 2), (1, 3),
        ]

    @pytest.mark.parametrize("config", [COLUMNAR_CONFIG, ITERATOR_CONFIG])
    def test_nulls_last_descending(self, sort_db, config):
        plan, outputs = _plan_for(
            "SELECT a, b FROM t ORDER BY b DESC, a", sort_db
        )
        result = execute_plan(plan, sort_db, outputs, config=config)
        assert result.rows == [
            (1, 3), (5, 2), (3, 1), (2, None), (4, None),
        ]


# ------------------------------------------------------- ExecutionConfig


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.executor == COLUMNAR
        assert not config.self_check

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ExecutionConfig(executor="gpu")

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="self_check_rate"):
            ExecutionConfig(self_check_rate=2.0)

    def test_env_self_check(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_SELF_CHECK", "1")
        config = default_execution_config()
        assert config.self_check and config.self_check_rate == 1.0
        monkeypatch.setenv("REPRO_EXEC_SELF_CHECK", "0.25")
        config = default_execution_config()
        assert config.self_check and config.self_check_rate == 0.25
        monkeypatch.setenv("REPRO_EXEC_SELF_CHECK", "on")
        assert default_execution_config().self_check
        monkeypatch.setenv("REPRO_EXEC_SELF_CHECK", "0")
        assert not default_execution_config().self_check


# ------------------------------------------------------------ bag digest


class TestBagDigest:
    def test_empty(self):
        assert digest_rows([]) == EMPTY_DIGEST
        assert EMPTY_DIGEST.count == 0

    def test_order_insensitive(self):
        a = [(1, "x"), (2, "y"), (2, "y")]
        assert digest_rows(a) == digest_rows(list(reversed(a)))

    def test_multiplicity_sensitive(self):
        assert digest_rows([(1,), (2,)]) != digest_rows([(1,), (2,), (2,)])
        assert digest_rows([(1,), (1,), (2,)]) != digest_rows(
            [(1,), (2,), (2,)]
        )

    def test_canonical_float_equivalence(self):
        assert digest_rows([(1.0000000001, -0.0)]) == digest_rows(
            [(1.0, 0.0)]
        )
        assert digest_rows([(1,)]) == digest_rows([(1.0,)])
        assert digest_rows([(0.123456789,)]) != digest_rows([(0.1234,)])

    def test_combine_is_bag_union(self):
        left, right = [(1, None), (2, "a")], [(2, "a"), (3, 0.5)]
        assert digest_rows(left).combine(digest_rows(right)) == digest_rows(
            left + right
        )

    def test_canonical_rows_shortcut_matches(self):
        rows = [(1, "x", None), (2, "y", 3)]
        assert digest_canonical_rows(rows) == digest_rows(rows)
        assert isinstance(digest_rows(rows), BagDigest)


# ----------------------------------------- table snapshots / fingerprints


class TestTableSnapshots:
    def test_column_cache_invalidation(self, sort_db):
        table = sort_db.table("t")
        version = table.version
        assert not table.has_column_cache
        columns = table.column_data()
        assert table.has_column_cache
        assert columns[0] == [1, 2, 3, 4, 5]
        sort_db.insert("t", [(6, 7)])
        assert table.version == version + 1
        assert not table.has_column_cache
        assert table.column_data()[0][-1] == 6

    def test_data_fingerprint_tracks_mutation(self, sort_db):
        before = sort_db.data_fingerprint()
        assert before == sort_db.data_fingerprint()
        sort_db.insert("t", [(9, None)])
        assert sort_db.data_fingerprint() != before

    def test_scan_cache_metric(self, sort_db):
        plan, outputs = _plan_for("SELECT a FROM t", sort_db)
        metrics = MetricsRegistry()
        execute_plan(plan, sort_db, outputs, config=COLUMNAR_CONFIG,
                     metrics=metrics)
        execute_plan(plan, sort_db, outputs, config=COLUMNAR_CONFIG,
                     metrics=metrics)
        assert metrics.counter_value("exec.scan_cache_hits") >= 1


# ------------------------------------------------- batched execution


class TestExecuteMany:
    def test_coalesces_identical_requests(self, sort_db):
        plan, outputs = _plan_for("SELECT a, b FROM t WHERE b > 1", sort_db)
        metrics = MetricsRegistry()
        items = execute_many(
            [(plan, outputs)] * 3, sort_db, metrics=metrics
        )
        assert [item.coalesced for item in items] == [False, True, True]
        # Coalesced requests share one QueryResult (and its digest).
        assert items[0].result is items[1].result is items[2].result
        assert metrics.counter_value("exec.batches") == 1
        assert metrics.counter_value("exec.coalesced") == 2

    def test_error_does_not_abort_batch(self, sort_db, monkeypatch):
        plan, outputs = _plan_for("SELECT a FROM t", sort_db)
        bad_plan, bad_outputs = _plan_for("SELECT b FROM t", sort_db)
        import repro.engine.batch as batch_module

        real = batch_module.execute_plan

        def flaky(target, *args, **kwargs):
            if target is bad_plan:
                raise ExecutionError("injected")
            return real(target, *args, **kwargs)

        monkeypatch.setattr(batch_module, "execute_plan", flaky)
        items = execute_many(
            [(plan, outputs), (bad_plan, bad_outputs), (plan, outputs)],
            sort_db,
        )
        assert items[0].ok and items[2].ok
        assert not items[1].ok
        assert "injected" in str(items[1].error)


class TestPlanServiceExecuteMany:
    def test_cross_batch_result_cache(self, sort_db):
        from repro.service import PlanService

        registry = default_registry()
        service = PlanService(
            sort_db, registry=registry, metrics=MetricsRegistry()
        )
        plan, outputs = _plan_for("SELECT a, b FROM t WHERE b > 1", sort_db)
        first = service.execute_many([(plan, outputs)])
        second = service.execute_many([(plan, outputs)])
        assert not first[0].coalesced
        assert second[0].coalesced
        assert second[0].result is first[0].result
        assert service.metrics.counter_value("exec.cache_hits") == 1

    def test_mutation_invalidates_cache(self, sort_db):
        from repro.service import PlanService

        registry = default_registry()
        service = PlanService(sort_db, registry=registry)
        plan, outputs = _plan_for("SELECT a FROM t", sort_db)
        first = service.execute_many([(plan, outputs)])
        sort_db.insert("t", [(7, 1)])
        second = service.execute_many([(plan, outputs)])
        assert not second[0].coalesced
        assert second[0].result.row_count == first[0].result.row_count + 1

    def test_requires_database(self, sort_db):
        from repro.service import PlanService

        service = PlanService(
            None,
            catalog=sort_db.catalog,
            stats=sort_db.stats_repository(),
            registry=default_registry(),
        )
        with pytest.raises(ValueError, match="needs a database"):
            service.execute_many([])


# -------------------------------------------------- backend / correctness


class TestBatchedRunners:
    def test_run_many_matches_serial_run(self, tpch_db, registry):
        from repro.backends.engine import EngineBackend

        backend = EngineBackend(tpch_db, registry=registry)
        sqls = [
            "SELECT c_custkey FROM customer WHERE c_acctbal > 500",
            "SELECT n_name FROM nation ORDER BY n_name",
            "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey",
        ]
        trees = [sql_to_tree(sql, tpch_db.catalog) for sql in sqls]
        serial = [backend.run(i, tree) for i, tree in enumerate(trees)]
        batched = backend.run_many(list(enumerate(trees)))
        assert len(serial) == len(batched)
        for a, b in zip(serial, batched):
            assert (a.error, a.bag, a.row_count, a.plan) == (
                b.error, b.bag, b.row_count, b.plan
            )

    def test_batched_correctness_matches_serial(self, tpch_db, registry):
        from repro.testing.compression import CompressionPlan
        from repro.testing.correctness import CorrectnessRunner
        from repro.testing.suite import TestSuiteBuilder, singleton_nodes

        suite = TestSuiteBuilder(
            tpch_db, registry, seed=3, extra_operators=1
        ).build(
            singleton_nodes(registry.exploration_rule_names[:5]), k=1
        )
        assignments = {}
        for query in suite.queries:
            assignments.setdefault(query.generated_for, []).append(
                query.query_id
            )
        plan = CompressionPlan(
            method="FULL",
            assignments=assignments,
            node_costs={q.query_id: q.cost for q in suite.queries},
            edge_costs={
                (node, query_id): 0.0
                for node, ids in assignments.items()
                for query_id in ids
            },
        )
        serial = CorrectnessRunner(
            tpch_db, registry, batched=False,
            execution=ExecutionConfig(executor=ITERATOR),
        ).run(plan, suite)
        batched = CorrectnessRunner(tpch_db, registry).run(plan, suite)
        assert serial.records == batched.records
        assert serial.errors == batched.errors
        assert [str(i) for i in serial.issues] == [
            str(i) for i in batched.issues
        ]
        assert serial.comparisons == batched.comparisons
        assert (
            serial.skipped_identical_plans == batched.skipped_identical_plans
        )


# ------------------------------------------------------------ self-check


class TestSelfCheck:
    def test_self_check_passes_and_counts(self, sort_db):
        plan, outputs = _plan_for("SELECT a, b FROM t WHERE b > 1", sort_db)
        metrics = MetricsRegistry()
        config = ExecutionConfig(self_check=True)
        result = execute_plan(
            plan, sort_db, outputs, config=config, metrics=metrics
        )
        assert result.rows == [(1, 3), (5, 2)]
        assert metrics.counter_value("exec.self_checks") == 1
        assert metrics.counter_value("exec.self_check_mismatches") == 0

    def test_self_check_rate_zero_skips(self, sort_db):
        plan, outputs = _plan_for("SELECT a FROM t", sort_db)
        metrics = MetricsRegistry()
        config = ExecutionConfig(self_check=True, self_check_rate=0.0)
        execute_plan(plan, sort_db, outputs, config=config, metrics=metrics)
        assert metrics.counter_value("exec.self_checks") == 0

    def test_self_check_mismatch_raises(self, sort_db, monkeypatch):
        import repro.engine.executor as executor_module

        plan, outputs = _plan_for("SELECT a, b FROM t", sort_db)
        real = executor_module.execute_plan_iterator

        def broken(*args, **kwargs):
            result = real(*args, **kwargs)
            result.rows.pop()  # lose one row: bags now differ
            return result

        monkeypatch.setattr(
            executor_module, "execute_plan_iterator", broken
        )
        metrics = MetricsRegistry()
        config = ExecutionConfig(self_check=True)
        with pytest.raises(ExecutionError, match="self-check failed"):
            execute_plan(
                plan, sort_db, outputs, config=config, metrics=metrics
            )
        assert metrics.counter_value("exec.self_check_mismatches") == 1
