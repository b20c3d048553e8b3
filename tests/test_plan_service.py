"""Tests for the PlanService: caching, batching, parallelism, accounting."""

import pytest

from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.result import OptimizationError
from repro.service import (
    PlanService,
    cache_stats,
    clear_cache,
    environment_fingerprint,
)
from repro.sql.binder import sql_to_tree
from repro.testing.suite import CostOracle, SuiteQuery

SQL_SIMPLE = "SELECT o_orderkey FROM orders WHERE o_totalprice > 100"
SQL_JOIN = (
    "SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey"
)
SQL_AGG = (
    "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey"
)


@pytest.fixture()
def service(tpch_db, registry):
    return PlanService(tpch_db, registry=registry)


def _tree(db, sql):
    return sql_to_tree(sql, db.catalog)


class TestMemoization:
    def test_second_request_hits_memory(self, tpch_db, service):
        first = service.optimize(_tree(tpch_db, SQL_SIMPLE))
        second = service.optimize(_tree(tpch_db, SQL_SIMPLE))
        assert first is second  # the memoized result object itself
        assert service.counters.computed == 1
        assert service.counters.memory_hits == 1
        assert service.counters.requests == 2

    def test_distinct_configs_are_distinct_keys(self, tpch_db, service):
        tree = _tree(tpch_db, SQL_JOIN)
        service.optimize(tree, DEFAULT_CONFIG)
        service.optimize(tree, DEFAULT_CONFIG.with_disabled(["JoinCommutativity"]))
        assert service.counters.computed == 2

    def test_cost_matches_optimize(self, tpch_db, service):
        tree = _tree(tpch_db, SQL_AGG)
        assert service.cost(tree) == service.optimize(tree).cost
        assert service.counters.computed == 1

    def test_memory_limit_evicts_fifo(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry, memory_limit=1)
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        service.optimize(_tree(tpch_db, SQL_JOIN))  # evicts the first
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        assert service.counters.computed == 3
        assert service.counters.memory_hits == 0

    def test_no_memory_cache(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry, memory_cache=False)
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        assert service.counters.computed == 2
        assert service.counters.memory_hits == 0


class TestBatches:
    def test_optimize_many_orders_and_dedupes(self, tpch_db, service):
        requests = [
            _tree(tpch_db, SQL_SIMPLE),
            _tree(tpch_db, SQL_JOIN),
            _tree(tpch_db, SQL_SIMPLE),  # structural duplicate of [0]
        ]
        results = service.optimize_many(requests)
        assert len(results) == 3
        assert results[0] is results[2]
        assert results[0].cost != results[1].cost or True  # ordering holds
        assert service.counters.computed == 2  # duplicate computed once
        assert service.counters.batches == 1

    def test_cost_many_matches_serial_costs(self, tpch_db, registry):
        serial = PlanService(tpch_db, registry=registry)
        batched = PlanService(tpch_db, registry=registry)
        sqls = [SQL_SIMPLE, SQL_JOIN, SQL_AGG]
        expected = [serial.cost(_tree(tpch_db, sql)) for sql in sqls]
        actual = batched.cost_many([_tree(tpch_db, sql) for sql in sqls])
        assert actual == expected

    def test_parallel_equals_serial(self, tpch_db, registry):
        serial = PlanService(tpch_db, registry=registry, workers=1)
        parallel = PlanService(tpch_db, registry=registry, workers=2)
        trees = [
            _tree(tpch_db, SQL_SIMPLE),
            _tree(tpch_db, SQL_JOIN),
            _tree(tpch_db, SQL_AGG),
        ]
        expected = [result.cost for result in serial.optimize_many(trees)]
        results = parallel.optimize_many(trees)
        assert [result.cost for result in results] == expected
        assert [
            sorted(result.rules_exercised) for result in results
        ] == [
            sorted(result.rules_exercised)
            for result in serial.optimize_many(trees)
        ]


class TestDiskCache:
    def test_cost_survives_across_instances(self, tpch_db, registry, tmp_path):
        first = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        cost = first.cost(_tree(tpch_db, SQL_JOIN))

        second = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        assert second.cost(_tree(tpch_db, SQL_JOIN)) == cost
        assert second.counters.disk_hits == 1
        assert second.counters.computed == 0

    def test_optimize_never_serves_plans_from_disk(
        self, tpch_db, registry, tmp_path
    ):
        first = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        first.optimize(_tree(tpch_db, SQL_SIMPLE))

        second = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        second.optimize(_tree(tpch_db, SQL_SIMPLE))
        assert second.counters.computed == 1  # plans are recomputed per run

    def test_registry_change_invalidates(self, tpch_db, registry):
        from repro.rules.faults import ALL_FAULTS

        stats = tpch_db.stats_repository()
        full = environment_fingerprint(tpch_db.catalog, stats, registry)
        fault = next(iter(sorted(ALL_FAULTS)))
        patched = registry.with_replaced_rule(ALL_FAULTS[fault]())
        changed = environment_fingerprint(tpch_db.catalog, stats, patched)
        assert full != changed

    def test_stats_and_clear(self, tpch_db, registry, tmp_path):
        service = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        service.cost(_tree(tpch_db, SQL_SIMPLE))
        service.cost(_tree(tpch_db, SQL_JOIN))
        summary = cache_stats(tmp_path)
        assert summary["entries"] == 2
        assert clear_cache(tmp_path) == 2
        assert cache_stats(tmp_path)["entries"] == 0

    def test_records_are_sorted_json(self, tpch_db, registry, tmp_path):
        service = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        service.cost(_tree(tpch_db, SQL_JOIN))
        (record_path,) = list(tmp_path.glob("*/*.json"))
        text = record_path.read_text()
        rules_at = text.find('"rules_exercised"')
        assert rules_at != -1
        # keys are emitted sorted, so "config" precedes "rules_exercised"
        assert text.find('"config"') < rules_at


class TestErrorHandling:
    def test_failure_is_memoized(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry)
        tree = _tree(tpch_db, SQL_SIMPLE)
        # Without GetToTableScan no physical plan can exist.
        config = DEFAULT_CONFIG.with_disabled(["GetToTableScan"])
        with pytest.raises(OptimizationError):
            service.optimize(tree, config)
        computed = service.counters.computed
        with pytest.raises(OptimizationError):
            service.optimize(tree, config)
        assert service.counters.computed == computed  # no re-search
        assert service.cost(tree, config) == float("inf")


class TestCostOracleCounters:
    def _query(self, db, query_id, sql):
        return SuiteQuery(
            query_id=query_id,
            tree=_tree(db, sql),
            sql=sql,
            cost=1.0,
            ruleset=frozenset(),
            generated_for=("JoinCommutativity",),
        )

    def test_logical_vs_physical_counting(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry)
        oracle = CostOracle(tpch_db, registry, service=service)
        query = self._query(tpch_db, 0, SQL_JOIN)
        node = ("JoinCommutativity",)

        oracle.cost_without(query, node)
        oracle.cost_without(query, node)  # oracle-level repeat
        assert oracle.invocations == 1
        assert oracle.cache_hits == 1
        assert service.counters.computed == 1

    def test_two_oracles_share_physical_work(self, tpch_db, registry):
        """Figure 14: each oracle counts its own logical invocations even
        when the shared service already knows the answer."""
        service = PlanService(tpch_db, registry=registry)
        query = self._query(tpch_db, 0, SQL_JOIN)
        node = ("JoinCommutativity",)

        first = CostOracle(tpch_db, registry, service=service)
        second = CostOracle(tpch_db, registry, service=service)
        first.cost_without(query, node)
        second.cost_without(query, node)
        assert first.invocations == 1
        assert second.invocations == 1  # logical count is per-oracle
        assert service.counters.computed == 1  # physical work shared

    def test_cost_without_many_counts_like_serial(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry)
        oracle = CostOracle(tpch_db, registry, service=service)
        a = self._query(tpch_db, 0, SQL_JOIN)
        b = self._query(tpch_db, 1, SQL_AGG)
        node = ("JoinCommutativity",)
        pairs = [(a, node), (b, node), (a, node)]

        batched = oracle.cost_without_many(pairs)
        assert batched[0] == batched[2]
        assert oracle.invocations == 2  # distinct requests
        assert oracle.cache_hits == 1  # in-batch duplicate
        assert batched == [
            oracle.cost_without(query, rules_off)
            for query, rules_off in pairs
        ]


class TestCounterPin:
    """One fixed mix of single and batch traffic pins every counter.

    Memory hits, disk hits, misses, in-batch duplicates and optimization
    errors pass through ``optimize``, ``cost``, ``optimize_many``,
    ``cost_many`` and both :class:`CostOracle` entry points; the totals
    below are the contract the single-request methods must keep.
    """

    SQL_CUSTOMER = "SELECT c_name FROM customer WHERE c_acctbal > 500"
    SQL_NATION = "SELECT n_name FROM nation ORDER BY n_name"

    def _query(self, db, query_id, sql):
        return SuiteQuery(
            query_id=query_id, tree=_tree(db, sql), sql=sql, cost=1.0,
            ruleset=frozenset(), generated_for=("JoinCommutativity",),
        )

    def test_counters_for_a_fixed_traffic_mix(
        self, tpch_db, registry, tmp_path
    ):
        from repro.obs import MetricsRegistry

        # Without GetToTableScan no physical plan can exist.
        fail = DEFAULT_CONFIG.with_disabled(["GetToTableScan"])
        simple, join, agg = (
            _tree(tpch_db, sql) for sql in (SQL_SIMPLE, SQL_JOIN, SQL_AGG)
        )
        customer = _tree(tpch_db, self.SQL_CUSTOMER)
        nation = _tree(tpch_db, self.SQL_NATION)

        warm = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        agg_cost = warm.cost(agg)
        warm.cost(nation)
        assert warm.cost(simple, fail) == float("inf")

        metrics = MetricsRegistry()
        service = PlanService(
            tpch_db, registry=registry, cache_dir=tmp_path, metrics=metrics
        )
        first = service.optimize(simple)  # miss
        assert service.optimize(simple) is first  # memory hit
        service.cost(join)  # miss
        assert service.cost(agg) == agg_cost  # disk hit
        assert service.cost(simple, fail) == float("inf")  # disk hit
        for _ in range(2):  # miss with an error, then a memory hit
            with pytest.raises(OptimizationError):
                service.optimize(simple, fail)

        results = service.optimize_many(
            [simple, join, agg, agg, (simple, fail)], return_errors=True
        )
        assert results[0] is first
        assert results[2] is results[3]  # in-batch duplicate computed once
        assert isinstance(results[4], OptimizationError)
        service.optimize_many([simple, join])  # all memory hits: no batch

        costs = service.cost_many(
            [join, nation, customer, customer, (customer, fail), (agg, None)]
        )
        assert costs[2] == costs[3]
        assert costs[4] == float("inf")
        assert costs[5] == agg_cost
        service.cost_many([join, agg])  # all memory hits: no batch
        with pytest.raises(OptimizationError):
            service.optimize_many([(nation, fail)])

        oracle = CostOracle(tpch_db, registry, service=service)
        node = ("JoinCommutativity",)
        q_join = self._query(tpch_db, 0, SQL_JOIN)
        q_agg = self._query(tpch_db, 1, SQL_AGG)
        q_simple = self._query(tpch_db, 2, SQL_SIMPLE)
        q_nation = self._query(tpch_db, 3, self.SQL_NATION)
        oracle.cost_without(q_join, node)  # service miss
        oracle.cost_without(q_join, node)  # oracle hit
        assert oracle.cost_without(
            q_simple, ("GetToTableScan",)
        ) == float("inf")  # service memory hit on a remembered failure
        oracle.cost_without_many(
            [
                (q_join, node), (q_agg, node), (q_agg, node),
                (q_nation, node), (q_simple, ("GetToTableScan",)),
            ]
        )
        oracle.cost_without_many([(q_agg, node)])

        expected = {
            "requests": 27,
            "memory_hits": 12,
            "disk_hits": 3,
            "hits": 15,
            "computed": 10,
            "errors": 3,
            "batches": 4,
            "parallel_tasks": 0,
        }
        assert service.counters.as_dict() == expected
        counters = {
            name: value
            for name, value in metrics.snapshot()["counters"].items()
            if name.startswith("service.")
        }
        assert counters == {
            f"service.{name}": value
            for name, value in expected.items()
            if name not in ("hits", "parallel_tasks")
        }
        assert (oracle.invocations, oracle.cache_hits) == (4, 5)

    def test_single_miss_never_uses_the_pool(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry, workers=2)
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        service.cost(_tree(tpch_db, SQL_JOIN))
        service.cost_many([_tree(tpch_db, SQL_AGG)])
        assert service.counters.computed == 3
        assert service.counters.parallel_tasks == 0
        assert service.counters.batches == 1
