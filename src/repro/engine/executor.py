"""Plan execution: executor dispatch plus the iterator-model interpreter.

``execute_plan`` materializes the result of a physical operator tree
against a :class:`~repro.storage.database.Database`.  Two executors
implement identical semantics:

* the **columnar** executor (:mod:`repro.engine.columnar`) — the default
  hot path, batch-oriented over per-column lists;
* the **iterator** interpreter in this module — the reference oracle,
  selected with ``ExecutionConfig(executor="iterator")`` (or ``repro
  trace --executor iterator``).

``ExecutionConfig.self_check`` runs both and raises if their canonical
result bags ever disagree (a deterministic plan-signature sample keeps
the cost tunable).

Layouts are computed dynamically from each operator's *actual* children
(two equivalent plans may order join outputs differently; parents compile
expressions against the layout they actually receive).

NULL semantics follow SQL throughout: predicates keep rows only when TRUE;
outer joins NULL-extend; grouping, DISTINCT and set operations treat NULLs
as equal; aggregates skip NULLs (except COUNT(*)).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.config import ITERATOR, ExecutionConfig, default_execution_config
from repro.expr.aggregates import Accumulator
from repro.expr.eval import compile_expr, compile_predicate, layout_of
from repro.expr.expressions import Column, TRUE
from repro.obs.trace import NULL_TRACER, Tracer
from repro.physical.operators import (
    ComputeScalar,
    Concat,
    Filter,
    HashAggregate,
    HashDistinct,
    HashExcept,
    HashIntersect,
    HashJoin,
    HashUnion,
    MergeJoin,
    NestedApply,
    NestedLoopsJoin,
    PhysicalOp,
    PhysOpKind,
    Sort,
    StreamAggregate,
    TableScan,
    Top,
    plan_signature,
)
from repro.engine.results import QueryResult, diff_summary
from repro.logical.operators import JoinKind
from repro.storage.database import Database


class ExecutionError(Exception):
    """Raised when a plan cannot be executed."""


Rows = List[Tuple]
Columns = Tuple[Column, ...]


def execute_plan(
    plan: PhysicalOp,
    database: Database,
    output_columns: Columns = None,
    *,
    config: Optional[ExecutionConfig] = None,
    tracer: Tracer = NULL_TRACER,
    metrics=None,
) -> QueryResult:
    """Execute ``plan``; optionally project to ``output_columns`` order.

    ``config`` selects the executor (columnar by default; see
    :mod:`repro.engine.config` for the environment overrides).
    """
    from repro.engine.columnar import execute_columnar

    if config is None:
        config = default_execution_config()
    if config.self_check and _sampled_for_self_check(plan, config):
        return _self_checked_execute(
            plan, database, output_columns, config, tracer, metrics
        )
    if not tracer.enabled:
        if config.executor == ITERATOR:
            result = execute_plan_iterator(plan, database, output_columns)
        else:
            result = execute_columnar(
                plan, database, output_columns, tracer=tracer, metrics=metrics
            )
    else:
        # Note: no plan signature in the span args — signatures embed
        # column ids, which differ across re-parses of the same SQL, and
        # trace JSON must stay byte-identical across runs.
        with tracer.span(
            "exec.plan",
            cat="exec",
            executor=config.executor,
            operators=sum(1 for _ in plan.walk()),
        ) as span:
            if config.executor == ITERATOR:
                result = execute_plan_iterator(plan, database, output_columns)
            else:
                result = execute_columnar(
                    plan,
                    database,
                    output_columns,
                    tracer=tracer,
                    metrics=metrics,
                )
            span.annotate(rows_out=result.row_count)
    if metrics is not None:
        metrics.counter("exec.executions", executor=config.executor).inc()
        metrics.counter("exec.rows").inc(result.row_count)
    return result


def _sampled_for_self_check(plan: PhysicalOp, config: ExecutionConfig) -> bool:
    if config.self_check_rate >= 1.0:
        return True
    # Deterministic by plan structure: the same plan is always either
    # checked or not, independent of execution order.
    bucket = int(plan_signature(plan), 16) % 10_000
    return bucket < int(config.self_check_rate * 10_000)


def _self_checked_execute(
    plan: PhysicalOp,
    database: Database,
    output_columns,
    config: ExecutionConfig,
    tracer: Tracer,
    metrics,
) -> QueryResult:
    """Run both executors; raise loudly if their result bags disagree."""
    from repro.engine.columnar import execute_columnar

    columnar = execute_columnar(
        plan, database, output_columns, tracer=tracer, metrics=metrics
    )
    iterator = execute_plan_iterator(plan, database, output_columns)
    if metrics is not None:
        metrics.counter("exec.self_checks").inc()
        metrics.counter("exec.executions", executor=config.executor).inc()
        metrics.counter("exec.rows").inc(columnar.row_count)
    if len(columnar.columns) != len(iterator.columns) or not columnar.same_rows(
        iterator
    ):
        if metrics is not None:
            metrics.counter("exec.self_check_mismatches").inc()
        raise ExecutionError(
            "executor self-check failed: columnar and iterator disagree "
            f"on plan {plan_signature(plan)}: "
            f"{diff_summary(columnar, iterator)}"
        )
    return columnar if config.executor != ITERATOR else iterator


def execute_plan_iterator(
    plan: PhysicalOp,
    database: Database,
    output_columns: Columns = None,
) -> QueryResult:
    """Execute ``plan`` on the row-at-a-time reference interpreter."""
    rows, columns = _execute(plan, database)
    result = QueryResult(columns=columns, rows=rows)
    if output_columns is not None:
        result = result.projected(tuple(output_columns))
    return result


def _tuple_getter(positions: List[int]) -> Callable[[Tuple], Tuple]:
    """Compiled key extractor: ``row -> tuple(row[i] for i in positions)``.

    Hoisted out of the per-row loops of the hash/merge/aggregate paths;
    ``operator.itemgetter`` runs in C instead of a generator expression
    per row.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return operator.itemgetter(*positions)


def _execute(op: PhysicalOp, database: Database) -> Tuple[Rows, Columns]:
    handler = _HANDLERS.get(op.kind)
    if handler is None:
        raise ExecutionError(f"no executor for {op.kind}")
    return handler(op, database)


# ------------------------------------------------------------------- leaves


def _exec_table_scan(op: TableScan, database: Database):
    table = database.table(op.table)
    return list(table.rows), op.columns


# ------------------------------------------------------------------ unary


def _exec_filter(op: Filter, database: Database):
    rows, columns = _execute(op.child, database)
    predicate = compile_predicate(op.predicate, layout_of(columns))
    return [row for row in rows if predicate(row)], columns


def _exec_compute_scalar(op: ComputeScalar, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    compiled = [compile_expr(expr, layout) for _, expr in op.outputs]
    out_rows = [tuple(fn(row) for fn in compiled) for row in rows]
    return out_rows, op.output_columns


def _exec_sort(op: Sort, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    # Stable multi-pass sort: apply keys last-to-first.  NULLs sort first
    # ascending (and therefore last descending), SQL Server style.  Rank
    # tuples are precomputed per pass and an index permutation is sorted,
    # so the key closure is a C-level list lookup instead of rebuilding
    # the rank tuple on every comparison call.
    order = list(range(len(rows)))
    for key in reversed(op.keys):
        index = layout[key.column.cid]
        ranks = [_null_first_key(row[index]) for row in rows]
        order.sort(key=ranks.__getitem__, reverse=not key.ascending)
    return [rows[i] for i in order], columns


def _null_first_key(value):
    return (0, 0) if value is None else (1, value)


def _exec_hash_distinct(op: HashDistinct, database: Database):
    rows, columns = _execute(op.child, database)
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out, columns


def _exec_top(op: Top, database: Database):
    rows, columns = _execute(op.child, database)
    return rows[: op.count], columns


# ------------------------------------------------------------------- joins


def _exec_nested_loops(op: NestedLoopsJoin, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    kind = op.join_kind
    combined_columns = left_columns + right_columns
    layout = layout_of(combined_columns)
    predicate = (
        (lambda row: True)
        if op.predicate == TRUE
        else compile_predicate(op.predicate, layout)
    )

    out: Rows = []
    if kind in (JoinKind.INNER, JoinKind.CROSS):
        for lrow in left_rows:
            for rrow in right_rows:
                row = lrow + rrow
                if predicate(row):
                    out.append(row)
        return out, combined_columns
    if kind is JoinKind.LEFT_OUTER:
        null_pad = (None,) * len(right_columns)
        for lrow in left_rows:
            matched = False
            for rrow in right_rows:
                row = lrow + rrow
                if predicate(row):
                    out.append(row)
                    matched = True
            if not matched:
                out.append(lrow + null_pad)
        return out, combined_columns
    if kind in (JoinKind.SEMI, JoinKind.ANTI):
        want_match = kind is JoinKind.SEMI
        for lrow in left_rows:
            matched = any(
                predicate(lrow + rrow) for rrow in right_rows
            )
            if matched == want_match:
                out.append(lrow)
        return out, left_columns
    raise ExecutionError(f"unsupported join kind {kind}")


def _exec_nested_apply(op: NestedApply, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    layout = layout_of(left_columns + right_columns)
    predicate = (
        (lambda row: True)
        if op.predicate == TRUE
        else compile_predicate(op.predicate, layout)
    )
    want_match = op.apply_kind is JoinKind.SEMI
    out: Rows = []
    for lrow in left_rows:
        matched = any(predicate(lrow + rrow) for rrow in right_rows)
        if matched == want_match:
            out.append(lrow)
    return out, left_columns


def _exec_hash_join(op: HashJoin, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    kind = op.join_kind
    combined_columns = left_columns + right_columns

    left_layout = layout_of(left_columns)
    right_layout = layout_of(right_columns)
    left_key = _tuple_getter([left_layout[c.cid] for c in op.left_keys])
    right_key = _tuple_getter([right_layout[c.cid] for c in op.right_keys])

    residual = (
        (lambda row: True)
        if op.residual == TRUE
        else compile_predicate(op.residual, layout_of(combined_columns))
    )

    # Build side: rows with a NULL key can never satisfy an equality join.
    table: Dict[Tuple, List[Tuple]] = {}
    for rrow in right_rows:
        key = right_key(rrow)
        if None in key:
            continue
        table.setdefault(key, []).append(rrow)

    out: Rows = []
    if kind in (JoinKind.INNER,):
        for lrow in left_rows:
            key = left_key(lrow)
            if None in key:
                continue
            for rrow in table.get(key, ()):
                row = lrow + rrow
                if residual(row):
                    out.append(row)
        return out, combined_columns
    if kind is JoinKind.LEFT_OUTER:
        null_pad = (None,) * len(right_columns)
        for lrow in left_rows:
            key = left_key(lrow)
            matched = False
            if None not in key:
                for rrow in table.get(key, ()):
                    row = lrow + rrow
                    if residual(row):
                        out.append(row)
                        matched = True
            if not matched:
                out.append(lrow + null_pad)
        return out, combined_columns
    if kind in (JoinKind.SEMI, JoinKind.ANTI):
        want_match = kind is JoinKind.SEMI
        for lrow in left_rows:
            key = left_key(lrow)
            matched = False
            if None not in key:
                matched = any(
                    residual(lrow + rrow) for rrow in table.get(key, ())
                )
            if matched == want_match:
                out.append(lrow)
        return out, left_columns
    raise ExecutionError(f"hash join does not support {kind}")


def _exec_merge_join(op: MergeJoin, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    combined_columns = left_columns + right_columns

    left_layout = layout_of(left_columns)
    right_layout = layout_of(right_columns)
    left_key = _tuple_getter([left_layout[c.cid] for c in op.left_keys])
    right_key = _tuple_getter([right_layout[c.cid] for c in op.right_keys])
    residual = (
        (lambda row: True)
        if op.residual == TRUE
        else compile_predicate(op.residual, layout_of(combined_columns))
    )

    # Rows with NULL keys cannot match an equality; drop them up front.
    # Keys are extracted once per row here rather than re-derived inside
    # the two-pointer loop below.
    left_clean: List[Tuple] = []
    left_keyed: List[Tuple] = []
    for row in left_rows:
        key = left_key(row)
        if None not in key:
            left_clean.append(row)
            left_keyed.append(key)
    right_clean: List[Tuple] = []
    right_keyed: List[Tuple] = []
    for row in right_rows:
        key = right_key(row)
        if None not in key:
            right_clean.append(row)
            right_keyed.append(key)

    out: Rows = []
    i = j = 0
    while i < len(left_clean) and j < len(right_clean):
        lkey = left_keyed[i]
        rkey = right_keyed[j]
        if lkey < rkey:
            i += 1
        elif lkey > rkey:
            j += 1
        else:
            # Equal-key runs: cross product of the two runs.
            i_end = i
            while i_end < len(left_clean) and left_keyed[i_end] == lkey:
                i_end += 1
            j_end = j
            while j_end < len(right_clean) and right_keyed[j_end] == rkey:
                j_end += 1
            for lrow in left_clean[i:i_end]:
                for rrow in right_clean[j:j_end]:
                    row = lrow + rrow
                    if residual(row):
                        out.append(row)
            i, j = i_end, j_end
    return out, combined_columns


# -------------------------------------------------------------- aggregation


def _make_agg_inputs(
    aggregates, layout
) -> List[Callable[[Tuple], object]]:
    """Compile one input-extraction function per aggregate."""
    extractors = []
    for _, call in aggregates:
        if call.argument is None:  # COUNT(*)
            extractors.append(lambda row: 1)
        else:
            extractors.append(compile_expr(call.argument, layout))
    return extractors


def _exec_hash_aggregate(op: HashAggregate, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    group_key = _tuple_getter([layout[c.cid] for c in op.group_by])
    extractors = _make_agg_inputs(op.aggregates, layout)

    groups: Dict[Tuple, List[Accumulator]] = {}
    order: List[Tuple] = []
    for row in rows:
        key = group_key(row)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [
                Accumulator(call.function) for _, call in op.aggregates
            ]
            groups[key] = accumulators
            order.append(key)
        for accumulator, extract in zip(accumulators, extractors):
            accumulator.add(extract(row))

    out: Rows = []
    if not op.group_by and not groups:
        # Scalar aggregate over empty input: one row of defaults.
        out.append(
            tuple(
                Accumulator(call.function).result()
                for _, call in op.aggregates
            )
        )
    else:
        for key in order:
            out.append(
                key + tuple(acc.result() for acc in groups[key])
            )
    return out, op.output_columns


def _exec_stream_aggregate(op: StreamAggregate, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    # Grouping positions in the canonical (sorted-by-cid) requirement order.
    ordered_group = sorted(op.group_by, key=lambda c: c.cid)
    group_key = _tuple_getter([layout[c.cid] for c in ordered_group])
    # Output emits group columns in declared order.
    declared_key = _tuple_getter([layout[c.cid] for c in op.group_by])
    extractors = _make_agg_inputs(op.aggregates, layout)

    out: Rows = []
    current_key = None
    accumulators: List[Accumulator] = []
    current_declared: Tuple = ()
    saw_any = False
    for row in rows:
        key = group_key(row)
        if not saw_any or key != current_key:
            if saw_any:
                out.append(
                    current_declared
                    + tuple(acc.result() for acc in accumulators)
                )
            current_key = key
            current_declared = declared_key(row)
            accumulators = [
                Accumulator(call.function) for _, call in op.aggregates
            ]
            saw_any = True
        for accumulator, extract in zip(accumulators, extractors):
            accumulator.add(extract(row))
    if saw_any:
        out.append(
            current_declared + tuple(acc.result() for acc in accumulators)
        )
    elif not op.group_by:
        out.append(
            tuple(
                Accumulator(call.function).result()
                for _, call in op.aggregates
            )
        )
    return out, op.output_columns


# ------------------------------------------------------------------ set ops


def _aligned_branch(op, side: str, database: Database) -> Rows:
    """Execute one branch of a set operator and realign its rows to the
    operator's output column order."""
    child = op.left if side == "left" else op.right
    branch_columns = op.left_columns if side == "left" else op.right_columns
    rows, columns = _execute(child, database)
    layout = layout_of(columns)
    realign = _tuple_getter([layout[c.cid] for c in branch_columns])
    return [realign(row) for row in rows]


def _exec_concat(op: Concat, database: Database):
    left = _aligned_branch(op, "left", database)
    right = _aligned_branch(op, "right", database)
    return left + right, op.output_columns


def _exec_hash_union(op: HashUnion, database: Database):
    merged = _aligned_branch(op, "left", database) + _aligned_branch(
        op, "right", database
    )
    seen = set()
    out = []
    for row in merged:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out, op.output_columns


def _exec_hash_intersect(op: HashIntersect, database: Database):
    left = _aligned_branch(op, "left", database)
    right = set(_aligned_branch(op, "right", database))
    seen = set()
    out = []
    for row in left:
        if row in right and row not in seen:
            seen.add(row)
            out.append(row)
    return out, op.output_columns


def _exec_hash_except(op: HashExcept, database: Database):
    left = _aligned_branch(op, "left", database)
    right = set(_aligned_branch(op, "right", database))
    seen = set()
    out = []
    for row in left:
        if row not in right and row not in seen:
            seen.add(row)
            out.append(row)
    return out, op.output_columns


_HANDLERS = {
    PhysOpKind.TABLE_SCAN: _exec_table_scan,
    PhysOpKind.FILTER: _exec_filter,
    PhysOpKind.COMPUTE_SCALAR: _exec_compute_scalar,
    PhysOpKind.NESTED_LOOPS_JOIN: _exec_nested_loops,
    PhysOpKind.NESTED_APPLY: _exec_nested_apply,
    PhysOpKind.HASH_JOIN: _exec_hash_join,
    PhysOpKind.MERGE_JOIN: _exec_merge_join,
    PhysOpKind.HASH_AGGREGATE: _exec_hash_aggregate,
    PhysOpKind.STREAM_AGGREGATE: _exec_stream_aggregate,
    PhysOpKind.SORT: _exec_sort,
    PhysOpKind.CONCAT: _exec_concat,
    PhysOpKind.HASH_UNION: _exec_hash_union,
    PhysOpKind.HASH_DISTINCT: _exec_hash_distinct,
    PhysOpKind.HASH_INTERSECT: _exec_hash_intersect,
    PhysOpKind.HASH_EXCEPT: _exec_hash_except,
    PhysOpKind.TOP: _exec_top,
}
