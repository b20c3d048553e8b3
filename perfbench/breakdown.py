"""Per-layer metrics of one traced pass.

Times come from the spans :mod:`perfbench.tracing` records (self time per
layer); counts come from the program's own :class:`MetricsRegistry`
counters, which also fold in the optimizations run on worker processes.
Every metric is emitted on every workload; a layer a workload never calls
reads 0.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("import.s", "s"),
    ("datagen.s", "s"),
    ("generator.calls", "count"),
    ("generator.trials", "count"),
    ("generator.hit_frac", "ratio"),
    ("generator.self_s", "s"),
    ("service.requests", "count"),
    ("service.memory_hit_frac", "ratio"),
    ("service.disk_hit_frac", "ratio"),
    ("service.computed", "count"),
    ("service.errors", "count"),
    ("service.self_s", "s"),
    ("service.pool_wait_s", "s"),
    ("service.disk_bytes", "bytes"),
    ("optimizer.calls", "count"),
    ("optimizer.self_s", "s"),
    ("optimizer.explore_s", "s"),
    ("optimizer.implement_s", "s"),
    ("optimizer.rule_attempts", "count"),
    ("optimizer.fire_frac", "ratio"),
    ("optimizer.truncated", "count"),
    ("optimizer.errors", "count"),
    ("optimizer.for_generation_s", "s"),
    ("optimizer.for_costing_s", "s"),
    ("optimizer.for_execution_s", "s"),
    ("oracle.requests", "count"),
    ("compression.self_s", "s"),
    ("correctness.self_s", "s"),
    ("correctness.executions", "count"),
    ("correctness.identical_skip_frac", "ratio"),
    ("engine.self_s", "s"),
    ("engine.executions", "count"),
    ("engine.rows", "count"),
    ("engine.rows_per_s", "1/s"),
    ("engine.result_cache_hit_frac", "ratio"),
    ("engine.coalesced_frac", "ratio"),
    ("backend.sqlite.self_s", "s"),
    ("backend.sqlite.executions", "count"),
    ("backend.sqlite.setup_s", "s"),
    ("differential.self_s", "s"),
    ("differential.agree_frac", "ratio"),
    ("mutation.self_s", "s"),
    ("mutation.mutants", "count"),
    ("mutation.pool_queries", "count"),
    ("mutation.mutant_s_median", "s"),
    ("mutation.mutant_s_max", "s"),
    ("report.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("fail_frac", "ratio"),
    ("truncated_frac", "ratio"),
    ("detect_frac", "ratio"),
    ("suite_cost_ratio", "ratio"),
    ("wall_s", "s"),
    ("wall_max_s", "s"),
    ("ref_s", "s"),
    ("passes", "count"),
)

#: Which calling layer an optimization is charged to, by the nearest
#: enclosing span's layer.
_CALLER_CLASS = {
    "generator": "optimizer.for_generation_s",
    "suite": "optimizer.for_costing_s",
    "oracle": "optimizer.for_costing_s",
    "compression": "optimizer.for_costing_s",
    "correctness": "optimizer.for_execution_s",
    "differential": "optimizer.for_execution_s",
    # The mutation campaign prewarms each pool's verdict plans in one
    # batch before its correctness run.
    "mutation": "optimizer.for_execution_s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def pass_metrics(recorder, metrics, result, disk_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (everything except the
    run-level ``import.s``, ``datagen.s``, ``trace.overhead_frac`` and the
    ``wall_s``, ``wall_max_s``, ``ref_s`` and ``passes`` of the untraced
    passes)."""
    spans = recorder.spans
    selfs = recorder.self_times()
    layer_self: Dict[str, float] = {}
    for span, own in zip(spans, selfs):
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own

    def of_layer(layer):
        return [span for span in spans if span.layer == layer]

    def attr_sum(layer, key):
        return sum(span.attrs.get(key, 0) for span in of_layer(layer))

    counters = metrics.snapshot()["counters"]

    def counter(name):
        return sum(
            value for key, value in counters.items()
            if key == name or key.startswith(name + "{")
        )

    out: Dict[str, float] = {}

    generator_calls = len(of_layer("generator"))
    out["generator.calls"] = generator_calls
    out["generator.trials"] = attr_sum("generator", "trials")
    out["generator.hit_frac"] = _ratio(
        sum(1 for s in of_layer("generator") if s.attrs.get("hit")),
        generator_calls,
    )
    out["generator.self_s"] = layer_self.get("generator", 0.0)

    requests = counter("service.requests")
    out["service.requests"] = requests
    out["service.memory_hit_frac"] = _ratio(
        counter("service.memory_hits"), requests
    )
    out["service.disk_hit_frac"] = _ratio(counter("service.disk_hits"), requests)
    out["service.computed"] = counter("service.computed")
    out["service.errors"] = counter("service.errors")
    out["service.self_s"] = layer_self.get("service", 0.0)
    out["service.pool_wait_s"] = sum(
        own for span, own in zip(spans, selfs)
        if span.name == "PlanService.optimize_many"
        and span.attrs.get("parallel")
    )
    out["service.disk_bytes"] = disk_bytes

    optimizations = counter("optimizer.optimizations")
    out["optimizer.calls"] = optimizations + counter(
        "optimizer.optimization_errors"
    )
    out["optimizer.self_s"] = layer_self.get("optimizer", 0.0)
    out["optimizer.explore_s"] = layer_self.get("optimizer.explore", 0.0)
    out["optimizer.implement_s"] = layer_self.get("optimizer.implement", 0.0)
    considered = counter("optimizer.rule.considered")
    out["optimizer.rule_attempts"] = considered
    out["optimizer.fire_frac"] = _ratio(
        counter("optimizer.rule.fired"), considered
    )
    truncated = counter("optimizer.budget_exhausted")
    out["optimizer.truncated"] = truncated
    out["optimizer.errors"] = counter("optimizer.optimization_errors")
    for name in set(_CALLER_CLASS.values()):
        out[name] = 0.0
    for span in of_layer("optimizer"):
        caller = recorder.nearest_layer(span, _CALLER_CLASS)
        if caller is not None:
            out[_CALLER_CLASS[caller]] += span.duration

    out["oracle.requests"] = attr_sum("oracle", "requests")
    out["compression.self_s"] = layer_self.get("compression", 0.0)

    out["correctness.self_s"] = layer_self.get("correctness", 0.0)
    out["correctness.executions"] = attr_sum("correctness", "executions")
    compared = attr_sum("correctness", "disabled_executed")
    skipped = attr_sum("correctness", "identical_skipped")
    out["correctness.identical_skip_frac"] = _ratio(skipped, skipped + compared)

    engine_self = layer_self.get("engine", 0.0)
    rows = counter("exec.rows")
    out["engine.self_s"] = engine_self
    out["engine.executions"] = counter("exec.executions")
    out["engine.rows"] = rows
    out["engine.rows_per_s"] = _ratio(rows, engine_self)
    service_exec = [s for s in spans if s.name == "PlanService.execute_many"]
    out["engine.result_cache_hit_frac"] = _ratio(
        counter("exec.cache_hits"),
        sum(s.attrs.get("requests", 0) for s in service_exec),
    )
    out["engine.coalesced_frac"] = _ratio(
        counter("exec.coalesced"), attr_sum("engine", "requests")
    )

    sqlite_spans = of_layer("backend.sqlite")
    out["backend.sqlite.self_s"] = layer_self.get("backend.sqlite", 0.0)
    out["backend.sqlite.executions"] = sum(
        1 for s in sqlite_spans if s.name == "SqliteBackend.execute"
    )
    out["backend.sqlite.setup_s"] = sum(
        s.duration for s in sqlite_spans if s.name == "SqliteBackend.setup"
    )

    out["differential.self_s"] = layer_self.get("differential", 0.0)
    out["differential.agree_frac"] = result.ratios.get("agree_frac", 0.0)

    out["mutation.self_s"] = (
        layer_self.get("mutation", 0.0) + layer_self.get("mutation.build", 0.0)
    )
    out["mutation.mutants"] = counter("mutation.mutants")
    out["mutation.pool_queries"] = counter("mutation.pool_queries")
    durations = mutant_durations(recorder)
    out["mutation.mutant_s_median"] = _median(durations)
    out["mutation.mutant_s_max"] = max(durations, default=0.0)

    out["report.self_s"] = layer_self.get("report", 0.0)

    root = next(span for span in spans if span.layer == "pass")
    unattributed = selfs[root.span_id]
    out["trace.unattributed_s"] = unattributed
    out["trace.unattributed_frac"] = _ratio(unattributed, root.duration)

    out["fail_frac"] = _ratio(result.failed, result.attempted)
    out["truncated_frac"] = _ratio(truncated, optimizations)
    out["detect_frac"] = result.ratios.get("detect_frac", 0.0)
    out["suite_cost_ratio"] = result.ratios.get("suite_cost_ratio", 0.0)
    return out


def mutant_durations(recorder):
    """Wall time of each mutant evaluation.

    The campaign builds each mutant's rule (``Mutant.build``) first thing
    in its evaluation, so one evaluation runs from its build to the next
    build, and the last one to the end of ``MutationCampaign.run``.
    """
    durations = []
    for run in recorder.spans:
        if run.name != "MutationCampaign.run":
            continue
        starts = sorted(
            span.start for span in recorder.spans
            if span.name == "Mutant.build" and span.parent == run.span_id
        )
        for start, end in zip(starts, starts[1:] + [run.end]):
            durations.append(end - start)
    return durations


def median_metrics(samples):
    """Per-metric median over the traced passes of one run."""
    names = samples[0].keys() if samples else ()
    return {name: _median([sample[name] for sample in samples])
            for name in names}
