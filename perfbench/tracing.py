"""Span recording around the program's public entry points.

The benchmark measures end-to-end numbers with nothing installed.  For the
per-layer breakdown it runs separate *traced* passes: :func:`installed`
swaps wrappers onto the public functions and methods listed in
:data:`ENTRY_POINTS`, each wrapper records one :class:`Span` (name, layer,
start, end, parent, thread, run id) in memory, and the wrappers are
removed again when the pass ends.  Nothing under ``src/`` is edited; the
program's own ``optimize.explore``/``optimize.implement`` spans arrive
through the public :class:`repro.obs.trace.Tracer` interface.

A span's *self time* is its duration minus the part of it that its child
spans cover (union of child intervals, so concurrent children on the
differential fleet's worker threads are not double-subtracted).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import NULL_TRACER, Tracer


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: int = 0
    run_id: int = 0
    #: Extra facts a wrapper attaches (request counts, pool use).
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps every span of one traced pass in memory.

    Parents come from a per-thread stack.  A span opened on a thread with
    an empty stack (a worker thread of the differential fleet) takes the
    innermost span open on the recording thread as its parent, which is
    the span that submitted the work.
    """

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: List[int] = []

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        elif self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = None
        span = Span(
            span_id=len(self.spans), name=name, layer=layer,
            start=time.perf_counter(), parent=parent,
            thread=threading.get_ident(), run_id=self.run_id,
        )
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span.span_id)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        opened = self.start(name, layer)
        try:
            yield opened
        finally:
            self.finish(opened)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        result = []
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.span_id, ())):
                start = max(start, cursor)
                end = min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result.append(max(0.0, span.duration - covered))
        return result

    def nearest_layer(self, span: Span, layers) -> Optional[str]:
        """The closest ancestor of ``span`` whose layer is in ``layers``."""
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.layer in layers:
                return ancestor.layer
            parent = ancestor.parent
        return None

    def to_records(self) -> List[dict]:
        """JSON-ready span dump (times relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": span.span_id, "name": span.name, "layer": span.layer,
                "start": span.start - origin, "end": span.end - origin,
                "parent": span.parent, "thread": span.thread,
                "run": span.run_id,
            }
            for span in self.spans
        ]


class LayerTracer(Tracer):
    """A :class:`repro.obs.trace.Tracer` that forwards the optimizer's own
    ``optimize.explore``/``optimize.implement`` spans into a recorder and
    only counts everything else.

    The program's ``RecordingTracer`` keeps every event in a ring buffer
    (one per plan request and cache lookup), which costs memory and time
    the breakdown does not need; this subclass of the public base class
    keeps the two spans the explore/implement split needs.
    """

    enabled = True
    detailed = False

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.event_counts: Dict[str, int] = {}

    def event(self, name, cat="optimizer", **args) -> None:
        self.event_counts[name] = self.event_counts.get(name, 0) + 1

    def span(self, name, cat="optimizer", **args):
        layer = _PROGRAM_SPANS.get(name)
        if layer is None:
            return _NULL_CONTEXT
        return self.recorder.span(name, layer)


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def annotate(self, **args) -> None:
        return None


_NULL_CONTEXT = _NullContext()


#: Program-side spans taken from the tracer interface, by layer.
_PROGRAM_SPANS = {
    "optimize.explore": "optimizer.explore",
    "optimize.implement": "optimizer.implement",
}


#: ``(module, qualified attribute, layer)`` for every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.optimizer.engine", "Optimizer.optimize", "optimizer"),
    ("repro.service.plan_service", "PlanService.optimize", "service"),
    ("repro.service.plan_service", "PlanService.cost", "service"),
    ("repro.service.plan_service", "PlanService.optimize_many", "service"),
    ("repro.service.plan_service", "PlanService.cost_many", "service"),
    ("repro.service.plan_service", "PlanService.execute_many", "service"),
    ("repro.testing.generator", "QueryGenerator.pattern_query_for_rule",
     "generator"),
    ("repro.testing.generator", "QueryGenerator.pattern_query_for_pair",
     "generator"),
    ("repro.testing.suite", "TestSuiteBuilder.build", "suite"),
    ("repro.testing.suite", "CostOracle.cost_without", "oracle"),
    ("repro.testing.suite", "CostOracle.cost_without_many", "oracle"),
    ("repro.testing.compression", "baseline_plan", "compression"),
    ("repro.testing.compression", "set_multicover_plan", "compression"),
    ("repro.testing.compression", "top_k_independent_plan", "compression"),
    ("repro.testing.correctness", "CorrectnessRunner.run", "correctness"),
    ("repro.engine.batch", "execute_many", "engine"),
    ("repro.backends.sqlite_backend", "SqliteBackend.setup",
     "backend.sqlite"),
    ("repro.backends.sqlite_backend", "SqliteBackend.execute",
     "backend.sqlite"),
    # Each fleet member's pass over the suite runs on its own thread; its
    # self time is SQL rendering and bag normalization, i.e. differential
    # work, so these two count towards the differential layer.
    ("repro.backends.base", "Backend.run_many", "differential"),
    ("repro.backends.engine", "EngineBackend.run_many", "differential"),
    ("repro.testing.differential", "DifferentialRunner.run", "differential"),
    ("repro.testing.mutation.campaign", "MutationCampaign.run", "mutation"),
    ("repro.testing.mutation.operators", "Mutant.build", "mutation.build"),
    ("repro.testing.report", "CampaignResult.to_markdown", "report"),
    ("repro.testing.differential", "DiffReport.to_json", "report"),
    ("repro.testing.differential", "DiffReport.to_text", "report"),
    ("repro.testing.differential", "DiffReport.to_markdown", "report"),
    ("repro.testing.mutation.campaign", "MutationReport.to_json", "report"),
    ("repro.testing.mutation.campaign", "MutationReport.to_markdown",
     "report"),
)


def _wrap(recorder: SpanRecorder, name: str, layer: str, fn: Callable,
          tracer) -> Callable:
    if name == "Optimizer.optimize":
        @functools.wraps(fn)
        def optimize(self, *args, **kwargs):
            # Optimizers the program builds internally (one per mutant
            # service) start with the null tracer; the attribute is public
            # and mutable, so the explore/implement spans reach the
            # recorder from every optimizer in this process.
            if self.tracer is NULL_TRACER:
                self.tracer = tracer
            span = recorder.start(name, layer)
            try:
                return fn(self, *args, **kwargs)
            finally:
                recorder.finish(span)

        return optimize

    if name == "PlanService.optimize_many":
        @functools.wraps(fn)
        def optimize_many(self, *args, **kwargs):
            before = self.counters.parallel_tasks
            span = recorder.start(name, layer)
            try:
                return fn(self, *args, **kwargs)
            finally:
                recorder.finish(span)
                span.attrs["parallel"] = self.counters.parallel_tasks - before

        return optimize_many

    describe = _RESULT_ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.start(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(span)
        if describe is not None:
            span.attrs.update(describe(args, result))
        return result

    return wrapper


def _generation(args, outcome) -> Dict[str, object]:
    return {"trials": outcome.trials, "hit": outcome.succeeded}


def _correctness(args, report) -> Dict[str, object]:
    return {
        "executions": report.queries_executed + report.disabled_plans_executed,
        "disabled_executed": report.disabled_plans_executed,
        "identical_skipped": report.skipped_identical_plans,
    }


#: Facts read off an entry point's arguments or return value.
_RESULT_ATTRS: Dict[str, Callable] = {
    "QueryGenerator.pattern_query_for_rule": _generation,
    "QueryGenerator.pattern_query_for_pair": _generation,
    "CostOracle.cost_without": lambda args, cost: {"requests": 1},
    "CostOracle.cost_without_many": (
        lambda args, costs: {"requests": len(args[1])}
    ),
    "CorrectnessRunner.run": _correctness,
    "PlanService.execute_many": lambda args, items: {"requests": len(items)},
    "execute_many": lambda args, items: {"requests": len(items)},
}


@contextmanager
def installed(recorder: SpanRecorder, tracer) -> Iterator[None]:
    """Wrap every entry point for the duration of the ``with`` block.

    Module-level functions are replaced in every loaded ``repro`` module
    that imported them by name (``run_campaign`` calls the compression
    plan makers through its own module globals).
    """
    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, qualname, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr,
                        _wrap(recorder, qualname, layer, original, tracer))
                continue
            original = getattr(module, qualname)
            wrapped = _wrap(recorder, qualname, layer, original, tracer)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, qualname, None) is original
                ):
                    undo.append((loaded, qualname, original))
                    setattr(loaded, qualname, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
