"""Executing a list of plans against one database.

The correctness hot path executes many plans against one database — the
baseline plan plus one plan per disabled-rule variant per query, times
every mutant of a campaign.  :func:`execute_many` runs them one by one and
captures each failure in its :class:`BatchItem`, so one bad plan does not
abort the rest.  Repeated plans are answered once, by the result cache of
:meth:`repro.service.PlanService.execute_many`.

Table scans are shared across the whole list for free: the columnar
executor reads the per-table column snapshot cached on
:class:`~repro.storage.table.StoredTable`, which stays valid for as long
as the database is not mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.config import ExecutionConfig
from repro.engine.executor import ExecutionError, execute_plan
from repro.engine.results import QueryResult
from repro.obs.trace import NULL_TRACER, Tracer
from repro.physical.operators import PhysicalOp
from repro.storage.database import Database

#: One execution request: a physical plan plus optional output projection.
ExecRequest = Tuple[PhysicalOp, Optional[Tuple]]


@dataclass
class BatchItem:
    """Outcome of one request inside an :func:`execute_many` call."""

    result: Optional[QueryResult] = None
    error: Optional[ExecutionError] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_many(
    requests: Sequence[ExecRequest],
    database: Database,
    *,
    config: Optional[ExecutionConfig] = None,
    tracer: Tracer = NULL_TRACER,
    metrics=None,
) -> List[BatchItem]:
    """Execute ``requests`` against ``database``, in request order.

    Returns one :class:`BatchItem` per request.  A plan that fails to
    execute yields an item carrying the :class:`ExecutionError` instead of
    raising (mirroring how campaign runners handle per-query errors).
    """
    items: List[BatchItem] = []
    for plan, outputs in requests:
        try:
            items.append(
                BatchItem(
                    result=execute_plan(
                        plan, database, outputs,
                        config=config, tracer=tracer, metrics=metrics,
                    )
                )
            )
        except ExecutionError as exc:
            items.append(BatchItem(error=exc))
    return items
