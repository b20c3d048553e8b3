"""Execution configuration: which executor runs a physical plan.

Two executors implement the same plan semantics:

* ``columnar`` — the batch-oriented columnar executor
  (:mod:`repro.engine.columnar`); the default.
* ``iterator`` — the original row-at-a-time interpreter, kept as the
  reference oracle.

``ExecutionConfig`` selects between them (``executor=``; ``repro trace
--executor`` on the command line) and optionally enables a self-check
mode that runs *both* executors and fails loudly if their result bags
ever disagree.  One environment override:

* ``REPRO_EXEC_SELF_CHECK=1`` — differentially verify every execution
  (or a deterministic sample; ``REPRO_EXEC_SELF_CHECK=0.25`` checks a
  quarter of plans, sampled by plan signature so the choice is stable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

COLUMNAR = "columnar"
ITERATOR = "iterator"

_EXECUTORS = (COLUMNAR, ITERATOR)


@dataclass(frozen=True)
class ExecutionConfig:
    """Immutable knobs for the execution layer."""

    executor: str = COLUMNAR
    #: Run both executors and compare canonical bags.
    self_check: bool = False
    #: Fraction of plans self-checked (deterministic by plan signature).
    self_check_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {_EXECUTORS}"
            )
        if not 0.0 <= self.self_check_rate <= 1.0:
            raise ValueError("self_check_rate must be within [0, 1]")


DEFAULT_EXECUTION = ExecutionConfig()


def default_execution_config() -> ExecutionConfig:
    """Build the process default: the columnar executor, self-checked
    when ``REPRO_EXEC_SELF_CHECK`` asks for it."""
    raw_check = os.environ.get("REPRO_EXEC_SELF_CHECK", "").strip()
    self_check = False
    rate = 1.0
    if raw_check:
        try:
            value = float(raw_check)
        except ValueError:
            value = 1.0 if raw_check.lower() in ("true", "yes", "on") else 0.0
        if value > 0.0:
            self_check = True
            rate = min(value, 1.0)
    return ExecutionConfig(self_check=self_check, self_check_rate=rate)
