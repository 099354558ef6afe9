"""Run guards: bounded, honest reconciliation runs.

The iterate loop of :class:`~repro.core.engine.Reconciler` is a
fixpoint computation whose cost depends on the data; on adversarial or
merely huge corpora it can run long past any operational budget. A
:class:`RunGuard` is checked once per loop iteration and enforces

* a wall-clock **deadline**,
* a **recomputation budget** (the same unit as
  ``EngineConfig.max_recomputations``, but trip-recorded),
* **growth ceilings** on the active queue and the pair-node count
  (runaway propagation / node creation).

Every trip is recorded as a structured :class:`DegradationEvent` and
raised as a typed exception (:class:`BudgetExceeded` /
:class:`DeadlineExceeded`); the engine turns the trip into a partial —
but honest — :class:`~repro.core.result.ReconciliationResult` whose
``stop_reason`` and ``degradations`` say exactly what was cut short.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from .errors import BudgetExceeded, DeadlineExceeded

__all__ = ["DegradationEvent", "RunGuard"]


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded instance of the run degrading from the ideal.

    ``kind`` is a stable machine-readable tag: ``"deadline"``,
    ``"budget"``, ``"queue_ceiling"``, ``"graph_ceiling"``,
    ``"weak_fanout"`` (build-time weak-edge pruning), ``"fallback"``
    (baseline substitution by the resilient wrapper),
    or ``"parallel_fallback"`` (the build could not start or lost its
    worker pool and scored serially; see :mod:`repro.runtime.supervisor`
    and the "Degradation taxonomy" table in DESIGN.md).
    """

    kind: str
    detail: str
    recomputations: int = 0
    elapsed_seconds: float = 0.0


class RunGuard:
    """Limits checked inside the engine's iterate loop.

    All limits default to ``None`` (unlimited). ``clock`` is injectable
    for deterministic tests; it must be monotone.
    """

    def __init__(
        self,
        *,
        deadline_seconds: float | None = None,
        max_recomputations: int | None = None,
        max_queue_size: int | None = None,
        max_graph_nodes: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.deadline_seconds = deadline_seconds
        self.max_recomputations = max_recomputations
        self.max_queue_size = max_queue_size
        self.max_graph_nodes = max_graph_nodes
        self.events: list[DegradationEvent] = []
        self._clock = clock
        self._started: float | None = None

    def start(self) -> None:
        """Anchor the deadline; idempotent (resumed runs keep the first
        anchor of this guard instance)."""
        if self._started is None:
            self._started = self._clock()

    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def _trip(self, exc_class, kind: str, detail: str, recomputations: int):
        event = DegradationEvent(
            kind=kind,
            detail=detail,
            recomputations=recomputations,
            elapsed_seconds=self.elapsed(),
        )
        self.events.append(event)
        raise exc_class(detail, event=event)

    def check(
        self,
        *,
        recomputations: int = 0,
        queue_size: int = 0,
        graph_nodes: int = 0,
    ) -> None:
        """Raise a typed error if any limit is exceeded; no-op otherwise."""
        if self._started is None:
            self.start()
        if (
            self.deadline_seconds is not None
            and self.elapsed() >= self.deadline_seconds
        ):
            self._trip(
                DeadlineExceeded,
                "deadline",
                f"wall-clock deadline of {self.deadline_seconds}s exceeded "
                f"after {recomputations} recomputations",
                recomputations,
            )
        if (
            self.max_recomputations is not None
            and recomputations >= self.max_recomputations
        ):
            self._trip(
                BudgetExceeded,
                "budget",
                f"recomputation budget of {self.max_recomputations} exhausted "
                f"with {queue_size} nodes still queued",
                recomputations,
            )
        if self.max_queue_size is not None and queue_size > self.max_queue_size:
            self._trip(
                BudgetExceeded,
                "queue_ceiling",
                f"active queue grew to {queue_size} keys "
                f"(ceiling {self.max_queue_size})",
                recomputations,
            )
        if self.max_graph_nodes is not None and graph_nodes > self.max_graph_nodes:
            self._trip(
                BudgetExceeded,
                "graph_ceiling",
                f"dependency graph grew to {graph_nodes} pair nodes "
                f"(ceiling {self.max_graph_nodes})",
                recomputations,
            )
