"""Run guards: the one way a reconciliation run stops before its fixpoint.

The iterate loop of :class:`~repro.core.engine.Reconciler` terminates
on its own (§3.2: scores only rise, and neighbours are reactivated only
when a score rises by more than epsilon), but its cost depends on the
data. A :class:`RunGuard` is an operating limit on that cost: the
engine checks it once per loop iteration, and it enforces

* a wall-clock **deadline**, anchored before the build, so it bounds
  the whole run, and
* a **recomputation budget**.

A trip is a :class:`DegradationEvent` returned by :meth:`RunGuard.check`;
the engine records it in ``stats.degradations``, stops, and returns a
partial — but honest — :class:`~repro.core.result.ReconciliationResult`
whose ``stop_reason`` and ``degradations`` say exactly what was cut
short.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["DegradationEvent", "RunGuard"]


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded instance of the run degrading from the ideal.

    ``kind`` is a stable machine-readable tag: ``"deadline"`` or
    ``"budget"`` (a :class:`RunGuard` trip), ``"weak_fanout"``
    (build-time weak-edge pruning), or ``"parallel_fallback"`` (the
    build could not start or lost its worker pool and scored serially;
    see :mod:`repro.runtime.supervisor` and the "Degradation taxonomy"
    table in DESIGN.md).
    """

    kind: str
    detail: str
    recomputations: int = 0
    elapsed_seconds: float = 0.0


class RunGuard:
    """Limits checked inside the engine's iterate loop.

    Both limits default to ``None`` (unlimited). ``deadline_seconds``
    must be a finite number >= 0 and ``max_recomputations`` an int >= 0
    (the bounds the CLI's ``--deadline`` / ``--max-recomputations``
    enforce); ``0`` trips on the first check. ``clock`` is injectable
    for deterministic tests; it must be monotone.
    """

    def __init__(
        self,
        *,
        deadline_seconds: float | None = None,
        max_recomputations: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_seconds is not None and not 0 <= deadline_seconds < math.inf:
            raise ValueError(
                f"deadline_seconds must be a finite number >= 0, "
                f"got {deadline_seconds!r}"
            )
        if max_recomputations is not None and (
            isinstance(max_recomputations, bool)
            or not isinstance(max_recomputations, int)
            or max_recomputations < 0
        ):
            raise ValueError(
                f"max_recomputations must be an int >= 0, "
                f"got {max_recomputations!r}"
            )
        self.deadline_seconds = deadline_seconds
        self.max_recomputations = max_recomputations
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

    def check(
        self, *, recomputations: int = 0, queue_size: int = 0
    ) -> DegradationEvent | None:
        """The trip event if a limit is reached, else ``None``."""
        if self._started is None:
            self.start()
        if (
            self.deadline_seconds is not None
            and self.elapsed() >= self.deadline_seconds
        ):
            kind = "deadline"
            detail = (
                f"wall-clock deadline of {self.deadline_seconds}s exceeded "
                f"after {recomputations} recomputations"
            )
        elif (
            self.max_recomputations is not None
            and recomputations >= self.max_recomputations
        ):
            kind = "budget"
            detail = (
                f"recomputation budget of {self.max_recomputations} exhausted "
                f"with {queue_size} nodes still queued"
            )
        else:
            return None
        return DegradationEvent(
            kind=kind,
            detail=detail,
            recomputations=recomputations,
            elapsed_seconds=self.elapsed(),
        )
