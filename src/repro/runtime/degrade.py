"""Graceful degradation: answer something honest when the run can't finish.

:class:`ResilientReconciler` wraps the engine with a
:class:`~repro.runtime.guards.RunGuard` and, when the guard trips
(budget or deadline), finalizes the *partial* partition instead of
crashing — every merge already taken is transitively closed, so the
partial answer is valid, just conservative. With
``fallback="indepdec"`` the classes that still had work queued are
re-resolved with the InDepDec baseline (single-pass, no propagation —
cheap and bounded), in the spirit of query-time entity resolution
degrading to attribute-wise matching under pressure. The result is
tagged with what degraded and why: ``completed=False``, the guard's
``stop_reason``, and a ``DegradationEvent`` per substitution.
"""

from __future__ import annotations

from ..baselines import indepdec_config
from ..core.engine import Reconciler
from ..core.model import DomainModel, EngineConfig
from ..core.references import ReferenceStore
from ..core.result import ReconciliationResult
from .errors import BudgetExceeded, DeadlineExceeded
from .guards import DegradationEvent, RunGuard

__all__ = ["ResilientReconciler"]


class ResilientReconciler:
    """Run DepGraph under guards; degrade instead of dying.

    ``fallback`` is ``"partial"`` (keep the truncated DepGraph
    partition as-is) or ``"indepdec"`` (replace the partitions of
    classes with unfinished work by the InDepDec baseline's answer).
    """

    def __init__(
        self,
        store: ReferenceStore,
        domain: DomainModel,
        config: EngineConfig | None = None,
        *,
        guard: RunGuard | None = None,
        checkpointer=None,
        fallback: str = "partial",
        observers=None,
    ) -> None:
        if fallback not in ("partial", "indepdec"):
            raise ValueError(f"unknown fallback {fallback!r}")
        self.store = store
        self.domain = domain
        self.config = config or EngineConfig()
        self.guard = guard
        self.checkpointer = checkpointer
        self.fallback = fallback
        self.reconciler = Reconciler(store, domain, self.config, observers=observers)

    def run(self) -> ReconciliationResult:
        engine = self.reconciler
        try:
            return engine.run(
                guard=self.guard,
                checkpointer=self.checkpointer,
                raise_on_trip=True,
            )
        except (BudgetExceeded, DeadlineExceeded):
            pass
        unresolved = self._unresolved_classes(engine)
        result = engine.partial_result()
        if self.fallback == "indepdec" and unresolved:
            baseline = Reconciler(
                self.store, self.domain, indepdec_config(self.domain), observers=()
            ).run()
            for class_name in sorted(unresolved):
                result.partitions[class_name] = baseline.partitions[class_name]
            event = DegradationEvent(
                kind="fallback",
                detail=(
                    f"classes {sorted(unresolved)} re-resolved with the "
                    f"InDepDec baseline after stop_reason="
                    f"{result.stop_reason!r}"
                ),
                recomputations=engine.stats.recomputations,
            )
            engine._degrade(event)
            result.degradations.append(event)
        return result

    def _unresolved_classes(self, engine: Reconciler) -> set[str]:
        """Classes that still had live queued work when the run stopped."""
        unresolved: set[str] = set()
        for entry in engine.queue.snapshot()["entries"]:
            node = engine.graph.get_key(tuple(entry))
            if node is not None:
                unresolved.add(node.class_name)
        return unresolved
