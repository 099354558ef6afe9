"""The engine's one observer seam: a no-op protocol and its fan-out.

Everything that watches a run — telemetry sinks, flight recorder,
hotspot sketch, fault injectors — is an :class:`Observer`
subscribed to the engine, which reports through one :class:`Observers`
fan-out. The callbacks, in the order a run produces them:

* ``on_phase_begin`` / ``on_phase_end`` — ``build`` (with sub-phases
  ``premerge``, ``build_class``, ``wire_association``, ``wire_weak``,
  ``constraints``) and ``iterate``, with the phase's fields;
* ``on_blocks`` — a class's blocking index is final, its nodes built;
* ``on_chunk`` — the build pool returned a scoring chunk (parent-side
  seconds and the workers' telemetry payload);
* ``on_step`` — before each iterate pop; whatever it raises ends the
  run (the fault-injection seam);
* ``on_decision`` — a node was decided (merge, defer, ...);
* ``on_activation`` — a node was (re)queued, with its cause;
* ``on_degradation`` — anything degraded;
* ``on_event`` — any other event worth logging.

A subscriber overrides only what it consumes. The fan-out resolves at
construction which subscribers override which callback, and whether
any wants decision evidence, per-decision timing or worker telemetry
payloads; the engine computes none of these when no subscriber does,
and an empty fan-out is the bare engine. Subscribers only read engine
state, so partitions, provenance and counters are the same with any set
of them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Observer", "Observers"]


class Observer:
    """No-op base class of every engine subscriber."""

    __slots__ = ()

    #: the decision callback gets the evidence dict (channel scores,
    #: S_rv, boolean supports) instead of ``None``.
    wants_evidence = False
    #: the decision callback gets the decision's wall seconds.
    wants_timing = False
    #: build-pool workers record and ship telemetry payloads.
    wants_worker_telemetry = False

    def on_phase_begin(self, engine, phase: str, **fields) -> None:
        pass

    def on_phase_end(self, engine, phase: str, **fields) -> None:
        pass

    def on_blocks(self, engine, class_name: str, index, nodes: int) -> None:
        pass

    def on_chunk(self, lane: str, seconds: float, pairs: int, payload) -> None:
        pass

    def on_step(self, engine, step: int) -> None:
        pass

    def on_decision(self, engine, node, decision: str, evidence, seconds) -> None:
        """*evidence* is ``None`` for a decision taken without scoring
        (or that no subscriber wants); *seconds* ``None`` when untimed."""

    def on_activation(self, node, cause: str, source) -> None:
        pass

    def on_degradation(self, event) -> None:
        pass

    def on_event(self, level: str, event: str, **fields) -> None:
        pass


#: callbacks the fan-out passes through unchanged, as ``<name>(...)``.
_PASS_THROUGH = (
    "phase_begin", "phase_end", "blocks", "chunk", "step",
    "activation", "degradation", "event",
)


def _ignore(*args, **fields) -> None:
    return None


def _fan(subscribers: tuple, name: str):
    """One callable invoking every subscriber that overrides *name*."""
    hooks = tuple(
        getattr(subscriber, name)
        for subscriber in subscribers
        if getattr(type(subscriber), name) is not getattr(Observer, name)
    )
    if len(hooks) < 2:
        return hooks[0] if hooks else _ignore

    def fan(*args, **fields) -> None:
        for hook in hooks:
            hook(*args, **fields)

    return fan


class Observers:
    """The fan-out the engine reports to, iterable over its subscribers.

    Callback ``on_<name>`` of every subscriber is reached through the
    attribute ``<name>`` with the same arguments; only :meth:`decision`
    differs, taking the decision's start time instead of its seconds.
    """

    def __init__(self, subscribers=()) -> None:
        self.subscribers = tuple(subscribers)
        for subscriber in self.subscribers:
            if not isinstance(subscriber, Observer):
                raise TypeError(f"{subscriber!r} is not an Observer")
        self.evidence = any(s.wants_evidence for s in self.subscribers)
        self.timing = any(s.wants_timing for s in self.subscribers)
        self.worker_telemetry = any(s.wants_worker_telemetry for s in self.subscribers)
        for name in _PASS_THROUGH:
            setattr(self, name, _fan(self.subscribers, f"on_{name}"))
        self._decision = _fan(self.subscribers, "on_decision")

    def __iter__(self):
        return iter(self.subscribers)

    def __len__(self) -> int:
        return len(self.subscribers)

    def find(self, cls):
        """The first subscriber that is a *cls*, or ``None``."""
        return next((s for s in self.subscribers if isinstance(s, cls)), None)

    @contextmanager
    def phase(self, engine, phase: str, **fields):
        """Begin *phase* on entry and end it on exit, even by raising."""
        self.phase_begin(engine, phase, **fields)
        try:
            yield
        finally:
            self.phase_end(engine, phase, **fields)

    def decision(self, engine, node, decision: str, evidence=None, started=None) -> None:
        """Report a decision; *started* is the ``perf_counter`` reading
        taken when the node was popped, or ``None`` when untimed."""
        seconds = None if started is None else time.perf_counter() - started
        self._decision(engine, node, decision, evidence, seconds)
