"""The telemetry subscriber: event log, tracer and provenance.

One :class:`Telemetry` bundles the three sinks — event log, tracer,
provenance log — and subscribes them to the engine's observer seam
(:mod:`repro.obs.observer`). A ``--run-dir`` run attaches all three,
writing ``events.jsonl``, ``trace.json`` and ``provenance.jsonl``;
``explain`` without a run directory keeps only an in-memory provenance
log. Every sink is optional and every facade method returns at once
when its sink is absent. The subscriber also owns the state that
exists only to feed the sinks: the relay for build-pool worker
telemetry (created by the first worker payload or lane death) and the
iterate-chunk bookkeeping behind ``iterate_chunk`` spans.

It asks the engine for decision evidence only with a provenance log,
and for worker payloads only with a log or tracer. Every sink is
strictly observational, and nothing telemetry produces (timestamps,
span ids, sequence numbers) enters the checkpoint fingerprint or any
decision.
"""

from __future__ import annotations

from .events import EventLog
from .observer import Observer
from .provenance import ProvenanceLog
from .tracing import Tracer

__all__ = ["Telemetry"]

#: iterate steps per ``iterate_chunk`` span.
_ITERATE_CHUNK = 1_000

#: phases logged as ``<phase>_start`` / ``<phase>_end`` events.
_LOGGED_PHASES = ("build", "iterate")

#: events that also leave a tracer instant, by instant name.
_INSTANTS = {"checkpoint_saved": "checkpoint"}


class Telemetry(Observer):
    """Bundle of observability sinks; all optional, all observational.

    ``active`` is True when *any* sink is attached. The sinks are
    public attributes, so callers read exactly what they need.
    """

    def __init__(
        self,
        *,
        log: EventLog | None = None,
        tracer: Tracer | None = None,
        provenance: ProvenanceLog | None = None,
    ) -> None:
        self.log = log
        self.tracer = tracer
        self.provenance = provenance
        self.wants_evidence = provenance is not None
        self.wants_worker_telemetry = log is not None or tracer is not None
        self.active = self.wants_worker_telemetry or self.wants_evidence
        #: :class:`~repro.obs.relay.TelemetryRelay` for build-pool
        #: workers, or ``None`` until one reports.
        self.relay = None
        self._spans: list = []  # open tracer spans of nested phases
        self._steps = None  # decisions this iterate run; None before one
        self._chunk = (0.0, 0, 0)  # tracer offset, first step, merges
        self._iterate_offset = 0.0

    # -- facade (each a no-op when its sink is absent) -------------------
    def emit(self, level: str, event: str, /, **fields) -> None:
        if self.log is not None:
            self.log.emit(level, event, **fields)

    def instant(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    def close(self) -> None:
        """Flush and close file-backed sinks (log, provenance JSONL)."""
        if self.log is not None:
            self.log.close()
        if self.provenance is not None:
            self.provenance.close()

    def _relay(self):
        if self.relay is None:
            from .relay import TelemetryRelay

            self.relay = TelemetryRelay(self)
        return self.relay

    # -- observer callbacks ----------------------------------------------
    def on_phase_begin(self, engine, phase: str, **fields) -> None:
        if phase in _LOGGED_PHASES:
            self.emit("info", f"{phase}_start", **fields)
        if phase == "iterate":
            self._steps = 0
            if self.tracer is not None:
                self._iterate_offset = self.tracer.now()
                self._chunk = (self._iterate_offset, 0, engine.stats.merges)
        elif self.tracer is not None:
            name = phase
            if phase == "build_class":
                name = f"build_class:{fields['class_name']}"
            span = self.tracer.span(name, **fields)
            span.__enter__()
            self._spans.append(span)

    def on_phase_end(self, engine, phase: str, **fields) -> None:
        if phase != "iterate":
            if self.tracer is not None:
                self._spans.pop().__exit__(None, None, None)
        elif self.tracer is not None:
            if self._steps > self._chunk[1]:
                self._trace_chunk(engine)
            self.tracer.complete(
                "iterate",
                self._iterate_offset,
                self.tracer.now() - self._iterate_offset,
                steps=self._steps,
                stop_reason=engine.stop_reason,
            )
        if phase in _LOGGED_PHASES:
            self.emit("info", f"{phase}_end", **fields)

    def on_chunk(self, lane: str, seconds: float, pairs: int, payload) -> None:
        if payload is not None:
            self._relay().absorb(payload)

    def on_decision(self, engine, node, decision: str, evidence, seconds) -> None:
        prov = self.provenance
        if prov is not None:
            trigger, trigger_pair = prov.take_activation(node.key)
            class_name = node.class_name
            captured = evidence or {}
            prov.record(
                pair=node.key,
                class_name=class_name,
                decision=decision,
                score=node.score,
                threshold=engine.domain.merge_threshold(class_name),
                s_rv=captured.get("s_rv", 0.0),
                # Decisions taken without scoring carry no t_rv.
                t_rv=engine.domain.t_rv(class_name) if evidence is not None else 0.0,
                strong_support=captured.get("strong", 0),
                weak_support=captured.get("weak", 0),
                channels=captured.get("channels", {}),
                trigger=trigger,
                trigger_pair=trigger_pair,
                recompute_index=node.recompute_count,
            )
        if self._steps is None:
            return
        self._steps += 1
        if self._steps % _ITERATE_CHUNK == 0:
            self._trace_chunk(engine)

    def on_activation(self, node, cause: str, source) -> None:
        if self.provenance is not None:
            self.provenance.note_activation(
                node.key, cause, source.key if source is not None else None
            )

    def on_degradation(self, event) -> None:
        self.emit("warning", "degradation", kind=event.kind, detail=event.detail)

    def on_event(self, level: str, event: str, **fields) -> None:
        if event == "lane_died":
            # The relay logs, traces and counts lane deaths itself.
            if self.wants_worker_telemetry:
                self._relay().lane_died(fields["pid"], fields["reason"])
            return
        self.emit(level, event, **fields)
        if event in _INSTANTS:
            self.instant(_INSTANTS[event], **fields)

    def _trace_chunk(self, engine) -> None:
        """Close the current ``iterate_chunk`` span at ``self._steps``."""
        if self.tracer is None:
            return
        start, from_step, merges = self._chunk
        now = self.tracer.now()
        self.tracer.complete(
            "iterate_chunk",
            start,
            now - start,
            from_step=from_step,
            to_step=self._steps,
            merges=engine.stats.merges - merges,
        )
        self._chunk = (now, self._steps, engine.stats.merges)
