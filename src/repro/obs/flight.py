"""Flight recorder + crash bundles: the black-box for a run that dies.

The telemetry stack explains runs that *finish* — manifests, traces,
provenance replay all render after the fact.  A run that dies mid-build
used to leave only a stack trace.  The :class:`FlightRecorder` is the
black-box counterpart: a bounded-memory set of ring buffers (recent
lifecycle events, decisions, chunk timings, degradations) subscribed to
the engine's observer seam by default, costing a deque append per
callback and performing **zero I/O while the run is healthy**.  When
something goes wrong — a guard trip, an unhandled engine exception, a
worker death and the serial fallback it forces — the rings are dumped
atomically as ``crash_bundle.json`` into the run directory together
with per-thread stacks (:func:`sys._current_frames`), the config
fingerprint, the partial :class:`~repro.core.engine.EngineStats`, and
the worker-lane rings retained by the telemetry relay.

Invariants, mirroring every other observer in this package:

* recorder state never reaches checkpoints or config fingerprints
  (it is a subscriber, not config, and ``engine_state`` never
  serialises it), so partitions are byte-identical with the recorder
  subscribed or not;
* all ring feeds are observational — a deque append — and never
  influence a decision;
* ring capacity bounds memory: with the default 256 entries per ring
  and ~120-byte entries, a recorder tops out around 128 KiB.

Only stdlib modules are imported at module scope; the writer helper is
imported lazily inside :func:`dump_crash_bundle` because this module is
loaded by ``repro.obs`` during engine import (cycle otherwise).
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
from collections import deque
from pathlib import Path

from .events import LEVELS
from .observer import Observer

__all__ = [
    "CRASH_BUNDLE_FILENAME",
    "FlightRecorder",
    "build_crash_bundle",
    "dump_crash_bundle",
    "load_crash_bundle",
]

CRASH_BUNDLE_FILENAME = "crash_bundle.json"

#: default entries kept per ring; large enough to cover the tail of a
#: failing run (hundreds of decisions) while bounding memory.
DEFAULT_RING_SIZE = 256

#: events below this level (per-merge debug chatter) stay out of the
#: ring, which would otherwise lose the lifecycle landmarks.
_MIN_EVENT_LEVEL = LEVELS["info"]


class FlightRecorder(Observer):
    """Bounded ring buffers of the most recent engine activity.

    Four rings, each a ``deque(maxlen=ring_size)``:

    * ``events`` — lifecycle landmarks (phase begins and ends as
      ``<phase>_start``/``<phase>_end``, and every event at info level
      or above: checkpoints, lane deaths) as
      ``{"seq", "event", ...fields}``;
    * ``decisions`` — the last N merge/defer decisions (recorded
      independently of the provenance sink, so a crash bundle always
      carries the decision tail even on runs without ``--provenance``);
    * ``chunks`` — parallel scoring-chunk timings;
    * ``degradations`` — every :class:`DegradationEvent` the engine
      recorded.

    A single monotone ``seq`` stamps entries across all four rings, so
    the bundle preserves the interleaved order of what happened last.
    """

    __slots__ = ("ring_size", "events", "decisions", "chunks", "degradations", "_seq")

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE) -> None:
        self.ring_size = int(ring_size)
        self.events: deque = deque(maxlen=self.ring_size)
        self.decisions: deque = deque(maxlen=self.ring_size)
        self.chunks: deque = deque(maxlen=self.ring_size)
        self.degradations: deque = deque(maxlen=self.ring_size)
        self._seq = 0

    def _next(self) -> int:
        self._seq += 1
        return self._seq

    def note_event(self, event: str, **fields) -> None:
        entry = {"seq": self._next(), "event": event}
        if fields:
            entry.update(fields)
        self.events.append(entry)

    def note_decision(self, pair, class_name: str, decision: str, score) -> None:
        self.decisions.append(
            {
                "seq": self._next(),
                "pair": list(pair),
                "class": class_name,
                "decision": decision,
                "score": None if score is None else round(float(score), 6),
            }
        )

    def note_chunk(self, lane: str, seconds: float, **fields) -> None:
        entry = {"seq": self._next(), "lane": lane, "seconds": round(seconds, 6)}
        if fields:
            entry.update(fields)
        self.chunks.append(entry)

    def note_degradation(self, kind: str, detail: str) -> None:
        self.degradations.append(
            {"seq": self._next(), "kind": kind, "detail": detail}
        )

    # -- observer callbacks ----------------------------------------------
    def on_phase_begin(self, engine, phase: str, **fields) -> None:
        self.note_event(f"{phase}_start", **fields)

    def on_phase_end(self, engine, phase: str, **fields) -> None:
        self.note_event(f"{phase}_end", **fields)

    def on_chunk(self, lane: str, seconds: float, pairs: int, payload) -> None:
        self.note_chunk(lane, seconds, pairs=pairs)

    def on_decision(self, engine, node, decision: str, evidence, seconds) -> None:
        self.note_decision(node.key, node.class_name, decision, node.score)

    def on_degradation(self, event) -> None:
        self.note_degradation(event.kind, event.detail)

    def on_event(self, level: str, event: str, **fields) -> None:
        if LEVELS[level] >= _MIN_EVENT_LEVEL:
            self.note_event(event, **fields)

    def snapshot(self) -> dict:
        """JSON-able copy of all rings (oldest first within each)."""
        return {
            "ring_size": self.ring_size,
            "noted": self._seq,
            "events": list(self.events),
            "decisions": list(self.decisions),
            "chunks": list(self.chunks),
            "degradations": list(self.degradations),
        }


def _thread_stacks() -> dict:
    """Formatted stacks of every live thread, keyed ``"tid (name)"``."""
    names = {thread.ident: thread.name for thread in threading.enumerate()}
    stacks: dict[str, list] = {}
    for tid, frame in sorted(sys._current_frames().items()):
        lines = traceback.format_stack(frame)
        stacks[f"{tid} ({names.get(tid, 'unknown')})"] = [
            line.rstrip("\n") for line in lines
        ]
    return stacks


def _exception_info(exc) -> dict | None:
    if exc is None:
        return None
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": [
            line.rstrip("\n")
            for line in traceback.format_exception(type(exc), exc, exc.__traceback__)
        ],
    }


def build_crash_bundle(
    *,
    reason: str,
    engine=None,
    exc=None,
    relay=None,
    phase: str | None = None,
    stop_reason: str | None = None,
) -> dict:
    """Assemble (but do not write) a crash bundle.

    *engine* contributes its config fingerprint, partial stats and the
    flight-recorder rings; *relay* contributes the worker-lane rings it
    retained from shipped payloads.  Every part is optional so the
    dumper works however little survived the failure.
    """
    config: dict = {}
    stats: dict = {}
    rings = FlightRecorder(ring_size=0).snapshot()
    if engine is not None:
        # Lazy: repro.obs loads during engine import; checkpoint pulls
        # the engine back in (cycle otherwise).
        from ..runtime.checkpoint import config_fingerprint
        from dataclasses import asdict

        from .telemetry import Telemetry

        config = config_fingerprint(engine.config)
        stats = asdict(engine.stats)
        flight = engine.observers.find(FlightRecorder)
        if flight is not None:
            rings = flight.snapshot()
        if relay is None:
            relay = getattr(engine.observers.find(Telemetry), "relay", None)
    worker_lanes = {"lanes": {}, "deaths": []}
    if relay is not None:
        worker_lanes = {
            "lanes": relay.recent_lanes(),
            "deaths": [dict(death) for death in relay.lane_deaths],
        }
    return {
        "bundle_version": 1,
        "kind": "repro_crash_bundle",
        "reason": str(reason),
        "phase": phase,
        "stop_reason": stop_reason,
        "exception": _exception_info(exc),
        "config": config,
        "stats": stats,
        "rings": rings,
        "stacks": _thread_stacks(),
        "worker_lanes": worker_lanes,
    }


def dump_crash_bundle(run_dir, bundle: dict) -> Path:
    """Atomically write *bundle* as ``<run_dir>/crash_bundle.json``.

    Validates against :data:`~repro.obs.schemas.CRASH_BUNDLE_SCHEMA`
    first (a malformed bundle is a bug in the dumper, not the run) and
    uses the same tmp-fsync-rename writer as checkpoints, so a reader
    never observes a torn bundle.
    """
    from ..runtime.fsutil import atomic_write_text
    from .schemas import validate_crash_bundle

    validate_crash_bundle(bundle)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / CRASH_BUNDLE_FILENAME
    # default=repr: a crash dumper must never itself crash on an exotic
    # value smuggled into a ring entry.
    atomic_write_text(
        path, json.dumps(bundle, indent=2, sort_keys=True, default=repr) + "\n"
    )
    return path


def load_crash_bundle(path) -> dict | None:
    """Load ``crash_bundle.json`` from a run dir (or direct path);
    ``None`` when the run produced no bundle."""
    path = Path(path)
    if path.is_dir():
        path = path / CRASH_BUNDLE_FILENAME
    if not path.exists():
        return None
    return json.loads(path.read_text())
