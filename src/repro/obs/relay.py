"""Cross-process telemetry relay: worker-side capture, parent-side merge.

The expensive build work happens outside the parent process — chunked
pair scoring in pool workers (:mod:`repro.perf.parallel`) — but the
telemetry sinks (tracer, event log) live in the parent and are not
shareable across ``fork``. The relay bridges that gap without any
extra IPC channel:

* A :class:`WorkerTelemetry` recorder is installed in each pool worker
  by ``_init_worker``. It buffers spans, counters and events
  **locally** — plain lists and dicts, no locks, no sockets.
* :meth:`WorkerTelemetry.drain` turns the buffers into one picklable
  payload dict (or ``None`` when nothing was recorded) and clears
  them; the payload piggybacks on the chunk result the pool returns,
  so shipping telemetry costs zero additional round-trips.
* The parent's :class:`TelemetryRelay` absorbs payloads into the real
  sinks: spans become foreign-lane trace events with the worker's
  true ``pid``/``tid`` plus ``process_name`` metadata, counters sum
  into :meth:`TelemetryRelay.summary` (the manifest's
  ``execution.worker_telemetry``), and events append to the JSONL log
  stamped with the worker's pid.

**Clock alignment.** Workers record *absolute* ``time.perf_counter``
readings. On Linux that clock is ``CLOCK_MONOTONIC``, which is
system-wide, so the parent aligns a worker span by subtracting the
tracer's epoch (clamping at zero). The alignment is exact for pool
workers on the same host; there is no cross-host story, and none is
needed.

**Ordering.** Payloads are absorbed in chunk-completion order, which
is not span start order; consumers of the trace must sort by ``ts``
(Perfetto does). Within one payload the worker's recording order is
preserved.

**Identity contract.** The relay is strictly observational: it never
touches engine state, its payloads ride alongside (never inside)
chunk results, and a worker with no recorder attached returns
``None`` payloads — so partitions, provenance and deterministic
counters are byte-identical with the relay on or off.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

__all__ = ["WorkerTelemetry", "TelemetryRelay"]


class WorkerTelemetry:
    """In-worker recorder: buffers locally, ships via :meth:`drain`.

    Created once per pool worker; buffers survive across chunks and
    are drained per chunk. All timestamps are absolute
    ``perf_counter`` readings; the parent relay aligns them to the
    tracer epoch.
    """

    __slots__ = ("pid", "tid", "process_name", "spans", "counters", "events")

    def __init__(self, process_name: str) -> None:
        import os
        import threading

        self.pid = os.getpid()
        self.tid = threading.get_native_id()
        self.process_name = process_name
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.events: list[tuple] = []

    def pair_stats(self) -> SimpleNamespace:
        """A fresh memo-counter sink for ``pair_evidence(stats=...)``."""
        return SimpleNamespace(pair_memo_hits=0, pair_memo_misses=0)

    def add_span(
        self, name: str, start: float, duration: float, category: str = "worker", **args
    ) -> None:
        """Record one finished span; *start* is absolute perf_counter."""
        self.spans.append((name, category, start, duration, args))

    def count(self, name: str, amount: float = 1) -> None:
        if amount:
            self.counters[name] = self.counters.get(name, 0) + amount

    def emit(self, level: str, event: str, **fields) -> None:
        self.events.append((level, event, fields))

    def absorb_pair_stats(self, stats: SimpleNamespace) -> None:
        self.count("repro_worker_pair_memo_hits_total", stats.pair_memo_hits)
        self.count("repro_worker_pair_memo_misses_total", stats.pair_memo_misses)

    def drain(self):
        """The buffered telemetry as one picklable payload, or ``None``.

        Clears the buffers: pool workers persist across chunks, so each
        chunk ships only its own delta.
        """
        if not (self.spans or self.counters or self.events):
            return None
        payload = {
            "pid": self.pid,
            "tid": self.tid,
            "process_name": self.process_name,
            "spans": self.spans,
            "counters": self.counters,
            "events": self.events,
        }
        self.spans = []
        self.counters = {}
        self.events = []
        return payload


#: bounds on the crash-bundle lane retention: how many lanes keep a
#: ring (least-recently-shipping evicted first) and how many payload
#: digests each ring holds.
_MAX_LANE_RINGS = 32
_LANE_RING_DEPTH = 8


class TelemetryRelay:
    """Parent-side merge of worker payloads into the live sinks."""

    __slots__ = (
        "_tracer",
        "_log",
        "payloads",
        "lane_names",
        "counters",
        "lane_deaths",
        "lane_rings",
    )

    def __init__(self, telemetry) -> None:
        self._tracer = telemetry.tracer
        self._log = telemetry.log
        self.payloads = 0
        self.lane_names: dict[int, str] = {}
        self.counters: dict[str, float] = {}
        self.lane_deaths: list[dict] = []
        #: pid -> deque of compact per-payload digests, for crash
        #: bundles: the last few things each worker lane shipped.
        self.lane_rings: dict[int, object] = {}

    def absorb(self, payload: dict) -> None:
        """Merge one :meth:`WorkerTelemetry.drain` payload into the sinks."""
        if payload is None:
            return
        self.payloads += 1
        pid = payload["pid"]
        tid = payload["tid"]
        if pid not in self.lane_names:
            self.lane_names[pid] = payload["process_name"]
        self._retain(pid, payload)
        for name, amount in payload["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + amount
        tracer = self._tracer
        if tracer is not None:
            tracer.set_process_name(pid, self.lane_names[pid])
            tracer.set_thread_name(pid, tid, "worker loop")
            epoch = tracer.epoch
            for name, category, start, duration, args in payload["spans"]:
                tracer.complete_foreign(
                    name,
                    max(0.0, start - epoch),
                    duration,
                    pid=pid,
                    tid=tid,
                    category=category,
                    **args,
                )
        log = self._log
        if log is not None:
            for level, event, fields in payload["events"]:
                log.emit(level, event, pid=pid, **fields)

    def _retain(self, pid: int, payload: dict) -> None:
        """Keep a compact digest of this payload in the pid's lane ring.

        Rings exist for crash bundles only: when a run dies, the bundle
        ships the last few things every (recently active) worker lane
        reported. Lanes are evicted least-recently-shipping first so a
        build whose pool is rebuilt many times stays bounded.
        """
        ring = self.lane_rings.pop(pid, None)
        if ring is None:
            ring = deque(maxlen=_LANE_RING_DEPTH)
            while len(self.lane_rings) >= _MAX_LANE_RINGS:
                self.lane_rings.pop(next(iter(self.lane_rings)))
        # pop + reinsert keeps insertion order == recency order.
        self.lane_rings[pid] = ring
        ring.append(
            {
                "spans": [name for name, *_ in payload["spans"]][-6:],
                "events": [
                    [level, event] for level, event, _ in payload["events"]
                ][-6:],
                "counters": {
                    name: round(value, 6)
                    for name, value in sorted(payload["counters"].items())
                },
            }
        )

    def recent_lanes(self) -> dict:
        """JSON-able lane rings for a crash bundle: pid (as string) to
        process name plus its retained payload digests."""
        return {
            str(pid): {
                "process_name": self.lane_names.get(pid, "worker"),
                "recent": list(ring),
            }
            for pid, ring in sorted(self.lane_rings.items())
        }

    def lane_died(self, pid: int | None, reason: str) -> None:
        """Attribute a pool teardown to the lane that died.

        Called by the scorer when a worker crash kills its pool:
        records a ``lane_died`` instant on that pid's trace lane, bumps
        ``repro_lane_deaths_total``, and logs a warning event — so the
        serial fallback in the trace is visibly anchored to the process
        that caused it.
        """
        lane = "scoring worker"
        record = {"pid": pid, "reason": reason, "lane": lane}
        self.lane_deaths.append(record)
        self.counters["repro_lane_deaths_total"] = (
            self.counters.get("repro_lane_deaths_total", 0) + 1
        )
        tracer = self._tracer
        if tracer is not None and pid is not None:
            if pid not in self.lane_names:
                self.lane_names[pid] = lane
                tracer.set_process_name(pid, lane)
            tracer.instant("lane_died", pid=pid, tid=pid, reason=reason)
        log = self._log
        if log is not None:
            log.emit("warning", "lane_died", pid=pid, reason=reason, lane=lane)

    def summary(self) -> dict:
        """Manifest-ready digest of what the relay saw.

        Lanes are rolled up by role rather than listed per pid — the
        manifest should not grow with the worker count (the trace has
        the full per-pid story).
        """
        by_role: dict[str, int] = {}
        for name in self.lane_names.values():
            by_role[name] = by_role.get(name, 0) + 1
        return {
            "payloads": self.payloads,
            "lane_count": len(self.lane_names),
            "lanes_by_role": dict(sorted(by_role.items())),
            "counters": {
                name: round(value, 6) for name, value in sorted(self.counters.items())
            },
            "lane_deaths": list(self.lane_deaths),
        }
