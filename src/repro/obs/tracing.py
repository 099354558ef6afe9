"""Span tracing: nested timed spans, exportable as Chrome trace JSON.

A :class:`Tracer` records *complete* trace events (``"ph": "X"`` in
the `trace-event format`__) for every span opened via :meth:`span`,
so the file loads directly into ``chrome://tracing`` or Perfetto.
Spans nest naturally through a stack. Every event carries the real
``pid``/``tid`` of the process that did the work: the engine's own
spans use the tracer's process, and spans harvested from pool workers
arrive through :meth:`complete_foreign`
with the worker's ids, so Perfetto renders one lane per process and
the parallelism is visible instead of flattened onto a fake ``pid 1``.
Lane labels travel as Chrome ``"M"`` (metadata) ``process_name`` /
``thread_name`` events, registered via :meth:`set_process_name` /
:meth:`set_thread_name`.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Span ids and timestamps are tracer-local (``time.perf_counter``
relative to the tracer's epoch); they are never serialised into
checkpoints, so tracing cannot perturb resume determinism. Worker
clocks are aligned by the relay (:mod:`repro.obs.relay`): on Linux,
``perf_counter`` is ``CLOCK_MONOTONIC``, which is system-wide, so a
worker's absolute reading minus this tracer's :attr:`epoch` is the
correct lane offset (clamped at zero for spans that started before
the tracer existed).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

__all__ = ["SpanRecord", "Tracer"]


class SpanRecord:
    """One finished span: name, category, start offset, duration, args.

    ``pid``/``tid`` are ``None`` for spans recorded by the tracer's own
    process; foreign (worker) spans carry the worker's real ids.
    """

    __slots__ = ("name", "category", "start", "duration", "args", "depth", "pid", "tid")

    def __init__(self, name, category, start, duration, args, depth, pid=None, tid=None):
        self.name = name
        self.category = category
        self.start = start
        self.duration = duration
        self.args = args
        self.depth = depth
        self.pid = pid
        self.tid = tid


class _Span:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start", "_depth")

    def __init__(self, tracer, name, category, args):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._depth = len(tracer._stack)
        tracer._stack.append(self._name)
        self._start = tracer._clock() - tracer._epoch
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        end = tracer._clock() - tracer._epoch
        tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                self._name,
                self._category,
                self._start,
                end - self._start,
                self._args,
                self._depth,
            )
        )


class Tracer:
    """Collects spans and instants; exports Chrome trace-event JSON.

    ``clock`` must be monotone; it is injectable for deterministic
    tests. All offsets are seconds relative to the tracer's creation.
    """

    def __init__(self, *, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._stack: list[str] = []
        self.spans: list[SpanRecord] = []
        self.instants: list[tuple[str, float, dict, int | None, int | None]] = []
        self.pid = os.getpid()
        self.tid = threading.get_native_id()
        self._process_names: dict[int, str] = {self.pid: "repro engine"}
        self._thread_names: dict[tuple[int, int], str] = {
            (self.pid, self.tid): "engine loop"
        }

    @property
    def epoch(self) -> float:
        """Absolute clock reading at tracer creation (relay alignment)."""
        return self._epoch

    def span(self, name: str, category: str = "engine", **args) -> _Span:
        """A context manager timing one nested span."""
        return _Span(self, name, category, args)

    def complete(
        self, name: str, start: float, duration: float, category: str = "engine", **args
    ) -> None:
        """Record a span with explicit timing (offsets in seconds from
        the tracer epoch) — for chunked spans the caller times itself."""
        self.spans.append(
            SpanRecord(name, category, start, duration, args, len(self._stack))
        )

    def complete_foreign(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        pid: int,
        tid: int,
        category: str = "worker",
        **args,
    ) -> None:
        """Record a span on another process's lane.

        *start* is already an offset from this tracer's epoch (the
        relay does the clock alignment); *pid*/*tid* are the worker's
        real ids, which become the event's Perfetto lane.
        """
        self.spans.append(SpanRecord(name, category, start, duration, args, 0, pid, tid))

    def instant(self, name: str, *, pid: int | None = None, tid: int | None = None, **args) -> None:
        """Record a zero-duration marker (e.g. a checkpoint write).

        Pass *pid*/*tid* to pin the marker to a worker's lane (e.g. a
        ``lane_died`` attribution); by default it lands on the engine's.
        """
        self.instants.append((name, self._clock() - self._epoch, args, pid, tid))

    def now(self) -> float:
        """Current offset from the tracer epoch, for :meth:`complete`."""
        return self._clock() - self._epoch

    def set_process_name(self, pid: int, name: str) -> None:
        """Label one pid's Perfetto lane (emitted as ``"M"`` metadata)."""
        self._process_names[pid] = name

    def set_thread_name(self, pid: int, tid: int, name: str) -> None:
        """Label one thread within a pid's lane."""
        self._thread_names[(pid, tid)] = name

    def lanes(self) -> dict[int, str]:
        """``pid -> process name`` for every registered lane."""
        return dict(self._process_names)

    def phase_timings(self) -> dict[str, float]:
        """Total seconds per span name (summed over repeats) — the
        phase-attribution summary embedded in bench entries.

        Only the engine's own lane is summed: worker chunk spans run
        *concurrently* with the parent spans that await them, so adding
        them in would double-count wall-clock phases.
        """
        totals: dict[str, float] = {}
        for record in self.spans:
            if record.pid is not None and record.pid != self.pid:
                continue
            totals[record.name] = totals.get(record.name, 0.0) + record.duration
        return {name: round(seconds, 6) for name, seconds in sorted(totals.items())}

    def chrome_trace(self) -> dict:
        """The full trace as a Chrome trace-event JSON object."""
        events = []
        # Lane labels first: the engine's own lane, then every worker
        # lane in pid order (deterministic output for a fixed run).
        for pid in sorted(self._process_names, key=lambda p: (p != self.pid, p)):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": self.tid if pid == self.pid else pid,
                    "args": {"name": self._process_names[pid]},
                }
            )
        for (pid, tid), name in sorted(self._thread_names.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        for record in self.spans:
            event = {
                "name": record.name,
                "cat": record.category,
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": self.pid if record.pid is None else record.pid,
                "tid": self.tid if record.tid is None else record.tid,
            }
            if record.args:
                event["args"] = dict(record.args)
            events.append(event)
        for name, offset, args, pid, tid in self.instants:
            event = {
                "name": name,
                "cat": "engine",
                "ph": "i",
                "ts": round(offset * 1e6, 3),
                "pid": self.pid if pid is None else pid,
                "tid": self.tid if tid is None else tid,
                "s": "p",
            }
            if args:
                event["args"] = dict(args)
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to *path*."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(), indent=1) + "\n")
        return path
