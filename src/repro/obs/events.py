"""Structured run logging: a levelled JSONL event stream.

Every noteworthy moment of a reconciliation run becomes one JSON
object on its own line — machine-readable, greppable, and safely
appendable (a resumed run continues the same file). The taxonomy is
deliberately small and stable:

========================  ==========================================
event                     emitted when
========================  ==========================================
``run_start``             a CLI / harness run begins (dataset, algo)
``build_start``           graph construction begins
``build_phase``           one build phase finished (premerge,
                          ``class:<name>``, wiring, constraints)
``build_end``             graph construction finished (counters)
``iterate_start``         the fixpoint loop begins
``iterate_progress``      periodic progress (step, queue, merges)
``merge`` / ``non_merge`` one reconciliation decision (debug level)
``convergence_sample``    a P/R-vs-gold convergence sample was taken
                          (debug level; run-manifest sampling)
``degradation``           anything degraded (guard trip, pruning,
                          parallel fallback, budget stop)
``lane_died``             a scoring worker died and the build fell
                          back to serial scoring (warning level)
``checkpoint_saved``      a checkpoint was written
``resume``                a run continued from a checkpoint
``quarantine``            lenient ingestion skipped bad records
``iterate_end``           the fixpoint loop finished (stop reason)
``run_end``               the run finished (outcome summary)
========================  ==========================================

Fields beyond ``ts`` / ``level`` / ``event`` are event-specific and
flat (no nesting), so the stream stays trivially loadable into any
log pipeline. Timestamps are wall-clock seconds; they never feed back
into the engine, so logging cannot perturb determinism.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["LEVELS", "EventLog"]

#: severity name -> numeric rank (standard-library-compatible values).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class EventLog:
    """A levelled JSONL event sink.

    ``path`` opens (lazily, in append mode — resumed runs continue the
    same file) a JSONL file; ``stream`` writes to an existing
    file-like object instead (e.g. ``sys.stderr``). Events below
    ``level`` are dropped. ``clock`` is injectable for deterministic
    tests.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        stream=None,
        level: str = "info",
        clock=time.time,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}; expected one of {sorted(LEVELS)}")
        self.path = Path(path) if path is not None else None
        self.level = level
        self.threshold = LEVELS[level]
        self.emitted = 0
        self._clock = clock
        self._stream = stream
        self._handle = None

    def _sink(self):
        if self._stream is not None:
            return self._stream
        if self._handle is None:
            if self.path is None:
                return None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        return self._handle

    def emit(self, level: str, event: str, /, **fields) -> None:
        """Write one event; silently dropped when below the log level."""
        if LEVELS.get(level, 0) < self.threshold:
            return
        sink = self._sink()
        if sink is None:
            return
        record = {"ts": round(self._clock(), 6), "level": level, "event": event}
        record.update(fields)
        sink.write(json.dumps(record, sort_keys=False, default=str) + "\n")
        self.emitted += 1

    def flush(self) -> None:
        sink = self._stream if self._stream is not None else self._handle
        if sink is not None:
            try:
                sink.flush()
            except (OSError, ValueError):  # pragma: no cover - closed stream
                pass

    def close(self) -> None:
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
