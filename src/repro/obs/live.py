"""Live run monitoring: the ``--live`` stderr HUD and ``repro watch``.

Two windows into a running (or finished) reconciliation, both built
from pure, byte-stable renderers in the :mod:`repro.obs.render`
style so golden tests can pin their output:

* :class:`LiveHud` — subscribed to the engine's observer seam by the
  CLI's ``--live`` flag. It redraws one stderr line in place
  (``\\r`` + erase-to-end) with the current phase, queue depth,
  merges, the iterate-path cache hit rate and an ETA extrapolated
  from its own queue-drain samples (the same convergence signal the
  manifest samples record). Its callbacks only *read* engine state —
  queue length and stats counters — so a ``--live`` run stays
  byte-identical to a silent one.
* ``repro watch <run_dir>`` — tails the run's ``events.jsonl``
  (which ``--run-dir`` now writes by default) and renders a snapshot
  of a *concurrent or finished* run from the event stream alone:
  no engine access, works across processes and after the fact.
  ``--once`` prints one multi-line snapshot and exits; without it
  the watcher follows the file like ``tail -f``, redrawing a HUD
  line until ``run_end`` arrives.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from pathlib import Path

from .observer import Observer

__all__ = [
    "LiveHud",
    "render_hud",
    "render_watch",
    "watch_snapshot",
    "follow_events",
    "read_events",
]


def _fmt_count(value) -> str:
    return "?" if value is None else f"{value:,}"


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "--"
    seconds = max(0, int(seconds))
    if seconds < 90:
        return f"{seconds}s"
    minutes, rest = divmod(seconds, 60)
    return f"{minutes}m{rest:02d}s"


def render_hud(
    *,
    phase: str,
    step=None,
    queued=None,
    merges=None,
    hit_rate=None,
    eta=None,
) -> str:
    """One status line; every part is optional except the phase.

    ``hit_rate`` is a 0..1 float or ``None``; ``eta`` is seconds or
    ``None``. Pure and byte-stable: same inputs, same string.
    """
    parts = [f"[{phase}]"]
    if step is not None:
        parts.append(f"step {_fmt_count(step)}")
    if queued is not None:
        parts.append(f"queued {_fmt_count(queued)}")
    if merges is not None:
        parts.append(f"merges {_fmt_count(merges)}")
    if hit_rate is not None:
        parts.append(f"cache {hit_rate * 100:.1f}%")
    if eta is not None or phase == "iterate":
        parts.append(f"eta {_fmt_eta(eta)}")
    return " · ".join(parts)


class LiveHud(Observer):
    """In-place stderr HUD subscribed to the engine's observer seam.

    *stream* and *clock* are injectable for deterministic tests; the
    default redraw throttle is 5 Hz so the HUD costs nothing
    measurable against a loop doing real work.
    """

    def __init__(
        self,
        stream=None,
        *,
        interval: float = 0.2,
        clock=time.monotonic,
        sample_window: int = 64,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._interval = interval
        self._clock = clock
        self._samples: deque = deque(maxlen=sample_window)
        self._last_draw: float | None = None
        self._phase = "starting"
        self._drawn = False

    # -- observer callbacks -----------------------------------------------
    def phase(self, name: str) -> None:
        """Announce a phase with no step counters yet (build, done)."""
        self._phase = name
        self._draw(render_hud(phase=name))

    def on_phase_begin(self, engine, phase: str, **fields) -> None:
        if phase == "build":
            self.phase("build")

    def on_phase_end(self, engine, phase: str, **fields) -> None:
        if phase == "iterate":
            self.phase("done")

    def on_step(self, engine, step: int) -> None:
        """Read-only: samples the queue and redraws, throttled."""
        self._phase = "iterate"
        now = self._clock()
        queued = len(engine.queue)
        self._samples.append((now, queued))
        if self._last_draw is not None and now - self._last_draw < self._interval:
            return
        self._last_draw = now
        stats = engine.stats
        hits = stats.values_cache_hits + stats.contacts_cache_hits
        misses = stats.values_cache_misses + stats.contacts_cache_misses
        self._draw(
            render_hud(
                phase="iterate",
                step=step,
                queued=queued,
                merges=stats.merges,
                hit_rate=hits / (hits + misses) if hits + misses else None,
                eta=self._eta(queued),
            )
        )

    def _eta(self, queued: int):
        """Seconds until the queue drains at the sampled net rate.

        Extrapolates from the oldest and newest samples in the window;
        a growing queue (enrichment storm) yields ``None`` ("--") —
        honest, since no finish time can be projected from it.
        """
        if len(self._samples) < 2:
            return None
        t_old, q_old = self._samples[0]
        t_new, q_new = self._samples[-1]
        if t_new <= t_old:
            return None
        rate = (q_old - q_new) / (t_new - t_old)
        if rate <= 0:
            return None
        return queued / rate

    # -- drawing --------------------------------------------------------
    def _draw(self, line: str) -> None:
        self._stream.write("\r" + line + "\x1b[K")
        self._stream.flush()
        self._drawn = True

    def close(self) -> None:
        """Finish the HUD line so later stderr output starts clean."""
        if self._drawn:
            self._stream.write("\n")
            self._stream.flush()
            self._drawn = False


# ----------------------------------------------------------------------
# repro watch: event-log folding
# ----------------------------------------------------------------------

def watch_snapshot(events: list[dict]) -> dict:
    """Fold an event stream into one run-status snapshot.

    Works on any prefix of a run's events (a live tail) as well as the
    complete log; unknown events are counted but otherwise ignored, so
    the watcher never breaks when the taxonomy grows.
    """
    snap = {
        "dataset": None,
        "algorithm": None,
        "references": None,
        "workers": None,
        "resumed": False,
        "phase": "starting",
        "step": None,
        "queued": None,
        "merges": None,
        "recomputations": None,
        "checkpoints": 0,
        "degradations": 0,
        "lane_deaths": 0,
        "completed": None,
        "stop_reason": None,
        "events": len(events),
    }
    for event in events:
        name = event.get("event")
        if name == "run_start":
            snap["dataset"] = event.get("dataset")
            snap["algorithm"] = event.get("algorithm")
            snap["references"] = event.get("references")
            snap["workers"] = event.get("workers")
        elif name == "resume":
            snap["resumed"] = True
        elif name == "build_start":
            snap["phase"] = "build"
        elif name == "build_end":
            snap["phase"] = "build"
            snap["queued"] = event.get("queued")
        elif name == "iterate_start":
            snap["phase"] = "iterate"
            snap["queued"] = event.get("queued")
        elif name == "iterate_progress":
            snap["phase"] = "iterate"
            snap["step"] = event.get("step")
            snap["queued"] = event.get("queued")
            snap["merges"] = event.get("merges")
            snap["recomputations"] = event.get("recomputations")
        elif name == "iterate_end":
            snap["step"] = event.get("steps")
            snap["merges"] = event.get("merges")
            snap["stop_reason"] = event.get("stop_reason")
        elif name == "run_end":
            snap["phase"] = "done"
            snap["completed"] = event.get("completed")
            snap["stop_reason"] = event.get("stop_reason")
            snap["merges"] = event.get("merges")
            snap["recomputations"] = event.get("recomputations")
        elif name == "checkpoint_saved":
            snap["checkpoints"] += 1
        elif name == "degradation":
            snap["degradations"] += 1
        elif name == "lane_died":
            snap["lane_deaths"] += 1
    return snap


def render_watch(snap: dict) -> str:
    """Multi-line snapshot for ``repro watch --once``; byte-stable."""
    run = snap["dataset"] if snap["dataset"] is not None else "?"
    algorithm = snap["algorithm"] if snap["algorithm"] is not None else "?"
    lines = [
        f"run: {run} ({algorithm}) · {_fmt_count(snap['references'])} references"
        + (" · resumed" if snap["resumed"] else ""),
        f"phase: {snap['phase']}",
    ]
    if snap["step"] is not None or snap["queued"] is not None:
        lines.append(
            f"progress: step {_fmt_count(snap['step'])}"
            f" · queued {_fmt_count(snap['queued'])}"
            f" · merges {_fmt_count(snap['merges'])}"
            f" · recomputations {_fmt_count(snap['recomputations'])}"
        )
    if snap["workers"] is not None:
        lines.append(f"workers: {snap['workers']} build")
    lines.append(
        f"checkpoints: {snap['checkpoints']}"
        f" · degradations: {snap['degradations']}"
        f" · lane deaths: {snap['lane_deaths']}"
    )
    if snap["phase"] == "done":
        verdict = "completed" if snap["completed"] else "stopped"
        lines.append(f"result: {verdict} ({snap['stop_reason']})")
    return "\n".join(lines)


def _hud_from_snapshot(snap: dict) -> str:
    return render_hud(
        phase=snap["phase"],
        step=snap["step"],
        queued=snap["queued"],
        merges=snap["merges"],
    )


def read_events(path: str | Path) -> list[dict]:
    """Parse an events.jsonl file, tolerating a reader/writer race.

    A concurrent writer may be mid-append, so an unterminated final
    line is a *fragment*, not corruption: it is held back entirely and
    picked up complete on the next poll (:func:`follow_events` re-reads
    the file once it grows again), never half-parsed or dropped.
    Interior lines that fail to parse are genuine corruption and are
    skipped.
    """
    events = []
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        return events
    if text and not text.endswith("\n"):
        text = text[: text.rfind("\n") + 1]
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events


def follow_events(
    path: str | Path,
    *,
    stream=None,
    interval: float = 0.5,
    clock=time.monotonic,
    sleep=time.sleep,
    max_idle: float | None = None,
) -> dict:
    """Tail *path* like ``tail -f``, redrawing a HUD line per poll.

    Returns the final snapshot when a ``run_end`` event arrives, or —
    with *max_idle* set — when the file has not grown for that many
    seconds (the run died without a ``run_end``; the watcher should
    not hang forever on a corpse). Ctrl-C simply propagates.
    """
    stream = stream if stream is not None else sys.stderr
    path = Path(path)
    last_size = -1
    last_growth = clock()
    snap = watch_snapshot([])
    while True:
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = -1
        if size != last_size:
            last_size = size
            last_growth = clock()
            snap = watch_snapshot(read_events(path))
            stream.write("\r" + _hud_from_snapshot(snap) + "\x1b[K")
            stream.flush()
        if snap["phase"] == "done":
            break
        if max_idle is not None and clock() - last_growth > max_idle:
            break
        sleep(interval)
    stream.write("\n")
    stream.flush()
    return snap
