"""Deterministic fault injection for exercising the recovery paths.

Four injectors, all seeded or deterministic so failures replay exactly:

* :class:`CrashAtStep` — an engine observer (``Reconciler(...,
  observers=[CrashAtStep(n)])``) that raises :class:`InjectedFault` at
  a chosen iterate step, simulating a mid-run crash (the checkpoint on
  disk is whatever the checkpointer last wrote).
* :func:`corrupt_checkpoint` — flips bytes of a checkpoint file in
  place, so tests can prove :func:`load_checkpoint` refuses damaged
  state with a :class:`CheckpointError` instead of resuming from garbage.
* :func:`inject_malformed_lines` — corrupts a sample of a JSONL file's
  lines (invalid JSON, missing keys, truncation), the input for the
  strict-fails-fast / lenient-quarantines ingestion tests.
* :class:`ChaosInjector` — build-time chaos for the parallel build:
  a scoring worker SIGKILLs itself at its Nth chunk, so the engine's
  one fallback (serial scoring after a pool failure) can be exercised.
  Installed via ``Reconciler.chaos`` / the scorer's ``chaos`` argument
  (``REPRO_CHAOS`` on the CLI).

Nothing here is imported by production code paths; the injectors only
act when a test or a CI smoke step explicitly installs them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.observer import Observer
from .errors import CheckpointError, InjectedFault

__all__ = [
    "ChaosInjector",
    "CrashAtStep",
    "corrupt_checkpoint",
    "inject_malformed_lines",
]


@dataclass
class CrashAtStep(Observer):
    """Observer raising :class:`InjectedFault` at iterate step *step*.

    Fires at most once, so the same instance can be left subscribed on
    a resumed run to prove the resume survives.
    """

    step: int
    fired: bool = field(default=False, init=False)

    def on_step(self, engine, step: int) -> None:
        if not self.fired and step >= self.step:
            self.fired = True
            raise InjectedFault(f"injected crash at iterate step {step}")


@dataclass(frozen=True)
class ChaosInjector:
    """Deterministic build-time chaos for the parallel build.

    Scoring workers call ``before_chunk(class_name, pairs,
    chunk_index)`` before scoring each chunk (``chunk_index`` is the
    *worker-local* 0-based chunk counter). The worker SIGKILLs itself
    at its ``kill_at_chunk``-th chunk, surfacing as
    ``BrokenProcessPool`` in the parent. It only fires inside worker
    processes (never the parent) and, when ``marker_dir`` is set, at
    most once across all workers: the first worker to claim the marker
    file (``O_EXCL``) dies, so "crash once" replays exactly.

    Frozen and built from plain values, so it pickles into workers.
    """

    kill_at_chunk: int | None = None
    marker_dir: str | None = None

    def _claim(self) -> bool:
        if self.marker_dir is None:
            return True
        try:
            fd = os.open(
                os.path.join(self.marker_dir, "kill"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def before_chunk(self, class_name: str, pairs, chunk_index: int) -> None:
        if (
            self.kill_at_chunk == chunk_index
            and multiprocessing.parent_process() is not None
            and self._claim()
        ):
            # Claim the marker *before* dying or it would never stick.
            os.kill(os.getpid(), signal.SIGKILL)


def corrupt_checkpoint(path: str | Path, *, seed: int = 0, flips: int = 8) -> Path:
    """Deterministically flip *flips* bytes of the file at *path*."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise CheckpointError(f"cannot corrupt empty checkpoint {path}")
    rng = random.Random(seed)
    for _ in range(max(1, flips)):
        data[rng.randrange(len(data))] ^= 0xFF
    path.write_bytes(bytes(data))
    return path


def inject_malformed_lines(
    path: str | Path, *, rate: float = 0.05, seed: int = 0
) -> list[int]:
    """Corrupt roughly *rate* of the JSONL lines at *path* in place.

    Each corrupted line gets one of three deterministic defects:
    truncation (invalid JSON), a dropped ``"id"`` key (schema
    violation), or outright garbage. Returns the 1-based numbers of the
    corrupted lines; at least one line is always corrupted.
    """
    path = Path(path)
    rng = random.Random(seed)
    lines = path.read_text().splitlines()
    candidates = [i for i, line in enumerate(lines) if line.strip()]
    if not candidates:
        return []
    chosen = [i for i in candidates if rng.random() < rate]
    if not chosen:
        chosen = [rng.choice(candidates)]
    for index in chosen:
        line = lines[index]
        mode = rng.choice(("truncate", "drop_id", "garbage"))
        if mode == "truncate":
            lines[index] = line[: max(1, len(line) // 2)]
        elif mode == "drop_id":
            record = json.loads(line)
            record.pop("id", None)
            lines[index] = json.dumps(record)
        else:
            lines[index] = "%% not json %%"
    path.write_text("\n".join(lines) + "\n")
    return [index + 1 for index in chosen]
