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
* :class:`ChaosInjector` — build-time chaos for the supervised scorer:
  kill a worker at its Nth chunk, hang it for a duration, or raise
  deterministically when a chosen pair is scored (a "comparator bug").
  Installed via ``Reconciler.chaos`` / the scorer's ``chaos`` argument.

Nothing here is imported by production code paths; the chaos objects
only act when a test or the soak harness explicitly installs them, so
the suite (and the CI smoke jobs) can prove every recovery path works.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import time
import zlib
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
    """Deterministic build-time chaos for the supervised scorer.

    The scorer's workers call ``before_chunk(class_name, pairs,
    chunk_index)`` before scoring each chunk (``chunk_index`` is the
    *worker-local* 0-based chunk counter; the serial fallback passes
    ``-1`` with one pair at a time). Three fault families:

    * **kill** — the worker SIGKILLs itself at its ``kill_at_chunk``-th
      chunk, surfacing as ``BrokenProcessPool`` in the parent;
    * **hang** — the worker sleeps ``hang_seconds`` at its
      ``hang_at_chunk``-th chunk, tripping the per-task deadline;
    * **raise** — :class:`InjectedFault` whenever the chunk contains a
      pair in ``raise_pairs`` (order-insensitive) or whose
      ``crc32("l|r") % raise_pair_crc_mod == raise_pair_crc_rem`` — a
      deterministic comparator bug that fails identically everywhere,
      including the serial fallback.

    Kill and hang only fire inside worker processes (never the parent)
    and, when ``marker_dir`` is set, at most once across all workers:
    the first worker to claim the marker file (``O_EXCL``) fires, so
    "crash once then recover" replays exactly. Without a marker the
    fault is persistent — every fresh worker fires again, which drives
    the scorer down its full degradation ladder.

    Frozen and built from plain values, so it pickles into workers.
    """

    kill_at_chunk: int | None = None
    hang_at_chunk: int | None = None
    hang_seconds: float = 30.0
    raise_pairs: tuple = ()
    raise_pair_crc_mod: int | None = None
    raise_pair_crc_rem: int = 0
    marker_dir: str | None = None

    def _claim(self, name: str) -> bool:
        if self.marker_dir is None:
            return True
        try:
            fd = os.open(
                os.path.join(self.marker_dir, name),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def _raises_on(self, left: str, right: str) -> bool:
        key = tuple(sorted((str(left), str(right))))
        for pair in self.raise_pairs:
            if tuple(sorted((str(pair[0]), str(pair[1])))) == key:
                return True
        if self.raise_pair_crc_mod:
            digest = zlib.crc32(f"{key[0]}|{key[1]}".encode())
            return digest % self.raise_pair_crc_mod == self.raise_pair_crc_rem
        return False

    def before_chunk(self, class_name: str, pairs, chunk_index: int) -> None:
        in_worker = multiprocessing.parent_process() is not None
        if (
            in_worker
            and self.kill_at_chunk is not None
            and chunk_index == self.kill_at_chunk
            and self._claim("kill")
        ):
            # Claim the marker *before* dying or it would never stick.
            os.kill(os.getpid(), signal.SIGKILL)
        if (
            in_worker
            and self.hang_at_chunk is not None
            and chunk_index == self.hang_at_chunk
            and self._claim("hang")
        ):
            time.sleep(self.hang_seconds)
        for left, right in pairs:
            if self._raises_on(left, right):
                raise InjectedFault(
                    f"injected comparator fault for pair {left}|{right} "
                    f"({class_name})"
                )


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
