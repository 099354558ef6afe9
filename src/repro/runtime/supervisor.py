"""Supervised execution of parallel scoring: retries, deadlines,
poisoned-pair quarantine, and a degradation ladder.

A bare process pool is fast but brittle: one worker crash, hang, or
comparator exception aborts the whole build. :class:`SupervisedScorer`
scores the build's candidate pairs in worker processes (chunked by
:mod:`repro.perf.parallel`, so results stay byte-identical to a serial
build) while containing every failure to the work unit that caused it:

* each chunk of an optimistic parallel pass that fails is re-executed
  under a :class:`RetryPolicy` — exponential backoff with seeded
  jitter, a per-task deadline enforced with ``Future.result(timeout)``;
* a task timeout or ``BrokenProcessPool`` kills the pool outright
  (terminating hung workers, so nothing leaks) and rebuilds it;
* a chunk that keeps failing with an *error* or *timeout* is bisected
  until the poisoned pair is isolated; that pair is scored as
  no-merge (empty evidence), appended to ``poisoned_pairs.jsonl``
  (atomic rewrite) and recorded as a ``pair_poisoned`` degradation —
  one bad comparator input degrades one decision, never the run;
* repeated worker *crashes* walk a degradation ladder — full workers
  → halved workers → serial in-parent scoring — so even a pool that
  cannot stay alive ends in a correct (if slower) build instead of an
  escaping exception.

Retries, rebuilds, bisection and ladder descent cannot change what is
computed: comparator scores are pure functions of the shipped values,
and chunk boundaries are derived from the *configured* worker count,
never from the current ladder rung. The only way a supervised build's
output differs from a clean serial build is through poisoned pairs,
and those are reported precisely so callers (and the chaos soak
harness) can verify the damage is exactly the quarantined pairs.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from ..perf.parallel import (
    _init_worker,
    _score_chunk,
    domain_spec,
    make_chunks,
)
from ..obs.observer import Observers
from ..perf.scoring import pair_evidence
from .fsutil import atomic_write_text
from .guards import DegradationEvent

__all__ = ["RetryPolicy", "SupervisedScorer"]


@dataclass(frozen=True)
class RetryPolicy:
    """How failed scoring tasks are retried.

    ``max_retries`` supervised re-executions are attempted per failed
    chunk before it is bisected (errors / timeouts) or the ladder
    descends (crashes). Backoff for retry *n* is
    ``min(backoff_max, backoff_base * 2**(n-1))`` stretched by up to
    ``jitter`` of itself; the jitter stream is seeded so runs replay
    exactly.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        base = min(self.backoff_max, self.backoff_base * (2 ** max(0, attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


class SupervisedScorer:
    """A supervised worker pool scoring candidate pairs for the build.

    Raises ``ValueError`` when the domain is not rebuildable in workers
    or ``workers < 2`` (the engine records a ``parallel_fallback``
    degradation and runs serially). *observers* is the engine's
    :class:`~repro.obs.observer.Observers` fan-out: it receives the
    scorer's events, chunk timings and worker telemetry payloads, and
    decides whether workers record telemetry at all. *on_degrade* is an
    optional callback receiving each
    :class:`~repro.runtime.guards.DegradationEvent` (it writes engine
    state); *poison_path* the JSONL file poisoned pairs are quarantined
    to; *chaos* an opaque fault injector forwarded to workers (tests /
    soak harness only).
    """

    def __init__(
        self,
        domain,
        workers: int,
        policy: RetryPolicy | None = None,
        *,
        observers: Observers | None = None,
        on_degrade=None,
        poison_path: str | Path | None = None,
        chaos=None,
    ) -> None:
        spec = domain_spec(domain)
        if spec is None:
            raise ValueError(
                f"domain {type(domain).__qualname__} is not reconstructible "
                "in worker processes (needs a module-level class with a "
                "no-argument constructor)"
            )
        if workers < 2:
            raise ValueError("SupervisedScorer needs at least 2 workers")
        self.domain = domain
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.observers = observers if observers is not None else Observers()
        self.on_degrade = on_degrade
        self.poison_path = Path(poison_path) if poison_path else None
        self.chaos = chaos
        self._spec = spec
        # Degradation ladder: full pool → halved pool → serial. Chunk
        # boundaries always use the *configured* worker count, so a
        # descent changes throughput, never results.
        self._ladder = [workers]
        half = workers // 2
        if half >= 2 and half != workers:
            self._ladder.append(half)
        self._rung = 0
        self._serial = False
        self._pool: ProcessPoolExecutor | None = None
        self._pools_built = 0
        self._rng = random.Random(self.policy.seed)
        self.counters = {
            "task_retry": 0,
            "task_timeout": 0,
            "pool_rebuild": 0,
            "pair_poisoned": 0,
        }
        #: ``{"pair": [l, r], "class": ..., "reason": ...}`` per poison.
        self.poisoned: list[dict] = []
        self._poisoned_keys: set = set()
        # Serial-fallback state: channels by (class, names) + score memo,
        # mirroring a worker's process-local state.
        self._serial_channels: dict = {}
        self._serial_memo: dict = {}

    # -- reporting ------------------------------------------------------
    @property
    def current_workers(self) -> int:
        """Workers the ladder currently grants (1 after serial descent)."""
        return 1 if self._serial else self._ladder[self._rung]

    def _degrade(self, kind: str, detail: str) -> None:
        if self.on_degrade is not None:
            self.on_degrade(DegradationEvent(kind=kind, detail=detail))

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platform without fork
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self._ladder[self._rung],
                mp_context=context,
                initializer=_init_worker,
                initargs=(self._spec, self.chaos, self.observers.worker_telemetry),
            )
            self._pools_built += 1
            if self._pools_built > 1:
                self.counters["pool_rebuild"] += 1
                self.observers.event(
                    "warning",
                    "pool_rebuild",
                    workers=self._ladder[self._rung],
                    rebuilds=self.counters["pool_rebuild"],
                )
                self._degrade(
                    "pool_rebuild",
                    f"worker pool rebuilt with {self._ladder[self._rung]} "
                    f"workers (rebuild #{self.counters['pool_rebuild']})",
                )
        return self._pool

    def _kill_pool(self, reason: str | None = None) -> None:
        """Tear the pool down *now*, terminating hung or dead workers.

        When a *reason* is given, the teardown is attributed to the
        lane(s) that caused it with a ``lane_died`` event each: workers
        already dead get the blame; if every worker is still alive (a
        hang), all of them are marked, since the hung one cannot be told
        apart from the parent.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            processes = list(getattr(pool, "_processes", {}).values())
        except Exception:  # pragma: no cover - interpreter internals moved
            processes = []
        if reason is not None:
            dead = [process for process in processes if not process.is_alive()]
            for process in dead or processes:
                self.observers.event(
                    "warning",
                    "lane_died",
                    pid=process.pid,
                    reason=reason,
                    lane="scoring worker",
                )
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already reaped
                pass
        for process in processes:
            try:
                process.join(1.0)
                if process.is_alive():
                    process.kill()
                    process.join(1.0)
            except Exception:  # pragma: no cover - already reaped
                pass

    def _descend(self, reason: str) -> None:
        """Walk the ladder one rung down: fewer workers, then serial."""
        self._kill_pool(reason)
        if self._rung + 1 < len(self._ladder):
            self._rung += 1
            self.observers.event(
                "warning",
                "pool_rebuild",
                workers=self._ladder[self._rung],
                cause="ladder_descent",
            )
            self._degrade(
                "pool_rebuild",
                f"degraded to {self._ladder[self._rung]} workers: {reason}",
            )
        else:
            self._serial = True
            self.observers.event("warning", "degradation", kind="parallel_fallback", cause=reason)
            self._degrade(
                "parallel_fallback",
                f"supervised scoring degraded to serial: {reason}",
            )

    def shutdown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SupervisedScorer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- scoring --------------------------------------------------------
    def score(
        self,
        class_name: str,
        channel_names: tuple[str, ...],
        pairs: list[tuple[str, str]],
        values: dict[str, dict[str, tuple[str, ...]]],
    ) -> list[list[tuple[str, str, str, float]]]:
        """Evidence lists for *pairs*, in order; never raises for
        worker crashes, hangs, or comparator exceptions."""
        if not pairs:
            return []
        chunk_count = min(len(pairs), self.workers * 4)
        chunks = make_chunks(class_name, channel_names, pairs, values, chunk_count)
        results: list = [None] * len(chunks)
        failed = (
            list(range(len(chunks)))
            if self._serial
            else self._optimistic(chunks, results)
        )
        for index in failed:
            results[index] = self._supervised(chunks[index])
        flattened: list = []
        for chunk_result in results:
            flattened.extend(chunk_result)
        return flattened

    def _absorb_chunk(self, outcome, elapsed: float) -> list:
        """Unpack one ``_score_chunk`` result: report the parent-observed
        latency and the piggybacked telemetry payload, return the
        evidence lists."""
        chunk_result, telemetry_payload = outcome
        self.observers.chunk("build pool", elapsed, len(chunk_result), telemetry_payload)
        return chunk_result

    def _optimistic(self, chunks: list, results: list) -> list[int]:
        """Submit every chunk to the pool at once; harvest what
        succeeds, return the indices that need supervision."""
        try:
            pool = self._ensure_pool()
            submitted = time.perf_counter()
            futures = [pool.submit(_score_chunk, chunk) for chunk in chunks]
        except Exception:
            self._kill_pool()
            return list(range(len(chunks)))
        failed: list[int] = []
        dead = False
        for index, future in enumerate(futures):
            if dead:
                # The pool is gone; salvage chunks that finished first.
                if future.done():
                    try:
                        results[index] = self._absorb_chunk(
                            future.result(), time.perf_counter() - submitted
                        )
                        continue
                    except Exception:
                        pass
                failed.append(index)
                continue
            try:
                results[index] = self._absorb_chunk(
                    future.result(timeout=self.policy.task_timeout),
                    time.perf_counter() - submitted,
                )
            except FuturesTimeout:
                self._note_timeout(chunks[index])
                self._kill_pool("task timeout")
                failed.append(index)
                dead = True
            except BrokenProcessPool:
                self._kill_pool("worker crash (BrokenProcessPool)")
                failed.append(index)
                dead = True
            except Exception:
                failed.append(index)
        return failed

    def _note_timeout(self, chunk) -> None:
        class_name, _, pairs, _ = chunk
        self.counters["task_timeout"] += 1
        self.observers.event(
            "warning",
            "task_timeout",
            class_name=class_name,
            pairs=len(pairs),
            timeout=self.policy.task_timeout,
        )
        self._degrade(
            "task_timeout",
            f"a {len(pairs)}-pair chunk of class {class_name} exceeded its "
            f"{self.policy.task_timeout}s deadline",
        )

    def _supervised(self, chunk) -> list:
        """Score one failed chunk to completion, whatever it takes."""
        class_name, channel_names, pairs, values = chunk
        while True:
            if self._serial:
                return self._score_serial(chunk)
            outcome, detail = self._attempt(chunk)
            if outcome == "ok":
                return detail
            if outcome == "crash":
                # A dying pool is a pool-level pathology: step down the
                # ladder (ending at serial, which cannot crash) and
                # re-run the whole chunk.
                self._descend(detail)
                continue
            # Repeated error or timeout: bisect to isolate the poison.
            if len(pairs) == 1:
                self._poison(class_name, pairs[0], detail)
                return [[]]
            mid = len(pairs) // 2
            halves = []
            for sub_pairs in (pairs[:mid], pairs[mid:]):
                elements = {element for pair in sub_pairs for element in pair}
                sub_values = {element: values[element] for element in elements}
                halves.append((class_name, channel_names, sub_pairs, sub_values))
            return self._supervised(halves[0]) + self._supervised(halves[1])

    def _attempt(self, chunk):
        """Retry one chunk under the policy.

        Returns ``("ok", results)``, or the terminal failure as
        ``("error" | "timeout" | "crash", reason)`` once retries are
        exhausted. Timeouts and crashes kill (and later rebuild) the
        pool; plain errors leave it alive.
        """
        class_name, _, pairs, _ = chunk
        failure = ("error", "never attempted")
        for attempt in range(1, self.policy.max_retries + 1):
            self.counters["task_retry"] += 1
            self.observers.event(
                "warning",
                "task_retry",
                class_name=class_name,
                pairs=len(pairs),
                attempt=attempt,
                max_retries=self.policy.max_retries,
            )
            self._degrade(
                "task_retry",
                f"retry {attempt}/{self.policy.max_retries} for a "
                f"{len(pairs)}-pair chunk of class {class_name}",
            )
            time.sleep(self.policy.backoff(attempt, self._rng))
            try:
                pool = self._ensure_pool()
                submitted = time.perf_counter()
                outcome = pool.submit(_score_chunk, chunk).result(
                    timeout=self.policy.task_timeout
                )
                return "ok", self._absorb_chunk(
                    outcome, time.perf_counter() - submitted
                )
            except FuturesTimeout:
                self._note_timeout(chunk)
                self._kill_pool("task timeout")
                failure = (
                    "timeout",
                    f"timed out after {self.policy.task_timeout}s",
                )
            except BrokenProcessPool:
                self._kill_pool("worker crash (BrokenProcessPool)")
                failure = ("crash", "worker process died (BrokenProcessPool)")
            except Exception as exc:
                failure = ("error", f"{type(exc).__name__}: {exc}")
        return failure

    # -- serial fallback ------------------------------------------------
    def _channels_for(self, class_name: str, channel_names: tuple[str, ...]):
        key = (class_name, channel_names)
        channels = self._serial_channels.get(key)
        if channels is None:
            by_name = {
                channel.name: channel
                for channel in self.domain.atomic_channels(class_name)
            }
            channels = [by_name[name] for name in channel_names]
            self._serial_channels[key] = channels
        return channels

    def _score_serial(self, chunk) -> list:
        """In-parent scoring, pair by pair, poisoning what still fails.

        The chaos injector is consulted per pair so a deterministic
        comparator bug keeps failing here exactly as it did in workers
        (kill / hang injectors only fire inside worker processes).
        """
        class_name, channel_names, pairs, values = chunk
        channels = self._channels_for(class_name, channel_names)
        started = time.perf_counter()
        out = []
        for left, right in pairs:
            try:
                if self.chaos is not None:
                    self.chaos.before_chunk(class_name, [(left, right)], -1)
                out.append(
                    pair_evidence(
                        channels, values[left], values[right], self._serial_memo
                    )
                )
            except Exception as exc:
                self._poison(
                    class_name, (left, right), f"{type(exc).__name__}: {exc}"
                )
                out.append([])
        self.observers.chunk("build serial", time.perf_counter() - started, len(out), None)
        return out

    # -- poisoning ------------------------------------------------------
    def _poison(self, class_name: str, pair, reason: str) -> None:
        """Quarantine one pair: score it as no-merge, record why."""
        left, right = pair
        key = tuple(sorted((left, right)))
        if key in self._poisoned_keys:
            return
        self._poisoned_keys.add(key)
        self.counters["pair_poisoned"] += 1
        entry = {
            "pair": [key[0], key[1]],
            "class": class_name,
            "reason": reason,
        }
        self.poisoned.append(entry)
        self.observers.event(
            "error",
            "pair_poisoned",
            left=key[0],
            right=key[1],
            class_name=class_name,
            reason=reason,
        )
        self._degrade(
            "pair_poisoned",
            f"pair {key[0]}|{key[1]} ({class_name}) scored as no-merge: "
            f"{reason}",
        )
        if self.poison_path is not None:
            import json

            atomic_write_text(
                self.poison_path,
                "".join(json.dumps(item) + "\n" for item in self.poisoned),
            )
