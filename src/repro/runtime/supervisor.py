"""The worker pool that scores the build's candidate pairs.

:class:`SupervisedScorer` is a plain fork pool: it submits every chunk
of a class's candidate pairs (split by :mod:`repro.perf.parallel`, so
results stay byte-identical to a serial build), harvests the results
in order, and on any failure — a dead worker (``BrokenProcessPool``)
or an exception raised while scoring — tears the pool down and
re-raises. It never retries and never scores anything itself: the
engine catches the failure, records one ``parallel_fallback``
degradation and scores the rest of the build through its own serial
path. Comparators are pure, so a failed worker can always be replaced
by scoring in the parent; a dead worker costs speed, never results,
and a comparator exception surfaces exactly as it would serially.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..obs.observer import Observers
from ..perf.parallel import (
    _init_worker,
    _score_chunk,
    domain_spec,
    make_chunks,
)

__all__ = ["SupervisedScorer"]


class SupervisedScorer:
    """A fork pool scoring candidate pairs for the build.

    Raises ``ValueError`` when the domain is not rebuildable in workers
    or ``workers < 2`` (the engine records a ``parallel_fallback``
    degradation and runs serially). *observers* is the engine's
    :class:`~repro.obs.observer.Observers` fan-out: it receives chunk
    timings, worker telemetry payloads and ``lane_died`` events, and
    decides whether workers record telemetry at all. *chaos* is an
    opaque fault injector forwarded to workers (tests only).
    """

    def __init__(
        self,
        domain,
        workers: int,
        *,
        observers: Observers | None = None,
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
        self.workers = workers
        self.observers = observers if observers is not None else Observers()
        self.chaos = chaos
        self._spec = spec
        self._pool: ProcessPoolExecutor | None = None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platform without fork
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(self._spec, self.chaos, self.observers.worker_telemetry),
            )
        return self._pool

    def _kill_pool(self, reason: str | None = None) -> None:
        """Tear the pool down *now*, terminating and joining its workers.

        When a *reason* is given, the teardown is attributed to the
        lane(s) that caused it with a ``lane_died`` event each: workers
        already dead get the blame, or every worker when none can be
        told apart from the living.
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
        """Evidence lists for *pairs*, in order.

        Any failure kills the pool (no worker outlives it) and
        re-raises; the caller owns the fallback.
        """
        if not pairs:
            return []
        chunk_count = min(len(pairs), self.workers * 4)
        chunks = make_chunks(class_name, channel_names, pairs, values, chunk_count)
        try:
            pool = self._ensure_pool()
            submitted = time.perf_counter()
            futures = [pool.submit(_score_chunk, chunk) for chunk in chunks]
            flattened: list = []
            for future in futures:
                flattened.extend(
                    self._absorb_chunk(future.result(), time.perf_counter() - submitted)
                )
            return flattened
        except BrokenProcessPool:
            self._kill_pool("worker crash (BrokenProcessPool)")
            raise
        except BaseException:
            self._kill_pool()
            raise

    def _absorb_chunk(self, outcome, elapsed: float) -> list:
        """Unpack one ``_score_chunk`` result: report the parent-observed
        latency and the piggybacked telemetry payload, return the
        evidence lists."""
        chunk_result, telemetry_payload = outcome
        self.observers.chunk("build pool", elapsed, len(chunk_result), telemetry_payload)
        return chunk_result
