"""Deterministic multi-process scoring of candidate pairs.

The graph build's hot loop — scoring every blocking-generated candidate
pair against its class's atomic channels — is embarrassingly parallel:
no union happens while a class's pairs are scored, so workers need no
partition state, only attribute values. The engine fans the pair list
out here and then materialises nodes **in the original pair order** in
the main process, which keeps the graph, the counters and therefore
the whole run byte-identical to a serial build (``--workers 1``).

Channels hold comparator closures and are not picklable, so workers
are handed a *domain spec* (``module:qualname``) at pool start-up,
rebuild the domain themselves, and select channels by name per chunk.
Domains that cannot be rebuilt that way (defined in a test function,
needing constructor arguments) make the scorer refuse at construction;
the engine records a ``parallel_fallback`` degradation and runs
serially.

This module holds the chunking and the worker entry points; the pool
itself is :class:`~repro.runtime.supervisor.SupervisedScorer`.
"""

from __future__ import annotations

import importlib
import time

from .scoring import pair_evidence

__all__ = [
    "domain_spec",
    "make_chunks",
    "rebuild_domain",
]


def domain_spec(domain) -> str | None:
    """``module:qualname`` spec a worker can rebuild *domain* from, or
    ``None`` when the domain is not rebuildable (local class, shadowed
    name, constructor that needs arguments)."""
    cls = type(domain)
    if "<" in cls.__qualname__ or "." in cls.__qualname__:
        return None
    try:
        module = importlib.import_module(cls.__module__)
    except ImportError:
        return None
    if getattr(module, cls.__qualname__, None) is not cls:
        return None
    try:
        cls()
    except Exception:
        return None
    return f"{cls.__module__}:{cls.__qualname__}"


def make_chunks(
    class_name: str,
    channel_names: tuple[str, ...],
    pairs: list[tuple[str, str]],
    values: dict[str, dict[str, tuple[str, ...]]],
    chunk_count: int,
) -> list[tuple]:
    """Split *pairs* into ``_score_chunk`` payloads.

    Chunk boundaries depend only on ``len(pairs)`` and *chunk_count*,
    and results are harvested in chunk order, so the evidence lists
    line up with *pairs* whichever worker finishes first. Each chunk
    ships only the attribute values its own pairs mention.
    """
    chunk_size = -(-len(pairs) // chunk_count)
    chunks = []
    for start in range(0, len(pairs), chunk_size):
        chunk_pairs = pairs[start : start + chunk_size]
        elements = {element for pair in chunk_pairs for element in pair}
        chunk_values = {element: values[element] for element in elements}
        chunks.append((class_name, channel_names, chunk_pairs, chunk_values))
    return chunks


# Worker-process state, populated once by the pool initializer. The
# memo persists across chunks, so repeated value pairs cost one
# comparator call per *worker*, mirroring the serial build's memo.
_WORKER: dict = {}


def rebuild_domain(spec: str):
    """Instantiate a fresh domain from a :func:`domain_spec` string.

    The inverse of :func:`domain_spec`, run by each scoring worker at
    pool start-up."""
    module_name, _, qualname = spec.partition(":")
    cls = getattr(importlib.import_module(module_name), qualname)
    return cls()


def _init_worker(spec: str, chaos=None, telemetry: bool = False) -> None:
    _WORKER["domain"] = rebuild_domain(spec)
    _WORKER["channels"] = {}
    _WORKER["memo"] = {}
    # Fault-injection seam (tests and CI smoke only): an object with a
    # ``before_chunk(class_name, pairs, chunk_index)`` method, consulted
    # before each chunk is scored. Production runs pass None.
    _WORKER["chaos"] = chaos
    _WORKER["chunk_index"] = 0
    # Telemetry capture (a parent observer wants worker payloads):
    # spans/counters buffer here and ship back piggybacked on each
    # chunk's result.
    if telemetry:
        from ..obs.relay import WorkerTelemetry

        _WORKER["telemetry"] = WorkerTelemetry("scoring worker")
    else:
        _WORKER["telemetry"] = None


def _worker_channels(class_name: str, channel_names: tuple[str, ...]):
    key = (class_name, channel_names)
    channels = _WORKER["channels"].get(key)
    if channels is None:
        by_name = {
            channel.name: channel
            for channel in _WORKER["domain"].atomic_channels(class_name)
        }
        # Selecting by the names the *parent* enabled replicates its
        # config (ablations) without shipping the config over.
        channels = [by_name[name] for name in channel_names]
        _WORKER["channels"][key] = channels
    return channels


def _score_chunk(payload):
    """Score one chunk; returns ``(evidence_lists, telemetry_payload)``.

    The second element is ``None`` unless workers record telemetry —
    the evidence lists themselves are byte-identical either way (the
    memo-counter side channel never feeds back into scoring).
    """
    class_name, channel_names, pairs, values = payload
    chaos = _WORKER.get("chaos")
    if chaos is not None:
        index = _WORKER.get("chunk_index", 0)
        _WORKER["chunk_index"] = index + 1
        chaos.before_chunk(class_name, pairs, index)
    channels = _worker_channels(class_name, channel_names)
    memo = _WORKER["memo"]
    recorder = _WORKER.get("telemetry")
    if recorder is None:
        return (
            [
                pair_evidence(channels, values[left], values[right], memo)
                for left, right in pairs
            ],
            None,
        )
    stats = recorder.pair_stats()
    start = time.perf_counter()
    results = [
        pair_evidence(channels, values[left], values[right], memo, stats=stats)
        for left, right in pairs
    ]
    duration = time.perf_counter() - start
    recorder.add_span(
        "score_chunk", start, duration, class_name=class_name, pairs=len(pairs)
    )
    recorder.count("repro_worker_chunks_total")
    recorder.count("repro_worker_pairs_scored_total", len(pairs))
    recorder.absorb_pair_stats(stats)
    recorder.observe("repro_worker_chunk_seconds", duration)
    return results, recorder.drain()
