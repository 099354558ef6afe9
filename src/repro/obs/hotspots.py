"""Heavy-hitter workload attribution: who is eating the run's time?

Collective-ER cost is notoriously skew-dominated — a handful of
oversized blocks and contested reference groups drive most of the
comparisons and the wall-clock.  This module answers "which blocks,
pairs, and similarity channels?" with bounded memory:

* :class:`SpaceSaving` — the classic Metwally et al. streaming top-k
  sketch.  At most ``capacity`` keys are tracked; when full, the
  minimum-weight entry is evicted and the newcomer inherits its weight
  as ``error``.  Any key whose true weight exceeds ``N / capacity``
  (``N`` = total absorbed weight) is guaranteed present, and each
  reported weight overestimates the truth by at most its recorded
  ``error`` — the bounds the DESIGN.md section documents.
* :class:`HotspotSketch` — three sketches (blocks by candidate-pair
  count, pairs by recompute seconds, channels by comparison count)
  plus per-class blocking-skew statistics (Gini coefficient and
  max-block share over :meth:`BlockingIndex.block_sizes`, building on
  ``oversized_blocks``).

The sketch is one of the engine's two default observers
(:mod:`repro.obs.observer`): it asks for decision evidence (the channels
a similarity evaluation consulted) and per-pair timing, and feeds
values the engine already computed, so partitions are byte-identical
with the sketch subscribed or not.  The summary lives in the manifest's
``execution`` section (execution-dependent — wall-time varies run to
run) and is rendered by ``repro hotspots``.

Attribution is parent-process only: pair timings observed inside
scoring workers die with the worker.  That is
acceptable for a workload profile (the parent still times every
parallel scoring chunk and every serial recompute) and keeps the
sketch free of cross-process plumbing.
"""

from __future__ import annotations

import heapq

from .observer import Observer

__all__ = ["SpaceSaving", "HotspotSketch", "gini"]

#: default tracked keys per sketch — enough for a top-10 report with
#: slack, small enough that three sketches stay under ~100 KiB.
DEFAULT_CAPACITY = 128


class SpaceSaving:
    """Space-Saving heavy-hitter sketch with weighted updates.

    Deterministic by construction: ties on minimum weight break on the
    lexicographically smallest key, so two runs absorbing the same
    stream report identical contents. Weights must be non-negative.

    Once full, the sketch finds its eviction victim through a lazy
    min-heap of ``(weight, key)`` holding one entry per tracked key.
    An update to a tracked key leaves its heap entry stale-low (weights
    only grow); a stale entry reaching the top is re-pushed at the
    key's current weight, so an eviction costs O(log k) amortised
    instead of a scan over all k entries.
    """

    __slots__ = ("capacity", "entries", "updates", "total_weight", "_heap")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        #: key -> [weight, update_count, error]
        self.entries: dict = {}
        self.updates = 0
        self.total_weight = 0.0
        self._heap: list | None = None  # built by the first eviction

    def add(self, key: str, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"Space-Saving weights must be non-negative: {weight!r}")
        self.updates += 1
        self.total_weight += weight
        entry = self.entries.get(key)
        if entry is not None:
            entry[0] += weight
            entry[1] += 1
            return
        if len(self.entries) < self.capacity:
            self.entries[key] = [weight, 1, 0.0]
            return
        victim_weight = self._evict_min()
        # The newcomer inherits the evicted weight as both baseline and
        # error bound — the Space-Saving overestimation guarantee.
        inherited = victim_weight + weight
        self.entries[key] = [inherited, 1, victim_weight]
        heapq.heappush(self._heap, (inherited, key))

    def _evict_min(self) -> float:
        """Remove the entry minimal by ``(weight, key)``; its weight."""
        heap = self._heap
        if heap is None:
            heap = self._heap = [(entry[0], key) for key, entry in self.entries.items()]
            heapq.heapify(heap)
        entries = self.entries
        while True:
            weight, key = heap[0]
            current = entries[key][0]
            if current == weight:
                heapq.heappop(heap)
                del entries[key]
                return weight
            heapq.heapreplace(heap, (current, key))

    def top(self, n: int) -> list:
        """``[(key, weight, count, error)]`` — heaviest first, ties on key."""
        ranked = sorted(
            self.entries.items(), key=lambda item: (-item[1][0], item[0])
        )
        return [
            (key, entry[0], entry[1], entry[2]) for key, entry in ranked[:n]
        ]

    def error_bound(self) -> float:
        """Worst-case overestimation for any reported weight: N / k."""
        return self.total_weight / self.capacity


def gini(sizes) -> float:
    """Gini coefficient of a size distribution (0 = uniform, →1 = skewed)."""
    values = sorted(float(size) for size in sizes)
    n = len(values)
    total = sum(values)
    if n < 2 or total <= 0:
        return 0.0
    weighted = sum(rank * value for rank, value in enumerate(values, start=1))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


class HotspotSketch(Observer):
    """Streaming attribution of engine work to blocks/pairs/channels."""

    __slots__ = ("pairs", "channels", "blocks", "skew")

    wants_evidence = True
    wants_timing = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.pairs = SpaceSaving(capacity)
        self.channels = SpaceSaving(capacity)
        self.blocks = SpaceSaving(capacity)
        #: class name -> blocking skew statistics (exact, not sketched).
        self.skew: dict = {}

    # ------------------------------------------------------------ feeds
    def note_blocks(self, class_name: str, index) -> None:
        """Absorb a filled :class:`BlockingIndex` for one class.

        Blocks weigh in by candidate-pair count ``s*(s-1)/2`` — the
        quantity that actually costs comparisons — and the per-class
        skew stats (Gini, max share) are exact over all block sizes.
        """
        sizes = index.block_sizes()
        pair_counts = {key: size * (size - 1) // 2 for key, size in sizes.items()}
        for key, count in pair_counts.items():
            if count:
                self.blocks.add(f"{class_name}/{key}", float(count))
        total_pairs = sum(pair_counts.values())
        max_key = min(sizes, key=lambda key: (-sizes[key], key), default=None)
        self.skew[class_name] = {
            "blocks": len(sizes),
            "references": sum(sizes.values()),
            "gini": round(gini(sizes.values()), 4),
            "max_block": max_key,
            "max_block_size": sizes.get(max_key, 0),
            "max_pair_share": (
                round(pair_counts[max_key] / total_pairs, 4) if total_pairs else 0.0
            ),
            "oversized": index.oversized_blocks,
        }

    def note_pair(self, pair, class_name: str, seconds: float) -> None:
        """One recompute of *pair* took *seconds* in the parent loop."""
        self.pairs.add(f"{class_name}:{pair[0]}|{pair[1]}", seconds)

    def note_channels(self, evidence: dict) -> None:
        """One similarity evaluation consulted these channels."""
        for channel in evidence:
            self.channels.add(channel, 1.0)

    # -------------------------------------------------- observer callbacks
    def on_blocks(self, engine, class_name: str, index, nodes: int) -> None:
        # The index is filled and iterated by now, so sizes and
        # oversized counts are both final.
        self.note_blocks(class_name, index)

    def on_decision(self, engine, node, decision: str, evidence, seconds) -> None:
        if seconds is not None:
            self.note_pair(node.key, node.class_name, seconds)
        if evidence:
            channels = evidence.get("channels")
            if channels is not None:
                self.note_channels(channels)

    # ---------------------------------------------------------- outputs
    def summary(self, top: int = 10) -> dict:
        """JSON-able attribution summary for the manifest/CLI."""
        return {
            "sketch_capacity": self.pairs.capacity,
            "pair_updates": self.pairs.updates,
            "pair_seconds_error_bound": round(self.pairs.error_bound(), 6),
            "top_blocks": [
                {
                    "block": key,
                    "candidate_pairs": int(weight),
                    "max_error": int(error),
                }
                for key, weight, _, error in self.blocks.top(top)
            ],
            "top_pairs": [
                {
                    "pair": key,
                    "seconds": round(weight, 6),
                    "recomputations": count,
                    "max_error_seconds": round(error, 6),
                }
                for key, weight, count, error in self.pairs.top(top)
            ],
            "channels": [
                {"channel": key, "comparisons": int(weight)}
                for key, weight, _, _ in self.channels.top(top)
            ],
            "skew": {name: dict(stats) for name, stats in sorted(self.skew.items())},
        }
