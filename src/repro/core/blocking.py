"""Candidate-pair generation by inverted-index blocking.

Building similarity nodes for *all* reference pairs is quadratic and,
as §3.1 notes, "unnecessarily wasteful". Following the canopy spirit of
McCallum et al. (§6), references are indexed by cheap domain-provided
blocking keys, and only pairs sharing at least one key become
candidates for a dependency-graph node.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .nodes import PairKey, pair_key
from .references import Reference

__all__ = ["BlockingIndex", "candidate_pairs"]


class BlockingIndex:
    """Inverted index from blocking key to reference ids."""

    def __init__(self, *, max_block_size: int | None = None) -> None:
        # Buckets are insertion-ordered sets (dicts with None values):
        # deduplicated at add time, so membership and size are exact.
        self._buckets: dict[str, dict[str, None]] = {}
        self._max_block_size = max_block_size
        self._oversized: set[str] = set()

    @property
    def oversized_blocks(self) -> int:
        """Number of *distinct* blocks ever skipped for being over
        ``max_block_size``. Counting keys (not skip events) keeps the
        counter stable when :meth:`pairs` is iterated more than once."""
        return len(self._oversized)

    def add(self, ref_id: str, keys: Iterable[str]) -> None:
        for key in keys:
            self._buckets.setdefault(key, {})[ref_id] = None

    def block_sizes(self) -> dict[str, int]:
        """Member count per block key — the raw material for skew
        statistics (Gini, max-block share) in the hotspot sketch."""
        return {key: len(bucket) for key, bucket in self._buckets.items()}

    def add_and_pairs(self, ref_id: str, keys: Iterable[str]) -> list[PairKey]:
        """Add *ref_id* and return its candidate pairs against the
        previous members of its buckets (incremental reconciliation).

        Oversized buckets contribute no pairs, matching :meth:`pairs`.
        """
        pairs: set[PairKey] = set()
        for key in keys:
            bucket = self._buckets.setdefault(key, {})
            small_enough = (
                self._max_block_size is None or len(bucket) < self._max_block_size
            )
            if small_enough:
                for other in bucket:
                    if other != ref_id:
                        pairs.add(pair_key(ref_id, other))
            elif bucket:
                self._oversized.add(key)
            bucket[ref_id] = None
        return sorted(pairs)

    def __len__(self) -> int:
        return len(self._buckets)

    def pairs(self) -> Iterator[PairKey]:
        """Yield each co-blocked pair exactly once, deterministically.

        Blocks larger than ``max_block_size`` are skipped entirely (a
        key shared by half the dataset carries no signal and would
        dominate the quadratic cost); the distinct skipped blocks are
        recorded in :attr:`oversized_blocks`.
        """
        seen: set[PairKey] = set()
        for key in sorted(self._buckets):
            bucket = self._buckets[key]
            if self._max_block_size is not None and len(bucket) > self._max_block_size:
                self._oversized.add(key)
                continue
            ordered = sorted(bucket)
            for i, left in enumerate(ordered):
                for right in ordered[i + 1 :]:
                    candidate = pair_key(left, right)
                    if candidate not in seen:
                        seen.add(candidate)
                        yield candidate


def candidate_pairs(
    references: Iterable[Reference],
    key_function: Callable[[Reference], Iterable[str]],
    *,
    max_block_size: int | None = None,
) -> list[PairKey]:
    """All candidate pairs among *references* under *key_function*."""
    index = BlockingIndex(max_block_size=max_block_size)
    for reference in references:
        index.add(reference.ref_id, key_function(reference))
    return list(index.pairs())
