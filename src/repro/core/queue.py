"""The active-node queue driving similarity recomputation (§3.2).

The queue is a deque of pair-node keys with membership tracking:

* nodes reactivated as **strong-boolean** neighbours of a merge go to
  the *front* (the merge almost certainly implies theirs — resolve it
  before anything else),
* nodes reactivated as **real-valued** or **weak-boolean** neighbours
  go to the *back*,
* the initial seeding respects the heuristic that "a node always
  precedes its outgoing real-valued neighbours" (venues and persons
  before the articles whose scores depend on them).

Keys can be re-pointed by enrichment fusion; the queue therefore stores
keys, and the engine resolves them to live nodes (dropping keys whose
node was fused away).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from ..runtime.errors import QueueEmpty
from .nodes import PairKey

__all__ = ["ActiveQueue"]



# Below this many deque entries a compaction saves nothing measurable;
# skipping keeps tiny queues allocation-free.
_COMPACT_MIN_ENTRIES = 32


class ActiveQueue:
    """Deque of pair-node keys with O(1) membership tests."""

    def __init__(self, initial: Iterable[PairKey] = ()) -> None:
        self._deque: deque[PairKey] = deque()
        self._members: set[PairKey] = set()
        self.pushed_front = 0
        self.pushed_back = 0
        #: deque rebuilds triggered by stale-entry accumulation.
        self.compactions = 0
        for key in initial:
            self.push_back(key)

    def __len__(self) -> int:
        # Live keys only: stale deque entries left behind by
        # :meth:`discard` don't count as pending work.
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __contains__(self, key: PairKey) -> bool:
        return key in self._members

    def push_back(self, key: PairKey) -> bool:
        """Enqueue at the back; no-op (False) when already queued."""
        if key in self._members:
            return False
        self._members.add(key)
        self._deque.append(key)
        self.pushed_back += 1
        return True

    def push_front(self, key: PairKey) -> bool:
        """Enqueue at the front; no-op (False) when already queued.

        Used for strong-boolean reactivation: a merge that *implies*
        another merge should be resolved immediately so its
        consequences propagate before unrelated work.
        """
        if key in self._members:
            return False
        self._members.add(key)
        self._deque.appendleft(key)
        self.pushed_front += 1
        return True

    def pop(self) -> PairKey:
        """Dequeue the first *live* key.

        Stale entries — keys left in the deque by the lazy
        :meth:`discard` — are dropped silently on the way; an exhausted
        queue raises a typed :class:`~repro.runtime.errors.QueueEmpty`
        rather than a bare ``IndexError``.
        """
        entries = self._deque
        members = self._members
        while entries:
            key = entries.popleft()
            if key in members:
                members.discard(key)
                return key
        raise QueueEmpty("active queue has no live keys")

    def discard(self, key: PairKey) -> None:
        """Remove *key* wherever it sits (used when fusion deletes its
        node). Lazy strategy: drop membership now; a stale key left in
        the deque is skipped at pop time by the engine's liveness
        check. When stale entries outnumber live ones the deque is
        compacted so a fusion-heavy run can't leak deque slots for its
        whole lifetime."""
        if key in self._members:
            self._members.discard(key)
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        entries = len(self._deque)
        if entries < _COMPACT_MIN_ENTRIES:
            return
        if (entries - len(self._members)) * 2 <= entries:
            return
        members = self._members
        seen: set[PairKey] = set()
        live: list[PairKey] = []
        for key in self._deque:
            if key in members and key not in seen:
                seen.add(key)
                live.append(key)
        self._deque = deque(live)
        self.compactions += 1

    def is_live(self, key: PairKey) -> bool:
        return key in self._members

    # -- checkpointing ---------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready snapshot: live keys in pop order, plus counters."""
        seen: set[PairKey] = set()
        entries: list[list[str]] = []
        for key in self._deque:
            if key in self._members and key not in seen:
                seen.add(key)
                entries.append(list(key))
        return {
            "entries": entries,
            "pushed_front": self.pushed_front,
            "pushed_back": self.pushed_back,
            "compactions": self.compactions,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "ActiveQueue":
        queue = cls(tuple(entry) for entry in snapshot["entries"])
        queue.pushed_front = snapshot["pushed_front"]
        queue.pushed_back = snapshot["pushed_back"]
        queue.compactions = snapshot["compactions"]
        return queue
