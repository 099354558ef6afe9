"""Union-find partition with hard exclusion ("enemy") constraints.

The reconciliation result is a partition of the references, built by
unioning pairs as reconciliation decisions fire and closed transitively
(§3, Fig 4). Negative evidence (§3.4) is modelled as *enemy* pairs:
two clusters that must never end up in one partition. Enemy sets are
inherited on union, so a union that would transitively violate a
constraint is refused.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

__all__ = ["UnionFind", "ConstraintViolation"]


class ConstraintViolation(RuntimeError):
    """Raised when a forced union would join two enemy clusters."""


class UnionFind:
    """Disjoint sets over hashable items, with path compression, union
    by size, and exclusion constraints.

    Items are registered lazily: any item passed to :meth:`find` or
    :meth:`union` becomes its own singleton first.
    """

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        self._enemies: dict[Hashable, set[Hashable]] = {}
        self.union_count = 0
        # Merge observers (fine-grained cache invalidation). Runtime
        # state, not part of the partition: deliberately excluded from
        # state_dict — a restored engine re-registers its listeners.
        self._listeners: list = []
        for item in items:
            self.find(item)

    def add_union_listener(self, listener) -> None:
        """Call ``listener(survivor_root, absorbed_root)`` after every
        effective union, once bookkeeping is complete."""
        self._listeners.append(listener)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, item: Hashable) -> Hashable:
        """Return the canonical root of *item*, registering it if new."""
        parent = self._parent
        if item not in parent:
            parent[item] = item
            self._size[item] = 1
            return item
        # Iterative find with path compression.
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def connected(self, left: Hashable, right: Hashable) -> bool:
        return self.find(left) == self.find(right)

    def add_enemy(self, left: Hashable, right: Hashable) -> None:
        """Forbid *left*'s and *right*'s clusters from ever merging.

        A pair that is already connected cannot become enemies; the
        caller decides whether that situation is an error.
        """
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root == right_root:
            raise ConstraintViolation(
                f"cannot mark {left!r} and {right!r} enemies: already merged"
            )
        self._enemies.setdefault(left_root, set()).add(right_root)
        self._enemies.setdefault(right_root, set()).add(left_root)

    def are_enemies(self, left: Hashable, right: Hashable) -> bool:
        left_root = self.find(left)
        right_root = self.find(right)
        return right_root in self._enemies.get(left_root, ())

    def union(self, left: Hashable, right: Hashable) -> Hashable | None:
        """Merge the two clusters; return the surviving root.

        Returns ``None`` (and does nothing) when the clusters are
        enemies. Returns the existing root when already connected.
        """
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root == right_root:
            return left_root
        if right_root in self._enemies.get(left_root, ()):
            return None
        if self._size[left_root] < self._size[right_root]:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        self._size[left_root] += self._size[right_root]
        self.union_count += 1
        # The surviving root inherits the absorbed root's enemies.
        absorbed_enemies = self._enemies.pop(right_root, set())
        if absorbed_enemies:
            survivors = self._enemies.setdefault(left_root, set())
            for enemy in absorbed_enemies:
                enemy_root = self.find(enemy)
                enemy_set = self._enemies.setdefault(enemy_root, set())
                enemy_set.discard(right_root)
                enemy_set.add(left_root)
                survivors.add(enemy_root)
        for listener in self._listeners:
            listener(left_root, right_root)
        return left_root

    # -- checkpointing ---------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-ready snapshot of the partition and its constraints.

        Only valid for string items (the engine's reference ids); the
        generic Hashable case has no canonical serialisation.
        """
        return {
            "parent": sorted([item, parent] for item, parent in self._parent.items()),
            "size": sorted([item, size] for item, size in self._size.items()),
            "enemies": sorted(
                [item, sorted(enemies)]
                for item, enemies in self._enemies.items()
                if enemies
            ),
            "union_count": self.union_count,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "UnionFind":
        uf = cls()
        uf._parent = {item: parent for item, parent in state["parent"]}
        uf._size = {item: size for item, size in state["size"]}
        uf._enemies = {item: set(enemies) for item, enemies in state["enemies"]}
        uf.union_count = state["union_count"]
        return uf
