"""Reconciliation results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .partition import UnionFind

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.guards import DegradationEvent
    from .engine import EngineStats

__all__ = ["ReconciliationResult"]


@dataclass
class ReconciliationResult:
    """The output partition plus run statistics.

    ``partitions`` maps class name to the list of clusters, each a
    sorted list of reference ids; the partitioning is the transitive
    closure of all merge decisions (honouring non-merge constraints).

    ``completed`` distinguishes a converged fixpoint from a run that
    was cut short by a :class:`~repro.runtime.guards.RunGuard` trip;
    when it is ``False``, ``stop_reason`` says why (``"deadline"`` or
    ``"budget"``) and ``degradations`` carries the structured
    trail of everything that degraded on the way — a truncated run is
    still a valid partition, just not the fixpoint one.
    """

    partitions: dict[str, list[list[str]]]
    uf: UnionFind
    stats: "EngineStats"
    completed: bool = True
    stop_reason: str = "converged"
    degradations: list["DegradationEvent"] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when anything at all was cut short or pruned."""
        return not self.completed or bool(self.degradations)

    def clusters(self, class_name: str) -> list[list[str]]:
        return self.partitions[class_name]

    def partition_count(self, class_name: str) -> int:
        """Number of entities the algorithm believes exist (the count
        reported in Table 4 / Table 5 / Figure 6)."""
        return len(self.partitions[class_name])

    def same_entity(self, left: str, right: str) -> bool:
        return self.uf.connected(left, right)

    def entity_of(self, ref_id: str) -> str:
        return str(self.uf.find(ref_id))

    def matched_pairs(self, class_name: str) -> set[tuple[str, str]]:
        """All reconciled (unordered) reference pairs of one class.

        Quadratic in cluster size — exactly the pair universe that
        pairwise precision/recall is defined over.
        """
        pairs: set[tuple[str, str]] = set()
        for cluster in self.partitions[class_name]:
            for i, left in enumerate(cluster):
                for right in cluster[i + 1 :]:
                    pairs.add((left, right))
        return pairs
