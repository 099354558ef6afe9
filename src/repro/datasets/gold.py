"""Gold standards: the perfect reconciliation result.

Synthetic datasets know exactly which real-world entity every reference
denotes, so the gold standard is a reference-id → entity-id mapping
plus provenance tags (the §5.3 PEmail / PArticle subsets slice person
references by where the extractor found them).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

__all__ = ["GoldStandard"]


@dataclass
class GoldStandard:
    """Ground truth for one dataset.

    ``entity_of`` maps every reference id to its gold entity id;
    ``class_of`` maps it to its schema class; ``source_of`` to its
    provenance tag ("email", "bibtex", "citation", ...).
    """

    entity_of: dict[str, str] = field(default_factory=dict)
    class_of: dict[str, str] = field(default_factory=dict)
    source_of: dict[str, str] = field(default_factory=dict)

    def add(self, ref_id: str, entity_id: str, class_name: str, source: str) -> None:
        if ref_id in self.entity_of:
            raise ValueError(f"duplicate gold entry for {ref_id!r}")
        self.entity_of[ref_id] = entity_id
        self.class_of[ref_id] = class_name
        self.source_of[ref_id] = source

    # -- views ----------------------------------------------------------
    def refs_of_class(
        self, class_name: str, *, source: str | None = None
    ) -> list[str]:
        return [
            ref_id
            for ref_id, cls in self.class_of.items()
            if cls == class_name
            and (source is None or self.source_of[ref_id] == source)
        ]

    def clusters(
        self, class_name: str, *, restrict_to: Iterable[str] | None = None
    ) -> list[list[str]]:
        """Gold partition of one class (optionally over a subset)."""
        allowed = None if restrict_to is None else set(restrict_to)
        grouped: dict[str, list[str]] = {}
        for ref_id, cls in self.class_of.items():
            if cls != class_name:
                continue
            if allowed is not None and ref_id not in allowed:
                continue
            grouped.setdefault(self.entity_of[ref_id], []).append(ref_id)
        return [sorted(members) for _, members in sorted(grouped.items())]

    def entity_count(self, class_name: str, *, source: str | None = None) -> int:
        """Number of distinct gold entities among the class's references."""
        entities = {
            self.entity_of[ref_id]
            for ref_id in self.refs_of_class(class_name, source=source)
        }
        return len(entities)

    def reference_count(self, class_name: str | None = None) -> int:
        if class_name is None:
            return len(self.entity_of)
        return len(self.refs_of_class(class_name))

    def total_entity_count(self) -> int:
        return len(set(self.entity_of.values()))
