"""References and the reference store.

A :class:`Reference` is what an extractor produces: a partial instance
of a schema class, holding a (possibly empty) *set* of values for each
attribute. Atomic values are strings; association values are the ids of
other references.

References are immutable; all merging state (which references currently
form one cluster, what the pooled attribute values of a cluster are)
lives in the engine, never in the data.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .schema import Schema, SchemaError

__all__ = ["Reference", "ReferenceStore"]


@dataclass(frozen=True)
class Reference:
    """One extracted reference.

    ``values`` maps attribute name to a tuple of values. Tuples keep
    the extractor's order, which keeps everything downstream
    deterministic; semantically they are sets.
    """

    ref_id: str
    class_name: str
    values: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    source: str = ""  # provenance tag, e.g. "email" or "bibtex"

    def get(self, attribute: str) -> tuple[str, ...]:
        return self.values.get(attribute, ())

    def first(self, attribute: str) -> str | None:
        values = self.get(attribute)
        return values[0] if values else None

    def has(self, attribute: str) -> bool:
        return bool(self.values.get(attribute))

    def __post_init__(self) -> None:
        # Freeze the mapping so hashing / sharing is safe.
        frozen = {
            name: tuple(values)
            for name, values in self.values.items()
            if values
        }
        object.__setattr__(self, "values", frozen)


class ReferenceStore:
    """All references of a dataset, indexed by id and by class.

    The store validates every reference against the schema: unknown
    classes, unknown attributes and dangling association targets are
    rejected (dangling targets only at :meth:`validate` time, since
    references may arrive in any order).
    """

    def __init__(
        self,
        schema: Schema,
        references: Iterable[Reference] = (),
    ) -> None:
        self.schema = schema
        self._by_id: dict[str, Reference] = {}
        self._by_class: dict[str, list[Reference]] = {
            name: [] for name in schema.class_names
        }
        for reference in references:
            self.add(reference)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, ref_id: str) -> bool:
        return ref_id in self._by_id

    def __iter__(self):
        return iter(self._by_id.values())

    def add(self, reference: Reference) -> None:
        self._check(reference)
        self._insert(reference)

    def extend(self, references: Iterable[Reference]) -> list[Reference]:
        """Add a batch atomically and return it as a list.

        Every check runs before anything is stored: class and attributes
        (as in :meth:`add`), duplicate ids within the batch or against
        the store, and the batch's association targets against the
        store plus the batch (:meth:`validate`). On any error the store
        is left unchanged.
        """
        batch = list(references)
        seen: set[str] = set()
        for reference in batch:
            self._check(reference)
            if reference.ref_id in seen:
                raise ValueError(f"duplicate reference id {reference.ref_id!r}")
            seen.add(reference.ref_id)
        self.validate(batch)
        for reference in batch:
            self._insert(reference)
        return batch

    def _check(self, reference: Reference) -> None:
        if reference.class_name not in self.schema:
            raise SchemaError(
                f"reference {reference.ref_id!r} has unknown class "
                f"{reference.class_name!r}"
            )
        if reference.ref_id in self._by_id:
            raise ValueError(f"duplicate reference id {reference.ref_id!r}")
        schema_class = self.schema.cls(reference.class_name)
        for attribute_name in reference.values:
            if not schema_class.has_attribute(attribute_name):
                raise SchemaError(
                    f"reference {reference.ref_id!r}: class "
                    f"{reference.class_name!r} has no attribute {attribute_name!r}"
                )

    def _insert(self, reference: Reference) -> None:
        self._by_id[reference.ref_id] = reference
        self._by_class[reference.class_name].append(reference)

    def replace(self, reference: Reference) -> None:
        """Swap in a repaired version of an already-stored reference.

        Used by lenient ingestion to drop dangling association values;
        the id and class must match the stored original.
        """
        existing = self._by_id.get(reference.ref_id)
        if existing is None:
            raise ValueError(f"unknown reference id {reference.ref_id!r}")
        if existing.class_name != reference.class_name:
            raise SchemaError(
                f"cannot replace {reference.ref_id!r}: class changed from "
                f"{existing.class_name!r} to {reference.class_name!r}"
            )
        self._by_id[reference.ref_id] = reference
        bucket = self._by_class[reference.class_name]
        bucket[bucket.index(existing)] = reference

    def get(self, ref_id: str) -> Reference:
        return self._by_id[ref_id]

    def of_class(self, class_name: str) -> list[Reference]:
        return list(self._by_class[class_name])

    def validate(self, references: Iterable[Reference] | None = None) -> None:
        """Check that every association value points at a stored reference
        of the right class; raises :class:`SchemaError` otherwise.

        With *references*, only those are checked, against the store
        plus *references* themselves (a batch about to be added may link
        within itself). The store only grows, so a reference that passed
        once cannot start to dangle: after one whole-store check, each
        later batch needs checking alone."""
        if references is None:
            checked: Iterable[Reference] = self._by_id.values()
            pending: dict[str, Reference] = {}
        else:
            checked = list(references)
            pending = {reference.ref_id: reference for reference in checked}
        for reference in checked:
            schema_class = self.schema.cls(reference.class_name)
            for attribute in schema_class.association_attributes:
                for target_id in reference.get(attribute.name):
                    target = self._by_id.get(target_id) or pending.get(target_id)
                    if target is None:
                        raise SchemaError(
                            f"{reference.ref_id}.{attribute.name} points at "
                            f"missing reference {target_id!r}"
                        )
                    if target.class_name != attribute.target:
                        raise SchemaError(
                            f"{reference.ref_id}.{attribute.name} points at "
                            f"{target_id!r} of class {target.class_name!r}, "
                            f"expected {attribute.target!r}"
                        )
