"""Schema model: classes with atomic and association attributes.

Mirrors §2.1 of the paper: a domain schema is a set of *classes*, each
with *atomic* attributes (string/int values) and *association*
attributes (links to instances of other classes). Figure 1(a) is
expressed as::

    PIM_SCHEMA = Schema([
        SchemaClass("Person", [
            Attribute.atomic("name"),
            Attribute.atomic("email"),
            Attribute.association("coAuthor", target="Person"),
            Attribute.association("emailContact", target="Person"),
        ]),
        ...
    ])
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

__all__ = ["AttributeKind", "Attribute", "SchemaClass", "Schema", "SchemaError"]


class SchemaError(ValueError):
    """Raised for ill-formed schemas or schema lookups that fail."""


class AttributeKind(enum.Enum):
    ATOMIC = "atomic"
    ASSOCIATION = "association"


@dataclass(frozen=True)
class Attribute:
    """One attribute of a class.

    All attributes are multi-valued (a reference holds a *set* of
    values per attribute, possibly empty), matching the paper's model
    where e.g. a person reference may carry several email addresses.
    """

    name: str
    kind: AttributeKind
    target: str | None = None  # target class name, for associations

    @staticmethod
    def atomic(name: str) -> "Attribute":
        return Attribute(name=name, kind=AttributeKind.ATOMIC)

    @staticmethod
    def association(name: str, *, target: str) -> "Attribute":
        return Attribute(name=name, kind=AttributeKind.ASSOCIATION, target=target)

    @property
    def is_atomic(self) -> bool:
        return self.kind is AttributeKind.ATOMIC

    @property
    def is_association(self) -> bool:
        return self.kind is AttributeKind.ASSOCIATION


@dataclass(frozen=True)
class SchemaClass:
    """A class with an ordered set of attributes."""

    name: str
    attributes: tuple[Attribute, ...]

    def __init__(self, name: str, attributes: Iterable[Attribute]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        seen: set[str] = set()
        for attribute in self.attributes:
            if attribute.name in seen:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} in class {name!r}"
                )
            seen.add(attribute.name)

    def attribute(self, name: str) -> Attribute:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"class {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(attribute.name == name for attribute in self.attributes)

    @property
    def association_attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.is_association)


@dataclass(frozen=True)
class Schema:
    """A set of classes; association targets are validated on creation."""

    classes: tuple[SchemaClass, ...] = field(default_factory=tuple)

    def __init__(self, classes: Iterable[SchemaClass]):
        object.__setattr__(self, "classes", tuple(classes))
        names = {cls.name for cls in self.classes}
        if len(names) != len(self.classes):
            raise SchemaError("duplicate class names in schema")
        for cls in self.classes:
            for attribute in cls.association_attributes:
                if attribute.target not in names:
                    raise SchemaError(
                        f"{cls.name}.{attribute.name} targets unknown class "
                        f"{attribute.target!r}"
                    )

    def __iter__(self):
        return iter(self.classes)

    def __contains__(self, name: str) -> bool:
        return any(cls.name == name for cls in self.classes)

    def cls(self, name: str) -> SchemaClass:
        for schema_class in self.classes:
            if schema_class.name == name:
                return schema_class
        raise SchemaError(f"schema has no class {name!r}")

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(cls.name for cls in self.classes)
