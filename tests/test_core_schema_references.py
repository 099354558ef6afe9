"""Tests for the schema model and reference store."""

import pytest

from repro.core import (
    Attribute,
    AttributeKind,
    Reference,
    ReferenceStore,
    Schema,
    SchemaClass,
    SchemaError,
)
from repro.domains import PIM_SCHEMA


class TestSchema:
    def test_attribute_kinds(self):
        atomic = Attribute.atomic("name")
        assoc = Attribute.association("coAuthor", target="Person")
        assert atomic.is_atomic and not atomic.is_association
        assert assoc.is_association and assoc.target == "Person"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            SchemaClass("X", [Attribute.atomic("a"), Attribute.atomic("a")])

    def test_duplicate_class_rejected(self):
        cls = SchemaClass("X", [Attribute.atomic("a")])
        with pytest.raises(SchemaError):
            Schema([cls, cls])

    def test_dangling_association_target_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                [SchemaClass("X", [Attribute.association("to", target="Missing")])]
            )

    def test_lookup(self):
        person = PIM_SCHEMA.cls("Person")
        assert person.attribute("email").kind is AttributeKind.ATOMIC
        assert person.attribute("coAuthor").kind is AttributeKind.ASSOCIATION
        assert "Person" in PIM_SCHEMA
        assert "Robot" not in PIM_SCHEMA
        with pytest.raises(SchemaError):
            PIM_SCHEMA.cls("Robot")
        with pytest.raises(SchemaError):
            person.attribute("shoeSize")

    def test_pim_schema_matches_figure_1a(self):
        person = PIM_SCHEMA.cls("Person")
        assert {a.name for a in person.attributes if a.is_atomic} == {"name", "email"}
        assert {a.name for a in person.association_attributes} == {
            "coAuthor",
            "emailContact",
        }
        article = PIM_SCHEMA.cls("Article")
        assert {a.name for a in article.association_attributes} == {
            "authoredBy",
            "publishedIn",
        }


class TestReference:
    def test_values_frozen_and_cleaned(self):
        reference = Reference("r1", "Person", {"name": ("A",), "email": ()})
        assert reference.get("name") == ("A",)
        assert "email" not in reference.values  # empty dropped
        assert reference.first("name") == "A"
        assert reference.first("email") is None
        assert reference.has("name") and not reference.has("email")


class TestReferenceStore:
    def test_round_trip(self):
        store = ReferenceStore(
            PIM_SCHEMA, [Reference("r1", "Person", {"name": ("A",)})]
        )
        assert len(store) == 1
        assert "r1" in store
        assert store.get("r1").first("name") == "A"
        assert len(store.of_class("Person")) == 1

    def test_unknown_class_rejected(self):
        store = ReferenceStore(PIM_SCHEMA)
        with pytest.raises(SchemaError):
            store.add(Reference("r1", "Robot", {}))

    def test_unknown_attribute_rejected(self):
        store = ReferenceStore(PIM_SCHEMA)
        with pytest.raises(SchemaError):
            store.add(Reference("r1", "Person", {"shoeSize": ("42",)}))

    def test_duplicate_id_rejected(self):
        store = ReferenceStore(PIM_SCHEMA, [Reference("r1", "Person", {})])
        with pytest.raises(ValueError):
            store.add(Reference("r1", "Person", {}))

    def test_validate_dangling_association(self):
        store = ReferenceStore(
            PIM_SCHEMA,
            [Reference("r1", "Person", {"coAuthor": ("ghost",)})],
        )
        with pytest.raises(SchemaError):
            store.validate()

    def test_validate_wrong_target_class(self):
        store = ReferenceStore(
            PIM_SCHEMA,
            [
                Reference("v1", "Venue", {"name": ("SIGMOD",)}),
                Reference("r1", "Person", {"coAuthor": ("v1",)}),
            ],
        )
        with pytest.raises(SchemaError):
            store.validate()

    def test_validate_accepts_consistent_store(self, example1_store):
        example1_store.validate()
        assert len(example1_store.of_class("Person")) == 9
        assert len(example1_store.of_class("Article")) == 2
        assert len(example1_store.of_class("Venue")) == 2

    def test_validate_checks_only_the_given_references(self):
        store = ReferenceStore(
            PIM_SCHEMA,
            [
                Reference("r1", "Person", {"coAuthor": ("ghost",)}),
                Reference("r2", "Person", {}),
            ],
        )
        batch = [
            Reference("r3", "Person", {"coAuthor": ("r2", "r4")}),
            Reference("r4", "Person", {"coAuthor": ("r3",)}),
        ]
        # Targets resolve against the store plus the batch; r1 is not
        # checked again.
        store.validate(batch)
        with pytest.raises(SchemaError):
            store.validate([Reference("r5", "Person", {"coAuthor": ("r6",)})])
        with pytest.raises(SchemaError):
            store.validate()

    def test_extend_is_all_or_nothing(self):
        store = ReferenceStore(PIM_SCHEMA, [Reference("r1", "Person", {})])
        good = Reference("r2", "Person", {"coAuthor": ("r1", "r3")})
        linked = Reference("r3", "Person", {"coAuthor": ("r2",)})
        for bad in (
            Reference("r4", "Person", {"coAuthor": ("ghost",)}),
            Reference("r1", "Person", {}),
            Reference("r2", "Person", {}),
            Reference("r4", "Robot", {}),
        ):
            with pytest.raises((SchemaError, ValueError)):
                store.extend([good, linked, bad])
            assert len(store) == 1
        assert store.extend([good, linked]) == [good, linked]
        assert [ref.ref_id for ref in store.of_class("Person")] == ["r1", "r2", "r3"]
