"""Tests for incremental reconciliation (§7 future work)."""

import pytest

from repro.core import (
    EngineConfig,
    IncrementalReconciler,
    Reconciler,
    Reference,
    ReferenceStore,
)
from repro.core import engine as engine_module
from repro.core.schema import SchemaError
from repro.domains import PimDomainModel

from .conftest import example1_references


def split_example1():
    """Base = the bibliography world; batch = the email references."""
    refs = example1_references()
    batch_ids = {"p7", "p8", "p9"}
    base = [ref for ref in refs if ref.ref_id not in batch_ids]
    batch = [ref for ref in refs if ref.ref_id in batch_ids]
    return base, batch


class TestIncremental:
    def test_matches_full_rerun_on_example1(self):
        base, batch = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        result = incremental.add(batch)
        assert result.clusters("Person") == [
            ["p1", "p4"],
            ["p2", "p5", "p8", "p9"],
            ["p3", "p6", "p7"],
        ]

    def test_initial_required_before_add(self):
        base, batch = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        with pytest.raises(RuntimeError):
            incremental.add(batch)

    def test_initial_only_once(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        with pytest.raises(RuntimeError):
            incremental.initial()

    def test_empty_batch_is_noop(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        before = incremental.initial().partitions
        after = incremental.add([]).partitions
        assert before == after

    def test_key_agreement_merges_new_reference(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        first = incremental.add(
            [Reference("x1", "Person", {"name": ("Eugene Wong",), "email": ("ew@mit.edu",)})]
        )
        assert first.same_entity("x1", "p3")
        second = incremental.add(
            [Reference("x2", "Person", {"email": ("ew@mit.edu",)})]
        )
        assert second.same_entity("x2", "x1")
        assert second.same_entity("x2", "p3")

    def test_new_constraints_installed(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        # A new article whose authors are two existing clusters: they
        # must never merge afterwards (constraint 1).
        result = incremental.add(
            [
                Reference("x1", "Person", {"name": ("Robert Epstein",)}),
                Reference("x2", "Person", {"name": ("Eugene Wong",)}),
                Reference(
                    "ax",
                    "Article",
                    {
                        "title": ("A new system",),
                        "authoredBy": ("x1", "x2"),
                    },
                ),
            ]
        )
        assert result.same_entity("x1", "p1")
        assert result.same_entity("x2", "p3")
        assert not result.same_entity("x1", "x2")

    def test_less_work_than_full_rerun(self, tiny_pim_a):
        """Folding in a small batch recomputes much less than a re-run."""
        domain = PimDomainModel()
        refs = list(tiny_pim_a.store)
        person_refs = [r for r in refs if r.class_name == "Person"]
        # Hold out a handful of refs nothing points at.
        pointed = set()
        for ref in refs:
            for attr, values in ref.values.items():
                if tiny_pim_a.store.schema.cls(ref.class_name).attribute(attr).is_association:
                    pointed.update(values)
        batch_ids = [r.ref_id for r in person_refs if r.ref_id not in pointed][:15]
        batch_set = set(batch_ids)

        def strip(ref):
            values = {}
            for attr, vals in ref.values.items():
                if tiny_pim_a.store.schema.cls(ref.class_name).attribute(attr).is_association:
                    vals = tuple(v for v in vals if v not in batch_set)
                    if not vals:
                        continue
                values[attr] = vals
            return Reference(ref.ref_id, ref.class_name, values, ref.source)

        base = [strip(r) for r in refs if r.ref_id not in batch_set]
        batch = [strip(r) for r in refs if r.ref_id in batch_set]

        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), PimDomainModel(), EngineConfig()
        )
        incremental.initial()
        base_recomp = incremental.reconciler.stats.recomputations
        incremental.add(batch)
        delta = incremental.reconciler.stats.recomputations - base_recomp

        full = Reconciler(
            ReferenceStore(domain.schema, base + batch),
            PimDomainModel(),
            EngineConfig(),
        )
        full.run()
        assert delta < full.stats.recomputations * 0.5


def _initialised_example1():
    base, batch = split_example1()
    domain = PimDomainModel()
    incremental = IncrementalReconciler(
        ReferenceStore(domain.schema, base), domain, EngineConfig()
    )
    incremental.initial()
    return incremental, batch


def _with_p8(batch, **values):
    return [
        Reference("p8", "Person", values) if ref.ref_id == "p8" else ref
        for ref in batch
    ]


def _bad_batches(batch):
    """label -> (batch wrong in exactly that one way, expected error)."""
    p8 = next(ref for ref in batch if ref.ref_id == "p8").values
    return {
        "dangling": (_with_p8(batch, **p8, coAuthor=("ghost",)), SchemaError),
        "mistyped link": (_with_p8(batch, **p8, coAuthor=("a1",)), SchemaError),
        "unknown attribute": (_with_p8(batch, **p8, shoeSize=("9",)), SchemaError),
        "unknown class": (batch + [Reference("z1", "Robot", {})], SchemaError),
        "duplicate in batch": (batch + [batch[0]], ValueError),
        "duplicate of stored": (batch + [Reference("p1", "Person", {})], ValueError),
    }


class TestAtomicAdd:
    @pytest.mark.parametrize("label", list(_bad_batches(split_example1()[1])))
    def test_rejected_batch_changes_nothing(self, label):
        incremental, batch = _initialised_example1()
        engine = incremental.reconciler
        bad, error = _bad_batches(batch)[label]
        before = engine._result().partitions
        size = len(engine.store)
        with pytest.raises(error):
            incremental.add(bad)
        assert len(engine.store) == size
        assert all(ref.ref_id not in engine.store for ref in batch)
        assert all(ref.ref_id not in engine.uf for ref in batch)
        assert engine._result().partitions == before
        # The corrected retry is accepted and merges as a clean add does.
        result = incremental.add(batch)
        assert result.clusters("Person") == [
            ["p1", "p4"],
            ["p2", "p5", "p8", "p9"],
            ["p3", "p6", "p7"],
        ]

    def test_returned_partition_is_a_copy(self):
        incremental, batch = _initialised_example1()
        # p9 first: p7 and p8 link to each other, so they come together.
        first = incremental.add(batch[2:])
        first.partitions["Person"][0].append("intruder")
        first.partitions["Person"].clear()
        second = incremental.add(batch[:2])
        assert second.clusters("Person") == [
            ["p1", "p4"],
            ["p2", "p5", "p8", "p9"],
            ["p3", "p6", "p7"],
        ]


class TestWeakFanoutOnAdd:
    def test_add_skips_and_reports_bundles_over_the_ceiling(self, monkeypatch):
        incremental, batch = _initialised_example1()
        engine = incremental.reconciler
        assert engine.stats.skipped_weak_fanout == 0
        monkeypatch.setattr(engine_module, "_MAX_WEAK_FANOUT", 0)
        result = incremental.add(batch)
        skipped = engine.stats.skipped_weak_fanout
        assert skipped > 0
        kinds = [event.kind for event in result.degradations]
        assert kinds == ["weak_fanout"]
        assert f"skipped {skipped} weak-edge bundles" in result.degradations[0].detail
