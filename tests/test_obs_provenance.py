"""The merge-provenance audit log and `explain` replay.

Every merge / non-merge decision the engine takes must leave a
:class:`DecisionRecord` carrying the evidence at decision time, the
records must round-trip through JSONL against the schema, and
:func:`explain_merge` must answer from those records — matching the
live decisions exactly.
"""

import json
from dataclasses import asdict

import pytest

from repro.core import EngineConfig, Reconciler, ReferenceStore
from repro.core.explain import explain_merge
from repro.domains import PimDomainModel
from repro.obs import (
    DecisionRecord,
    ProvenanceLog,
    SchemaError,
    Telemetry,
    validate_decision,
    validate_provenance_jsonl,
)
from repro.obs.provenance import DECISIONS, MERGE, TRIGGERS

from .conftest import example1_references


@pytest.fixture(scope="module")
def audited():
    """One engine run over Example 1 with a provenance log attached."""
    domain = PimDomainModel()
    store = ReferenceStore(domain.schema, example1_references())
    telemetry = Telemetry(provenance=ProvenanceLog())
    engine = Reconciler(store, domain, EngineConfig(), observers=[telemetry])
    engine.run()
    return engine


@pytest.fixture(scope="module")
def audited_pim():
    """An audited run over a generated dataset, which — unlike Example 1,
    where propagation eventually reconciles every deferred pair — leaves
    some pairs genuinely apart."""
    from repro.datasets import generate_pim_dataset

    dataset = generate_pim_dataset("A", scale=0.15)
    telemetry = Telemetry(provenance=ProvenanceLog())
    engine = Reconciler(
        dataset.store, PimDomainModel(), EngineConfig(), observers=[telemetry]
    )
    engine.run()
    return engine


class TestDecisionRecords:
    def test_every_decision_validates(self, audited):
        prov = audited.observers.find(Telemetry).provenance
        assert len(prov) > 0
        for record in prov.records:
            validate_decision(record.to_dict())
            assert record.decision in DECISIONS
            assert record.trigger in TRIGGERS

    def test_merges_and_non_merges_are_both_audited(self, audited):
        prov = audited.observers.find(Telemetry).provenance
        assert prov.merged_pairs()
        assert prov.non_merged_pairs()
        # The engine's own counter and the audit log must agree.
        merge_records = [r for r in prov.records if r.decision == MERGE]
        assert len(merge_records) == audited.stats.merges

    def test_merge_record_carries_decision_time_evidence(self, audited):
        prov = audited.observers.find(Telemetry).provenance
        record = prov.merge_record("p2", "p5")  # Stonebraker, via propagation
        if record is None:  # enrich mode may key the node by roots
            pairs = [r for r in prov.records if r.decision == MERGE]
            record = pairs[0]
        assert record.score >= record.threshold
        assert record.channels  # at least one attribute channel scored
        assert record.trigger in TRIGGERS

    def test_propagated_merges_record_their_trigger(self, audited):
        prov = audited.observers.find(Telemetry).provenance
        triggers = {r.trigger for r in prov.records}
        # Example 1 is the paper's propagation showcase: some decision
        # must have been (re)activated by a strong/weak/real edge.
        assert triggers - {"seed"}

    def test_sequence_is_strictly_increasing(self, audited):
        seqs = [r.seq for r in audited.observers.find(Telemetry).provenance.records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_jsonl_roundtrip(self, audited, tmp_path):
        prov = audited.observers.find(Telemetry).provenance
        path = prov.to_jsonl(tmp_path / "prov.jsonl")
        assert validate_provenance_jsonl(path) == len(prov)
        restored = ProvenanceLog.from_jsonl(path)
        assert [r.to_dict() for r in restored.records] == [
            r.to_dict() for r in prov.records
        ]
        # The pair index survives the round trip.
        for left, right in prov.merged_pairs():
            assert restored.merge_record(left, right) is not None

    def test_streaming_jsonl_matches_in_memory(self, tmp_path):
        domain = PimDomainModel()
        store = ReferenceStore(domain.schema, example1_references())
        path = tmp_path / "stream.jsonl"
        telemetry = Telemetry(provenance=ProvenanceLog(path))
        Reconciler(store, domain, EngineConfig(), observers=[telemetry]).run()
        telemetry.close()
        prov = telemetry.provenance
        streamed = [json.loads(line) for line in path.read_text().splitlines()]
        assert streamed == [r.to_dict() for r in prov.records]

    def test_bad_record_rejected(self):
        record = DecisionRecord(
            seq=0, pair=("a", "b"), class_name="Person", decision="merge",
            score=0.9, threshold=0.8, s_rv=0.9, t_rv=0.8,
            strong_support=0, weak_support=0, channels={}, trigger="seed",
            trigger_pair=None, recompute_index=0,
        )
        data = record.to_dict()
        validate_decision(data)
        with pytest.raises(SchemaError):
            validate_decision({**data, "decision": "coin_flip"})
        with pytest.raises(SchemaError):
            validate_decision({**data, "trigger": "astrology"})

    @pytest.mark.parametrize("trigger_pair", [None, ("c", "d")], ids=["seed", "propagated"])
    def test_to_dict_is_the_asdict_form(self, trigger_pair):
        """The field-by-field export equals ``asdict`` with the pairs as
        lists, key order included, so the JSONL bytes do not change."""
        record = DecisionRecord(
            seq=3, pair=("a", "b"), class_name="Person", decision="defer",
            score=0.5, threshold=0.85, s_rv=0.5, t_rv=0.7,
            strong_support=1, weak_support=2, channels={"name": 0.5, "email": 0.25},
            trigger="seed" if trigger_pair is None else "strong",
            trigger_pair=trigger_pair, recompute_index=2,
        )
        expected = asdict(record)
        expected["pair"] = list(record.pair)
        if trigger_pair is not None:
            expected["trigger_pair"] = list(trigger_pair)
        data = record.to_dict()
        assert list(data) == list(expected)
        assert json.dumps(data) == json.dumps(expected)
        # A copy: changing the export leaves the record alone.
        data["channels"]["name"] = 1.0
        assert record.channels["name"] == 0.5


class TestExplainReplay:
    def test_merged_pair_replays_its_record(self, audited):
        prov = audited.observers.find(Telemetry).provenance
        left, right = prov.merged_pairs()[0]
        explanation = explain_merge(audited, left, right)
        assert explanation.connected
        replayed = [step for step in explanation.steps if step.from_record]
        assert replayed, "no step replayed from the audit log"
        for step in replayed:
            record = prov.merge_record(step.left, step.right)
            assert record is not None
            assert step.score == record.score
            assert step.strong_support == record.strong_support
            assert step.weak_support == record.weak_support
            assert step.trigger == record.trigger
        assert "[replayed from decision record]" in explanation.describe()

    def test_non_merged_pair_reports_last_decision(self, audited_pim):
        prov = audited_pim.observers.find(Telemetry).provenance
        found = None
        for left, right in prov.non_merged_pairs():
            if not audited_pim.uf.connected(left, right):
                found = (left, right)
                break
        assert found is not None
        explanation = explain_merge(audited_pim, *found)
        assert not explanation.connected
        last = explanation.last_decision
        assert last is not None
        assert last["decision"] != "merge"
        assert last["score"] == prov.last_decision(*found).score
        text = explanation.describe()
        assert "NOT reconciled" in text
        assert "last decision" in text

    def test_replay_matches_live_decision_scores(self, audited):
        """Replayed chains agree with a fresh unaudited run's outcome."""
        domain = PimDomainModel()
        store = ReferenceStore(domain.schema, example1_references())
        live = Reconciler(store, domain, EngineConfig())
        live.run()
        assert live.uf.connected("p2", "p5")
        replayed = explain_merge(audited, "p2", "p5")
        fresh = explain_merge(live, "p2", "p5")
        assert replayed.connected == fresh.connected
        # Same chain of pairs, whatever the evidence source.
        assert [(s.left, s.right) for s in replayed.steps] == [
            (s.left, s.right) for s in fresh.steps
        ]

    def test_without_provenance_explain_still_works(self):
        domain = PimDomainModel()
        store = ReferenceStore(domain.schema, example1_references())
        engine = Reconciler(store, domain, EngineConfig())
        engine.run()
        explanation = explain_merge(engine, "p2", "p5")
        assert explanation.connected
        assert all(not step.from_record for step in explanation.steps)
        assert explain_merge(engine, "p1", "c1").last_decision is None


class TestActivationBookkeeping:
    def test_take_activation_defaults_to_seed(self):
        prov = ProvenanceLog()
        assert prov.take_activation(("x", "y")) == ("seed", None)

    def test_note_then_take_consumes_the_cause(self):
        prov = ProvenanceLog()
        prov.note_activation(("x", "y"), "strong", ("a", "b"))
        assert prov.take_activation(("x", "y")) == ("strong", ("a", "b"))
        assert prov.take_activation(("x", "y")) == ("seed", None)
