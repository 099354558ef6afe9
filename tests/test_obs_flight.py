"""Flight recorder, crash bundles, and heavy-hitter attribution.

Three contracts:

* the recorder and the hotspot sketch are bounded-memory and strictly
  observational — partitions, provenance and the manifest's invariant
  view are byte-identical with them subscribed (the default) or not;
* crash bundles are schema-valid, atomically written, and carry the
  rings, stacks, config fingerprint and worker-lane digests;
* the Space-Saving sketch is deterministic (tie-break on key) and its
  error bound holds.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.cora import CoraConfig
from repro.domains import CoraDomainModel, PimDomainModel
from repro.obs import (
    CRASH_BUNDLE_FILENAME,
    FlightRecorder,
    HotspotSketch,
    Observers,
    ProvenanceLog,
    SchemaError,
    SpaceSaving,
    Telemetry,
    TelemetryRelay,
    Tracer,
    build_crash_bundle,
    build_manifest,
    dump_crash_bundle,
    gini,
    invariant_view,
    load_crash_bundle,
    validate_crash_bundle,
)
from repro.similarity import clear_similarity_caches


class TestFlightRecorder:
    def test_rings_are_bounded_and_ordered(self):
        recorder = FlightRecorder(ring_size=4)
        for step in range(10):
            recorder.note_event("tick", step=step)
        assert len(recorder.events) == 4
        # Oldest entries fell off; the survivors keep arrival order.
        assert [entry["step"] for entry in recorder.events] == [6, 7, 8, 9]

    def test_seq_is_monotone_across_rings(self):
        recorder = FlightRecorder()
        recorder.note_event("build_start")
        recorder.note_decision(("a", "b"), "Person", "merge", 0.91)
        recorder.note_chunk("build pool", 0.25, pairs=10)
        recorder.note_degradation("deadline", "out of time")
        snapshot = recorder.snapshot()
        seqs = [
            entry["seq"]
            for ring in ("events", "decisions", "chunks", "degradations")
            for entry in snapshot[ring]
        ]
        assert seqs == [1, 2, 3, 4]
        assert snapshot["noted"] == 4

    def test_decision_entry_shape(self):
        recorder = FlightRecorder()
        recorder.note_decision(("x", "y"), "Venue", "defer", 0.123456789)
        recorder.note_decision(("x", "z"), "Venue", "merge", None)
        first, second = recorder.decisions
        assert first["pair"] == ["x", "y"]
        assert first["score"] == 0.123457  # rounded to 6 places
        assert second["score"] is None

    def test_snapshot_is_json_serializable(self):
        recorder = FlightRecorder()
        recorder.note_event("iterate_start", queued=5)
        recorder.note_chunk("supervised", 0.001, pairs=3)
        json.dumps(recorder.snapshot())


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for key, weight in [("a", 3.0), ("b", 1.0), ("a", 2.0)]:
            sketch.add(key, weight)
        assert sketch.top(10) == [("a", 5.0, 2, 0.0), ("b", 1.0, 1, 0.0)]
        assert sketch.updates == 3
        assert sketch.total_weight == 6.0

    def test_eviction_inherits_weight_as_error(self):
        sketch = SpaceSaving(capacity=2)
        sketch.add("heavy", 10.0)
        sketch.add("light", 1.0)
        sketch.add("new", 1.0)  # evicts "light" (minimum weight)
        keys = {key for key, *_ in sketch.top(10)}
        assert keys == {"heavy", "new"}
        (weight, count, error) = next(
            (w, c, e) for key, w, c, e in sketch.top(10) if key == "new"
        )
        assert weight == 2.0  # victim weight + own weight
        assert error == 1.0  # overestimation bounded by the victim
        assert count == 1

    def test_deterministic_tie_break_on_key(self):
        # Same stream twice -> byte-identical top() output, even with
        # all-equal weights forcing tie-breaks.
        def run():
            sketch = SpaceSaving(capacity=3)
            for key in ["d", "b", "c", "a", "e", "b", "a"]:
                sketch.add(key, 1.0)
            return sketch.top(10)

        assert run() == run()

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        stream=st.lists(
            st.tuples(
                st.sampled_from("abcdefghij"),
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5]),
            ),
            max_size=60,
        ),
    )
    def test_matches_brute_force_reference(self, capacity, stream):
        # The reference scans every entry for the (weight, key) minimum
        # on each eviction; the sketch must pick the same victims and
        # keep the same weights, counts and errors. Few keys and
        # repeated weights force ties on both.
        reference: dict = {}
        sketch = SpaceSaving(capacity=capacity)
        for key, weight in stream:
            sketch.add(key, weight)
            entry = reference.get(key)
            if entry is not None:
                entry[0] += weight
                entry[1] += 1
            elif len(reference) < capacity:
                reference[key] = [weight, 1, 0.0]
            else:
                victim = min(reference, key=lambda k: (reference[k][0], k))
                victim_weight = reference.pop(victim)[0]
                reference[key] = [victim_weight + weight, 1, victim_weight]
            assert sketch.entries == reference

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SpaceSaving().add("k", -1.0)

    def test_error_bound_holds(self):
        # A key with true weight above N/k is guaranteed present, and no
        # reported weight overestimates by more than its recorded error.
        sketch = SpaceSaving(capacity=4)
        true_weights: dict = {}
        for index in range(100):
            key = "hot" if index % 2 else f"cold{index}"
            sketch.add(key, 1.0)
            true_weights[key] = true_weights.get(key, 0.0) + 1.0
        reported = {key: (w, e) for key, w, _, e in sketch.top(10)}
        assert "hot" in reported  # 50 > 100/4
        for key, (weight, error) in reported.items():
            assert weight - error <= true_weights.get(key, 0.0) <= weight
            assert error <= sketch.error_bound()


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_degenerate_inputs(self):
        assert gini([]) == 0.0
        assert gini([7]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_skew_increases_gini(self):
        assert gini([1, 1, 1, 97]) > gini([20, 25, 25, 30]) > 0.0


class TestHotspotSketch:
    def _index(self, sizes, oversized=0):
        return SimpleNamespace(
            block_sizes=lambda: dict(sizes), oversized_blocks=oversized
        )

    def test_note_blocks_records_skew_and_pair_weights(self):
        sketch = HotspotSketch()
        sketch.note_blocks(
            "Person", self._index({"t:smith": 10, "t:rare": 2, "t:solo": 1})
        )
        skew = sketch.skew["Person"]
        assert skew["blocks"] == 3
        assert skew["references"] == 13
        assert skew["max_block"] == "t:smith"
        assert skew["max_block_size"] == 10
        # 45 of 46 candidate pairs live in the big block.
        assert skew["max_pair_share"] == pytest.approx(45 / 46, abs=1e-4)
        top = sketch.blocks.top(10)
        assert top[0] == ("Person/t:smith", 45.0, 1, 0.0)
        # Singleton blocks contribute no pairs and are not tracked.
        assert all(key != "Person/t:solo" for key, *_ in top)

    def test_note_blocks_empty_class(self):
        sketch = HotspotSketch()
        sketch.note_blocks("Venue", self._index({}, oversized=2))
        assert sketch.skew["Venue"]["blocks"] == 0
        assert sketch.skew["Venue"]["max_block"] is None
        assert sketch.skew["Venue"]["oversized"] == 2

    def test_summary_is_json_serializable_and_sorted(self):
        sketch = HotspotSketch()
        sketch.note_blocks("B", self._index({"x": 3}))
        sketch.note_blocks("A", self._index({"y": 2}))
        sketch.note_pair(("r1", "r2"), "A", 0.002)
        sketch.note_channels({"name": 0.9, "email": 0.1})
        summary = sketch.summary()
        json.dumps(summary)
        assert list(summary["skew"]) == ["A", "B"]
        assert summary["pair_updates"] == 1
        assert summary["top_pairs"][0]["pair"] == "A:r1|r2"
        assert {c["channel"] for c in summary["channels"]} == {"name", "email"}


class TestCrashBundle:
    def test_bundle_from_finished_engine(self, tiny_pim_a):
        clear_similarity_caches()
        engine = Reconciler(tiny_pim_a.store, PimDomainModel(), EngineConfig())
        engine.run()
        bundle = build_crash_bundle(
            reason="test", engine=engine, phase="iterate", stop_reason="converged"
        )
        validate_crash_bundle(bundle)
        assert bundle["config"]  # config fingerprint captured
        assert bundle["stats"]["merges"] > 0
        assert bundle["rings"]["decisions"]  # the always-on ring was fed
        assert bundle["rings"]["events"][0]["event"] == "build_start"
        assert bundle["stacks"]  # at least the dumping thread
        assert bundle["exception"] is None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda b: b.update(reason=""),
            lambda b: b["rings"].pop("decisions"),
            lambda b: b["rings"].update(events={}),
            lambda b: b.update(stacks={"1 (main)": [3]}),
            lambda b: b["worker_lanes"].update(deaths={}),
        ],
        ids=["reason", "ring", "ring-type", "stack", "deaths"],
    )
    def test_validator_rejects_damaged_bundles(self, damage):
        bundle = json.loads(json.dumps(build_crash_bundle(reason="smoke")))
        damage(bundle)
        with pytest.raises(SchemaError):
            validate_crash_bundle(bundle)

    def test_bundle_with_exception(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            bundle = build_crash_bundle(reason="unhandled ValueError", exc=exc)
        validate_crash_bundle(bundle)
        assert bundle["exception"]["type"] == "ValueError"
        assert bundle["exception"]["message"] == "boom"
        assert any("boom" in line for line in bundle["exception"]["traceback"])

    def test_dump_and_load_roundtrip(self, tmp_path):
        bundle = build_crash_bundle(reason="smoke")
        path = dump_crash_bundle(tmp_path, bundle)
        assert path.name == CRASH_BUNDLE_FILENAME
        assert load_crash_bundle(tmp_path) == json.loads(path.read_text())
        assert load_crash_bundle(path)["reason"] == "smoke"
        assert load_crash_bundle(tmp_path / "missing") is None
        # No tmp-file debris from the atomic writer.
        assert [p.name for p in tmp_path.iterdir()] == [CRASH_BUNDLE_FILENAME]

    def test_dump_survives_exotic_ring_values(self, tmp_path):
        recorder = FlightRecorder()
        recorder.note_event("weird", payload=object())  # not JSON-able
        engine = SimpleNamespace(
            config=EngineConfig(),
            stats=Reconciler(
                generate_pim_dataset("A", scale=0.05).store,
                PimDomainModel(),
                EngineConfig(),
            ).stats,
            observers=Observers([recorder]),
        )
        bundle = build_crash_bundle(reason="exotic", engine=engine)
        path = dump_crash_bundle(tmp_path, bundle)  # default=repr saves it
        assert "<object object" in path.read_text()

    def test_lane_rings_feed_worker_lanes(self):
        relay = TelemetryRelay(Telemetry(tracer=Tracer()))
        payload = {
            "pid": 4242,
            "tid": 1,
            "process_name": "scoring worker",
            "spans": [("score_chunk", "worker", 0.0, 0.1, {})],
            "counters": {"repro_worker_chunks_total": 1},
            "events": [("info", "chunk_done", {})],
        }
        relay.absorb(dict(payload))
        relay.lane_died(4242, "chaos")
        bundle = build_crash_bundle(reason="collapse", relay=relay)
        validate_crash_bundle(bundle)
        lanes = bundle["worker_lanes"]
        assert lanes["lanes"]["4242"]["process_name"] == "scoring worker"
        digest = lanes["lanes"]["4242"]["recent"][0]
        assert digest["spans"] == ["score_chunk"]
        assert digest["events"] == [["info", "chunk_done"]]
        assert digest["counters"] == {"repro_worker_chunks_total": 1}
        assert lanes["deaths"] == [
            {"pid": 4242, "reason": "chaos", "lane": "scoring worker"}
        ]

    def test_lane_ring_eviction_is_bounded(self):
        from repro.obs.relay import _LANE_RING_DEPTH, _MAX_LANE_RINGS

        relay = TelemetryRelay(Telemetry(tracer=Tracer()))
        for pid in range(_MAX_LANE_RINGS + 10):
            for _ in range(_LANE_RING_DEPTH + 3):
                relay.absorb(
                    {
                        "pid": pid,
                        "tid": 1,
                        "process_name": "scoring worker",
                        "spans": [],
                        "counters": {"c": 1},
                        "events": [],
                    }
                )
        assert len(relay.lane_rings) == _MAX_LANE_RINGS
        # Least-recently-shipping lanes (the earliest pids) were evicted.
        assert 0 not in relay.lane_rings
        assert all(
            len(ring) == _LANE_RING_DEPTH for ring in relay.lane_rings.values()
        )


def _dataset(name):
    if name == "cora":
        return (
            generate_cora_dataset(
                CoraConfig(n_papers=30, n_citations=260, n_authors=60, n_venues=12)
            ),
            CoraDomainModel,
        )
    return generate_pim_dataset(name, scale=0.15), PimDomainModel


def _observed_run(dataset, domain_factory, config, *, detach):
    """One run with provenance recording; *detach* leaves out the
    recorder and the sketch."""
    clear_similarity_caches()
    telemetry = Telemetry(provenance=ProvenanceLog())
    observers = [telemetry]
    if not detach:
        observers += [FlightRecorder(), HotspotSketch()]
    engine = Reconciler(
        dataset.store, domain_factory(), config, observers=observers
    )
    result = engine.run()
    decisions = [
        (r.pair, r.class_name, r.decision, round(r.score, 9))
        for r in telemetry.provenance.records
    ]
    manifest = build_manifest(dataset=dataset, reconciler=engine, result=result)
    return result, decisions, invariant_view(manifest)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "cora"])
def test_recorder_identity_serial(name):
    """Partitions, provenance and the manifest's invariant view are
    byte-identical with the flight recorder + hotspot sketch subscribed
    (the default) or not."""
    dataset, domain_factory = _dataset(name)
    on = _observed_run(dataset, domain_factory, EngineConfig(), detach=False)
    off = _observed_run(dataset, domain_factory, EngineConfig(), detach=True)
    assert on[0].partitions == off[0].partitions
    assert on[1] == off[1]
    assert json.dumps(on[2], sort_keys=True) == json.dumps(off[2], sort_keys=True)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "cora"])
def test_recorder_identity_parallel(name):
    """Same contract under workers=2: the recorder observes supervised
    chunks and lane rings without perturbing them."""
    dataset, domain_factory = _dataset(name)
    config = EngineConfig(workers=2)
    on = _observed_run(dataset, domain_factory, config, detach=False)
    off = _observed_run(dataset, domain_factory, config, detach=True)
    assert on[0].partitions == off[0].partitions
    assert on[1] == off[1]
    assert json.dumps(on[2], sort_keys=True) == json.dumps(off[2], sort_keys=True)


def test_manifest_execution_carries_hotspots(tiny_pim_a):
    clear_similarity_caches()
    engine = Reconciler(tiny_pim_a.store, PimDomainModel(), EngineConfig())
    result = engine.run()
    manifest = build_manifest(dataset=tiny_pim_a, reconciler=engine, result=result)
    hotspots = manifest["execution"]["hotspots"]
    assert hotspots["pair_updates"] > 0
    assert "Person" in hotspots["skew"]
    # Execution-only: the invariant view must not see attribution.
    assert "execution" not in invariant_view(manifest)


def test_engine_checkpoint_carries_no_recorder_state(tiny_pim_a):
    from repro.runtime.checkpoint import engine_state

    clear_similarity_caches()
    engine = Reconciler(tiny_pim_a.store, PimDomainModel(), EngineConfig())
    engine.run()
    state = json.dumps(engine_state(engine))
    assert "flight" not in state
    assert "hotspot" not in state
