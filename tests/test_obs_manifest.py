"""Run manifests: schema validity, round-trip, and the invariance
contract — the manifest's invariant view (everything but the
``execution`` section) must be byte-equal with
telemetry on or off, and for a resumed run vs an uninterrupted one,
on every benchmark dataset."""

import json

import pytest

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_pim_dataset
from repro.domains import CoraDomainModel, PimDomainModel
from repro.obs import (
    FlightRecorder,
    HotspotSketch,
    ProvenanceLog,
    SchemaError,
    Telemetry,
    Tracer,
    build_manifest,
    invariant_view,
    load_manifest,
    partition_digest,
    load_run_dir,
    validate_manifest,
    write_manifest,
)
from repro.runtime import Checkpointer, CrashAtStep, InjectedFault

DATASETS = ["A", "B", "C", "D", "cora"]


@pytest.fixture(scope="module")
def datasets(tiny_cora):
    loaded = {
        name: generate_pim_dataset(name, scale=0.15) for name in "ABCD"
    }
    loaded["cora"] = tiny_cora
    return loaded


def _domain(name):
    return CoraDomainModel() if name == "cora" else PimDomainModel()


def _run(dataset, name, *, observers=None, every=25):
    engine = Reconciler(
        dataset.store, _domain(name), EngineConfig(), observers=observers
    )
    engine.attach_convergence(dataset.gold.entity_of, every=every)
    result = engine.run()
    return build_manifest(dataset=dataset, reconciler=engine, result=result)


def _canon(view: dict) -> str:
    return json.dumps(view, sort_keys=True)


class TestManifestShape:
    def test_validates_and_round_trips(self, datasets, tmp_path):
        manifest = _run(datasets["B"], "B")
        validate_manifest(manifest)
        path = write_manifest(manifest, tmp_path)
        assert path.name == "run.json"
        assert _canon(load_manifest(tmp_path)) == _canon(manifest)
        assert _canon(load_manifest(path)) == _canon(manifest)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: m.pop("counters"),
            lambda m: m["partition"].update(digest="md5:abc"),
            lambda m: m["counters"].update(merges=-1),
            lambda m: m["convergence"].append({"merges": 1}),
            lambda m: next(iter(m["quality"].values()))["bcubed"].update(f1=1.5),
        ],
        ids=["no-counters", "digest", "negative-counter", "sample", "f1-range"],
    )
    def test_validator_rejects_damaged_manifests(self, datasets, damage):
        manifest = json.loads(json.dumps(_run(datasets["B"], "B")))
        damage(manifest)
        with pytest.raises(SchemaError):
            validate_manifest(manifest)

    def test_partition_digest_tracks_content(self):
        base = {"Person": [["a", "b"], ["c"]]}
        assert partition_digest(base) == partition_digest(
            {"Person": [["a", "b"], ["c"]]}
        )
        assert partition_digest(base) != partition_digest(
            {"Person": [["a"], ["b", "c"]]}
        )

    def test_quality_and_convergence_recorded(self, datasets):
        manifest = _run(datasets["B"], "B")
        assert manifest["quality"], "gold datasets must produce quality"
        for scores in manifest["quality"].values():
            for family in ("pairwise", "bcubed"):
                for metric in ("precision", "recall", "f1"):
                    assert 0.0 <= scores[family][metric] <= 1.0
        samples = manifest["convergence"]
        assert len(samples) >= 2
        # keyed by the recomputation counter, strictly increasing, and
        # the last sample reflects the finished run
        keys = [sample["recomputations"] for sample in samples]
        assert keys == sorted(set(keys))
        assert samples[-1]["merges"] == manifest["counters"]["merges"]
        assert samples[-1]["queued"] == 0

    def test_artifact_is_a_fixed_name_lookup(self, datasets, tmp_path):
        run_dir = write_manifest(_run(datasets["A"], "A"), tmp_path / "run").parent
        (run_dir / "provenance.jsonl").write_text("")
        # A moved run directory keeps working: names, not paths.
        moved = run_dir.rename(tmp_path / "moved")
        run = load_run_dir(moved / "run.json")
        assert run.path == moved
        assert run.artifact("provenance") == moved / "provenance.jsonl"
        assert run.artifact("trace") is None


class TestInvariance:
    @pytest.mark.parametrize("name", DATASETS)
    def test_telemetry_on_vs_off(self, datasets, name, tmp_path):
        dataset = datasets[name]
        bare = _run(dataset, name, observers=())
        telemetry = Telemetry(
            tracer=Tracer(),
            provenance=ProvenanceLog(tmp_path / f"{name}.jsonl"),
        )
        observed = _run(
            dataset,
            name,
            observers=[telemetry, FlightRecorder(), HotspotSketch()],
        )
        assert _canon(invariant_view(bare)) == _canon(invariant_view(observed))
        # the promise is specifically about these two:
        assert bare["partition"]["digest"] == observed["partition"]["digest"]
        assert _canon(bare["quality"]) == _canon(observed["quality"])

    @pytest.mark.parametrize("name", DATASETS)
    def test_resumed_vs_uninterrupted(self, datasets, name, tmp_path):
        dataset = datasets[name]
        uninterrupted = _run(dataset, name)

        engine = Reconciler(
            dataset.store, _domain(name), EngineConfig(), observers=[CrashAtStep(35)]
        )
        engine.attach_convergence(dataset.gold.entity_of, every=25)
        checkpointer = Checkpointer(tmp_path / name, every=10)
        with pytest.raises(InjectedFault):
            engine.run(checkpointer=checkpointer)
        resumed = Reconciler.resume(
            checkpointer.path, store=dataset.store, domain=_domain(name)
        )
        resumed.attach_convergence(dataset.gold.entity_of, every=25)
        result = resumed.run()
        manifest = build_manifest(
            dataset=dataset, reconciler=resumed, result=result, resumed=True
        )
        assert manifest["execution"]["resumed"] is True
        assert _canon(invariant_view(uninterrupted)) == _canon(
            invariant_view(manifest)
        )
        assert uninterrupted["partition"]["digest"] == manifest["partition"]["digest"]
        assert _canon(uninterrupted["quality"]) == _canon(manifest["quality"])
        # samples are keyed by the checkpointed recomputation counter,
        # so the resumed run reproduces them exactly, boundary included
        assert uninterrupted["convergence"] == manifest["convergence"]
