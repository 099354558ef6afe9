"""Cross-run diffing: a run against itself is clean (exit 0); two runs
differing in one channel threshold localize the flip to that channel
with the recorded before/after scores and a root-cause chain that
terminates at a seed decision."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.obs import (
    FlightRecorder,
    HotspotSketch,
    ProvenanceLog,
    Telemetry,
    build_manifest,
    diff_runs,
    render_diff,
    write_manifest,
)
from repro.obs.diffing import final_merges, root_cause_chain

TWEAKED_CHANNEL = "name"
TWEAKED_THRESHOLD = 0.97


def _tweaked_domain():
    """A PIM domain whose Person name channel discards sub-0.97
    evidence — one knob turned, everything else identical."""
    domain = PimDomainModel()
    domain._atomic["Person"] = tuple(
        dataclasses.replace(channel, liberal_threshold=TWEAKED_THRESHOLD)
        if channel.name == TWEAKED_CHANNEL
        else channel
        for channel in domain._atomic["Person"]
    )
    return domain


def _record_run(dataset, domain, run_dir):
    run_dir.mkdir(parents=True, exist_ok=True)
    log = ProvenanceLog(run_dir / "provenance.jsonl")
    engine = Reconciler(
        dataset.store,
        domain,
        EngineConfig(),
        observers=[Telemetry(provenance=log), FlightRecorder(), HotspotSketch()],
    )
    engine.attach_convergence(dataset.gold.entity_of, every=50)
    result = engine.run()
    manifest = build_manifest(
        dataset=dataset,
        reconciler=engine,
        result=result,
    )
    write_manifest(manifest, run_dir)
    log.close()
    return manifest, log


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("diff_runs")
    dataset = generate_pim_dataset("B", scale=0.15)
    base = _record_run(dataset, PimDomainModel(), root / "base")
    tweaked = _record_run(dataset, _tweaked_domain(), root / "tweaked")
    return {"root": root, "base": base, "tweaked": tweaked}


class TestSelfDiff:
    def test_verdict_is_clean(self, runs):
        manifest, provenance = runs["base"]
        verdict = diff_runs(
            manifest, manifest, provenance_a=provenance, provenance_b=provenance
        )
        assert not verdict.regressed
        assert not verdict.quality_regressions
        assert not verdict.flipped_pairs
        assert not verdict.partition_changed
        assert verdict.to_dict()["regressed"] is False

    def test_cli_self_diff_exits_zero(self, runs, tmp_path, capsys):
        base_dir = str(runs["root"] / "base")
        verdict_path = tmp_path / "verdict.json"
        code = main(["diff", base_dir, base_dir, "--json", str(verdict_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: clean" in out
        payload = json.loads(verdict_path.read_text())
        assert payload["regressed"] is False
        assert payload["flipped_pairs"] == []


class TestThresholdTweak:
    def test_flip_attributed_to_the_tweaked_channel(self, runs):
        manifest_a, provenance_a = runs["base"]
        manifest_b, provenance_b = runs["tweaked"]
        verdict = diff_runs(
            manifest_a,
            manifest_b,
            provenance_a=provenance_a,
            provenance_b=provenance_b,
        )
        assert verdict.regressed
        assert verdict.partition_changed
        assert verdict.flips_total >= 1
        flips = [
            flip
            for flip in verdict.flipped_pairs
            if flip["attribution"]["channel"] == TWEAKED_CHANNEL
        ]
        assert flips, "no flip attributed to the tweaked channel"
        for flip in flips:
            attribution = flip["attribution"]
            pair = tuple(flip["pair"])
            # before/after channel scores must be the recorded ones
            record_a = provenance_a.last_decision(*pair)
            expected_a = record_a.channels.get(TWEAKED_CHANNEL, 0.0)
            assert attribution["channel_score_a"] == pytest.approx(expected_a)
            record_b = provenance_b.last_decision(*pair)
            expected_b = (
                record_b.channels.get(TWEAKED_CHANNEL, 0.0) if record_b else 0.0
            )
            assert (attribution["channel_score_b"] or 0.0) == pytest.approx(expected_b)
        # raising a liberal threshold can only lose merges
        assert all(
            flip["direction"] == "merged->unmerged" for flip in verdict.flipped_pairs
        )

    def test_quality_regression_detected(self, runs):
        manifest_a, _ = runs["base"]
        manifest_b, _ = runs["tweaked"]
        verdict = diff_runs(manifest_a, manifest_b)
        recalls = [
            entry
            for entry in verdict.quality_regressions
            if entry["metric"] == "recall" and entry["class"] == "Person"
        ]
        assert recalls, "Person recall should regress when name evidence is cut"
        for entry in recalls:
            assert entry["delta"] < 0
            assert entry["a"] == manifest_a["quality"]["Person"][entry["family"]]["recall"]
            assert entry["b"] == manifest_b["quality"]["Person"][entry["family"]]["recall"]

    def test_root_cause_chain_terminates_at_seed(self, runs):
        _, provenance = runs["base"]
        merges = final_merges(provenance)
        propagated = [
            record
            for record in merges.values()
            if record.trigger not in ("seed", "incremental")
        ]
        assert propagated, "expected at least one propagation-triggered merge"
        seed_rooted = 0
        for record in propagated[:10]:
            chain = root_cause_chain(provenance, record)
            assert chain[-1]["pair"] == list(record.pair)
            root = chain[0]
            if root["trigger"] in ("seed", "incremental"):
                seed_rooted += 1
                continue
            # the only other legal root is a decision with no upstream
            # link to walk (e.g. a fusion-triggered merge)
            root_records = provenance.decisions_for(*root["pair"])
            assert any(
                rec.trigger == root["trigger"] and not rec.trigger_pair
                for rec in root_records
            ), chain
        assert seed_rooted, "no chain walked back to a seed decision"

    def test_cli_diff_exits_nonzero_and_renders(self, runs, capsys):
        base_dir = str(runs["root"] / "base")
        tweaked_dir = str(runs["root"] / "tweaked")
        code = main(["diff", base_dir, tweaked_dir])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSED" in out
        assert f"channel {TWEAKED_CHANNEL}:" in out
        assert "root cause:" in out

    def test_render_diff_is_byte_stable(self, runs):
        manifest_a, provenance_a = runs["base"]
        manifest_b, provenance_b = runs["tweaked"]
        texts = [
            render_diff(
                diff_runs(
                    manifest_a,
                    manifest_b,
                    provenance_a=provenance_a,
                    provenance_b=provenance_b,
                )
            )
            for _ in range(2)
        ]
        assert texts[0] == texts[1]
        assert texts[0].endswith("verdict: REGRESSED")


class TestPhaseAndDegradation:
    def test_phase_slowdown_needs_tolerance_and_floor(self):
        manifest_a = {
            "run": {"dataset": "X"},
            "execution": {
                "build_seconds": 1.0,
                "iterate_seconds": 0.01,
                "phase_seconds": {"build": 1.0, "iterate": 0.01},
            },
        }
        manifest_b = {
            "run": {"dataset": "X"},
            "execution": {
                "build_seconds": 1.5,
                "iterate_seconds": 0.02,
                "phase_seconds": {"build": 1.5, "iterate": 0.02},
            },
        }
        verdict = diff_runs(manifest_a, manifest_b)
        phases = {entry["phase"] for entry in verdict.phase_regressions}
        # build: +50% and +0.5s -> gated; iterate: +100% but only +0.01s
        # (under the floor) -> ignored
        assert phases == {"build"}
        assert verdict.regressed

    def test_new_degradation_and_completion_gate(self):
        manifest_a = {"run": {"completed": True}, "degradations": []}
        manifest_b = {
            "run": {"completed": False},
            "degradations": [{"kind": "deadline", "detail": "budget"}],
        }
        verdict = diff_runs(manifest_a, manifest_b)
        assert verdict.completed_regression
        assert verdict.new_degradations == ["deadline"]
        assert verdict.regressed
