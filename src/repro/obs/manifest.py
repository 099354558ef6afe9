"""Run manifests: one machine-readable summary per engine/CLI run.

A ``--run-dir`` run writes every file into its run directory under a
fixed name (:data:`RUN_FILES`): ``run.json`` (this manifest),
``events.jsonl``, ``provenance.jsonl`` and ``trace.json`` always,
``checkpoint.json`` when checkpointing is on and ``crash_bundle.json``
when the run crashed or degraded. The manifest captures the run's
semantic outcome in one place: configuration fingerprint, dataset id,
partition digest, per-class quality against gold, per-iteration
convergence samples, decision counters and degradations. It is the
one machine-readable summary of a run: what ``repro diff`` compares
and ``repro doctor`` / ``repro hotspots`` read.

The manifest is split into an **invariant core** and one
execution-dependent section:

* The core (``run``, ``config``, ``partition``, ``quality``,
  ``convergence``, ``counters``, ``degradations``) is a pure function
  of the dataset and the configuration — byte-identical with telemetry
  on or off, and for a resumed run vs an uninterrupted one.
* ``execution`` holds wall-clock timings, phase attributions, cache
  hit rates (caches restart cold on resume, so their counters are
  execution state, not outcome state) and the resume flag. It is
  excluded by :func:`invariant_view`, which the invariance tests and
  ``repro diff`` compare on.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .flight import CRASH_BUNDLE_FILENAME
from .hotspots import HotspotSketch
from .telemetry import Telemetry

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_FILENAME",
    "RUN_FILES",
    "RunDir",
    "RunDirError",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "load_run_dir",
    "invariant_view",
    "partition_digest",
    "quality_by_class",
]

MANIFEST_VERSION = 2
MANIFEST_FILENAME = "run.json"

#: the fixed name of every file a run writes into its run directory.
RUN_FILES = {
    "manifest": MANIFEST_FILENAME,
    "events": "events.jsonl",
    "provenance": "provenance.jsonl",
    "trace": "trace.json",
    "checkpoint": "checkpoint.json",
    "crash_bundle": CRASH_BUNDLE_FILENAME,
}

#: EngineStats fields that describe the run's *outcome* (deterministic
#: across telemetry on/off and resume) rather than its execution.
_COUNTER_FIELDS = (
    "candidate_pairs",
    "pair_nodes",
    "value_nodes",
    "graph_nodes",
    "recomputations",
    "merges",
    "non_merges",
    "premerged_unions",
    "constraint_pairs",
    "fusions",
    "queue_front_pushes",
    "queue_back_pushes",
    "skipped_weak_fanout",
)

#: (cache name, hits field, misses field) — execution-dependent.
_CACHE_FIELDS = (
    ("values", "values_cache_hits", "values_cache_misses"),
    ("contacts", "contacts_cache_hits", "contacts_cache_misses"),
    ("feature", "feature_cache_hits", "feature_cache_misses"),
    ("pair_memo", "pair_memo_hits", "pair_memo_misses"),
)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def partition_digest(partitions: dict[str, list[list[str]]]) -> str:
    """``sha256:...`` over the canonical JSON form of the partition."""
    return "sha256:" + hashlib.sha256(_canonical(partitions).encode()).hexdigest()


def quality_by_class(
    partitions: dict[str, list[list[str]]], gold_entity_of: dict[str, str]
) -> dict:
    """Per-class pairwise + B-cubed P/R/F against a gold mapping.

    Classes with no gold-covered reference are omitted; an empty gold
    standard yields an empty dict (the manifest still validates).
    """
    # Imported lazily: obs is loaded by repro.core.engine, which the
    # evaluation package itself imports (cycle otherwise).
    from ..evaluation.clustering import bcubed_scores
    from ..evaluation.metrics import pairwise_scores

    quality: dict[str, dict] = {}
    if not gold_entity_of:
        return quality
    for class_name in sorted(partitions):
        clusters = partitions[class_name]
        if not any(ref_id in gold_entity_of for cluster in clusters for ref_id in cluster):
            continue
        pw = pairwise_scores(clusters, gold_entity_of)
        b3 = bcubed_scores(clusters, gold_entity_of)
        quality[class_name] = {
            "pairwise": {
                "precision": round(pw.precision, 6),
                "recall": round(pw.recall, 6),
                "f1": round(pw.f_measure, 6),
            },
            "bcubed": {
                "precision": round(b3.precision, 6),
                "recall": round(b3.recall, 6),
                "f1": round(b3.f_measure, 6),
            },
            "partitions": len(clusters),
        }
    return quality


def _cache_rates(stats) -> dict:
    rates: dict[str, float | None] = {}
    for cache_name, hits_attr, misses_attr in _CACHE_FIELDS:
        hits = getattr(stats, hits_attr)
        misses = getattr(stats, misses_attr)
        total = hits + misses
        rates[cache_name] = round(hits / total, 4) if total else None
    return rates


def build_manifest(
    *,
    dataset,
    reconciler,
    result,
    algorithm: str = "depgraph",
    resumed: bool = False,
) -> dict:
    """Assemble the manifest for one finished run.

    *dataset* is the :class:`~repro.datasets.dataset.Dataset` the run
    reconciled, *reconciler* the finished engine, *result* its
    :class:`~repro.core.result.ReconciliationResult`.
    """
    from ..runtime.checkpoint import config_fingerprint

    stats = reconciler.stats
    telemetry = reconciler.observers.find(Telemetry)
    tracer = getattr(telemetry, "tracer", None)
    phase_seconds = tracer.phase_timings() if tracer is not None else {}
    relay = getattr(telemetry, "relay", None)
    hotspots = reconciler.observers.find(HotspotSketch)
    return {
        "manifest_version": MANIFEST_VERSION,
        "kind": "repro_run_manifest",
        "generated_by": "repro.obs.manifest",
        "run": {
            "dataset": dataset.name,
            "algorithm": algorithm,
            "references": len(dataset.store),
            "completed": result.completed,
            "stop_reason": result.stop_reason,
            "quarantined": len(dataset.quarantined),
        },
        "config": config_fingerprint(reconciler.config),
        "partition": {
            "digest": partition_digest(result.partitions),
            "per_class": {
                class_name: len(clusters)
                for class_name, clusters in sorted(result.partitions.items())
            },
        },
        "quality": quality_by_class(result.partitions, dataset.gold.entity_of),
        "convergence": [dict(sample) for sample in stats.convergence_samples],
        "counters": {name: getattr(stats, name) for name in _COUNTER_FIELDS},
        "degradations": [asdict(event) for event in stats.degradations],
        "execution": {
            "resumed": bool(resumed),
            "build_seconds": round(stats.build_seconds, 6),
            "iterate_seconds": round(stats.iterate_seconds, 6),
            "total_seconds": round(stats.build_seconds + stats.iterate_seconds, 6),
            "phase_seconds": phase_seconds,
            "cache_hit_rates": _cache_rates(stats),
            "parallel_workers": stats.parallel_workers,
            "queue_compactions": getattr(stats, "queue_compactions", 0),
            # Cross-process telemetry: what the relay harvested from
            # scoring-worker lanes (None when no relay was attached).
            # Execution-only by construction — worker timings vary run
            # to run.
            "worker_telemetry": relay.summary() if relay is not None else None,
            # Heavy-hitter workload attribution (blocks / pairs /
            # channels + blocking skew). Wall-time attributions vary
            # run to run, so the whole summary is execution-only.
            "hotspots": hotspots.summary() if hotspots is not None else None,
            "generated_at": round(time.time(), 3),
        },
    }


def write_manifest(
    manifest: dict, run_dir: str | Path, filename: str = MANIFEST_FILENAME
) -> Path:
    """Write *manifest* as ``<run_dir>/run.json``; returns the path."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / filename
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: str | Path) -> dict:
    """Load a manifest from a run directory or a ``run.json`` path."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_FILENAME
    return json.loads(path.read_text())


class RunDirError(ValueError):
    """A run directory that cannot be used: not a directory, or its
    ``run.json`` (or a recorded file the command reads, such as
    ``provenance.jsonl`` or ``crash_bundle.json``) is missing, torn or
    of another manifest version."""


@dataclass(frozen=True)
class RunDir:
    """A recorded run: its directory and its manifest."""

    path: Path
    manifest: dict

    def artifact(self, kind: str) -> Path | None:
        """The run's file of *kind* (a :data:`RUN_FILES` key), when it
        exists."""
        path = self.path / RUN_FILES[kind]
        return path if path.exists() else None


def load_run_dir(path: str | Path) -> RunDir:
    """The one loader of the run-dir commands: a run directory (or its
    ``run.json``), or :class:`RunDirError` with a one-line message when
    the manifest is missing, torn, not a manifest or of another
    :data:`MANIFEST_VERSION`."""
    path = Path(path)
    try:
        manifest = load_manifest(path)
    except FileNotFoundError:
        raise RunDirError(f"no {MANIFEST_FILENAME} found at {path}") from None
    except (OSError, ValueError) as exc:
        raise RunDirError(f"unreadable {MANIFEST_FILENAME} at {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise RunDirError(f"{MANIFEST_FILENAME} at {path} is not a run manifest")
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise RunDirError(
            f"{MANIFEST_FILENAME} at {path} has manifest_version {version}, "
            f"expected {MANIFEST_VERSION}"
        )
    return RunDir(path if path.is_dir() else path.parent, manifest)


def invariant_view(manifest: dict) -> dict:
    """The manifest minus its execution-dependent section.

    Two runs of the same dataset under the same configuration must
    produce byte-equal invariant views regardless of telemetry sinks
    or checkpoint/resume interruptions; the invariance tests and
    ``repro diff`` compare this view.
    """
    return {key: value for key, value in manifest.items() if key != "execution"}
