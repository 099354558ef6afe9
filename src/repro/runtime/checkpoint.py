"""Checkpoint / resume for the reconciliation engine.

A checkpoint is one JSON document::

    {"version": 3, "checksum": "<sha256 of canonical payload>", "payload": {...}}

where the payload captures the *complete* mutable engine state at an
iterate-step boundary: union-find parents/sizes/enemies, the active
queue in pop order, every pair node with its scores, statuses, edges
and value evidence, the alias table from enrichment fusion, cluster
membership, and the run counters. Restoring it into a fresh
:class:`~repro.core.engine.Reconciler` (over the same store, domain and
configuration) therefore continues the run exactly where it stopped,
and — because iteration is deterministic — converges to the same
partition an uninterrupted run produces.

Writes are atomic: the document goes to a temporary file in the target
directory, is fsynced, then renamed over the previous checkpoint, so a
crash mid-write can never corrupt the last good checkpoint. Reads
verify the checksum and raise a typed :class:`CheckpointError` on any
damage.

Telemetry is deliberately *absent* from checkpoints: nothing the
:mod:`repro.obs` sinks produce (event timestamps, span ids, decision
sequence numbers) enters :func:`engine_state` or
:func:`config_fingerprint`, so a run checkpointed with telemetry on
resumes cleanly with it off (and vice versa), and byte-identical
engine state fingerprints identically regardless of observability.
File-backed sinks open in append mode, so a resumed run continues the
original run's event log and audit trail coherently.

Convergence samples (:attr:`EngineStats.convergence_samples`, feeding
the run manifest) are *engine* state, not telemetry: they ride through
checkpoints inside the stats dict, and because sampling is keyed by
the checkpointed recomputation counter — never steps or wall-clock —
a resumed run reproduces an uninterrupted run's samples exactly. That
is what lets ``run.json`` manifests satisfy their invariance contract
(:func:`repro.obs.manifest.invariant_view`) across interruptions.

The version changes whenever the payload's shape does, so a file from
another code generation is refused with a typed :class:`CheckpointError`
instead of failing inside ``EngineStats``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from ..core.engine import EngineStats, Reconciler
from ..core.graph import DependencyGraph
from ..core.partition import UnionFind
from ..core.queue import ActiveQueue
from .errors import CheckpointError
from .fsutil import atomic_write_text
from .guards import DegradationEvent

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "config_fingerprint",
    "engine_state",
    "load_checkpoint",
    "restore_engine",
    "save_checkpoint",
]

CHECKPOINT_VERSION = 3


def config_fingerprint(config) -> dict:
    """Canonical form of an EngineConfig, for mismatch detection."""
    return {
        "propagate": config.propagate,
        "enrich": config.enrich,
        "constraints": config.constraints,
        "premerge_keys": config.premerge_keys,
        "epsilon": config.epsilon,
        "disabled_channels": sorted(config.disabled_channels),
        "disabled_strong": sorted(list(pair) for pair in config.disabled_strong),
        "disabled_weak": sorted(config.disabled_weak),
        "max_recomputations": config.max_recomputations,
        "max_block_size": config.max_block_size,
        "strong_to_front": config.strong_to_front,
    }


def engine_state(engine: Reconciler) -> dict:
    """Snapshot every piece of mutable engine state as JSON-ready data."""
    return {
        "config": config_fingerprint(engine.config),
        "built": engine._built,
        "stop_reason": engine.stop_reason,
        "uf": engine.uf.state_dict(),
        "queue": engine.queue.snapshot(),
        "graph": engine.graph.snapshot(),
        "members": {
            root: list(members) for root, members in engine._members.items()
        },
        "stats": asdict(engine.stats),
    }


def restore_engine(engine: Reconciler, state: dict) -> None:
    """Load *state* (from :func:`load_checkpoint`) into *engine*.

    The engine must be freshly constructed over the same store, domain
    and configuration as the checkpointed run; a configuration mismatch
    raises :class:`CheckpointError` because resuming under different
    switches would silently change the semantics of already-taken
    decisions.
    """
    fingerprint = config_fingerprint(engine.config)
    if state["config"] != fingerprint:
        raise CheckpointError(
            "checkpoint was written under a different engine configuration; "
            "resume with the original config"
        )
    # A fresh union-find: the engine re-attaches its merge listeners
    # (runtime state, never serialised) and drops its result cache.
    engine._use_union_find(UnionFind.from_state_dict(state["uf"]))
    engine.queue = ActiveQueue.from_snapshot(state["queue"])
    engine.graph = DependencyGraph.from_snapshot(state["graph"])
    stats_data = dict(state["stats"])
    stats_data["degradations"] = [
        DegradationEvent(**event) for event in stats_data["degradations"]
    ]
    engine.stats = EngineStats(**stats_data)
    engine._members = {
        root: list(members) for root, members in state["members"].items()
    }
    engine._values_cache = {}
    engine._contacts_cache = {}
    engine._contacts_rdeps = {}
    engine._pair_score_memo = {}
    engine.stop_reason = state["stop_reason"]
    engine._built = state["built"]
    engine._per_class_nodes = {}
    for node in engine.graph.nodes():
        engine._per_class_nodes.setdefault(node.class_name, []).append(node)
    _rebuild_block_indexes(engine)


def _rebuild_block_indexes(engine: Reconciler) -> None:
    """Re-derive the per-class blocking indexes from the store.

    The indexes only matter for incremental adds after the resume;
    they are keyed by the *current* cluster roots (the original run
    keyed them by pre-iterate roots), which `IncrementalReconciler`
    already tolerates by re-resolving roots on every candidate pair.
    """
    from ..core.blocking import BlockingIndex

    for class_name in engine.domain.class_order():
        index = BlockingIndex(max_block_size=engine.config.max_block_size)
        for reference in engine.store.of_class(class_name):
            index.add(
                engine._elem(reference.ref_id),
                engine.domain.blocking_keys(reference),
            )
        engine._block_indexes[class_name] = index


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_checkpoint(engine: Reconciler, path: str | Path) -> Path:
    """Atomically write *engine*'s state to *path*; returns the path."""
    path = Path(path)
    payload = engine_state(engine)
    body = _canonical(payload)
    document = _canonical(
        {
            "version": CHECKPOINT_VERSION,
            "checksum": hashlib.sha256(body.encode()).hexdigest(),
            "payload": json.loads(body),
        }
    )
    return atomic_write_text(path, document)


def load_checkpoint(path: str | Path) -> dict:
    """Read and verify a checkpoint; returns its payload.

    Raises :class:`CheckpointError` for anything untrustworthy: missing
    or unreadable file, invalid JSON, a version from a different code
    generation, or a checksum mismatch (truncated / bit-flipped file).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (corrupt or truncated): {exc}"
        ) from exc
    if (
        not isinstance(document, dict)
        or "payload" not in document
        or "checksum" not in document
    ):
        raise CheckpointError(f"checkpoint {path} is missing its envelope")
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {document.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    body = _canonical(document["payload"])
    if hashlib.sha256(body.encode()).hexdigest() != document["checksum"]:
        raise CheckpointError(
            f"checkpoint {path} failed its checksum (corrupt or truncated)"
        )
    return document["payload"]


class Checkpointer:
    """Periodic checkpoint writer handed to :meth:`Reconciler.run`.

    Saves to ``<directory>/<filename>`` every ``every`` iterate steps
    (including step 0, so even a run killed on its first step leaves a
    resumable checkpoint behind). Each save atomically replaces the
    previous one.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 200,
        filename: str = "checkpoint.json",
    ) -> None:
        self.directory = Path(directory)
        self.every = max(1, int(every))
        self.path = self.directory / filename
        self.saves = 0

    def maybe_save(self, engine: Reconciler, step: int) -> Path | None:
        if step % self.every == 0:
            return self.save(engine)
        return None

    def save(self, engine: Reconciler) -> Path:
        save_checkpoint(engine, self.path)
        self.saves += 1
        return self.path
