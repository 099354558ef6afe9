"""The trace target table and the per-layer metrics derived from it.

Every target is named by the module that defines it and its qualified
name there; :class:`~tracer.Tracer` also replaces it in every module
that imported it by name. A target the code no longer has is reported
as absent, never as a crash.

``EXERCISED_BY`` names, per target, the workloads whose traced op must
call it; ``test_perfbench.py`` checks each fires there.
"""

from __future__ import annotations

from tracer import Target

E = "repro.core.engine"
G = "repro.core.graph"

#: Whole runs build the graph; the incremental workload's traced op is
#: one add, which folds references into an existing graph.
RUNS = ("pim-batch", "cora-batch", "pim-audited")
ALL = RUNS + ("pim-incremental",)
PIM = ("pim-batch", "pim-incremental")
INC = ("pim-incremental",)
AUD = ("pim-audited",)

#: (target, workloads whose traced op must call it)
_TABLE = [
    # core.references / core.incremental: the per-update path
    (Target("repro.core.references", "ReferenceStore.validate", "references.validate"), ALL),
    (Target("repro.core.incremental", "IncrementalReconciler.add", "incremental.add", "span"), INC),
    (Target("repro.core.incremental", "IncrementalReconciler._build_new_nodes", "incremental.new_nodes"), INC),
    (Target("repro.core.incremental", "IncrementalReconciler._wire_new_nodes", "incremental.wire"), INC),
    (Target("repro.core.incremental", "IncrementalReconciler._wire_new_weak_edges", "incremental.weak_rewire"), INC),
    (Target(E, "Reconciler._result", "engine.result"), ALL),
    # similarity kernels and comparators
    (Target("repro.similarity.strings", "damerau_levenshtein_within", "similarity.edit_distance"), PIM),
    (Target("repro.similarity.strings", "damerau_levenshtein_distance", "similarity.edit_distance"), ("pim-batch",)),
    (Target("repro.similarity.names", "name_similarity", "similarity.name"), PIM),
    (Target("repro.similarity.name_email", "name_email_similarity", "similarity.name"), PIM),
    (Target("repro.similarity.titles", "title_similarity_features", "similarity.title"), ("pim-batch",)),
    (Target("repro.similarity.venues", "venue_similarity_features", "similarity.venue"), ("pim-batch",)),
    (Target("repro.similarity.emails", "email_similarity_features", "similarity.email"), ("pim-batch",)),
    # perf: feature cache and value-pair scoring
    (Target("repro.perf.features", "FeatureCache.get", "features.extract"), ALL),
    (Target("repro.perf.scoring", "pair_evidence", "scoring.evidence"), PIM),
    # core.blocking and the domains' key functions
    (Target("repro.core.blocking", "BlockingIndex.add", "blocking"), RUNS),
    (Target("repro.core.blocking", "BlockingIndex.pairs", "blocking"), RUNS),
    (Target("repro.core.blocking", "BlockingIndex.add_and_pairs", "blocking"), INC),
    (Target("repro.domains.pim", "PimDomainModel.blocking_keys", "blocking"), ("pim-batch",)),
    (Target("repro.domains.cora", "CoraDomainModel.blocking_keys", "blocking"), ("cora-batch",)),
    # core.engine: phases and per-step methods
    (Target(E, "Reconciler.run", "engine.run", "span"), ALL),
    (Target(E, "Reconciler.build", "engine.build", "span"), RUNS),
    (Target(E, "Reconciler._build_class_nodes", "engine.build_class", "span"), RUNS),
    (Target(E, "Reconciler._wire_association_edges", "engine.wire_association", "span"), RUNS),
    (Target(E, "Reconciler._wire_weak_edges", "engine.wire_weak", "span"), RUNS),
    (Target(E, "Reconciler._install_distinct_pairs", "engine.constraints", "span"), RUNS),
    (Target(E, "Reconciler._iterate_loop", "engine.iterate", "span"), ALL),
    (Target(E, "Reconciler._process", "engine.process", "count"), ALL),
    (Target(E, "Reconciler._compute", "engine.compute"), ALL),
    (Target(E, "Reconciler._assoc_score", "engine.assoc_score"), RUNS),
    (Target(E, "Reconciler._strong_count", "engine.support"), ALL),
    (Target(E, "Reconciler._weak_count", "engine.support"), ("pim-batch",)),
    (Target(E, "Reconciler._propagate_merge", "engine.propagate"), ALL),
    (Target(E, "Reconciler._activate", "engine.propagate"), ALL),
    (Target(E, "Reconciler._enrich", "engine.enrich"), ALL),
    (Target(E, "Reconciler._element_values", "engine.element_values"), ALL),
    (Target(E, "Reconciler._sample_convergence", "obs.convergence"), AUD),
    # core.graph / core.partition / core.queue: bookkeeping
    (Target(G, "DependencyGraph.resolve", "graph.resolve", "count"), ALL),
    (Target(G, "DependencyGraph.merge_elements", "graph.merge_elements"), ALL),
    (Target(G, "DependencyGraph.drop_self_references", "graph.drop_self_references"), ALL),
    (Target("repro.core.partition", "UnionFind.find", "partition.find", "count"), ALL),
    (Target("repro.core.queue", "ActiveQueue.pop", "queue.pop", "count"), ALL),
    # obs: the always-on observers and the run-dir sinks
    (Target("repro.obs.flight", "FlightRecorder.note_event", "obs.flight"), ALL),
    (Target("repro.obs.flight", "FlightRecorder.note_decision", "obs.flight"), ALL),
    (Target("repro.obs.flight", "FlightRecorder.note_chunk", "obs.flight"), AUD),
    (Target("repro.obs.hotspots", "HotspotSketch.note_blocks", "obs.hotspots"), RUNS),
    (Target("repro.obs.hotspots", "HotspotSketch.note_pair", "obs.hotspots"), ALL),
    (Target("repro.obs.hotspots", "HotspotSketch.note_channels", "obs.hotspots"), ALL),
    (Target("repro.obs.hotspots", "HotspotSketch.summary", "obs.hotspots"), AUD),
    (Target("repro.obs.provenance", "ProvenanceLog.record", "obs.provenance"), AUD),
    (Target("repro.obs.provenance", "ProvenanceLog.note_activation", "obs.provenance"), AUD),
    (Target("repro.obs.provenance", "ProvenanceLog.take_activation", "obs.provenance"), AUD),
    (Target("repro.obs.events", "EventLog.emit", "obs.events"), AUD),
    (Target("repro.obs.telemetry", "Telemetry.emit", "obs.events"), AUD),
    (Target("repro.obs.manifest", "build_manifest", "obs.manifest", "span"), AUD),
    (Target("repro.obs.manifest", "write_manifest", "obs.manifest", "span"), AUD),
    (Target("repro.obs.relay", "TelemetryRelay.absorb", "obs.relay"), AUD),
    (Target("repro.obs.relay", "TelemetryRelay.summary", "obs.relay"), AUD),
    # datasets.io / evaluation / cli
    (Target("repro.datasets.io", "load_dataset", "io.load", "span"), AUD),
    (Target("repro.evaluation.metrics", "pairwise_scores", "evaluation.quality"), AUD),
    (Target("repro.evaluation.clustering", "bcubed_scores", "evaluation.quality"), AUD),
    (Target("repro.cli", "main", "cli.main", "span"), AUD),
    # runtime.supervisor / perf.parallel: the supervised parallel build
    (Target("repro.runtime.supervisor", "SupervisedScorer.score", "supervisor.score", "span"), AUD),
    (Target("repro.runtime.supervisor", "SupervisedScorer._absorb_chunk", "supervisor.chunk", "count"), AUD),
    (Target("repro.perf.parallel", "make_chunks", "parallel.make_chunks"), AUD),
]

TARGETS = [target for target, _ in _TABLE]
EXERCISED_BY = {target: where for target, where in _TABLE}

#: Layers whose self time is orchestration no named layer claims; their
#: self time (plus the op root's) is ``trace.unattributed_share``.
CONTAINER_LAYERS = (
    "engine.run",
    "engine.build",
    "engine.build_class",
    "engine.iterate",
    "incremental.add",
    "cli.main",
)

#: name -> (unit, description). The order is the order of BENCHMARK.json.
PER_LAYER = {
    "references.validate_calls": ("count", "ReferenceStore.validate calls"),
    "references.validate_s": ("s", "time in ReferenceStore.validate"),
    "incremental.add_s": ("s", "time in IncrementalReconciler.add"),
    "incremental.weak_rewire_s": ("s", "time rebuilding the weak-edge inverse index per add"),
    "incremental.new_pair_nodes": ("count", "pair nodes created by the adds"),
    "engine.result_s": ("s", "time building the result partition"),
    "similarity.edit_distance_calls": ("count", "bounded and unbounded edit-distance kernel calls"),
    "similarity.edit_distance_s": ("s", "time in the edit-distance kernels"),
    "similarity.name_s": ("s", "time in the name and name-email comparators"),
    "similarity.title_s": ("s", "time in the title fast comparator"),
    "similarity.venue_s": ("s", "time in the venue fast comparator"),
    "features.extract_s": ("s", "time in FeatureCache.get, hits included"),
    "features.hit_rate": ("ratio", "feature cache hits / lookups"),
    "scoring.evidence_calls": ("count", "pair_evidence calls"),
    "scoring.evidence_s": ("s", "time in pair_evidence"),
    "scoring.memo_hit_rate": ("ratio", "value-pair memo hits / lookups"),
    "scoring.prefilter_skips": ("count", "comparisons skipped by the upper bound"),
    "blocking.s": ("s", "time in blocking keys, index adds and pair enumeration"),
    "blocking.candidate_pairs": ("count", "candidate pairs"),
    "blocking.node_yield": ("ratio", "pair nodes / candidate pairs"),
    "engine.build_s": ("s", "time in Reconciler.build"),
    "engine.wire_association_s": ("s", "time wiring association and strong edges"),
    "engine.wire_weak_s": ("s", "time wiring weak edges"),
    "engine.iterate_s": ("s", "time in the iterate loop"),
    "engine.compute_s": ("s", "time in Reconciler._compute"),
    "engine.assoc_score_s": ("s", "time in association-channel scoring"),
    "engine.support_s": ("s", "time counting strong and weak support"),
    "engine.propagate_s": ("s", "time activating neighbours"),
    "engine.enrich_s": ("s", "time in enrichment (fusion included)"),
    "engine.element_values_s": ("s", "time pooling cluster values"),
    "engine.recomputations": ("count", "node recomputations"),
    "engine.merge_yield": ("ratio", "merges / recomputations"),
    "engine.values_cache_hit_rate": ("ratio", "pooled-values cache hits / lookups"),
    "engine.contacts_cache_hit_rate": ("ratio", "contact-root cache hits / lookups"),
    "graph.resolve_calls": ("count", "DependencyGraph.resolve calls"),
    "graph.pair_nodes": ("count", "pair nodes created"),
    "graph.fusions": ("count", "cluster merges folded into the graph"),
    "graph.merge_elements_s": ("s", "time in DependencyGraph.merge_elements"),
    "graph.drop_self_references_calls": ("count", "drop_self_references calls"),
    "graph.drop_self_references_s": ("s", "time in drop_self_references"),
    "partition.find_calls": ("count", "UnionFind.find calls"),
    "partition.unions": ("count", "effective unions"),
    "queue.pops": ("count", "ActiveQueue.pop calls"),
    "queue.stale_pop_ratio": ("ratio", "pops of dead or inactive nodes / pops"),
    "queue.compactions": ("count", "queue deque rebuilds"),
    "obs.flight_s": ("s", "time in the flight recorder"),
    "obs.hotspots_s": ("s", "time in the hotspot sketch"),
    "obs.convergence_s": ("s", "time in convergence sampling"),
    "obs.provenance_s": ("s", "time in the provenance log"),
    "obs.provenance_records": ("count", "provenance records written"),
    "obs.events_s": ("s", "time emitting events"),
    "obs.manifest_s": ("s", "time building and writing the manifest"),
    "obs.relay_s": ("s", "time absorbing worker telemetry"),
    "obs.artifact_bytes": ("bytes", "bytes written to the run directory"),
    "io.load_s": ("s", "time loading the dataset from disk"),
    "evaluation.quality_s": ("s", "time in pairwise and B-cubed scoring"),
    "supervisor.score_s": ("s", "time the parent waits on the build pool"),
    "supervisor.chunks": ("count", "chunks harvested from the build pool"),
    "supervisor.retries": ("count", "chunk retries"),
    "parallel.child_cpu_s": ("s", "CPU time of reaped worker processes"),
    "trace.overhead_ratio": ("ratio", "traced op time / untraced median op time"),
    "trace.unattributed_share": ("ratio", "op time no named layer covers / op time"),
}


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(tracer, counters: dict, extra: dict) -> dict:
    """Every per-layer metric from a finished traced op.

    *counters* are the engine counters the op moved (see
    ``workloads.engine_counters``), *extra* the values measured around
    the op (child CPU, artifact bytes, overhead, new pair nodes).
    """
    total = tracer.layer_total
    calls = tracer.layer_calls
    counter = lambda name: counters.get(name, 0)  # noqa: E731
    recomputations = counter("recomputations")
    pops = calls("queue.pop")
    candidate_pairs = counter("candidate_pairs")
    pair_nodes = counter("pair_nodes")
    values = {
        "references.validate_calls": calls("references.validate"),
        "references.validate_s": total("references.validate"),
        "incremental.add_s": total("incremental.add"),
        "incremental.weak_rewire_s": total("incremental.weak_rewire"),
        "incremental.new_pair_nodes": extra.get("new_pair_nodes", 0),
        "engine.result_s": total("engine.result"),
        "similarity.edit_distance_calls": calls("similarity.edit_distance"),
        "similarity.edit_distance_s": total("similarity.edit_distance"),
        "similarity.name_s": total("similarity.name"),
        "similarity.title_s": total("similarity.title"),
        "similarity.venue_s": total("similarity.venue"),
        "features.extract_s": total("features.extract"),
        "features.hit_rate": _rate(
            counter("feature_cache_hits"), counter("feature_cache_misses")
        ),
        "scoring.evidence_calls": calls("scoring.evidence"),
        "scoring.evidence_s": total("scoring.evidence"),
        "scoring.memo_hit_rate": _rate(
            counter("pair_memo_hits"), counter("pair_memo_misses")
        ),
        "scoring.prefilter_skips": counter("prefilter_skips"),
        "blocking.s": total("blocking"),
        "blocking.candidate_pairs": candidate_pairs,
        "blocking.node_yield": pair_nodes / candidate_pairs if candidate_pairs else 0.0,
        "engine.build_s": total("engine.build"),
        "engine.wire_association_s": total("engine.wire_association"),
        "engine.wire_weak_s": total("engine.wire_weak"),
        "engine.iterate_s": total("engine.iterate"),
        "engine.compute_s": total("engine.compute"),
        "engine.assoc_score_s": total("engine.assoc_score"),
        "engine.support_s": total("engine.support"),
        "engine.propagate_s": total("engine.propagate"),
        "engine.enrich_s": total("engine.enrich"),
        "engine.element_values_s": total("engine.element_values"),
        "engine.recomputations": recomputations,
        "engine.merge_yield": counter("merges") / recomputations if recomputations else 0.0,
        "engine.values_cache_hit_rate": _rate(
            counter("values_cache_hits"), counter("values_cache_misses")
        ),
        "engine.contacts_cache_hit_rate": _rate(
            counter("contacts_cache_hits"), counter("contacts_cache_misses")
        ),
        "graph.resolve_calls": calls("graph.resolve"),
        "graph.pair_nodes": pair_nodes,
        "graph.fusions": counter("fusions"),
        "graph.merge_elements_s": total("graph.merge_elements"),
        "graph.drop_self_references_calls": calls("graph.drop_self_references"),
        "graph.drop_self_references_s": total("graph.drop_self_references"),
        "partition.find_calls": calls("partition.find"),
        "partition.unions": counter("unions"),
        "queue.pops": pops,
        "queue.stale_pop_ratio": (pops - calls("engine.process")) / pops if pops else 0.0,
        "queue.compactions": counter("compactions"),
        "obs.flight_s": total("obs.flight"),
        "obs.hotspots_s": total("obs.hotspots"),
        "obs.convergence_s": total("obs.convergence"),
        "obs.provenance_s": total("obs.provenance"),
        "obs.provenance_records": sum(
            stats.calls
            for target, stats in tracer.stats.items()
            if target.qualname == "ProvenanceLog.record"
        ),
        "obs.events_s": total("obs.events"),
        "obs.manifest_s": total("obs.manifest"),
        "obs.relay_s": total("obs.relay"),
        "obs.artifact_bytes": extra.get("artifact_bytes", 0),
        "io.load_s": total("io.load"),
        "evaluation.quality_s": total("evaluation.quality"),
        "supervisor.score_s": total("supervisor.score"),
        "supervisor.chunks": calls("supervisor.chunk"),
        "supervisor.retries": counter("task_retries"),
        "parallel.child_cpu_s": extra.get("child_cpu_s", 0.0),
        "trace.overhead_ratio": extra.get("overhead_ratio", 0.0),
        "trace.unattributed_share": unattributed_share(tracer),
    }
    return values


def unattributed_share(tracer) -> float:
    """Self time of the op roots and container layers over op time."""
    op_spans = [span for span in tracer.spans if span.span_id == span.op_id]
    op_time = sum(span.duration for span in op_spans)
    if not op_time:
        return 0.0
    uncovered = sum(span.args.get("self_s", 0.0) for span in op_spans)
    uncovered += sum(
        stats.self_s
        for target, stats in tracer.stats.items()
        if target.layer in CONTAINER_LAYERS
    )
    return uncovered / op_time
