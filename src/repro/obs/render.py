"""Human-readable renderers over telemetry snapshots.

The CLI's ``--stats`` output and degradation notices used to be
ad-hoc ``print(..., file=sys.stderr)`` calls; they are now pure
functions from engine state / metrics snapshots to text, so the same
data renders identically whether it comes from a live run, a metrics
JSON file, or a test. The ``--stats`` format is kept byte-stable with
the pre-observability output.
"""

from __future__ import annotations

__all__ = [
    "hit_rate",
    "render_stats",
    "render_degradations",
    "render_quarantine",
    "render_diff",
    "render_hotspots",
    "render_doctor",
]


def hit_rate(hits: int, misses: int) -> str:
    """``"62.5% (5/8)"`` or ``"n/a"`` for an untouched cache."""
    total = hits + misses
    if not total:
        return "n/a"
    return f"{hits / total:.1%} ({hits}/{total})"


def render_stats(stats) -> str:
    """The ``--stats`` block from an :class:`~repro.core.engine.EngineStats`."""
    lines = [
        "engine stats:",
        f"  build {stats.build_seconds:.2f}s, iterate {stats.iterate_seconds:.2f}s "
        f"(workers={stats.parallel_workers})",
        f"  candidate_pairs={stats.candidate_pairs} pair_nodes={stats.pair_nodes} "
        f"value_nodes={stats.value_nodes} graph_nodes={stats.graph_nodes}",
        f"  recomputations={stats.recomputations} merges={stats.merges} "
        f"non_merges={stats.non_merges} fusions={stats.fusions}",
        "  cache effectiveness:",
        f"    values cache   {hit_rate(stats.values_cache_hits, stats.values_cache_misses)}",
        f"    contacts cache {hit_rate(stats.contacts_cache_hits, stats.contacts_cache_misses)}",
        f"    feature cache  {hit_rate(stats.feature_cache_hits, stats.feature_cache_misses)}",
        f"    pair-score memo {hit_rate(stats.pair_memo_hits, stats.pair_memo_misses)}, "
        f"prefilter skips {stats.prefilter_skips}",
    ]
    return "\n".join(lines)


def render_degradations(result) -> str:
    """The stderr notice for a degraded run (empty string when clean)."""
    if result.completed and not result.degradations:
        return ""
    lines = []
    if not result.completed:
        lines.append(f"run degraded: stop_reason={result.stop_reason}")
    for event in result.degradations:
        lines.append(f"  [{event.kind}] {event.detail}")
    return "\n".join(lines)


def render_quarantine(quarantined) -> str:
    """The lenient-ingestion notice (empty string when nothing was)."""
    if not quarantined:
        return ""
    return (
        f"quarantined {len(quarantined)} bad records (see quarantine.jsonl)"
    )


def _pair(pair: list) -> str:
    return f"{pair[0]} <-> {pair[1]}"


def render_diff(verdict) -> str:
    """``repro diff`` text from a :class:`~repro.obs.diffing.DiffVerdict`.

    Pure function of the verdict (no wall-clock, no paths beyond the
    labels already inside it), so identical runs render byte-identical
    text — a golden-file test holds this stable.
    """
    lines = [f"run diff: {verdict.run_a} vs {verdict.run_b}"]
    dataset_a, dataset_b = verdict.datasets
    lines.append(
        f"  datasets: {dataset_a}"
        if dataset_a == dataset_b
        else f"  datasets: {dataset_a} vs {dataset_b} (MISMATCH)"
    )
    if verdict.config_changes:
        lines.append("  config changes: " + ", ".join(verdict.config_changes))
    lines.append(
        "  partition: changed" if verdict.partition_changed else "  partition: identical"
    )

    if verdict.completed_regression:
        lines.append("  COMPLETED -> DEGRADED: run B did not finish cleanly")
    for kind in verdict.new_degradations:
        lines.append(f"  new degradation: {kind}")

    if verdict.quality_regressions or verdict.quality_improvements:
        lines.append("  quality deltas (B - A):")
        for entry in verdict.quality_regressions:
            lines.append(
                f"    REGRESSION {entry['class']} {entry['family']}.{entry['metric']}: "
                f"{entry['a']:.6f} -> {entry['b']:.6f} ({entry['delta']:+.6f})"
            )
        for entry in verdict.quality_improvements:
            lines.append(
                f"    improved   {entry['class']} {entry['family']}.{entry['metric']}: "
                f"{entry['a']:.6f} -> {entry['b']:.6f} ({entry['delta']:+.6f})"
            )
    else:
        lines.append("  quality: unchanged")

    if verdict.flips_total:
        shown = len(verdict.flipped_pairs)
        suffix = "" if shown == verdict.flips_total else f" (showing {shown})"
        lines.append(f"  flipped merge decisions: {verdict.flips_total}{suffix}")
        for flip in verdict.flipped_pairs:
            attribution = flip["attribution"]
            lines.append(
                f"    {_pair(flip['pair'])} [{flip['class']}] {flip['direction']}"
            )
            if attribution["channel"] is not None:
                score_a = attribution["channel_score_a"]
                score_b = attribution["channel_score_b"]
                lines.append(
                    f"      channel {attribution['channel']}: "
                    f"{0.0 if score_a is None else score_a:.6f} -> "
                    f"{0.0 if score_b is None else score_b:.6f}"
                )
            threshold_a = attribution["threshold_a"]
            threshold_b = attribution["threshold_b"]
            if None not in (threshold_a, threshold_b) and threshold_a != threshold_b:
                lines.append(f"      threshold: {threshold_a} -> {threshold_b}")
            chain = flip["root_cause"]
            if len(chain) > 1:
                steps = " => ".join(
                    f"{_pair(step['pair'])} ({step['trigger']})" for step in chain
                )
                lines.append(f"      root cause: {steps}")
    else:
        lines.append("  flipped merge decisions: none")

    if verdict.phase_regressions:
        for entry in verdict.phase_regressions:
            ratio = entry["ratio"]
            ratio_text = "" if ratio is None else f" ({ratio:.3f}x)"
            lines.append(
                f"  SLOWDOWN {entry['phase']}: {entry['a_seconds']:.3f}s -> "
                f"{entry['b_seconds']:.3f}s{ratio_text}"
            )

    lines.append("  verdict: REGRESSED" if verdict.regressed else "  verdict: clean")
    return "\n".join(lines)


#: degradation kinds produced by RunGuard trips.
_GUARD_KINDS = {"deadline", "budget", "queue_ceiling", "graph_ceiling"}


def render_hotspots(summary: dict) -> str:
    """``repro hotspots`` text from a manifest's hotspot summary.

    Pure function of the recorded summary (no wall-clock, no paths), so
    the same run dir always renders byte-identical text.
    """
    lines = [
        "hotspot attribution "
        f"(sketch capacity {summary.get('sketch_capacity', 0)}, "
        f"{summary.get('pair_updates', 0)} pair timings, "
        f"error bound {summary.get('pair_seconds_error_bound', 0.0):.6f}s):"
    ]
    skew = summary.get("skew") or {}
    if skew:
        lines.append("  blocking skew:")
        for class_name in sorted(skew):
            stats = skew[class_name]
            if not stats.get("blocks"):
                lines.append(f"    {class_name}: no blocks recorded")
                continue
            lines.append(
                f"    {class_name}: {stats['blocks']} blocks, "
                f"gini {stats['gini']:.4f}, max {stats['max_block']} "
                f"({stats['max_block_size']} refs, "
                f"{stats['max_pair_share']:.1%} of pairs), "
                f"oversized {stats['oversized']}"
            )
    top_blocks = summary.get("top_blocks") or []
    if top_blocks:
        lines.append("  top blocks by candidate pairs:")
        for entry in top_blocks:
            lines.append(f"    {entry['block']}  {entry['candidate_pairs']}")
    top_pairs = summary.get("top_pairs") or []
    if top_pairs:
        lines.append("  top pairs by recompute seconds:")
        for entry in top_pairs:
            lines.append(
                f"    {entry['pair']}  {entry['seconds']:.6f}s "
                f"x{entry['recomputations']}"
            )
    channels = summary.get("channels") or []
    if channels:
        lines.append("  channel comparisons:")
        for entry in channels:
            lines.append(f"    {entry['channel']}  {entry['comparisons']}")
    if len(lines) == 1:
        lines.append("  (nothing recorded)")
    return "\n".join(lines)


def _doctor_hints(bundle: dict | None, manifest: dict | None) -> list:
    """Deterministic, actionable hints keyed on what the run recorded."""
    kinds = set()
    if bundle is not None:
        kinds.update(
            entry.get("kind") for entry in bundle["rings"]["degradations"]
        )
    if manifest is not None:
        kinds.update(
            event.get("kind") for event in manifest.get("degradations", [])
        )
    hints = []
    if bundle is not None and bundle.get("exception") is not None:
        hints.append(
            "an unhandled exception ended the run; the decisions ring in "
            "crash_bundle.json shows the last work before it"
        )
    if bundle is not None and bundle["worker_lanes"]["deaths"]:
        hints.append(
            "worker processes died; rerun with --workers 1 to isolate the "
            "fault, and check memory limits"
        )
    if kinds & _GUARD_KINDS:
        hints.append(
            "a run guard tripped; raise --deadline / --max-recomputations "
            "or reduce the dataset scale"
        )
    if "parallel_fallback" in kinds:
        hints.append(
            "parallel scoring fell back to the serial build; results are "
            "unchanged but slower"
        )
    hotspots = (manifest.get("execution") or {}).get("hotspots") if manifest else None
    if hotspots:
        skewed = sorted(
            class_name
            for class_name, stats in (hotspots.get("skew") or {}).items()
            if stats.get("max_pair_share", 0.0) >= 0.5 and stats.get("blocks", 0) > 1
        )
        if skewed:
            hints.append(
                "blocking is skew-dominated for " + ", ".join(skewed)
                + "; consider --max-block-size or finer blocking keys"
            )
    return hints


def render_doctor(bundle: dict | None, manifest: dict | None = None) -> str:
    """``repro doctor`` post-mortem text.

    *bundle* is a loaded ``crash_bundle.json`` (or ``None`` when the
    run left none), *manifest* the run's ``run.json`` when one was
    written.  Pure function of both, so a given run dir always renders
    byte-identical output; the matching exit-code policy lives in the
    CLI (0 clean, 1 bundle/degraded, 2 nothing to diagnose).
    """
    if bundle is None and manifest is None:
        return (
            "doctor: nothing to diagnose "
            "(no crash_bundle.json or run.json found)\n  verdict: unknown"
        )
    lines = []
    if bundle is None:
        run = manifest.get("run", {})
        degradations = manifest.get("degradations", [])
        if run.get("completed", False) and not degradations:
            lines.append(
                f"doctor: clean run ({run.get('stop_reason')}; no crash bundle)"
            )
            lines.append("  verdict: clean")
            return "\n".join(lines)
        lines.append("doctor: degraded run (no crash bundle recorded)")
        if run.get("stop_reason"):
            lines.append(f"  stop_reason: {run['stop_reason']}")
        for event in degradations:
            lines.append(f"    [{event.get('kind')}] {event.get('detail', '')}")
        for hint in _doctor_hints(None, manifest):
            lines.append(f"  hint: {hint}")
        lines.append("  verdict: degraded")
        return "\n".join(lines)

    lines.append(f"doctor: {bundle['reason']}")
    if bundle.get("phase"):
        lines.append(f"  phase: {bundle['phase']}")
    if bundle.get("stop_reason"):
        lines.append(f"  stop_reason: {bundle['stop_reason']}")
    exception = bundle.get("exception")
    if exception is not None:
        lines.append(f"  exception: {exception['type']}: {exception['message']}")
    rings = bundle["rings"]
    degradations = rings["degradations"]
    if degradations:
        lines.append(f"  degradations ({len(degradations)} recorded):")
        for entry in degradations[-5:]:
            lines.append(f"    [{entry.get('kind')}] {entry.get('detail', '')}")
    decisions = rings["decisions"]
    if decisions:
        shown = decisions[-5:]
        lines.append(
            f"  last decisions ({len(shown)} of {len(decisions)} retained):"
        )
        for entry in shown:
            score = entry.get("score")
            score_text = "n/a" if score is None else f"{score:.4f}"
            lines.append(
                f"    {_pair(entry['pair'])} [{entry.get('class')}] "
                f"{entry.get('decision')} score={score_text}"
            )
    chunks = rings["chunks"]
    if chunks:
        slowest = max(chunks, key=lambda entry: (entry["seconds"], entry["seq"]))
        lines.append(
            f"  chunks: {len(chunks)} retained, slowest "
            f"{slowest['lane']} {slowest['seconds']:.3f}s"
        )
    lanes = bundle["worker_lanes"]
    if lanes["lanes"] or lanes["deaths"]:
        lines.append(
            f"  worker lanes: {len(lanes['lanes'])} with retained rings, "
            f"{len(lanes['deaths'])} death(s)"
        )
        for death in lanes["deaths"][-5:]:
            lines.append(
                f"    died: {death.get('lane', 'worker')} "
                f"pid={death.get('pid')}: {death.get('reason')}"
            )
    hotspots = (manifest.get("execution") or {}).get("hotspots") if manifest else None
    if hotspots and hotspots.get("top_blocks"):
        lines.append("  hot blocks:")
        for entry in hotspots["top_blocks"][:3]:
            lines.append(
                f"    {entry['block']}  {entry['candidate_pairs']} candidate pairs"
            )
    if hotspots and hotspots.get("top_pairs"):
        lines.append("  suspect pairs (most recompute time):")
        for entry in hotspots["top_pairs"][:3]:
            lines.append(
                f"    {entry['pair']}  {entry['seconds']:.6f}s "
                f"x{entry['recomputations']}"
            )
    for hint in _doctor_hints(bundle, manifest):
        lines.append(f"  hint: {hint}")
    lines.append(
        "  verdict: crashed" if exception is not None else "  verdict: degraded"
    )
    return "\n".join(lines)
