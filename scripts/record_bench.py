#!/usr/bin/env python
"""Record end-to-end reconciliation timings into ``BENCH_scaling.json``.

Runs the serial engine over the five benchmark datasets (PIM A-D and
Cora) and records build/iterate wall-clock, graph counters, and cache
effectiveness. The committed ``BENCH_scaling.json`` at the repo root is
the perf-regression baseline that CI's bench-smoke job checks against.

Every bench row also writes a full run manifest (``run.json``, the
same versioned schema ``--run-dir`` runs emit) under
``<output-stem>_runs/<block>/<dataset>/`` and stores its repo-relative
path in the row's ``manifest`` key — so bench history and run history
share one schema and ``repro diff`` can compare bench generations.

Usage:

    PYTHONPATH=src python scripts/record_bench.py                # full + quick
    PYTHONPATH=src python scripts/record_bench.py --quick        # quick only
    PYTHONPATH=src python scripts/record_bench.py --quick \\
        --check-against BENCH_scaling.json --output /tmp/bench.json
    PYTHONPATH=src python scripts/record_bench.py --workers-check

``--check-against`` compares dataset B's build+iterate against the
named baseline file and exits non-zero on a >2x regression.
``--workers-check`` additionally runs every dataset with ``workers=4``
and fails unless the partition is identical to the serial one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import EngineConfig, Reconciler  # noqa: E402
from repro.datasets import generate_cora_dataset, generate_pim_dataset  # noqa: E402
from repro.domains import CoraDomainModel, PimDomainModel  # noqa: E402
from repro.obs import (  # noqa: E402
    FlightRecorder,
    HotspotSketch,
    Telemetry,
    Tracer,
    build_manifest,
    write_manifest,
)
from repro.similarity import clear_similarity_caches  # noqa: E402

DATASETS = ["A", "B", "C", "D", "cora"]
QUICK_SCALE = 0.3
FULL_SCALE = 1.0

# Timings of the seed engine (before the performance layer), measured
# on the same reference machine that recorded the committed baseline.
# Kept in the JSON so the speedup is readable without git archaeology.
BASELINE_PRE_PR = {
    "B": {"build_seconds": 1.62, "iterate_seconds": 0.16, "total_seconds": 1.78}
}

REGRESSION_FACTOR = 2.0
REGRESSION_DATASET = "B"


def _generate(name: str, scale: float):
    if name == "cora":
        # Cora has one natural size; scale only affects the PIM worlds.
        return generate_cora_dataset()
    return generate_pim_dataset(name, scale=scale)


def _domain(name: str):
    return CoraDomainModel() if name == "cora" else PimDomainModel()


def _rate(hits: int, misses: int) -> float | None:
    total = hits + misses
    return round(hits / total, 4) if total else None


def _measure(
    name: str,
    scale: float,
    workers: int = 1,
    manifest_dir: Path | None = None,
) -> tuple[object, dict]:
    # Module-level LRU caches would let dataset N+1 free-ride on
    # dataset N's comparisons; clear them so every row is cold.
    clear_similarity_caches()
    dataset = _generate(name, scale)
    config_kwargs: dict = {}
    if workers > 1:
        config_kwargs["workers"] = workers
    config = EngineConfig(**config_kwargs)
    # Span tracing makes every row attributable to a phase (which build
    # stage) instead of a single wall-clock number; overhead is a
    # handful of coarse spans.
    telemetry = Telemetry(tracer=Tracer())
    engine = Reconciler(
        dataset.store,
        _domain(name),
        config,
        observers=[telemetry, FlightRecorder(), HotspotSketch()],
    )
    if manifest_dir is not None and dataset.gold.entity_of:
        # Coarse sampling: bench manifests exist for cross-run diffing,
        # not convergence plots, so keep the committed files small.
        engine.attach_convergence(dataset.gold.entity_of, every=500)
    result = engine.run()
    stats = engine.stats
    row = {
        "references": len(dataset.store),
        "build_seconds": round(stats.build_seconds, 3),
        "iterate_seconds": round(stats.iterate_seconds, 3),
        "total_seconds": round(stats.build_seconds + stats.iterate_seconds, 3),
        "candidate_pairs": stats.candidate_pairs,
        "pair_nodes": stats.pair_nodes,
        "recomputations": stats.recomputations,
        "merges": stats.merges,
        "feature_cache_hit_rate": _rate(
            stats.feature_cache_hits, stats.feature_cache_misses
        ),
        "pair_memo_hit_rate": _rate(stats.pair_memo_hits, stats.pair_memo_misses),
        "prefilter_skips": stats.prefilter_skips,
        "values_cache_hit_rate": _rate(
            stats.values_cache_hits, stats.values_cache_misses
        ),
        "contacts_cache_hit_rate": _rate(
            stats.contacts_cache_hits, stats.contacts_cache_misses
        ),
        # Zero on a healthy run; nonzero means the worker pool failed
        # and the measurement ran through the serial fallback.
        "supervision": {"task_retries": stats.task_retries},
        # Phase-attributed telemetry snapshot: a regression in
        # total_seconds points at the phase (and cache) that moved.
        "metrics": {"phase_seconds": telemetry.tracer.phase_timings()},
        # Workload attribution: where a timing regression would live.
        # The top-3 blocks by candidate pairs plus per-class blocking
        # skew — a bench row whose skew jumped explains its own
        # slowdown without re-running anything.
        "hotspots": _hotspot_digest(engine),
    }
    row["metrics"]["cache_hit_rates"] = {
        "values": row["values_cache_hit_rate"],
        "contacts": row["contacts_cache_hit_rate"],
        "feature": row["feature_cache_hit_rate"],
        "pair_memo": row["pair_memo_hit_rate"],
    }
    if manifest_dir is not None:
        # One run manifest per bench row: bench history and run history
        # share the run.json schema, so `repro diff` works across bench
        # generations the same way it works across --run-dir runs.
        manifest = build_manifest(dataset=dataset, reconciler=engine, result=result)
        row["manifest"] = str(write_manifest(manifest, manifest_dir))
    return result, row


def _hotspot_digest(engine) -> dict | None:
    """Top-3 hot blocks + per-class skew from the engine's sketch."""
    hotspots = engine.observers.find(HotspotSketch)
    if hotspots is None:
        return None
    summary = hotspots.summary(top=3)
    return {
        "top_blocks": summary["top_blocks"],
        "skew": {
            class_name: {
                "blocks": stats["blocks"],
                "gini": stats["gini"],
                "max_block": stats["max_block"],
                "max_pair_share": stats["max_pair_share"],
                "oversized": stats["oversized"],
            }
            for class_name, stats in summary["skew"].items()
        },
    }


def _block(scale: float, runs_dir: Path | None = None, base_dir: Path | None = None) -> dict:
    rows = {}
    for name in DATASETS:
        manifest_dir = runs_dir / name if runs_dir is not None else None
        _, rows[name] = _measure(name, scale, manifest_dir=manifest_dir)
        if "manifest" in rows[name] and base_dir is not None:
            # Committed paths are repo-relative so the baseline file is
            # readable from any checkout location.
            rows[name]["manifest"] = str(
                Path(rows[name]["manifest"]).resolve().relative_to(base_dir.resolve())
            )
        print(
            f"  {name:>4s}: {rows[name]['references']:6d} refs  "
            f"build {rows[name]['build_seconds']:6.3f}s  "
            f"iterate {rows[name]['iterate_seconds']:6.3f}s",
            file=sys.stderr,
        )
    return {"scale": scale, "datasets": rows}


def _workers_check(scale: float, workers: int) -> bool:
    ok = True
    for name in DATASETS:
        serial_result, _ = _measure(name, scale)
        parallel_result, _ = _measure(name, scale, workers=workers)
        identical = parallel_result.partitions == serial_result.partitions
        print(
            f"  {name:>4s}: workers={workers} "
            f"{'identical' if identical else 'DIVERGED'}",
            file=sys.stderr,
        )
        ok &= identical
    return ok


def _check_regression(current: dict, baseline_path: Path) -> bool:
    baseline = json.loads(baseline_path.read_text())
    compared = False
    ok = True
    for block_name in ("quick", "full"):
        mine = current.get(block_name, {}).get("datasets", {}).get(REGRESSION_DATASET)
        theirs = (
            baseline.get(block_name, {}).get("datasets", {}).get(REGRESSION_DATASET)
        )
        if not mine or not theirs:
            continue
        compared = True
        budget = theirs["total_seconds"] * REGRESSION_FACTOR
        verdict = "ok" if mine["total_seconds"] <= budget else "REGRESSION"
        print(
            f"  {block_name}/{REGRESSION_DATASET}: {mine['total_seconds']:.3f}s "
            f"vs baseline {theirs['total_seconds']:.3f}s "
            f"(budget {budget:.3f}s) -> {verdict}",
            file=sys.stderr,
        )
        ok &= verdict == "ok"
    if not compared:
        print("  no comparable block found in baseline", file=sys.stderr)
        return False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_scaling.json", help="where to write the JSON"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"record only the quick block (PIM scale {QUICK_SCALE})",
    )
    parser.add_argument(
        "--workers-check", action="store_true",
        help="also verify workers=4 partitions match serial on every dataset",
    )
    parser.add_argument(
        "--check-against", metavar="BASELINE",
        help="fail (exit 1) if dataset B regresses >2x vs this baseline JSON",
    )
    args = parser.parse_args(argv)

    payload: dict = {
        "generated_by": "scripts/record_bench.py",
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            # Parallel rows (workers) only measure a real speedup when
            # this exceeds the worker count.
            "cpu_count": os.cpu_count(),
        },
        "baseline_pre_pr": BASELINE_PRE_PR,
    }
    output = Path(args.output)
    # Per-row run manifests live beside the baseline JSON, one
    # directory per block/dataset: <stem>_runs/quick/B/run.json etc.
    runs_root = output.parent / f"{output.stem}_runs"
    base_dir = output.parent if str(output.parent) != "" else Path(".")
    print(f"quick block (scale {QUICK_SCALE}):", file=sys.stderr)
    payload["quick"] = _block(QUICK_SCALE, runs_root / "quick", base_dir)
    if not args.quick:
        print(f"full block (scale {FULL_SCALE}):", file=sys.stderr)
        payload["full"] = _block(FULL_SCALE, runs_root / "full", base_dir)

    failures = []
    if args.workers_check:
        print("workers check (quick scale):", file=sys.stderr)
        if not _workers_check(QUICK_SCALE, workers=4):
            failures.append("workers=4 partitions diverged from serial")
    if args.check_against:
        print(f"regression check vs {args.check_against}:", file=sys.stderr)
        if not _check_regression(payload, Path(args.check_against)):
            failures.append(
                f"dataset {REGRESSION_DATASET} regressed more than "
                f"{REGRESSION_FACTOR}x"
            )

    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
