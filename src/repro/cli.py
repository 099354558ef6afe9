"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a synthetic benchmark dataset (PIM A-D / Cora)
  to a directory as JSON-lines.
* ``reconcile`` — load a dataset directory, run DepGraph (or InDepDec),
  and write the resulting partition as JSON.
* ``evaluate`` — reconcile and score against the dataset's gold
  standard (pairwise + B-cubed).
* ``tables`` — regenerate any of the paper's tables on the terminal.
* ``explain`` — reconcile, then explain why two references did (or did
  not) end up in one cluster.
* ``diff`` — compare two run directories (manifests + provenance) and
  localize regressions: flipped merge decisions with channel/threshold
  attribution and root-cause chains, quality deltas, phase slowdowns.
  Exits nonzero on regression so CI can gate on it.
* ``report`` — given a run directory (``--run-dir`` output), write a
  single self-contained HTML run report; given a ``.md`` path, run the
  full experiment suite and write the markdown report (legacy form).
* ``watch`` — monitor a run directory from a second terminal: tail its
  ``events.jsonl`` like ``tail -f``, or print one snapshot and exit
  with ``--once``. Works on concurrent *and* finished runs.
* ``doctor`` — post-mortem diagnosis of a recorded run: reads the
  crash bundle (when the run crashed or degraded) and the manifest,
  prints what failed, what degraded, the flight-recorder tail and
  actionable hints. Exit code 0 = clean, 1 = crashed/degraded,
  2 = nothing to diagnose.
* ``hotspots`` — heavy-hitter workload attribution for a recorded
  run: hottest blocks by candidate pairs, most-recomputed reference
  pairs by attributed wall time, similarity-channel comparison
  counts, and per-class blocking skew (Gini / max-block share).

``reconcile`` / ``evaluate`` / ``explain`` accept ``--run-dir DIR`` to
collect a run's artifacts in one directory and emit a versioned
``run.json`` manifest — the unit ``diff`` and ``report`` operate on.
They also accept ``--live`` (an in-place stderr HUD) and ``--profile``
(a sampling wall-clock profiler exporting folded stacks + speedscope
JSON); neither changes results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .baselines import indepdec_config
from .core import EngineConfig, Reconciler
from .core.explain import explain_merge
from .datasets import generate_cora_dataset, generate_pim_dataset
from .datasets.io import load_dataset, save_dataset
from .domains import CoraDomainModel, PimDomainModel
from .evaluation.clustering import bcubed_scores
from .evaluation.metrics import pairwise_scores
from .obs import (
    LEVELS,
    MANIFEST_FILENAME,
    FlightRecorder,
    HotspotSketch,
    ProvenanceLog,
    RunDirError,
    Telemetry,
    build_manifest,
    diff_runs,
    load_run_dir,
    render_degradations,
    render_diff,
    render_quarantine,
    render_stats,
    write_manifest,
)

__all__ = ["main", "build_parser"]


def _domain_for(dataset_name: str):
    return CoraDomainModel() if dataset_name.lower().startswith("cora") else PimDomainModel()


def _config_for(algorithm: str, domain) -> EngineConfig:
    if algorithm == "indepdec":
        return indepdec_config(domain)
    return EngineConfig()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reference reconciliation in complex information spaces "
        "(Dong, Halevy & Madhavan, SIGMOD 2005)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a synthetic dataset")
    generate.add_argument("dataset", choices=["A", "B", "C", "D", "cora"])
    generate.add_argument("directory", help="output directory")
    generate.add_argument("--scale", type=float, default=1.0)

    reconcile = commands.add_parser("reconcile", help="reconcile a dataset directory")
    reconcile.add_argument("directory")
    reconcile.add_argument("--algorithm", choices=["depgraph", "indepdec"],
                           default="depgraph")
    reconcile.add_argument("--output", default="-", help="partition JSON (default stdout)")

    evaluate = commands.add_parser("evaluate", help="reconcile and score against gold")
    evaluate.add_argument("directory")
    evaluate.add_argument("--algorithm", choices=["depgraph", "indepdec"],
                          default="depgraph")

    explain = commands.add_parser("explain", help="why were two references merged?")
    explain.add_argument("directory")
    explain.add_argument("ref_a")
    explain.add_argument("ref_b")
    explain.add_argument(
        "--run", default=None, metavar="DIR",
        help="answer from a recorded run directory: the provenance log "
        "is resolved through DIR's run.json manifest instead of being "
        "re-recorded",
    )

    for runner in (reconcile, evaluate, explain):
        obs = runner.add_argument_group("observability")
        obs.add_argument(
            "--run-dir", default=None, metavar="DIR",
            help="collect this run's artifacts in DIR and write a "
            "versioned run.json manifest (config fingerprint, partition "
            "digest, per-class quality, convergence samples); records "
            "provenance to DIR/provenance.jsonl and the event stream to "
            "DIR/events.jsonl (what `repro watch` tails) unless "
            "--provenance / --log-json point elsewhere. The unit "
            "`repro diff` / `repro report` operate on",
        )
        obs.add_argument(
            "--log-json", default=None, metavar="PATH",
            help="write a structured JSONL event stream (run phases, "
            "degradations, checkpoints) to PATH; append mode, so a "
            "resumed run continues the same log",
        )
        obs.add_argument(
            "--log-level", default="info", choices=sorted(LEVELS),
            help="minimum event level for --log-json (default info; debug "
            "adds per-merge events and iterate progress)",
        )
        obs.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write nested timed spans as Chrome trace-event JSON to "
            "PATH (load in chrome://tracing or Perfetto)",
        )
        obs.add_argument(
            "--metrics", default=None, metavar="PATH", action="append",
            help="write the metrics registry snapshot to PATH — Prometheus "
            "text for .prom/.txt paths, JSON otherwise; repeatable to "
            "export both formats",
        )
        obs.add_argument(
            "--provenance", default=None, metavar="PATH",
            help="record every merge/non-merge decision (channel scores, "
            "thresholds, triggering propagation) to a JSONL audit log",
        )
        obs.add_argument(
            "--profile", action="store_true",
            help="sample the engine's wall-clock stack (~100 Hz, stdlib "
            "sampler) and write profile.folded + profile.speedscope.json "
            "into the run directory (or the working directory without "
            "--run-dir); strictly observational, results unchanged",
        )
        obs.add_argument(
            "--live", action="store_true",
            help="redraw a one-line status HUD on stderr while the run "
            "executes (phase, queue depth, merges, cache hit rate, ETA); "
            "read-only, results unchanged",
        )

    for runner in (reconcile, evaluate):
        perf = runner.add_argument_group("performance")
        perf.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="worker processes for candidate-pair scoring during the "
            "graph build; results are byte-identical to --workers 1 "
            "(default 1 = serial)",
        )
        perf.add_argument(
            "--stats", action="store_true",
            help="print engine statistics (timings, counters, cache hit "
            "rates) to stderr after the run",
        )
        runtime = runner.add_argument_group("runtime (fault tolerance)")
        runtime.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget; past it the run stops gracefully with "
            "a partial (but valid) partition",
        )
        runtime.add_argument(
            "--max-recomputations", type=int, default=None, metavar="N",
            help="recomputation budget enforced by the run guard",
        )
        runtime.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="periodically checkpoint engine state into DIR",
        )
        runtime.add_argument(
            "--checkpoint-every", type=int, default=500, metavar="STEPS",
            help="iterate steps between checkpoints (default 500)",
        )
        runtime.add_argument(
            "--resume", default=None, metavar="CHECKPOINT",
            help="resume from a checkpoint file written by --checkpoint-dir",
        )
        runtime.add_argument(
            "--lenient", action="store_true",
            help="quarantine malformed records to quarantine.jsonl instead "
            "of aborting the load",
        )

    tables = commands.add_parser("tables", help="regenerate a paper table")
    tables.add_argument(
        "which",
        choices=["1", "2", "3", "4", "5", "6", "7", "fig6"],
    )
    tables.add_argument("--scale", type=float, default=1.0)

    diff = commands.add_parser(
        "diff", help="localize regressions between two recorded runs"
    )
    diff.add_argument("run_a", help="baseline run directory (or its run.json)")
    diff.add_argument("run_b", help="candidate run directory (or its run.json)")
    diff.add_argument(
        "--json", default=None, metavar="PATH",
        help="additionally write the structured verdict as JSON",
    )
    diff.add_argument(
        "--quality-tolerance", type=float, default=0.0, metavar="DELTA",
        help="absolute per-class metric drop tolerated before gating "
        "(default 0: runs are deterministic, any drop is real)",
    )
    diff.add_argument(
        "--phase-tolerance", type=float, default=0.25, metavar="FRACTION",
        help="relative phase slowdown tolerated (default 0.25 = 25%%)",
    )
    diff.add_argument(
        "--phase-floor", type=float, default=0.05, metavar="SECONDS",
        help="absolute slowdown a phase must also exceed (default 0.05s)",
    )
    diff.add_argument(
        "--max-flips", type=int, default=20, metavar="N",
        help="flipped pairs to localize in detail (default 20)",
    )

    report = commands.add_parser(
        "report",
        help="HTML report for a run directory, or the markdown "
        "experiments report for a .md path",
    )
    report.add_argument(
        "target",
        help="a run directory containing run.json (writes a "
        "self-contained HTML report) or an output .md path (runs all "
        "experiments and writes the markdown report)",
    )
    report.add_argument(
        "--output", default=None, metavar="PATH",
        help="HTML output path (default <run_dir>/report.html); run-"
        "directory targets only",
    )
    report.add_argument("--scale", type=float, default=1.0)

    watch = commands.add_parser(
        "watch", help="monitor a run directory's event stream"
    )
    watch.add_argument(
        "run_dir",
        help="a run directory (its events artifact is resolved through "
        "run.json when present, DIR/events.jsonl otherwise) or an "
        "events.jsonl path",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="print one multi-line snapshot of the run's current state "
        "and exit instead of following the file",
    )
    watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval while following (default 0.5)",
    )
    watch.add_argument(
        "--max-idle", type=float, default=None, metavar="SECONDS",
        help="stop following after the log has been silent this long "
        "(default: follow until run_end arrives)",
    )

    doctor = commands.add_parser(
        "doctor", help="post-mortem diagnosis of a recorded run"
    )
    doctor.add_argument(
        "run_dir",
        help="a run directory (reads crash_bundle.json and run.json when "
        "present) or a crash_bundle.json path",
    )

    hotspots = commands.add_parser(
        "hotspots", help="heavy-hitter workload attribution for a run"
    )
    hotspots.add_argument(
        "run_dir", help="a run directory containing run.json (or the file)"
    )
    hotspots.add_argument(
        "--json", action="store_true",
        help="print the manifest's raw hotspot summary as JSON instead "
        "of the rendered tables",
    )
    return parser


def _cmd_generate(args) -> int:
    if args.dataset == "cora":
        dataset = generate_cora_dataset()
    else:
        dataset = generate_pim_dataset(args.dataset, scale=args.scale)
    path = save_dataset(dataset, args.directory)
    summary = dataset.summary()
    print(
        f"wrote {summary['references']} references "
        f"({summary['entities']} entities) to {path}"
    )
    return 0


def _telemetry_from(options, *, force_provenance: bool = False) -> Telemetry | None:
    """Build the telemetry bundle the CLI flags ask for (or ``None``)."""
    if options is None:
        return None
    log_path = getattr(options, "log_json", None)
    trace = getattr(options, "trace", None)
    metrics = getattr(options, "metrics", None)
    provenance_path = getattr(options, "provenance", None)
    wants_provenance = force_provenance or provenance_path is not None
    if not (log_path or trace or metrics or wants_provenance):
        return None
    telemetry = Telemetry.enabled(
        log_path=log_path,
        log_level=getattr(options, "log_level", "info") or "info",
        trace=bool(trace),
        metrics=bool(metrics),
        provenance=wants_provenance,
        provenance_path=provenance_path,
    )
    return telemetry


def _export_telemetry(telemetry: Telemetry | None, options) -> None:
    """Write the file-backed exports after the run and close sinks."""
    if telemetry is None:
        return
    trace = getattr(options, "trace", None) if options is not None else None
    if trace and telemetry.tracer is not None:
        telemetry.tracer.write(trace)
    metric_paths = getattr(options, "metrics", None) if options is not None else None
    if metric_paths and telemetry.metrics is not None:
        for path in metric_paths:
            telemetry.metrics.write(path)
    telemetry.close()


def _apply_run_dir(options) -> Path | None:
    """Materialize ``--run-dir``: create it and default the provenance
    log and event stream into it (truncating stale ones on a fresh,
    non-resume run so both artifacts match this run exactly; a resumed
    run append-continues them). Idempotent."""
    run_dir = getattr(options, "run_dir", None) if options is not None else None
    if not run_dir:
        return None
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    resuming = bool(getattr(options, "resume", None))
    if not resuming:
        # A stale crash bundle describes some *previous* run; a fresh
        # run must start with none so its absence means "clean".
        from .obs.flight import CRASH_BUNDLE_FILENAME

        (run_dir / CRASH_BUNDLE_FILENAME).unlink(missing_ok=True)
    if getattr(options, "provenance", None) is None:
        default = run_dir / "provenance.jsonl"
        if not resuming:
            default.unlink(missing_ok=True)
        options.provenance = str(default)
    if getattr(options, "log_json", None) is None:
        # The event stream is what `repro watch` tails, so every
        # --run-dir run records one by default.
        default = run_dir / "events.jsonl"
        if not resuming:
            default.unlink(missing_ok=True)
        options.log_json = str(default)
    return run_dir


def _run_artifacts(options, run_dir: Path) -> dict:
    """Artifact-kind -> path map for the manifest; paths inside the run
    directory are recorded relative so the directory stays portable."""
    def _rel(path) -> str:
        resolved = Path(path).resolve()
        try:
            return str(resolved.relative_to(run_dir.resolve()))
        except ValueError:
            return str(resolved)

    artifacts: dict[str, str] = {}
    for kind, attr in (
        ("provenance", "provenance"),
        ("events", "log_json"),
        ("trace", "trace"),
    ):
        value = getattr(options, attr, None)
        if value:
            artifacts[kind] = _rel(value)
    for path in getattr(options, "metrics", None) or []:
        artifacts.setdefault("metrics", _rel(path))
    if getattr(options, "profile", False):
        artifacts["profile"] = "profile.folded"
        artifacts["speedscope"] = "profile.speedscope.json"
    return artifacts


def _dump_bundle(run_dir: Path, reconciler, *, reason, exc=None, stop_reason=None):
    """Best-effort crash-bundle dump; never masks the original error."""
    from .obs.flight import build_crash_bundle, dump_crash_bundle

    try:
        phase = "iterate" if getattr(reconciler, "_built", False) else "build"
        bundle = build_crash_bundle(
            reason=reason,
            engine=reconciler,
            exc=exc,
            phase=phase,
            stop_reason=stop_reason,
        )
        return dump_crash_bundle(run_dir, bundle)
    except Exception as dump_error:  # pragma: no cover - defensive
        print(f"crash-bundle dump failed: {dump_error!r}", file=sys.stderr)
        return None


def _run(directory: str, algorithm: str, options=None, telemetry=None):
    lenient = bool(getattr(options, "lenient", False))
    run_dir = _apply_run_dir(options)
    if telemetry is None:
        telemetry = _telemetry_from(options)
    dataset = load_dataset(directory, lenient=lenient)
    if dataset.quarantined:
        print(render_quarantine(dataset.quarantined), file=sys.stderr)
        if telemetry is not None:
            telemetry.emit(
                "warning", "quarantine", records=len(dataset.quarantined)
            )
    domain = _domain_for(dataset.name)
    config = _config_for(algorithm, domain)
    workers = int(getattr(options, "workers", 1) or 1)
    if workers > 1:
        from dataclasses import replace

        config = replace(config, workers=workers)
    guard = None
    checkpointer = None
    if options is not None:
        deadline = getattr(options, "deadline", None)
        max_recomputations = getattr(options, "max_recomputations", None)
        if deadline is not None or max_recomputations is not None:
            from .runtime import RunGuard

            guard = RunGuard(
                deadline_seconds=deadline, max_recomputations=max_recomputations
            )
        if getattr(options, "checkpoint_dir", None):
            from .runtime import Checkpointer

            checkpointer = Checkpointer(
                options.checkpoint_dir, every=options.checkpoint_every
            )
    if telemetry is not None:
        telemetry.emit(
            "info",
            "run_start",
            dataset=dataset.name,
            algorithm=algorithm,
            references=len(dataset.store),
            workers=workers,
        )
    observers = [FlightRecorder(), HotspotSketch()]
    if telemetry is not None:
        observers.insert(0, telemetry)
    hud = None
    if getattr(options, "live", False):
        from .obs.live import LiveHud

        hud = LiveHud()
        observers.append(hud)
    resume_path = getattr(options, "resume", None) if options is not None else None
    if resume_path:
        reconciler = Reconciler.resume(
            resume_path,
            store=dataset.store,
            domain=domain,
            config=config,
            observers=observers,
        )
    else:
        reconciler = Reconciler(dataset.store, domain, config, observers=observers)
    if run_dir is not None and dataset.gold.entity_of:
        # Convergence samples feed the manifest; keyed by the
        # (checkpointed) recomputation counter, so attaching after
        # resume reproduces an uninterrupted run's samples.
        reconciler.attach_convergence(dataset.gold.entity_of, every=50)
    chaos_env = os.environ.get("REPRO_CHAOS")
    if chaos_env:
        # Fault-injection seam for the CI crash-bundle job: a JSON
        # ChaosInjector spec (e.g. {"kill_at_chunk": 1}) attached to
        # the engine so a worker dies mid-run on demand.
        from .runtime.faults import ChaosInjector

        spec = json.loads(chaos_env)
        marker = spec.pop("marker_dir", None)
        if marker is None and run_dir is not None:
            marker = str(run_dir / "chaos_markers")
        if marker is not None:
            # The first worker to claim a file here dies; without the
            # directory the claim itself would fail instead.
            Path(marker).mkdir(parents=True, exist_ok=True)
        reconciler.chaos = ChaosInjector(marker_dir=marker, **spec)
    profiler = None
    if getattr(options, "profile", False):
        from .obs.profile import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        result = reconciler.run(guard=guard, checkpointer=checkpointer)
    except BaseException as exc:
        # The flight recorder's whole purpose: an unhandled failure in
        # a --run-dir run leaves a post-mortem bundle behind. Dumping
        # is best-effort and the original exception always propagates.
        if run_dir is not None:
            bundle_path = _dump_bundle(
                run_dir,
                reconciler,
                reason=f"unhandled {type(exc).__name__} during run",
                exc=exc,
            )
            if bundle_path is not None:
                print(f"wrote crash bundle to {bundle_path}", file=sys.stderr)
        raise
    finally:
        if hud is not None:
            hud.close()
        if profiler is not None:
            profiler.stop()
    if profiler is not None:
        base = run_dir if run_dir is not None else Path(".")
        folded_path = profiler.write_folded(base / "profile.folded")
        profiler.write_speedscope(
            base / "profile.speedscope.json", name=f"repro {dataset.name}"
        )
        print(
            f"wrote profile ({profiler.sample_count} samples) to "
            f"{folded_path} and {folded_path.with_name('profile.speedscope.json')}",
            file=sys.stderr,
        )
    degraded = render_degradations(result)
    if degraded:
        print(degraded, file=sys.stderr)
    if telemetry is not None:
        if telemetry.metrics is not None:
            telemetry.metrics.absorb_run_info(
                dataset=dataset.name, algorithm=algorithm
            )
        telemetry.emit(
            "info",
            "run_end",
            completed=result.completed,
            stop_reason=result.stop_reason,
            merges=reconciler.stats.merges,
            recomputations=reconciler.stats.recomputations,
        )
        _export_telemetry(telemetry, options)
    if options is not None and getattr(options, "stats", False):
        print(render_stats(reconciler.stats), file=sys.stderr)
    if run_dir is not None:
        from .obs.flight import CRASH_BUNDLE_FILENAME

        if result.degraded:
            # The run finished but not cleanly (guard trip, serial
            # fallback after a pool failure, ...): leave a bundle so
            # `repro doctor` can explain what degraded and why.
            kinds = sorted({event.kind for event in result.degradations})
            reason = (
                "degraded run: " + ", ".join(kinds)
                if kinds
                else "incomplete run"
            )
            bundle_path = _dump_bundle(
                run_dir,
                reconciler,
                reason=reason,
                stop_reason=result.stop_reason,
            )
            if bundle_path is not None:
                print(f"wrote crash bundle to {bundle_path}", file=sys.stderr)
        else:
            # A clean finish clears any bundle left by a crashed
            # attempt this run resumed from: no bundle == clean.
            (run_dir / CRASH_BUNDLE_FILENAME).unlink(missing_ok=True)
        artifacts = _run_artifacts(options, run_dir)
        if (run_dir / CRASH_BUNDLE_FILENAME).exists():
            # Execution-dependent by nature, and the artifacts section
            # is excluded from the manifest's invariant view.
            artifacts["crash_bundle"] = CRASH_BUNDLE_FILENAME
        manifest = build_manifest(
            dataset=dataset,
            reconciler=reconciler,
            result=result,
            algorithm=algorithm,
            artifacts=artifacts,
            resumed=bool(resume_path),
        )
        manifest_path = write_manifest(manifest, run_dir)
        print(f"wrote run manifest to {manifest_path}", file=sys.stderr)
    return dataset, reconciler, result


def _cmd_reconcile(args) -> int:
    dataset, _, result = _run(args.directory, args.algorithm, args)
    payload = {
        class_name: result.clusters(class_name)
        for class_name in dataset.store.schema.class_names
    }
    text = json.dumps(payload, indent=2)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote partition to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    dataset, _, result = _run(args.directory, args.algorithm, args)
    if not dataset.gold.entity_of:
        print("dataset has no gold standard", file=sys.stderr)
        return 2
    gold = dataset.gold.entity_of
    print(f"{args.algorithm} on {dataset.name}:")
    for class_name in dataset.store.schema.class_names:
        clusters = result.clusters(class_name)
        pw = pairwise_scores(clusters, gold)
        b3 = bcubed_scores(clusters, gold)
        print(
            f"  {class_name:10s} pairwise P={pw.precision:.3f} R={pw.recall:.3f} "
            f"F={pw.f_measure:.3f} | b3 P={b3.precision:.3f} R={b3.recall:.3f} "
            f"F={b3.f_measure:.3f} | partitions={result.partition_count(class_name)}"
        )
    return 0


def _cmd_tables(args) -> int:
    from .evaluation import (
        figure6_series,
        render_figure6,
        render_table1,
        render_table2,
        render_table3,
        render_table4,
        render_table5,
        render_table6,
        render_table7,
        table1_dataset_properties,
        table2_class_averages,
        table3_person_subsets,
        table4_per_dataset,
        table5_ablation_grid,
        table6_constraints,
        table7_cora,
    )

    scale = args.scale
    dispatch = {
        "1": lambda: render_table1(table1_dataset_properties(scale)),
        "2": lambda: render_table2(table2_class_averages(scale)),
        "3": lambda: render_table3(table3_person_subsets(scale)),
        "4": lambda: render_table4(table4_per_dataset(scale)),
        "5": lambda: render_table5(table5_ablation_grid(scale)),
        "6": lambda: render_table6(table6_constraints(scale)),
        "7": lambda: render_table7(table7_cora()),
        "fig6": lambda: render_figure6(figure6_series(scale)),
    }
    print(dispatch[args.which]())
    return 0


def _cmd_explain(args) -> int:
    recorded = None
    if getattr(args, "run", None):
        # Resolve the provenance log through the run's manifest, so
        # the caller names the run, not the raw artifact path.
        provenance_path = load_run_dir(args.run).artifact("provenance")
        if provenance_path is None:
            print(
                f"run {args.run} has no provenance artifact "
                "(re-run with --run-dir or --provenance)",
                file=sys.stderr,
            )
            return 2
        recorded = ProvenanceLog.from_jsonl(provenance_path)
        # The engine reruns without a live provenance sink; the
        # explanation replays the recorded log instead, exactly what
        # that run decided.
        telemetry = _telemetry_from(args)
    else:
        # Always record provenance for explain: the explanation replays
        # the engine's actual decision records instead of recomputing
        # similarities against post-hoc cluster state.
        telemetry = _telemetry_from(args, force_provenance=True)
        if telemetry is None:  # pragma: no cover - force_provenance guarantees it
            telemetry = Telemetry(provenance=ProvenanceLog())
    dataset, reconciler, _ = _run(args.directory, "depgraph", args, telemetry)
    if args.ref_a not in dataset.store or args.ref_b not in dataset.store:
        print("unknown reference id", file=sys.stderr)
        return 2
    explanation = explain_merge(reconciler, args.ref_a, args.ref_b, provenance=recorded)
    print(explanation.describe())
    return 0


def _load_run(path: str):
    """(manifest, provenance-or-None) for a run directory / run.json."""
    run = load_run_dir(path)
    provenance_path = run.artifact("provenance")
    if provenance_path is None:
        return run.manifest, None
    return run.manifest, ProvenanceLog.from_jsonl(provenance_path)


def _cmd_diff(args) -> int:
    manifest_a, provenance_a = _load_run(args.run_a)
    manifest_b, provenance_b = _load_run(args.run_b)
    if provenance_a is None or provenance_b is None:
        print(
            "note: provenance missing for at least one run; "
            "flip localization skipped",
            file=sys.stderr,
        )
    verdict = diff_runs(
        manifest_a,
        manifest_b,
        provenance_a=provenance_a,
        provenance_b=provenance_b,
        label_a=args.run_a,
        label_b=args.run_b,
        quality_tolerance=args.quality_tolerance,
        phase_tolerance=args.phase_tolerance,
        phase_floor=args.phase_floor,
        max_flips=args.max_flips,
    )
    print(render_diff(verdict))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(verdict.to_dict(), indent=2) + "\n")
        print(f"wrote verdict to {path}", file=sys.stderr)
    return 1 if verdict.regressed else 0


def _cmd_report(args) -> int:
    target = Path(args.target)
    if target.is_dir() or target.name == MANIFEST_FILENAME:
        from .obs.report_html import write_report as write_html_report

        path = write_html_report(target, args.output)
        print(f"wrote HTML run report to {path}")
        return 0
    from .evaluation.report import write_report

    path = write_report(args.target, scale=args.scale)
    print(f"wrote report to {path}")
    return 0


def _watch_events_path(target: Path) -> Path:
    """Resolve what ``repro watch`` should tail for *target*.

    A run directory resolves through its manifest's ``events`` artifact
    when a manifest exists (the run may have pointed --log-json
    elsewhere), falling back to ``DIR/events.jsonl`` — which also
    covers watching a run that has not written its manifest yet. A
    torn manifest is an error. A file path is tailed as-is."""
    if not target.is_dir():
        return target
    try:
        resolved = load_run_dir(target).artifact("events")
    except RunDirError as exc:
        if not exc.missing:
            raise
        resolved = None
    return resolved or target / "events.jsonl"


def _cmd_watch(args) -> int:
    from .obs.live import follow_events, read_events, render_watch, watch_snapshot

    events_path = _watch_events_path(Path(args.run_dir))
    if args.once:
        events = read_events(events_path)
        if not events:
            print(f"no events found at {events_path}", file=sys.stderr)
            return 2
        print(render_watch(watch_snapshot(events)))
        return 0
    snap = follow_events(
        events_path, interval=args.interval, max_idle=args.max_idle
    )
    print(render_watch(snap))
    return 0


def _cmd_doctor(args) -> int:
    from .obs.flight import load_crash_bundle
    from .obs.render import render_doctor

    run_path = Path(args.run_dir)
    base = run_path if run_path.is_dir() else run_path.parent
    bundle = load_crash_bundle(run_path)
    manifest = None
    try:
        manifest = load_run_dir(base).manifest
    except RunDirError as exc:
        # A crashed run may have died before writing its manifest:
        # the bundle alone is still worth diagnosing.
        print(exc, file=sys.stderr)
    print(render_doctor(bundle, manifest))
    if bundle is None and manifest is None:
        return 2
    if bundle is not None:
        return 1
    run = manifest.get("run", {})
    degraded = bool(manifest.get("degradations")) or not run.get("completed", False)
    return 1 if degraded else 0


def _cmd_hotspots(args) -> int:
    from .obs.render import render_hotspots

    manifest = load_run_dir(args.run_dir).manifest
    hotspots = (manifest.get("execution") or {}).get("hotspots")
    if not hotspots:
        print(
            "manifest records no hotspot attribution "
            "(recorded by --run-dir runs from this version onward)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(hotspots, indent=2, sort_keys=True))
    else:
        print(render_hotspots(hotspots))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "reconcile": _cmd_reconcile,
        "evaluate": _cmd_evaluate,
        "tables": _cmd_tables,
        "explain": _cmd_explain,
        "diff": _cmd_diff,
        "report": _cmd_report,
        "watch": _cmd_watch,
        "doctor": _cmd_doctor,
        "hotspots": _cmd_hotspots,
    }
    try:
        return handlers[args.command](args)
    except RunDirError as exc:
        # A run-dir command pointed at a missing or torn run.json.
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe reader (head, grep -q) closed early; not an
        # error.  Detach stdout so interpreter teardown doesn't retry
        # the flush and traceback anyway.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
