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
* ``report`` — run the full experiment suite, check every paper claim
  and write the markdown report to a ``.md`` path. Exits 1 when a
  claim fails. A recorded run is read with ``doctor``, ``hotspots``
  and ``explain --run`` instead.
* ``doctor`` — post-mortem diagnosis of a recorded run: reads the
  crash bundle (when the run crashed or degraded) and the manifest,
  prints what failed, what degraded, the flight-recorder tail and
  actionable hints. Exit code 0 = clean, 1 = crashed/degraded,
  2 = nothing to diagnose.
* ``hotspots`` — heavy-hitter workload attribution for a recorded
  run: hottest blocks by candidate pairs, most-recomputed reference
  pairs by attributed wall time, similarity-channel comparison
  counts, and per-class blocking skew (Gini / max-block share).

``reconcile`` / ``evaluate`` / ``explain`` accept ``--run-dir DIR``,
the one place a run writes. DIR always holds the versioned ``run.json``
manifest (the one machine-readable summary of a run), ``events.jsonl``,
``provenance.jsonl`` and ``trace.json``; it also holds
``checkpoint.json`` under ``--checkpoint-every`` and
``crash_bundle.json`` when the run crashed or degraded. ``--resume``
continues DIR from its checkpoint. A run directory is the unit
``diff``, ``doctor``, ``hotspots`` and ``explain --run`` operate on,
and they find its files by these fixed names.
"""

from __future__ import annotations

import argparse
import json
import math
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
    MANIFEST_FILENAME,
    RUN_FILES,
    EventLog,
    FlightRecorder,
    HotspotSketch,
    ProvenanceLog,
    RunDirError,
    Telemetry,
    Tracer,
    build_manifest,
    diff_runs,
    load_run_dir,
    render_degradations,
    render_diff,
    render_quarantine,
    write_manifest,
)
from .runtime import ReproError

__all__ = ["main", "build_parser"]


def _domain_for(dataset_name: str):
    return CoraDomainModel() if dataset_name.lower().startswith("cora") else PimDomainModel()


def _config_for(algorithm: str, domain) -> EngineConfig:
    if algorithm == "indepdec":
        return indepdec_config(domain)
    return EngineConfig()


def _at_least(minimum, kind):
    """Argparse ``type=`` converting with *kind* and rejecting values
    below *minimum* (and NaN) at parse time, so a bad budget exits 2
    instead of being coerced."""
    def parse(text: str):
        value = kind(text)
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _deadline(text: str) -> float:
    """Argparse ``type=`` of ``--deadline``: a finite number of seconds
    >= 0, the bounds :class:`~repro.runtime.guards.RunGuard` enforces
    (an infinite deadline could never trip)."""
    value = _at_least(0, float)(text)
    if value == math.inf:
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {text}")
    return value


def _scale(text: str) -> float:
    """Argparse ``type=`` of the generators' ``--scale``: a finite,
    positive float, so a scale that would silently yield the minimum
    world (or crash the generator) exits 2 at parse time."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


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
    generate.add_argument("--scale", type=_scale, default=1.0)

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
        help="answer from a recorded run directory: replay DIR's "
        "provenance.jsonl instead of recording a new one",
    )

    for runner in (reconcile, evaluate, explain):
        runner.add_argument(
            "--run-dir", default=None, metavar="DIR",
            help="record this run in DIR: run.json (the versioned run "
            "manifest), events.jsonl, provenance.jsonl and trace.json, "
            "plus checkpoint.json and crash_bundle.json when they apply. "
            "The unit `repro diff`, `doctor`, `hotspots` and "
            "`explain --run` operate on",
        )

    for runner in (reconcile, evaluate):
        perf = runner.add_argument_group("performance")
        perf.add_argument(
            "--workers", type=_at_least(1, int), default=1, metavar="N",
            help="worker processes for candidate-pair scoring during the "
            "graph build; results are byte-identical to --workers 1 "
            "(default 1 = serial)",
        )
        runtime = runner.add_argument_group("runtime (fault tolerance)")
        runtime.add_argument(
            "--deadline", type=_deadline, default=None, metavar="SECONDS",
            help="wall-clock budget; past it the run stops gracefully with "
            "a partial (but valid) partition",
        )
        runtime.add_argument(
            "--max-recomputations", type=_at_least(0, int), default=None, metavar="N",
            help="recomputation budget enforced by the run guard",
        )
        runtime.add_argument(
            "--checkpoint-every", type=_at_least(1, int), default=None, metavar="STEPS",
            help="checkpoint engine state to RUN_DIR/checkpoint.json every "
            "STEPS iterate steps (needs --run-dir)",
        )
        runtime.add_argument(
            "--resume", action="store_true",
            help="continue RUN_DIR from its checkpoint.json, appending to "
            "its logs (needs --run-dir)",
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
    tables.add_argument("--scale", type=_scale, default=1.0)

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
        "--quality-tolerance", type=_at_least(0, float), default=0.0, metavar="DELTA",
        help="absolute per-class metric drop tolerated before gating "
        "(default 0: runs are deterministic, any drop is real)",
    )
    diff.add_argument(
        "--phase-tolerance", type=_at_least(0, float), default=0.25, metavar="FRACTION",
        help="relative phase slowdown tolerated (default 0.25 = 25%%)",
    )
    diff.add_argument(
        "--phase-floor", type=_at_least(0, float), default=0.05, metavar="SECONDS",
        help="absolute slowdown a phase must also exceed (default 0.05s)",
    )
    diff.add_argument(
        "--max-flips", type=_at_least(0, int), default=20, metavar="N",
        help="flipped pairs to localize in detail (default 20)",
    )

    report = commands.add_parser(
        "report",
        help="run every experiment, check the paper's claims and write the "
        "markdown report (exit 1 when a claim fails)",
    )
    report.add_argument(
        "target", help="output .md path (not a run directory)"
    )
    report.add_argument("--scale", type=_scale, default=1.0)

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


def _apply_run_dir(options) -> Path | None:
    """Materialize ``--run-dir``: create it and, on a fresh (non-resume)
    run, clear every fixed-name file an earlier run left there, so each
    file describes this run alone. A resumed run keeps them and appends
    to its logs."""
    run_dir = getattr(options, "run_dir", None)
    if not run_dir:
        return None
    run_dir = Path(run_dir)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RunDirError(
            f"--run-dir {run_dir} is not a usable directory: {exc.strerror}"
        ) from None
    if not getattr(options, "resume", False):
        for name in RUN_FILES.values():
            (run_dir / name).unlink(missing_ok=True)
    return run_dir


def _telemetry(run_dir: Path | None, *, provenance: bool = False) -> Telemetry | None:
    """Every sink, writing into *run_dir*; without a run directory, an
    in-memory provenance log when *provenance* asks for one, else none."""
    if run_dir is not None:
        return Telemetry(
            log=EventLog(run_dir / RUN_FILES["events"]),
            tracer=Tracer(),
            provenance=ProvenanceLog(run_dir / RUN_FILES["provenance"]),
        )
    return Telemetry(provenance=ProvenanceLog()) if provenance else None


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


def _load(options):
    """Load the dataset directory of a run command, reporting any
    records ``--lenient`` quarantined."""
    dataset = load_dataset(options.directory, lenient=bool(getattr(options, "lenient", False)))
    if dataset.quarantined:
        print(render_quarantine(dataset.quarantined), file=sys.stderr)
    return dataset


def _run(dataset, algorithm: str, options, *, provenance: bool = False):
    run_dir = _apply_run_dir(options)
    telemetry = _telemetry(run_dir, provenance=provenance)
    if telemetry is not None and dataset.quarantined:
        telemetry.emit("warning", "quarantine", records=len(dataset.quarantined))
    domain = _domain_for(dataset.name)
    config = _config_for(algorithm, domain)
    workers = getattr(options, "workers", 1)
    if workers > 1:
        from dataclasses import replace

        config = replace(config, workers=workers)
    guard = None
    checkpointer = None
    deadline = getattr(options, "deadline", None)
    max_recomputations = getattr(options, "max_recomputations", None)
    if deadline is not None or max_recomputations is not None:
        from .runtime import RunGuard

        guard = RunGuard(deadline_seconds=deadline, max_recomputations=max_recomputations)
    checkpoint_every = getattr(options, "checkpoint_every", None)
    if checkpoint_every:
        from .runtime import Checkpointer

        checkpointer = Checkpointer(
            run_dir, every=checkpoint_every, filename=RUN_FILES["checkpoint"]
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
    resumed = bool(getattr(options, "resume", False))
    if resumed:
        reconciler = Reconciler.resume(
            run_dir / RUN_FILES["checkpoint"],
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
        if telemetry is not None:
            # Flush the event log now, so a resume in this process
            # appends after the crashed run's events, not before them.
            telemetry.close()
        raise
    degraded = render_degradations(result)
    if degraded:
        print(degraded, file=sys.stderr)
    if telemetry is not None:
        telemetry.emit(
            "info",
            "run_end",
            completed=result.completed,
            stop_reason=result.stop_reason,
            merges=reconciler.stats.merges,
            recomputations=reconciler.stats.recomputations,
        )
        if run_dir is not None:
            telemetry.tracer.write(run_dir / RUN_FILES["trace"])
        telemetry.close()
    if run_dir is not None:
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
            (run_dir / RUN_FILES["crash_bundle"]).unlink(missing_ok=True)
        manifest = build_manifest(
            dataset=dataset,
            reconciler=reconciler,
            result=result,
            algorithm=algorithm,
            resumed=resumed,
        )
        manifest_path = write_manifest(manifest, run_dir)
        print(f"wrote run manifest to {manifest_path}", file=sys.stderr)
    return reconciler, result


def _cmd_reconcile(args) -> int:
    dataset = _load(args)
    _, result = _run(dataset, args.algorithm, args)
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
    dataset = _load(args)
    _, result = _run(dataset, args.algorithm, args)
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
        "fig6": lambda: render_figure6(figure6_series(table5_ablation_grid(scale))),
    }
    print(dispatch[args.which]())
    return 0


def _cmd_explain(args) -> int:
    recorded = None
    if args.run:
        provenance_path = load_run_dir(args.run).artifact("provenance")
        if provenance_path is None:
            print(f"run {args.run} has no {RUN_FILES['provenance']}", file=sys.stderr)
            return 2
        # The explanation replays the recorded log: exactly what that
        # run decided.
        recorded = ProvenanceLog.from_jsonl(provenance_path)
    dataset = _load(args)
    unknown = [ref for ref in (args.ref_a, args.ref_b) if ref not in dataset.store]
    if unknown:
        print(f"unknown reference id: {', '.join(unknown)}", file=sys.stderr)
        return 2
    # Without a recorded run, always record provenance: the explanation
    # replays the engine's actual decision records instead of
    # recomputing similarities against post-hoc cluster state.
    reconciler, _ = _run(dataset, "depgraph", args, provenance=recorded is None)
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
        # Refused before the experiment suite runs: a recorded run is
        # summarized by its run.json, read with these commands.
        print(
            f"{target} is a recorded run, not a .md path; read a run "
            "with `repro doctor`, `repro hotspots` or `repro explain --run`",
            file=sys.stderr,
        )
        return 2
    from .evaluation.report import build_report

    markdown, verdicts = build_report(args.scale)
    target.write_text(markdown)
    for text, ok in verdicts:
        print(f"[{'x' if ok else ' '}] {text}")
    print(f"wrote report to {target}")
    failed = sum(1 for _, ok in verdicts if not ok)
    if failed:
        print(f"{failed} of {len(verdicts)} paper claims fail", file=sys.stderr)
    return 1 if failed else 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "run_dir", None) and (
        getattr(args, "checkpoint_every", None) or getattr(args, "resume", False)
    ):
        parser.error("--checkpoint-every and --resume need --run-dir")
    handlers = {
        "generate": _cmd_generate,
        "reconcile": _cmd_reconcile,
        "evaluate": _cmd_evaluate,
        "tables": _cmd_tables,
        "explain": _cmd_explain,
        "diff": _cmd_diff,
        "report": _cmd_report,
        "doctor": _cmd_doctor,
        "hotspots": _cmd_hotspots,
    }
    try:
        return handlers[args.command](args)
    except (RunDirError, ReproError) as exc:
        # An unusable run directory (not a directory, a missing, torn or
        # other-version run.json, a torn crash bundle) or a typed
        # runtime failure (bad data, unusable checkpoint): one line,
        # not a traceback.
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
