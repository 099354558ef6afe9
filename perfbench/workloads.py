"""The four benchmark workloads, their timed operations and their checks.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned. Inputs are made from the
seed (see :meth:`Spec.generate`); the library only ever sees them.

* ``pim-batch``       - one ``Reconciler.run()`` on PIM B@0.5 in memory.
  The similarity kernel, feature extraction and scoring dominate it.
* ``cora-batch``      - the same call on Cora scaled to 0.1.
  Dependency-graph bookkeeping (resolve, fusion, self-reference scans,
  association wiring) dominates it; the kernel is a small share.
* ``pim-incremental`` - ``initial()`` on B@1.5 minus 400 held-out Person
  references, then 200 ``add()`` calls of 2 references each. Per-update
  whole-store work dominates it.
* ``pim-audited``     - ``repro evaluate <dir> --run-dir <dir> --workers 2``
  in-process on B@0.25 written to disk: the only workload that runs the
  observer sinks, the relay, the supervised parallel build, dataset
  loading and evaluation.

A run repeats passes until its time is up. A pass sets up afresh and
then makes its updates: one whole run for the batch workloads, the 200
adds for ``pim-incremental``. Each update is timed in every pass, and
its fastest time over the run's passes is the one reported: on a shared
host the speed of the CPU moves by tens of percent over tens of seconds,
which a median over one run takes in and a best-of-N time mostly does
not. Inputs are sized so that one update takes well under a second and
a run makes dozens of passes: a short update is more likely to fall
wholly within a spell when the host runs at full speed. The inputs of
an update are the same in every pass of a run.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import cli
from repro.core import EngineConfig, IncrementalReconciler, Reconciler
from repro.core.partition import UnionFind
from repro.core.references import Reference, ReferenceStore
from repro.datasets import generate_cora_dataset, generate_pim_dataset, save_dataset
from repro.datasets.cora import CoraConfig
from repro.datasets.pim import PIM_PROFILES
from repro.domains import CoraDomainModel, PimDomainModel
from repro.evaluation.metrics import pairwise_scores
from repro.obs import load_manifest, validate_manifest, validate_provenance_jsonl
from repro.obs.manifest import partition_digest
from repro.similarity import clear_similarity_caches

#: passes per untraced run at least, however long they take.
MIN_PASSES = 3

PIM_SEED = PIM_PROFILES["B"].seed
CORA_SEED = CoraConfig().seed


@dataclass(frozen=True)
class Spec:
    """Input parameters of one workload."""

    name: str
    dataset: str  # "B" or "cora"
    scale: float = 1.0
    held_out: int = 0
    per_add: int = 0

    @property
    def default_seed(self) -> int:
        return CORA_SEED if self.dataset == "cora" else PIM_SEED

    def generate(self, seed: int):
        """The profile's dataset, its references in a seeded order.

        The world is always generated from the profile seed: other
        worlds trip the weak-fanout degradation on some seeds and vary
        the amount of work by tens of percent. The seed instead shuffles
        the order the library receives the references in, which moves
        blocking, queue and merge order (and so the partition) but not
        the size of the job.
        """
        if self.dataset == "cora":
            # Papers, citations, authors and venues scale together, which
            # keeps the corpus's duplicates per entity and so its graph-
            # heavy profile; scaling citations alone makes it kernel-heavy.
            cora = CoraConfig()
            dataset = generate_cora_dataset(
                replace(
                    cora,
                    n_papers=round(cora.n_papers * self.scale),
                    n_citations=round(cora.n_citations * self.scale),
                    n_authors=round(cora.n_authors * self.scale),
                    n_venues=round(cora.n_venues * self.scale),
                )
            )
        else:
            dataset = generate_pim_dataset(self.dataset, scale=self.scale)
        references = list(dataset.store)
        random.Random(seed).shuffle(references)
        store = ReferenceStore(dataset.store.schema, references)
        return replace(dataset, store=store)

    def domain(self):
        return CoraDomainModel() if self.dataset == "cora" else PimDomainModel()


SPECS = {
    "pim-batch": Spec("pim-batch", "B", scale=0.5),
    "cora-batch": Spec("cora-batch", "cora", scale=0.1),
    "pim-incremental": Spec("pim-incremental", "B", scale=1.5, held_out=400, per_add=2),
    "pim-audited": Spec("pim-audited", "B", scale=0.25),
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: seconds each pass took to set up.
    setup_s: list[float] = field(default_factory=list)
    #: per untraced pass, the wall / CPU seconds of each of its updates.
    wall: list[list[float]] = field(default_factory=list)
    cpu: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    f1: float | None = None
    counts: dict | None = None
    digest: str | None = None
    #: filled by traced runs only
    layers: dict | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def another_pass(self, started: float, seconds: float, trace: bool) -> bool:
        """Closed loop: the next pass starts when the last one returned.
        A traced run makes one untraced pass, the base of the overhead."""
        if trace:
            return not self.wall
        return len(self.wall) < MIN_PASSES or time.perf_counter() - started < seconds


def best(passes: list[list[float]]) -> list[float]:
    """Each update's fastest time over the passes of a run."""
    return [min(times) for times in zip(*passes)]


# -- measurement helpers ----------------------------------------------------
def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(fn):
    """``(result, wall seconds, CPU seconds incl. reaped children)``."""
    wall0, cpu0, child0 = time.perf_counter(), time.process_time(), _child_cpu()
    result = fn()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0 + _child_cpu() - child0
    return result, wall, cpu


def quiesce() -> None:
    """Start every operation from the same cold-cache state."""
    clear_similarity_caches()
    gc.collect()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# -- correctness helpers ------------------------------------------------------
def macro_f1(partitions: dict, gold: dict) -> float:
    """Pairwise F-measure, macro-averaged over classes with gold labels."""
    scores = [
        pairwise_scores(clusters, gold).f_measure
        for _, clusters in sorted(partitions.items())
        if any(ref_id in gold for cluster in clusters for ref_id in cluster)
    ]
    return sum(scores) / len(scores) if scores else 0.0


def constraint_violations(store, domain, partitions: dict) -> int:
    """Distinct pairs that ended in one cluster, other than those the
    build pre-merged on a shared key value (which the engine skips)."""
    cluster_of = {
        ref_id: index
        for clusters in partitions.values()
        for index, cluster in enumerate(clusters)
        for ref_id in cluster
    }
    premerged = UnionFind()
    buckets: dict[str, str] = {}
    for reference in store:
        for key_value in domain.key_values(reference):
            first = buckets.setdefault(key_value, reference.ref_id)
            premerged.union(first, reference.ref_id)
    violations = 0
    for left, right in domain.distinct_pairs(store):
        if cluster_of[left] == cluster_of[right] and not premerged.connected(left, right):
            violations += 1
    return violations


def check_engine_result(out: Outcome, label: str, result, store, domain) -> None:
    if result.stop_reason != "converged":
        out.fail(f"{label}: stop_reason={result.stop_reason}")
    if result.degradations:
        kinds = sorted({event.kind for event in result.degradations})
        out.fail(f"{label}: degradations {kinds}")
    violations = constraint_violations(store, domain, result.partitions)
    if violations:
        out.fail(f"{label}: {violations} distinct-pair constraints violated")


def engine_counts(engine) -> dict:
    stats = engine.stats
    return {
        "candidate_pairs": stats.candidate_pairs,
        "pair_nodes": engine.graph.pair_nodes_created,
        "recomputations": stats.recomputations,
        "merges": stats.merges,
        "provenance_records": 0,
    }


def engine_counters(engine) -> dict:
    """Every numeric counter the per-layer metrics read from an engine."""
    stats = engine.stats
    counters = {
        name: getattr(stats, name)
        for name in (
            "candidate_pairs",
            "recomputations",
            "merges",
            "feature_cache_hits",
            "feature_cache_misses",
            "pair_memo_hits",
            "pair_memo_misses",
            "prefilter_skips",
            "values_cache_hits",
            "values_cache_misses",
            "contacts_cache_hits",
            "contacts_cache_misses",
            "task_retries",
        )
    }
    # Domain-side feature cache counters are cumulative; read them live.
    cache = getattr(engine.domain, "feature_cache", None)
    if cache is not None:
        counters["feature_cache_hits"] = cache.hits
        counters["feature_cache_misses"] = cache.misses
    counters["pair_nodes"] = engine.graph.pair_nodes_created
    counters["fusions"] = engine.graph.fusions
    counters["unions"] = engine.uf.union_count
    counters["compactions"] = engine.queue.compactions
    return counters


def counter_delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before.get(name, 0) for name in after}


class Expectations:
    """Digests and counts recorded at each workload's default seed, plus
    the counts of earlier runs of this checkout (the determinism ledger)."""

    def __init__(self, recorded: dict, ledger_path: Path) -> None:
        self.recorded = recorded
        self.ledger_path = ledger_path

    def check(self, out: Outcome, spec: Spec, seed: int, digest: str, counts: dict) -> None:
        before = len(out.failures)
        self._check(out, spec, seed, digest, counts)
        if len(out.failures) > before:
            out.failed = min(out.attempted, out.failed + 1)

    def _check(self, out: Outcome, spec: Spec, seed: int, digest: str, counts: dict) -> None:
        if seed == spec.default_seed:
            expected = self.recorded.get(spec.name)
            if expected is None:
                out.fail(f"no digest recorded for {spec.name}")
            else:
                if digest != expected["digest"]:
                    out.fail(f"digest {digest} != recorded {expected['digest']}")
                if counts != expected["counts"]:
                    out.fail(f"counts {counts} != recorded {expected['counts']}")
        ledger = self._load()
        key = f"{spec.name}:{seed}"
        earlier = ledger.get(key)
        if earlier is None:
            ledger[key] = {"digest": digest, "counts": counts}
            self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
            self.ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        elif earlier != {"digest": digest, "counts": counts}:
            out.fail(f"{key}: digest/counts differ from an earlier run: {earlier}")

    def _load(self) -> dict:
        try:
            return json.loads(self.ledger_path.read_text())
        except (OSError, ValueError):
            return {}


def same_or_fail(out: Outcome, label: str, first, current) -> None:
    if first is not None and current != first:
        out.fail(f"{label} differs between operations of one run: {first} != {current}")


def count_failures(out: Outcome, before: int) -> None:
    """One attempted operation; failed when it added failures."""
    out.attempted += 1
    if len(out.failures) > before:
        out.failed += 1


# -- batch: pim-batch and cora-batch ----------------------------------------
def _batch_op(spec: Spec, store):
    engine = Reconciler(store, spec.domain(), EngineConfig())
    return engine, engine.run()


def run_batch(spec: Spec, seed: int, seconds: float, trace: bool, ctx) -> Outcome:
    out = Outcome()
    started = time.perf_counter()
    while out.another_pass(started, seconds, trace):
        gc.collect()
        dataset, wall, _ = measure(lambda: spec.generate(seed))
        out.setup_s.append(wall)
        before = len(out.failures)
        quiesce()
        (engine, result), wall, cpu = measure(lambda: _batch_op(spec, dataset.store))
        out.wall.append([wall])
        out.cpu.append([cpu])
        _check_batch(out, spec, engine, result, dataset)
        count_failures(out, before)
    if trace:
        before = len(out.failures)
        quiesce()
        with ctx.tracer(spec.name) as tracer:
            with tracer.op(f"{spec.name}.run"):
                (engine, result), wall, cpu = measure(lambda: _batch_op(spec, dataset.store))
        _check_batch(out, spec, engine, result, dataset)
        count_failures(out, before)
        out.layers = ctx.layers(
            tracer, engine_counters(engine), {"overhead_ratio": wall / out.wall[0][0]}
        )
    ctx.expect.check(out, spec, seed, out.digest, out.counts)
    return out


def _check_batch(out: Outcome, spec: Spec, engine, result, dataset) -> None:
    check_engine_result(out, spec.name, result, dataset.store, engine.domain)
    digest = partition_digest(result.partitions)
    counts = engine_counts(engine)
    same_or_fail(out, "digest", out.digest, digest)
    same_or_fail(out, "counts", out.counts, counts)
    if out.digest is None:
        out.digest, out.counts = digest, counts
        out.f1 = macro_f1(result.partitions, dataset.gold.entity_of)


# -- pim-incremental ----------------------------------------------------------
def split_held_out(dataset, held_out: int, pick_seed: int):
    """Hold out *held_out* Person references drawn with *pick_seed*;
    links into them are stripped on both sides, as an extractor would
    have produced had those messages not arrived yet. Both parts keep
    the store's order, so the run's seed orders the adds while the held-
    out set, and with it the size of the job, is the same on every seed."""
    references = list(dataset.store)
    schema = dataset.store.schema
    person_ids = sorted(ref.ref_id for ref in references if ref.class_name == "Person")
    held = set(random.Random(pick_seed).sample(person_ids, held_out))

    def strip(reference):
        values = {}
        for attribute, items in reference.values.items():
            if schema.cls(reference.class_name).attribute(attribute).is_association:
                items = tuple(item for item in items if item not in held)
                if not items:
                    continue
            values[attribute] = items
        return Reference(reference.ref_id, reference.class_name, values, reference.source)

    base = [strip(ref) for ref in references if ref.ref_id not in held]
    batch = [strip(ref) for ref in references if ref.ref_id in held]
    return base, batch


def _incremental_setup(spec: Spec, seed: int):
    dataset = spec.generate(seed)
    base, batch = split_held_out(dataset, spec.held_out, spec.default_seed)
    domain = spec.domain()
    incremental = IncrementalReconciler(
        ReferenceStore(domain.schema, base), domain, EngineConfig()
    )
    result = incremental.initial()
    return dataset, incremental, batch, result


def _cluster_splits(previous: dict, current: dict) -> int:
    """Clusters of *previous* whose members no longer share one cluster."""
    cluster_of = {
        ref_id: index
        for clusters in current.values()
        for index, cluster in enumerate(clusters)
        for ref_id in cluster
    }
    splits = 0
    for clusters in previous.values():
        for cluster in clusters:
            if len({cluster_of[ref_id] for ref_id in cluster}) > 1:
                splits += 1
    return splits


def run_incremental(spec: Spec, seed: int, seconds: float, trace: bool, ctx) -> Outcome:
    out = Outcome()
    started = time.perf_counter()
    # A traced run's second pass is the traced one.
    while out.another_pass(started, seconds, trace) or (trace and out.layers is None):
        traced = trace and bool(out.wall)
        quiesce()
        (dataset, incremental, batch, result), wall, _ = measure(
            lambda: _incremental_setup(spec, seed)
        )
        out.setup_s.append(wall)
        engine = incremental.reconciler
        before_counters = engine_counters(engine)
        tracer = ctx.tracer(spec.name).install() if traced else None
        walls, cpus = [], []
        previous = result.partitions
        degradations = len(result.degradations)
        try:
            for start in range(0, len(batch), spec.per_add):
                chunk = batch[start : start + spec.per_add]
                before = len(out.failures)
                if tracer is not None:
                    with tracer.op("incremental.add_op", refs=len(chunk)):
                        result, wall, cpu = measure(lambda: incremental.add(chunk))
                else:
                    result, wall, cpu = measure(lambda: incremental.add(chunk))
                walls.append(wall)
                cpus.append(cpu)
                if result.stop_reason != "converged":
                    out.fail(f"add {start // spec.per_add}: stop_reason={result.stop_reason}")
                if len(result.degradations) > degradations:
                    out.fail(f"add {start // spec.per_add}: {result.degradations[degradations:]}")
                degradations = len(result.degradations)
                splits = _cluster_splits(previous, result.partitions)
                if splits:
                    out.fail(f"add {start // spec.per_add}: {splits} clusters split")
                previous = result.partitions
                count_failures(out, before)
        finally:
            if tracer is not None:
                tracer.uninstall()
        before = len(out.failures)
        check_engine_result(out, spec.name, result, engine.store, engine.domain)
        digest = partition_digest(result.partitions)
        counts = engine_counts(engine)
        same_or_fail(out, "final digest", out.digest, digest)
        same_or_fail(out, "counts", out.counts, counts)
        if out.digest is None:
            out.digest, out.counts = digest, counts
            out.f1 = macro_f1(result.partitions, dataset.gold.entity_of)
        if len(out.failures) > before:
            out.failed += 1
        if traced:
            counters = counter_delta(engine_counters(engine), before_counters)
            out.layers = ctx.layers(
                tracer,
                counters,
                {
                    "overhead_ratio": sum(walls) / sum(out.wall[0]),
                    "new_pair_nodes": counters["pair_nodes"],
                },
            )
        else:
            out.wall.append(walls)
            out.cpu.append(cpus)
    ctx.expect.check(out, spec, seed, out.digest, out.counts)
    return out


# -- pim-audited ----------------------------------------------------------------
def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def run_audited(spec: Spec, seed: int, seconds: float, trace: bool, ctx) -> Outcome:
    out = Outcome()
    data_dir = ctx.workdir / "dataset"
    run_dir = ctx.workdir / "run"

    def setup():
        shutil.rmtree(data_dir, ignore_errors=True)
        dataset = spec.generate(seed)
        save_dataset(dataset, data_dir)
        return dataset

    argv = ["evaluate", str(data_dir), "--run-dir", str(run_dir), "--workers", "2"]

    def evaluate():
        # The command prints its scores; keep stdout for the result line.
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(argv)

    started = time.perf_counter()
    while out.another_pass(started, seconds, trace):
        gc.collect()
        dataset, wall, _ = measure(setup)
        out.setup_s.append(wall)
        before = len(out.failures)
        shutil.rmtree(run_dir, ignore_errors=True)
        quiesce()
        code, wall, cpu = measure(evaluate)
        out.wall.append([wall])
        out.cpu.append([cpu])
        _check_audited(out, code, run_dir)
        count_failures(out, before)
    if trace:
        before = len(out.failures)
        shutil.rmtree(run_dir, ignore_errors=True)
        quiesce()
        child0 = _child_cpu()
        with ctx.tracer(spec.name) as tracer:
            with tracer.op(f"{spec.name}.evaluate"):
                code, wall, cpu = measure(evaluate)
        child_cpu = _child_cpu() - child0
        _check_audited(out, code, run_dir)
        count_failures(out, before)
        engine = tracer.last_self.get("Reconciler.run")
        out.layers = ctx.layers(
            tracer,
            engine_counters(engine) if engine is not None else {},
            {
                "overhead_ratio": wall / out.wall[0][0],
                "child_cpu_s": child_cpu,
                "artifact_bytes": _dir_bytes(run_dir),
            },
        )
    # The --workers 2 build must be byte-identical to a serial run of
    # the same data, which one untimed in-memory run gives.
    quiesce()
    engine, serial_result = _batch_op(spec, dataset.store)
    check_engine_result(out, "serial", serial_result, dataset.store, engine.domain)
    serial = partition_digest(serial_result.partitions)
    if out.digest != serial:
        out.fail(f"--workers 2 digest {out.digest} != serial digest {serial}")
        out.failed += 1
    ctx.expect.check(out, spec, seed, out.digest, out.counts)
    return out


def _check_audited(out: Outcome, code: int, run_dir: Path) -> None:
    if code != 0:
        out.fail(f"repro evaluate exited {code}")
        return
    manifest = load_manifest(run_dir)
    try:
        validate_manifest(manifest)
        records = validate_provenance_jsonl(run_dir / "provenance.jsonl")
    except ValueError as exc:
        out.fail(f"artifact invalid: {exc}")
        return
    run = manifest["run"]
    if run["stop_reason"] != "converged" or not run["completed"]:
        out.fail(f"stop_reason={run['stop_reason']}")
    if manifest["degradations"]:
        out.fail(f"degradations {manifest['degradations']}")
    digest = manifest["partition"]["digest"]
    counters = manifest["counters"]
    counts = {
        "candidate_pairs": counters["candidate_pairs"],
        "pair_nodes": counters["pair_nodes"],
        "recomputations": counters["recomputations"],
        "merges": counters["merges"],
        "provenance_records": records,
    }
    same_or_fail(out, "digest", out.digest, digest)
    same_or_fail(out, "counts", out.counts, counts)
    if out.digest is None:
        out.digest, out.counts = digest, counts
        f1s = [scores["pairwise"]["f1"] for scores in manifest["quality"].values()]
        out.f1 = sum(f1s) / len(f1s) if f1s else 0.0


RUNNERS = {
    "pim-batch": run_batch,
    "cora-batch": run_batch,
    "pim-incremental": run_incremental,
    "pim-audited": run_audited,
}
