#!/usr/bin/env python
"""Chaos soak harness for the supervised execution layer.

Runs dataset B under randomized-but-seeded fault schedules — worker
kills (once / persistent), worker hangs and injected comparator faults
for real candidate pairs — and asserts the robustness contract of the supervised
execution layer for every schedule:

* the run never raises and never leaks a worker process;
* a run that completes with **no** poisoned pairs produces partitions
  byte-identical to the clean serial baseline;
* a run that completes **with** poisoned pairs matches the *oracle*: a
  serial run with exactly those pairs suppressed — proving the damage
  is precisely the quarantined pairs, never the whole run;
* a run that does not complete stops with a clean ``stop_reason``.

Usage::

    PYTHONPATH=src python scripts/chaos_soak.py --schedules 20 --seed 0
    PYTHONPATH=src python scripts/chaos_soak.py \\
        --faults kill_once,raise_pair --report chaos_report.json

``--faults`` pins the schedule kinds (cycled) instead of drawing them
from the seeded RNG; CI's chaos-smoke job uses it for two fixed
schedules. Exits non-zero if any schedule violates the contract.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import EngineConfig, Reconciler  # noqa: E402
from repro.core.nodes import pair_key  # noqa: E402
from repro.datasets import generate_pim_dataset  # noqa: E402
from repro.domains import PimDomainModel  # noqa: E402
from repro.runtime import ChaosInjector  # noqa: E402

FAULT_KINDS = (
    "none",
    "kill_once",
    "kill_persistent",
    "hang_once",
    "raise_pair",
)

DATASET = "B"
DATASET_SEED = 0
TASK_TIMEOUT = 3.0  # must undercut HANG_SECONDS so hangs are detected
HANG_SECONDS = 30.0
RETRY_BACKOFF = 0.01


def _store(scale: float):
    return generate_pim_dataset(DATASET, scale=scale, seed=DATASET_SEED).store


def _partition_text(result) -> str:
    return json.dumps(result.partitions, sort_keys=True)


def _baseline(scale: float):
    """Clean serial run: canonical partitions + the candidate-pair pool
    the raise-injector draws real pairs from."""
    engine = Reconciler(_store(scale), PimDomainModel())
    result = engine.run()
    assert result.completed, "clean serial baseline must converge"
    # Raise targets must flow through the worker pool, so draw them from
    # the blocking candidates: force-created graph nodes are scored
    # in-parent and would dodge a worker-side injector.
    pairs = sorted(
        pair
        for index in engine._block_indexes.values()
        for pair in index.pairs()
    )
    return _partition_text(result), pairs


def _chaos_for(kind: str, rng: Random, marker_dir: str, pair_pool):
    if kind == "none":
        return None
    if kind == "kill_once":
        return ChaosInjector(kill_at_chunk=0, marker_dir=marker_dir)
    if kind == "kill_persistent":
        return ChaosInjector(kill_at_chunk=0)
    if kind == "hang_once":
        return ChaosInjector(
            hang_at_chunk=0, hang_seconds=HANG_SECONDS, marker_dir=marker_dir
        )
    if kind == "raise_pair":
        return ChaosInjector(raise_pairs=(rng.choice(pair_pool),))
    raise SystemExit(f"unknown fault kind {kind!r}")


def _wait_for_children(deadline: float = 10.0) -> list:
    """Give pool teardown a moment; returns whatever is still alive."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        children = multiprocessing.active_children()
        if not children:
            return []
        time.sleep(0.1)
    return multiprocessing.active_children()


def _run_schedule(index: int, kind: str, rng: Random, args, baseline_text, pair_pool):
    row = {"schedule": index, "kind": kind, "ok": False}
    with tempfile.TemporaryDirectory() as tmp:
        markers = Path(tmp) / "markers"
        markers.mkdir()
        poison_log = Path(tmp) / "poisoned_pairs.jsonl"
        chaos = _chaos_for(kind, rng, str(markers), pair_pool)
        config = EngineConfig(
            workers=args.workers,
            task_timeout=TASK_TIMEOUT,
            retry_backoff=RETRY_BACKOFF,
            poison_log=str(poison_log),
        )
        engine = Reconciler(_store(args.scale), PimDomainModel(), config)
        engine.chaos = chaos
        try:
            result = engine.run()
        except Exception as exc:  # the contract: this must never happen
            row["error"] = f"unhandled {type(exc).__name__}: {exc}"
            return row
        finally:
            leaked = _wait_for_children()
            row["leaked_workers"] = [child.pid for child in leaked]

        stats = engine.stats
        row.update(
            completed=result.completed,
            stop_reason=result.stop_reason,
            counters={
                "task_retries": stats.task_retries,
                "task_timeouts": stats.task_timeouts,
                "pool_rebuilds": stats.pool_rebuilds,
                "pairs_poisoned": stats.pairs_poisoned,
            },
            degradations=sorted({e.kind for e in stats.degradations}),
        )
        poisons = []
        if poison_log.exists():
            poisons = [
                json.loads(line) for line in poison_log.read_text().splitlines()
            ]
        row["poisoned"] = poisons
        if len(poisons) != stats.pairs_poisoned:
            row["error"] = "poison log disagrees with pairs_poisoned counter"
            return row

        if row["leaked_workers"]:
            row["error"] = f"leaked workers: {row['leaked_workers']}"
            return row

        if not result.completed:
            if result.stop_reason and result.stop_reason != "converged":
                row["outcome"] = "clean_stop"
                row["ok"] = True
            else:
                row["error"] = "incomplete run without a stop_reason"
            return row

        if not poisons:
            if _partition_text(result) == baseline_text:
                row["outcome"] = "identical"
                row["ok"] = True
            else:
                row["error"] = "partitions differ from clean serial baseline"
            return row

        # Poisoned pairs: the oracle is a serial run suppressing exactly
        # those pairs. Matching it proves the damage is contained to the
        # quarantined pairs' decisions.
        oracle = Reconciler(_store(args.scale), PimDomainModel())
        oracle.suppressed_pairs = {
            pair_key(entry["pair"][0], entry["pair"][1]) for entry in poisons
        }
        oracle_result = oracle.run()
        if _partition_text(oracle_result) == _partition_text(result):
            row["outcome"] = "oracle_match"
            row["ok"] = True
        else:
            row["error"] = "poisoned run differs from its suppression oracle"
        return row
    return row  # pragma: no cover - unreachable


def _expected_counters_fired(row: dict) -> str | None:
    """Schedules whose fault is guaranteed to fire must show it."""
    counters = row.get("counters", {})
    kind = row["kind"]
    if kind in ("kill_once", "kill_persistent") and not counters.get("pool_rebuilds"):
        return "kill schedule recorded no pool rebuild"
    if kind == "hang_once" and not counters.get("task_timeouts"):
        return "hang schedule recorded no task timeout"
    if kind == "raise_pair" and not counters.get("pairs_poisoned"):
        return "raise schedule poisoned no pair"
    if kind == "none" and any(counters.values()):
        return f"clean schedule recorded supervision activity: {counters}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schedules", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--faults", default=None, metavar="KIND[,KIND...]",
        help=f"pin the schedule kinds (cycled) from {', '.join(FAULT_KINDS)}",
    )
    parser.add_argument("--report", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    rng = Random(args.seed)
    baseline_text, pair_pool = _baseline(args.scale)
    digest = hashlib.sha256(baseline_text.encode()).hexdigest()
    print(
        f"baseline: dataset {DATASET} scale={args.scale} "
        f"partition digest {digest[:16]}..."
    )

    if args.faults:
        pinned = args.faults.split(",")
        kinds = [pinned[i % len(pinned)] for i in range(args.schedules)]
    else:
        kinds = [rng.choice(FAULT_KINDS) for _ in range(args.schedules)]

    rows = []
    failures = 0
    for index, kind in enumerate(kinds):
        started = time.monotonic()
        row = _run_schedule(index, kind, rng, args, baseline_text, pair_pool)
        row["seconds"] = round(time.monotonic() - started, 3)
        if row["ok"]:
            expectation_miss = _expected_counters_fired(row)
            if expectation_miss:
                row["ok"] = False
                row["error"] = expectation_miss
        if not row["ok"]:
            failures += 1
        status = "ok" if row["ok"] else f"FAIL ({row.get('error')})"
        print(
            f"  [{index:02d}] {kind:<16} {row.get('outcome', '-'):<12} "
            f"{row['seconds']:6.2f}s  {status}"
        )
        rows.append(row)

    report = {
        "dataset": DATASET,
        "scale": args.scale,
        "workers": args.workers,
        "seed": args.seed,
        "baseline_digest": digest,
        "schedules": rows,
        "failures": failures,
    }
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote report to {args.report}")
    print(
        f"chaos soak: {len(rows) - failures}/{len(rows)} schedules clean "
        f"(baseline digest {digest[:16]}...)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
