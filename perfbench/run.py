#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pim-batch --seed 23 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced and one traced operation and reports
the per-layer metrics; it also writes the spans as Chrome trace-event
JSON and a per-target table under ``.perfbench_out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
failed checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("pim-batch", "cora-batch", "pim-incremental", "pim-audited")

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "update_p50_ms": "ms",
    "update_p95_ms": "ms",
    "pairwise_f1": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: the dataset profile's seed)",
    )
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Context:
    """What a workload runner needs from the harness."""

    def __init__(self, workload: str, seed: int, expect, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.expect = expect
        self.workdir = workdir
        self.tracers = []

    def tracer(self, name: str):
        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer(TARGETS)
        self.tracers.append(tracer)
        return tracer

    def layers(self, tracer, counters: dict, extra: dict) -> dict:
        from layers import layer_metrics

        return layer_metrics(tracer, counters, extra)


def end_to_end(out) -> dict:
    """Times are best-of-passes per update (see ``workloads``); a batch
    workload's one update is its whole run, so its p50 and p95 are that
    run's time."""
    from workloads import best, peak_rss_mb, percentile

    wall, cpu = best(out.wall), best(out.cpu)
    return {
        "setup_s": statistics.median(out.setup_s),
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": peak_rss_mb(),
        "update_p50_ms": statistics.median(wall) * 1000.0,
        "update_p95_ms": percentile(wall, 0.95) * 1000.0,
        "pairwise_f1": out.f1 if out.f1 is not None else 0.0,
    }


def write_trace(ctx: Context, out) -> None:
    """Export the traced op's spans and per-target table; report targets
    that could not be wrapped and metrics the workload did not move."""
    from layers import PER_LAYER
    from repro.obs.schemas import validate_chrome_trace

    tracer = ctx.tracers[-1]
    trace = tracer.chrome_trace()
    validate_chrome_trace(trace)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{ctx.workload}-seed{ctx.seed}"
    trace_path = OUT_DIR / f"trace-{stem}.json"
    trace_path.write_text(json.dumps(trace))
    gone = {target.layer: reason for target, reason in tracer.absent.items()}
    absent_metrics = {
        name: gone.get(
            name.rsplit("_", 1)[0],
            f"0 on {ctx.workload}: layer not exercised or nothing to count",
        )
        for name in PER_LAYER
        if not out.layers.get(name)
    }
    table = {
        "targets": [
            {
                "module": target.module,
                "qualname": target.qualname,
                "layer": target.layer,
                "mode": target.mode,
                "bindings": tracer.bindings.get(target, 0),
                "calls": stats.calls,
                "total_s": stats.total_s,
                "self_s": stats.self_s,
                "absent": tracer.absent.get(target),
            }
            for target, stats in tracer.stats.items()
        ],
        "absent_metrics": absent_metrics,
    }
    (OUT_DIR / f"layers-{stem}.json").write_text(json.dumps(table, indent=1))
    for target, reason in tracer.absent.items():
        print(f"absent target {target.module}:{target.qualname}: {reason}", file=sys.stderr)
    for name, reason in absent_metrics.items():
        print(f"absent metric {name}: {reason}", file=sys.stderr)
    print(f"wrote {trace_path}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {src}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    spec = workloads.SPECS[args.workload]
    seed = spec.default_seed if args.seed is None else args.seed
    expect = workloads.Expectations(
        json.loads((HERE / "expected.json").read_text()), OUT_DIR / "ledger.json"
    )
    workdir = OUT_DIR / f"work-{os.getpid()}"
    ctx = Context(args.workload, seed, expect, workdir)
    try:
        out = workloads.RUNNERS[args.workload](
            spec, seed, args.seconds, bool(args.trace), ctx
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        from layers import PER_LAYER

        write_trace(ctx, out)
        metrics = {
            name: {"value": out.layers[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        values = end_to_end(out)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(
        f"setup_s={[round(t, 3) for t in out.setup_s]} "
        f"pass wall_s={[round(sum(walls), 3) for walls in out.wall]}",
        file=sys.stderr,
    )
    for failure in out.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={seed}: {out.attempted} operations, {out.failed} failed, "
        f"fail_rate={out.failed / max(out.attempted, 1):.4f}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not out.failures,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
