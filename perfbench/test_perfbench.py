"""Self-test of the benchmark: every trace target fires where it should.

Runs each workload traced (pim-incremental on a reduced input, the
others on their own small inputs) and asserts that each
target of ``layers.TARGETS`` was wrapped and called at least once on
the workload ``layers.EXERCISED_BY`` names. A refactor that renames or
moves a target fails here, not silently in the per-layer numbers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs.schemas import validate_chrome_trace  # noqa: E402

#: a seed no workload uses by default, so no recorded digest applies.
SEED = 5
SMALL = {"pim-incremental": {"scale": 0.5, "held_out": 20}}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tracers = {}
    for name, spec in workloads.SPECS.items():
        small = dataclasses.replace(spec, **SMALL.get(name, {}))
        workdir = tmp_path_factory.mktemp(name)
        expect = workloads.Expectations({}, workdir / "ledger.json")
        ctx = run.Context(name, SEED, expect, workdir)
        out = workloads.RUNNERS[name](small, SEED, 0.0, True, ctx)
        assert not out.failures, out.failures
        assert set(out.layers) == set(layers.PER_LAYER)
        tracers[name] = ctx.tracers[-1]
    return tracers


@pytest.mark.parametrize(
    "target", layers.TARGETS, ids=[f"{t.module}:{t.qualname}" for t in layers.TARGETS]
)
def test_target_fires(traced, target):
    for name in layers.EXERCISED_BY[target]:
        tracer = traced[name]
        assert target not in tracer.absent, tracer.absent[target]
        assert tracer.bindings[target] >= 1
        assert tracer.stats[target].calls > 0, f"{target.qualname} silent on {name}"


def test_imported_copies_are_wrapped(traced):
    # The kernel is imported by name into titles.py and venues.py too.
    kernel = next(t for t in layers.TARGETS if t.qualname == "damerau_levenshtein_within")
    assert traced["pim-batch"].bindings[kernel] >= 3


def test_missing_target_is_absent_not_fatal():
    from tracer import Target, Tracer

    gone = Target("repro.core.engine", "Reconciler._no_such_step", "engine.gone")
    with Tracer([gone]) as tracer:
        pass
    assert gone in tracer.absent


def test_trace_is_valid_chrome_json(traced):
    for tracer in traced.values():
        trace = tracer.chrome_trace()
        assert validate_chrome_trace(trace) > 1
        spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
        ids = {event["args"]["span_id"] for event in spans}
        for event in spans:
            parent = event["args"]["parent"]
            assert parent == 0 or parent in ids
