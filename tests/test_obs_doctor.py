"""`repro doctor` / `repro hotspots` end-to-end, plus golden-text
byte-stability for their renderers.

Contracts under test:

* the renderers are pure — fixed inputs render the exact same bytes,
  render after render (golden constants below);
* a clean `--run-dir` run leaves no crash bundle and doctor exits 0;
* a guard-tripped run, a chaos-killed worker, and an unhandled engine
  exception each leave a schema-valid, atomically-written bundle and
  doctor exits 1 — deterministically, run after run.
"""

import argparse
import copy
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs import load_crash_bundle, load_run_dir, validate_crash_bundle
from repro.obs.render import render_doctor, render_hotspots

HOTSPOTS_SUMMARY = {
    "sketch_capacity": 128,
    "pair_updates": 42,
    "pair_seconds_error_bound": 0.000123,
    "top_blocks": [
        {"block": "Person/t:smith", "candidate_pairs": 45, "max_error": 0},
        {"block": "Venue/v:sigmod", "candidate_pairs": 10, "max_error": 2},
    ],
    "top_pairs": [
        {
            "pair": "Person:r1|r2",
            "seconds": 0.004321,
            "recomputations": 3,
            "max_error_seconds": 0.0,
        },
    ],
    "channels": [
        {"channel": "name", "comparisons": 120},
        {"channel": "email", "comparisons": 30},
    ],
    "skew": {
        "Person": {
            "blocks": 12,
            "references": 40,
            "gini": 0.5132,
            "max_block": "t:smith",
            "max_block_size": 10,
            "max_pair_share": 0.6,
            "oversized": 1,
        },
        "Venue": {
            "blocks": 0,
            "references": 0,
            "gini": 0.0,
            "max_block": None,
            "max_block_size": 0,
            "max_pair_share": 0.0,
            "oversized": 0,
        },
    },
}

HOTSPOTS_GOLDEN = """\
hotspot attribution (sketch capacity 128, 42 pair timings, error bound 0.000123s):
  blocking skew:
    Person: 12 blocks, gini 0.5132, max t:smith (10 refs, 60.0% of pairs), oversized 1
    Venue: no blocks recorded
  top blocks by candidate pairs:
    Person/t:smith  45
    Venue/v:sigmod  10
  top pairs by recompute seconds:
    Person:r1|r2  0.004321s x3
  channel comparisons:
    name  120
    email  30"""

CRASH_BUNDLE = {
    "bundle_version": 1,
    "kind": "repro_crash_bundle",
    "reason": "unhandled ValueError during run",
    "phase": "iterate",
    "stop_reason": None,
    "exception": {"type": "ValueError", "message": "boom", "traceback": []},
    "config": {},
    "stats": {},
    "rings": {
        "ring_size": 256,
        "noted": 9,
        "events": [{"seq": 1, "event": "build_start"}],
        "decisions": [
            {
                "seq": 5,
                "pair": ["a", "b"],
                "class": "Person",
                "decision": "merge",
                "score": 0.91,
            },
            {
                "seq": 6,
                "pair": ["a", "c"],
                "class": "Person",
                "decision": "defer",
                "score": None,
            },
        ],
        "chunks": [
            {"seq": 7, "lane": "build pool", "seconds": 0.25},
            {"seq": 8, "lane": "build pool", "seconds": 0.125},
        ],
        "degradations": [
            {
                "seq": 9,
                "kind": "parallel_fallback",
                "detail": "class Person scored serially: worker died",
            }
        ],
    },
    "stacks": {},
    "worker_lanes": {
        "lanes": {"4242": {"process_name": "scoring worker", "recent": []}},
        "deaths": [
            {"pid": 4242, "reason": "exit code -9", "lane": "scoring worker"}
        ],
    },
}

DOCTOR_CRASHED_GOLDEN = """\
doctor: unhandled ValueError during run
  phase: iterate
  exception: ValueError: boom
  degradations (1 recorded):
    [parallel_fallback] class Person scored serially: worker died
  last decisions (2 of 2 retained):
    a <-> b [Person] merge score=0.9100
    a <-> c [Person] defer score=n/a
  chunks: 2 retained, slowest build pool 0.250s
  worker lanes: 1 with retained rings, 1 death(s)
    died: scoring worker pid=4242: exit code -9
  hint: an unhandled exception ended the run; the decisions ring in crash_bundle.json shows the last work before it
  hint: worker processes died; rerun with --workers 1 to isolate the fault, and check memory limits
  hint: parallel scoring fell back to the serial build; results are unchanged but slower
  verdict: crashed"""


def test_every_flag_a_doctor_hint_names_exists():
    """A hint may only recommend a flag some subcommand accepts."""
    bundle = copy.deepcopy(CRASH_BUNDLE)
    bundle["rings"]["degradations"].append(
        {"seq": 10, "kind": "budget", "detail": "recomputation budget of 5"}
    )
    manifest = {"execution": {"hotspots": HOTSPOTS_SUMMARY}}
    hints = [
        line for line in render_doctor(bundle, manifest).splitlines()
        if line.startswith("  hint: ")
    ]
    assert len(hints) == 5  # every hint branch fired
    accepted = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                accepted.update(subparser._option_string_actions)
    named = {flag for hint in hints for flag in re.findall(r"--[a-z][a-z-]*", hint)}
    assert named and named <= accepted, named - accepted


class TestGoldenRenderers:
    def test_hotspots_golden(self):
        assert render_hotspots(HOTSPOTS_SUMMARY) == HOTSPOTS_GOLDEN
        assert render_hotspots(HOTSPOTS_SUMMARY) == render_hotspots(
            HOTSPOTS_SUMMARY
        )

    def test_hotspots_empty_golden(self):
        assert render_hotspots({}) == (
            "hotspot attribution (sketch capacity 0, 0 pair timings, "
            "error bound 0.000000s):\n  (nothing recorded)"
        )

    def test_doctor_crashed_golden(self):
        assert render_doctor(CRASH_BUNDLE) == DOCTOR_CRASHED_GOLDEN
        assert render_doctor(CRASH_BUNDLE) == render_doctor(CRASH_BUNDLE)

    def test_doctor_nothing_golden(self):
        assert render_doctor(None, None) == (
            "doctor: nothing to diagnose "
            "(no crash_bundle.json or run.json found)\n  verdict: unknown"
        )

    def test_doctor_clean_golden(self):
        manifest = {
            "run": {"completed": True, "stop_reason": "converged"},
            "degradations": [],
        }
        assert render_doctor(None, manifest) == (
            "doctor: clean run (converged; no crash bundle)\n  verdict: clean"
        )

    def test_doctor_degraded_manifest_only_golden(self):
        manifest = {
            "run": {"completed": False, "stop_reason": "deadline"},
            "degradations": [
                {"kind": "deadline", "detail": "wall clock exceeded 1s"}
            ],
        }
        assert render_doctor(None, manifest) == (
            "doctor: degraded run (no crash bundle recorded)\n"
            "  stop_reason: deadline\n"
            "    [deadline] wall clock exceeded 1s\n"
            "  hint: a run guard tripped; raise --deadline / "
            "--max-recomputations or reduce the dataset scale\n"
            "  verdict: degraded"
        )


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("doctor_cli") / "dataset"
    assert main(["generate", "A", str(directory), "--scale", "0.15"]) == 0
    return directory


class TestDoctorExitCodes:
    def test_clean_run_no_bundle_exit_zero(self, dataset_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)]) == 0
        assert not (run_dir / "crash_bundle.json").exists()
        assert main(["doctor", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "verdict: clean" in out

    def test_guard_trip_dumps_bundle_and_exit_one(
        self, dataset_dir, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "evaluate",
                    str(dataset_dir),
                    "--run-dir",
                    str(run_dir),
                    "--max-recomputations",
                    "40",
                ]
            )
            == 0
        )
        bundle = load_crash_bundle(run_dir)
        assert bundle is not None
        validate_crash_bundle(bundle)
        assert bundle["reason"] == "degraded run: budget"
        assert bundle["stop_reason"] == "budget"
        assert bundle["rings"]["degradations"][-1]["kind"] == "budget"
        # The bundle is found by its fixed name in the run directory.
        assert load_run_dir(run_dir).artifact("crash_bundle") == run_dir / "crash_bundle.json"
        capsys.readouterr()  # drain the evaluate's own output
        assert main(["doctor", str(run_dir)]) == 1
        first = capsys.readouterr().out
        assert "verdict: degraded" in first
        assert "hint: a run guard tripped" in first
        # Byte-determinism: a second diagnosis renders identical text.
        assert main(["doctor", str(run_dir)]) == 1
        assert capsys.readouterr().out == first

    def test_stale_bundle_cleared_by_fresh_clean_run(self, dataset_dir, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "crash_bundle.json").write_text("{}")
        assert main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)]) == 0
        assert not (run_dir / "crash_bundle.json").exists()
        assert main(["doctor", str(run_dir)]) == 0

    def test_nothing_to_diagnose_exit_two(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path)]) == 2
        assert "nothing to diagnose" in capsys.readouterr().out

    def test_unhandled_exception_dumps_bundle(
        self, dataset_dir, tmp_path, monkeypatch
    ):
        from repro.core import Reconciler

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected mid-iterate failure")

        monkeypatch.setattr(Reconciler, "_iterate_loop", explode)
        run_dir = tmp_path / "run"
        with pytest.raises(RuntimeError, match="injected mid-iterate"):
            main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)])
        bundle = load_crash_bundle(run_dir)
        assert bundle is not None
        validate_crash_bundle(bundle)
        assert bundle["reason"] == "unhandled RuntimeError during run"
        assert bundle["exception"]["type"] == "RuntimeError"
        assert bundle["phase"] == "iterate"  # the build had finished
        assert bundle["rings"]["events"]  # build landmarks survived
        assert main(["doctor", str(run_dir)]) == 1

    def test_chaos_killed_worker_dumps_bundle_with_lanes(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        """The CI crash-bundle scenario: a chaos-killed build worker on a
        parallel run leaves a schema-valid bundle carrying worker-lane
        rings, and doctor diagnoses it nonzero."""
        run_dir = tmp_path / "run"
        monkeypatch.setenv("REPRO_CHAOS", '{"kill_at_chunk": 1}')
        assert (
            main(
                [
                    "evaluate",
                    str(dataset_dir),
                    "--run-dir",
                    str(run_dir),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        bundle = load_crash_bundle(run_dir)
        assert bundle is not None
        validate_crash_bundle(bundle)
        kinds = [entry["kind"] for entry in bundle["rings"]["degradations"]]
        assert kinds == ["parallel_fallback"]
        assert bundle["worker_lanes"]["deaths"]
        # Chunk 0's payload shipped before the chunk-1 kill, so at least
        # one worker lane retained a ring.
        assert bundle["worker_lanes"]["lanes"]
        assert main(["doctor", str(run_dir)]) == 1
        assert "verdict: degraded" in capsys.readouterr().out


class TestHotspotsCommand:
    def test_hotspots_text_and_json(self, dataset_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["hotspots", str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("hotspot attribution")
        assert "blocking skew:" in text
        assert main(["hotspots", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair_updates"] > 0
        assert "skew" in payload
        # Determinism: same run dir, same bytes.
        assert main(["hotspots", str(run_dir)]) == 0
        assert capsys.readouterr().out == text

    def test_hotspots_missing_manifest_exit_two(self, tmp_path, capsys):
        assert main(["hotspots", str(tmp_path)]) == 2
        assert "no run.json" in capsys.readouterr().err

    def test_hotspots_manifest_without_attribution_exit_two(
        self, tmp_path, capsys
    ):
        (tmp_path / "run.json").write_text(
            json.dumps({"manifest_version": 2, "execution": {"hotspots": None}})
        )
        assert main(["hotspots", str(tmp_path)]) == 2
        assert "no hotspot attribution" in capsys.readouterr().err
