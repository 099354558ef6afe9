"""End-to-end observability through the CLI: the files a `--run-dir`
run writes under fixed names, plus the provenance-replaying
`explain`."""

import json
import shutil

import pytest

from repro.cli import main
from repro.obs import (
    validate_chrome_trace,
    validate_event_log,
    validate_provenance_jsonl,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs_cli") / "dataset"
    assert main(["generate", "B", str(directory), "--scale", "0.15"]) == 0
    return directory


@pytest.fixture(scope="module")
def observed_run(dataset_dir, tmp_path_factory):
    """One reconcile recorded with --run-dir; returns the run dir, which
    also holds the partition."""
    out = tmp_path_factory.mktemp("obs_out") / "run"
    code = main([
        "reconcile", str(dataset_dir),
        "--output", str(out.parent / "partition.json"),
        "--run-dir", str(out),
    ])
    assert code == 0
    return out


class TestFlagsEndToEnd:
    def test_partition_identical_to_flagless_run(
        self, dataset_dir, observed_run, tmp_path
    ):
        plain = tmp_path / "plain.json"
        assert main(["reconcile", str(dataset_dir), "--output", str(plain)]) == 0
        assert plain.read_bytes() == (observed_run.parent / "partition.json").read_bytes()

    def test_event_log_validates_and_covers_the_run(self, observed_run):
        path = observed_run / "events.jsonl"
        assert validate_event_log(path) > 0
        names = [
            json.loads(line)["event"] for line in path.read_text().splitlines()
        ]
        for expected in ("run_start", "build_start", "build_end",
                        "iterate_start", "iterate_end", "run_end"):
            assert expected in names, f"missing {expected}"
        # Per-decision detail is in provenance.jsonl, not the event log.
        assert "merge" not in names

    def test_trace_is_valid_chrome_trace(self, observed_run):
        trace = json.loads((observed_run / "trace.json").read_text())
        assert validate_chrome_trace(trace) > 0
        names = {event["name"] for event in trace["traceEvents"]}
        assert "build" in names
        assert "iterate" in names
        assert "iterate_chunk" in names

    def test_provenance_jsonl_validates(self, observed_run):
        assert validate_provenance_jsonl(observed_run / "provenance.jsonl") > 0


def _gold_entities(dataset_dir):
    """entity label -> list of reference ids, from the gold standard."""
    entities = {}
    for line in (dataset_dir / "gold.jsonl").read_text().splitlines():
        row = json.loads(line)
        entities.setdefault(row["entity"], []).append(row["id"])
    return entities


class TestExplainReplay:
    def test_explain_merged_pair_replays_record(self, dataset_dir, capsys):
        # Try gold duplicates until the engine actually merged one: the
        # replay marker proves the answer came from the audit log.
        replayed = False
        for members in _gold_entities(dataset_dir).values():
            if len(members) < 2:
                continue
            assert main(["explain", str(dataset_dir), members[0], members[1]]) == 0
            out = capsys.readouterr().out
            if "[replayed from decision record]" in out and "==" in out:
                replayed = True
                break
        assert replayed, "no merged pair replayed from the audit log"

    def test_explain_non_merged_pair_shows_last_decision(
        self, dataset_dir, observed_run, capsys
    ):
        # The audit log of the observed run knows which pairs the engine
        # examined but refused; explain must replay one of those.
        from repro.obs import ProvenanceLog

        prov = ProvenanceLog.from_jsonl(observed_run / "provenance.jsonl")
        partition = json.loads((observed_run.parent / "partition.json").read_text())
        cluster_of = {
            ref_id: (class_name, index)
            for class_name, clusters in partition.items()
            for index, cluster in enumerate(clusters)
            for ref_id in cluster
        }
        refused = next(
            pair for pair in prov.non_merged_pairs()
            if cluster_of.get(pair[0]) != cluster_of.get(pair[1])
        )
        assert main(["explain", str(dataset_dir), refused[0], refused[1]]) == 0
        out = capsys.readouterr().out
        assert "NOT reconciled" in out
        assert "last decision" in out
        assert "[replayed from decision record]" in out


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    """One evaluate with --run-dir; returns the run directory."""
    directory = tmp_path_factory.mktemp("obs_run") / "run"
    assert main(["evaluate", str(dataset_dir), "--run-dir", str(directory)]) == 0
    return directory


class TestRunDir:
    def test_manifest_written_and_validates(self, run_dir):
        from repro.obs import load_manifest, validate_manifest

        assert (run_dir / "run.json").exists()
        manifest = load_manifest(run_dir)
        validate_manifest(manifest)
        assert manifest["run"]["dataset"] == "PIM B"
        assert manifest["quality"]
        assert len(manifest["convergence"]) >= 2

    def test_provenance_defaults_into_run_dir(self, run_dir):
        from repro.obs import load_run_dir, validate_provenance_jsonl

        provenance = load_run_dir(run_dir).artifact("provenance")
        assert provenance == run_dir / "provenance.jsonl"
        assert validate_provenance_jsonl(provenance) > 0

    def test_event_stream_defaults_into_run_dir(self, run_dir):
        from repro.obs import load_run_dir, validate_event_log

        events = load_run_dir(run_dir).artifact("events")
        assert events == run_dir / "events.jsonl"
        assert validate_event_log(events) > 0

    def test_explain_resolves_provenance_from_manifest(
        self, dataset_dir, run_dir, capsys
    ):
        from repro.obs import ProvenanceLog

        prov = ProvenanceLog.from_jsonl(run_dir / "provenance.jsonl")
        pair = next(iter(prov.merged_pairs()))
        code = main([
            "explain", str(dataset_dir), pair[0], pair[1],
            "--run", str(run_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[replayed from decision record]" in out

    def test_explain_missing_run_provenance_exits_2(
        self, dataset_dir, tmp_path, capsys
    ):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "run.json").write_text(json.dumps({"manifest_version": 2}) + "\n")
        code = main(["explain", str(dataset_dir), "x", "y", "--run", str(bare)])
        assert code == 2
        assert "provenance" in capsys.readouterr().err


def _merged_pair(run):
    from repro.obs import ProvenanceLog

    return next(iter(ProvenanceLog.from_jsonl(run / "provenance.jsonl").merged_pairs()))


@pytest.mark.parametrize("command", ["reconcile", "evaluate", "explain"])
def test_every_run_dir_run_leaves_its_fixed_name_files(
    command, dataset_dir, run_dir, tmp_path
):
    """Each run command records the same four files by fixed name, and
    its manifest is version 2 with per-phase seconds from the trace."""
    from repro.obs import load_manifest, validate_manifest

    run = tmp_path / "run"
    argv = {
        "reconcile": ["reconcile", str(dataset_dir), "--output", str(tmp_path / "p.json")],
        "evaluate": ["evaluate", str(dataset_dir)],
        "explain": ["explain", str(dataset_dir), *_merged_pair(run_dir)],
    }[command]
    assert main([*argv, "--run-dir", str(run)]) == 0
    assert sorted(path.name for path in run.iterdir()) == [
        "events.jsonl", "provenance.jsonl", "run.json", "trace.json",
    ]
    manifest = load_manifest(run)
    validate_manifest(manifest)
    assert manifest["manifest_version"] == 2
    assert "artifacts" not in manifest
    phases = manifest["execution"]["phase_seconds"]
    assert {"build", "iterate"} <= set(phases), phases


def test_fresh_run_clears_stale_run_files(dataset_dir, tmp_path):
    """A fresh run owns its directory's fixed-name files: a stale
    checkpoint or crash bundle from an earlier run does not survive."""
    run = tmp_path / "run"
    run.mkdir()
    for name in ("checkpoint.json", "crash_bundle.json", "events.jsonl"):
        (run / name).write_text("stale\n")
    assert main(["evaluate", str(dataset_dir), "--run-dir", str(run)]) == 0
    assert not (run / "checkpoint.json").exists()
    assert not (run / "crash_bundle.json").exists()
    assert "stale" not in (run / "events.jsonl").read_text()


def test_explain_run_dir_records_what_explain_run_replays(
    dataset_dir, run_dir, tmp_path, capsys
):
    """``explain --run-dir`` records its provenance into the run
    directory, so ``explain --run`` on that directory replays it."""
    ref_a, ref_b = _merged_pair(run_dir)
    recorded = tmp_path / "recorded"
    argv = ["explain", str(dataset_dir), ref_a, ref_b]
    assert main([*argv, "--run-dir", str(recorded)]) == 0
    first = capsys.readouterr().out
    assert main([*argv, "--run", str(recorded)]) == 0
    replayed = capsys.readouterr().out
    assert "[replayed from decision record]" in replayed
    assert replayed == first


@pytest.mark.parametrize("case", ["run_dir_is_a_file", "torn_bundle", "not_a_bundle"])
def test_bad_run_directory_is_one_line(case, dataset_dir, tmp_path, capsys):
    """A --run-dir naming a file, and a torn or foreign crash bundle
    handed to ``doctor``, exit 2 with one stderr line naming the path."""
    target = tmp_path / "target"
    if case == "run_dir_is_a_file":
        target.write_text("not a directory\n")
        argv = ["evaluate", str(dataset_dir), "--run-dir", str(target)]
    elif case == "torn_bundle":
        target.mkdir()
        (target / "crash_bundle.json").write_text('{"bundle_version": 1, "rea')
        argv = ["doctor", str(target)]
    else:
        target = tmp_path / "j.json"
        target.write_text(json.dumps({"valid": "json"}))
        argv = ["doctor", str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert str(target) in err


#: every command that reads a run directory, as argv after the run dir
#: is substituted for ``{run}``.
_RUN_DIR_COMMANDS = {
    "explain": ["explain", "unused-dataset", "a", "b", "--run", "{run}"],
    "diff": ["diff", "{run}", "{run}"],
    "doctor": ["doctor", "{run}"],
    "hotspots": ["hotspots", "{run}"],
}


@pytest.mark.parametrize("damage", ["missing", "torn", "version1"])
@pytest.mark.parametrize("command", sorted(_RUN_DIR_COMMANDS))
def test_run_dir_commands_refuse_missing_or_torn_manifest(
    command, damage, tmp_path, capsys
):
    """No run-dir command tracebacks on a bad run.json: each exits 2
    with a one-line message on stderr. A version-1 manifest (with its
    artifact map) is refused, not read."""
    run = tmp_path / "run"
    run.mkdir()
    if damage == "torn":
        (run / "run.json").write_text('{"manifest_version": 1, "run": {"data')
    elif damage == "version1":
        (run / "run.json").write_text(json.dumps({
            "manifest_version": 1,
            "artifacts": {"provenance": "provenance.jsonl"},
        }))
        (run / "provenance.jsonl").write_text("")
    argv = [arg.replace("{run}", str(run)) for arg in _RUN_DIR_COMMANDS[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert "run.json" in err


@pytest.mark.parametrize("command", ["diff", "explain"])
def test_torn_provenance_exits_2_naming_file_and_line(
    command, run_dir, tmp_path, capsys
):
    """A run whose provenance.jsonl lost its tail (a crash mid-write)
    is refused with one stderr line naming the file and the torn line,
    never a JSONDecodeError traceback."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    provenance = run / "provenance.jsonl"
    data = provenance.read_bytes()
    provenance.write_bytes(data[:-40])
    torn_line = data[:-40].count(b"\n") + 1
    argv = {
        "diff": ["diff", str(run), str(run)],
        "explain": ["explain", "unused-dataset", "a", "b", "--run", str(run)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert f"provenance.jsonl:{torn_line}" in err


@pytest.mark.parametrize("form", ["directory", "run.json"])
def test_report_refuses_a_recorded_run_before_any_work(
    form, run_dir, monkeypatch, capsys
):
    """``report`` writes only the markdown experiments report: a run
    directory (or its run.json) exits 2 with one stderr line naming the
    commands that read a recorded run, before the experiment suite
    runs and without touching the run."""
    import repro.evaluation.report as experiments_report

    def suite_ran(*args, **kwargs):
        raise AssertionError("the experiment suite ran")

    monkeypatch.setattr(experiments_report, "build_report", suite_ran)
    before = sorted(path.name for path in run_dir.iterdir())
    target = run_dir if form == "directory" else run_dir / "run.json"
    assert main(["report", str(target)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert len(err.splitlines()) == 1, err
    for command in ("doctor", "hotspots", "explain --run"):
        assert command in err
    assert captured.out == ""
    assert sorted(path.name for path in run_dir.iterdir()) == before
