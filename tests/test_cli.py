"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli") / "dataset"
    code = main(["generate", "A", str(directory), "--scale", "0.2"])
    assert code == 0
    return directory


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "cora", "/tmp/x"])
        assert args.command == "generate"
        assert args.dataset == "cora"

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "Z", "/tmp/x"])

    @pytest.mark.parametrize("command", ["reconcile", "evaluate"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "-3"),
            ("--workers", "0"),
            ("--checkpoint-every", "0"),
            ("--deadline", "-5"),
            ("--deadline", "nan"),
            ("--deadline", "inf"),
            ("--max-recomputations", "-1"),
        ],
    )
    def test_bad_numeric_flag_rejected_at_parse_time(
        self, dataset_dir, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(dataset_dir), flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, parsed",
        [
            ("--workers", "1", 1),
            ("--checkpoint-every", "1", 1),
            ("--max-recomputations", "0", 0),
        ],
    )
    def test_numeric_flag_bounds_are_inclusive(self, flag, value, parsed):
        args = build_parser().parse_args(["evaluate", "ds", flag, value])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == parsed

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--quality-tolerance", "nan"),
            ("--quality-tolerance", "-0.1"),
            ("--phase-tolerance", "nan"),
            ("--phase-tolerance", "-1"),
            ("--phase-floor", "nan"),
            ("--phase-floor", "-0.05"),
            ("--max-flips", "-3"),
        ],
    )
    def test_bad_diff_tolerance_rejected_at_parse_time(
        self, tmp_path, flag, value, capsys
    ):
        # Parsing fails before either run directory is read.
        run = str(tmp_path / "missing-run")
        with pytest.raises(SystemExit) as exit_info:
            main(["diff", run, run, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, parsed",
        [
            ("--quality-tolerance", "0", 0.0),
            ("--phase-tolerance", "0", 0.0),
            ("--phase-floor", "0", 0.0),
            ("--max-flips", "0", 0),
        ],
    )
    def test_diff_tolerance_bounds_are_inclusive(self, flag, value, parsed):
        args = build_parser().parse_args(["diff", "a", "b", flag, value])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == parsed

    @pytest.mark.parametrize("value", ["-1", "0", "-0.0", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [["generate", "A", "{dir}"], ["tables", "1"], ["report", "{dir}/r.md"]],
        ids=["generate", "tables", "report"],
    )
    def test_bad_scale_rejected_at_parse_time(self, tmp_path, argv, value, capsys):
        directory = tmp_path / "out"
        argv = [arg.replace("{dir}", str(directory)) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--scale", value])
        assert exit_info.value.code == 2
        assert "argument --scale: must be a finite number > 0" in capsys.readouterr().err
        assert not directory.exists()


class TestCommands:
    def test_generate_writes_files(self, dataset_dir):
        assert (dataset_dir / "meta.json").exists()
        assert (dataset_dir / "references.jsonl").exists()
        assert (dataset_dir / "gold.jsonl").exists()

    def test_reconcile_to_file(self, dataset_dir, tmp_path, capsys):
        output = tmp_path / "partition.json"
        code = main(["reconcile", str(dataset_dir), "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert set(payload) == {"Person", "Article", "Venue"}
        assert all(isinstance(cluster, list) for cluster in payload["Person"])

    def test_reconcile_to_stdout(self, dataset_dir, capsys):
        code = main(["reconcile", str(dataset_dir)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "Person" in payload

    def test_evaluate(self, dataset_dir, capsys):
        code = main(["evaluate", str(dataset_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pairwise" in out and "b3" in out
        assert "Person" in out

    def test_evaluate_indepdec(self, dataset_dir, capsys):
        code = main(["evaluate", str(dataset_dir), "--algorithm", "indepdec"])
        assert code == 0
        assert "indepdec" in capsys.readouterr().out

    def test_explain(self, dataset_dir, capsys):
        from repro.datasets.io import load_dataset

        dataset = load_dataset(dataset_dir)
        refs = dataset.gold.refs_of_class("Person")[:2]
        code = main(["explain", str(dataset_dir), refs[0], refs[1]])
        assert code == 0
        assert refs[0] in capsys.readouterr().out

    def test_explain_unknown_ref(self, dataset_dir, tmp_path, monkeypatch, capsys):
        """An unknown reference id is refused right after the dataset
        loads: exit 2, one stderr line, no engine built, nothing
        recorded."""
        from repro import cli

        def engine_built(*args, **kwargs):
            raise AssertionError("the engine was built")

        monkeypatch.setattr(cli, "Reconciler", engine_built)
        run = tmp_path / "run"
        code = main(["explain", str(dataset_dir), "nope", "nada", "--run-dir", str(run)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1, err
        assert "unknown reference id" in err
        assert not (run / "run.json").exists()

    def test_tables_table1(self, capsys):
        code = main(["tables", "1", "--scale", "0.2"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_tables_fig6(self, capsys):
        code = main(["tables", "fig6", "--scale", "0.2"])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out


class TestRuntimeFlags:
    def test_deadline_degrades_gracefully(self, dataset_dir, capsys):
        code = main(["evaluate", str(dataset_dir), "--deadline", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert "pairwise" in captured.out
        assert "run degraded: stop_reason=deadline" in captured.err

    def test_max_recomputations_flag(self, dataset_dir, capsys):
        code = main(["evaluate", str(dataset_dir), "--max-recomputations", "3"])
        assert code == 0
        assert "stop_reason=budget" in capsys.readouterr().err

    def test_checkpoint_then_resume_matches(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        first = tmp_path / "first.json"
        code = main([
            "reconcile", str(dataset_dir),
            "--run-dir", str(run),
            "--checkpoint-every", "20",
            "--output", str(first),
        ])
        assert code == 0
        assert (run / "checkpoint.json").exists()
        events = (run / "events.jsonl").read_text()
        second = tmp_path / "second.json"
        code = main([
            "reconcile", str(dataset_dir),
            "--run-dir", str(run),
            "--resume",
            "--output", str(second),
        ])
        assert code == 0
        assert json.loads(first.read_text()) == json.loads(second.read_text())
        # The resumed run appends to the run directory's event log.
        resumed = (run / "events.jsonl").read_text()
        assert resumed.startswith(events)
        assert '"event": "resume"' in resumed[len(events):]

    def test_crash_then_resume_run_dir_matches(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        """A run that crashes mid-iterate resumes from its run directory
        to the uninterrupted partition, and the resumed run's events
        follow the crashed run's in events.jsonl."""
        from repro import cli
        from repro.runtime import CrashAtStep

        full = tmp_path / "full.json"
        assert main(["reconcile", str(dataset_dir), "--output", str(full)]) == 0
        run = tmp_path / "run"
        argv = ["reconcile", str(dataset_dir), "--run-dir", str(run)]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "HotspotSketch", lambda: CrashAtStep(40))
            assert main([*argv, "--checkpoint-every", "10"]) == 2
        assert (run / "crash_bundle.json").exists()
        resumed = tmp_path / "resumed.json"
        assert main([*argv, "--resume", "--output", str(resumed)]) == 0
        assert json.loads(resumed.read_text()) == json.loads(full.read_text())
        events = [
            json.loads(line)["event"]
            for line in (run / "events.jsonl").read_text().splitlines()
        ]
        assert events.count("run_start") == 2
        assert events.index("checkpoint_saved") < events.index("resume")
        assert events[-1] == "run_end"

    @pytest.mark.parametrize(
        "flags", [["--checkpoint-every", "20"], ["--resume"]], ids=["checkpoint", "resume"]
    )
    def test_checkpoint_flags_need_run_dir(self, dataset_dir, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["reconcile", str(dataset_dir), *flags])
        assert exit_info.value.code == 2
        assert "need --run-dir" in capsys.readouterr().err

    def _one_line_exit_2(self, argv, capsys, needle):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert needle in err, err

    def test_missing_checkpoint_is_one_line(self, dataset_dir, tmp_path, capsys):
        self._one_line_exit_2(
            ["reconcile", str(dataset_dir), "--run-dir", str(tmp_path / "run"), "--resume"],
            capsys,
            "cannot read checkpoint",
        )

    def test_retired_checkpoint_is_one_line(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main([
            "reconcile", str(dataset_dir), "--output", str(tmp_path / "p.json"),
            "--run-dir", str(run), "--checkpoint-every", "500",
        ])
        path = run / "checkpoint.json"
        document = json.loads(path.read_text())
        document["version"] = 4
        path.write_text(json.dumps(document))
        self._one_line_exit_2(
            ["reconcile", str(dataset_dir), "--run-dir", str(run), "--resume"],
            capsys,
            "has version 4, expected 5",
        )

    def test_malformed_strict_load_is_one_line(self, tmp_path, capsys):
        directory = tmp_path / "dataset"
        assert main(["generate", "A", str(directory), "--scale", "0.15"]) == 0
        lines = (directory / "references.jsonl").read_text().splitlines()
        lines[2] = "{not json"
        (directory / "references.jsonl").write_text("\n".join(lines) + "\n")
        self._one_line_exit_2(
            ["evaluate", str(directory)], capsys, "references.jsonl:3:"
        )

    def test_lenient_flag_quarantines(self, tmp_path, capsys):
        from repro.runtime import inject_malformed_lines

        directory = tmp_path / "dataset"
        assert main(["generate", "A", str(directory), "--scale", "0.15"]) == 0
        capsys.readouterr()
        inject_malformed_lines(directory / "references.jsonl", rate=0.05, seed=7)
        assert main(["evaluate", str(directory)]) == 2  # strict load fails fast
        code = main(["evaluate", str(directory), "--lenient"])
        assert code == 0
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        assert (directory / "quarantine.jsonl").exists()
