"""Live monitoring: HUD rendering, event-log folding, `repro watch`."""

import io
import json
from types import SimpleNamespace

from repro.cli import main
from repro.obs import (
    LiveHud,
    follow_events,
    read_events,
    render_hud,
    render_watch,
    watch_snapshot,
)


def _events_for_finished_run():
    return [
        {"event": "run_start", "dataset": "PIM B", "algorithm": "depgraph",
         "references": 328, "workers": 2},
        {"event": "build_start"},
        {"event": "build_end", "queued": 259},
        {"event": "iterate_start", "queued": 259},
        {"event": "iterate_progress", "step": 100, "queued": 120,
         "merges": 40, "recomputations": 100},
        {"event": "checkpoint_saved"},
        {"event": "lane_died", "pid": 7, "reason": "task timeout"},
        {"event": "iterate_end", "steps": 153, "merges": 79,
         "stop_reason": "converged"},
        {"event": "run_end", "completed": True, "stop_reason": "converged",
         "merges": 79, "recomputations": 153},
    ]


class TestRenderers:
    def test_hud_line_is_byte_stable(self):
        line = render_hud(
            phase="iterate", step=1200, queued=3400, merges=56,
            hit_rate=0.761, eta=95.0,
        )
        assert line == (
            "[iterate] · step 1,200 · queued 3,400 · merges 56 "
            "· cache 76.1% · eta 1m35s"
        )
        assert line == render_hud(
            phase="iterate", step=1200, queued=3400, merges=56,
            hit_rate=0.761, eta=95.0,
        )

    def test_hud_omits_unknown_parts(self):
        assert render_hud(phase="build") == "[build]"
        # iterate always shows an ETA slot, "--" when unprojectable.
        assert render_hud(phase="iterate") == "[iterate] · eta --"
        assert render_hud(phase="iterate", eta=12) == "[iterate] · eta 12s"

    def test_watch_snapshot_folds_a_full_run(self):
        snap = watch_snapshot(_events_for_finished_run())
        assert snap["phase"] == "done"
        assert snap["completed"] is True
        assert snap["step"] == 153
        assert snap["merges"] == 79
        assert snap["checkpoints"] == 1
        assert snap["lane_deaths"] == 1
        assert snap["events"] == 9

    def test_watch_snapshot_on_a_prefix(self):
        snap = watch_snapshot(_events_for_finished_run()[:5])
        assert snap["phase"] == "iterate"
        assert snap["step"] == 100
        assert snap["queued"] == 120
        assert snap["completed"] is None

    def test_render_watch_is_byte_stable(self):
        snap = watch_snapshot(_events_for_finished_run())
        text = render_watch(snap)
        assert text == (
            "run: PIM B (depgraph) · 328 references\n"
            "phase: done\n"
            "progress: step 153 · queued 120 · merges 79 · recomputations 153\n"
            "workers: 2 build\n"
            "checkpoints: 1 · degradations: 0 · lane deaths: 1 "
            "· pairs poisoned: 0\n"
            "result: completed (converged)"
        )
        assert text == render_watch(watch_snapshot(_events_for_finished_run()))

    def test_render_watch_handles_an_empty_stream(self):
        text = render_watch(watch_snapshot([]))
        assert text.startswith("run: ? (?)")
        assert "phase: starting" in text


class TestLiveHud:
    def _engine(self, queued, **stats):
        defaults = dict(
            values_cache_hits=0, values_cache_misses=0,
            contacts_cache_hits=0, contacts_cache_misses=0, merges=0,
        )
        defaults.update(stats)
        return SimpleNamespace(
            queue=list(range(queued)), stats=SimpleNamespace(**defaults)
        )

    def test_step_hook_draws_in_place(self):
        stream = io.StringIO()
        clock = iter(float(i) for i in range(100))
        hud = LiveHud(stream, interval=0.0, clock=lambda: next(clock))
        hud.phase("build")
        hud.on_step(
            self._engine(50, values_cache_hits=3, values_cache_misses=1,
                         merges=2),
            step=0,
        )
        hud.close()
        output = stream.getvalue()
        assert "\r[build]\x1b[K" in output
        assert "step 0" in output and "queued 50" in output
        assert "merges 2" in output and "cache 75.0%" in output
        assert output.endswith("\n")

    def test_eta_projects_from_queue_drain(self):
        stream = io.StringIO()
        times = iter([0.0, 1.0, 2.0, 3.0])
        hud = LiveHud(stream, interval=0.0, clock=lambda: next(times))
        for queued in (100, 90, 80):
            hud.on_step(self._engine(queued), step=queued)
        # 10 keys/second drain, 80 queued -> 8s.
        assert "eta 8s" in stream.getvalue()

    def test_growing_queue_yields_no_eta(self):
        stream = io.StringIO()
        times = iter([0.0, 1.0, 2.0])
        hud = LiveHud(stream, interval=0.0, clock=lambda: next(times))
        for queued in (100, 150):
            hud.on_step(self._engine(queued), step=0)
        assert "eta --" in stream.getvalue()

    def test_throttle_skips_fast_redraws(self):
        stream = io.StringIO()
        times = iter([0.0, 0.01, 0.02, 5.0])
        hud = LiveHud(stream, interval=1.0, clock=lambda: next(times))
        for step in range(4):
            hud.on_step(self._engine(10), step=step)
        output = stream.getvalue()
        assert "step 0" in output
        assert "step 1" not in output and "step 2" not in output
        assert "step 3" in output

    def test_close_without_draw_writes_nothing(self):
        stream = io.StringIO()
        LiveHud(stream).close()
        assert stream.getvalue() == ""


class TestFollowEvents:
    def test_reads_skip_torn_trailing_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [json.dumps(e) for e in _events_for_finished_run()]
        path.write_text("\n".join(lines) + '\n{"event": "tru')
        assert len(read_events(path)) == 9

    def test_follow_stops_on_run_end(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in _events_for_finished_run())
        )
        stream = io.StringIO()
        snap = follow_events(
            path, stream=stream, interval=0.0,
            clock=lambda: 0.0, sleep=lambda _s: None,
        )
        assert snap["phase"] == "done"
        assert stream.getvalue().endswith("\n")

    def test_follow_gives_up_on_a_silent_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"event": "build_start"}) + "\n")
        clock_values = iter([0.0, 0.0, 10.0, 20.0])
        snap = follow_events(
            path, stream=io.StringIO(), interval=0.0,
            clock=lambda: next(clock_values), sleep=lambda _s: None,
            max_idle=5.0,
        )
        assert snap["phase"] == "build"


class TestWatchCli:
    def test_once_snapshot(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "events.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in _events_for_finished_run())
        )
        assert main(["watch", str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run: PIM B (depgraph)" in out
        assert "result: completed (converged)" in out

    def test_once_resolves_events_through_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "elsewhere.jsonl").write_text(
            json.dumps({"event": "run_start", "dataset": "X",
                        "algorithm": "depgraph", "references": 1}) + "\n"
        )
        (run_dir / "run.json").write_text(
            json.dumps({"artifacts": {"events": "elsewhere.jsonl"}})
        )
        assert main(["watch", str(run_dir), "--once"]) == 0
        assert "run: X (depgraph)" in capsys.readouterr().out

    def test_once_with_no_events_errors(self, tmp_path, capsys):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        assert main(["watch", str(run_dir), "--once"]) == 2
        assert "no events found" in capsys.readouterr().err
