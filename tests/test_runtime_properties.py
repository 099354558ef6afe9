"""Property and acceptance tests for the fault-tolerant runtime.

Two families:

* **Crash/resume equivalence** — kill a run with an injected fault at
  an arbitrary iterate step, resume from the latest checkpoint, and
  demand the exact partition (and work counters) of the uninterrupted
  run. Checked on hypothesis micro-worlds and on the paper's PIM A-D
  and Cora-like benchmarks.
* **Quarantine ingestion** — corrupt ~5% of a dataset's reference
  lines; strict mode must fail fast with a :class:`DataError` naming
  the file and line, lenient mode must complete with every bad record
  quarantined with a reason, and the surviving corpus must reconcile.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Reconciler, ReferenceStore
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.io import load_dataset, save_dataset
from repro.domains import CoraDomainModel, PimDomainModel
from repro.runtime import (
    Checkpointer,
    CrashAtStep,
    DataError,
    InjectedFault,
    inject_malformed_lines,
)

from .test_engine_properties import micro_worlds


def _crash_and_resume(store_factory, domain, crash_step, *, every=1, config=None):
    """Run to convergence, then re-run with a crash at *crash_step* and
    resume from the last checkpoint; returns (expected, resumed engine,
    resumed result). *config* (e.g. ``workers=2``) applies to all three
    runs."""
    uninterrupted = Reconciler(store_factory(), domain, config)
    expected = uninterrupted.run()
    crash = CrashAtStep(crash_step)
    engine = Reconciler(store_factory(), domain, config, observers=[crash])
    with tempfile.TemporaryDirectory() as tmp:
        checkpointer = Checkpointer(tmp, every=every)
        try:
            engine.run(checkpointer=checkpointer)
        except InjectedFault:
            pass
        if not crash.fired:
            # The run converged before the crash step; the property is
            # trivially satisfied.
            return expected, uninterrupted, expected
        resumed = Reconciler.resume(
            checkpointer.path, store=store_factory(), domain=domain, config=config
        )
        result = resumed.run()
    assert resumed.stats.merges == uninterrupted.stats.merges
    assert resumed.stats.recomputations == uninterrupted.stats.recomputations
    return expected, resumed, result


class TestCrashResumeProperty:
    @given(micro_worlds(), st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_resume_matches_uninterrupted(self, world, crash_step):
        references, _ = world
        domain = PimDomainModel()
        expected, _, result = _crash_and_resume(
            lambda: ReferenceStore(domain.schema, references), domain, crash_step
        )
        assert result.partitions == expected.partitions


class TestCrashResumeAcceptance:
    """Acceptance criterion: identical partitions on PIM A-D + Cora."""

    @pytest.mark.parametrize("name", ["A", "B", "C", "D"])
    def test_pim_datasets(self, name):
        dataset = generate_pim_dataset(name, scale=0.12, seed=11)
        domain = PimDomainModel()
        refs = list(dataset.store)
        expected, _, result = _crash_and_resume(
            lambda: ReferenceStore(domain.schema, refs),
            domain,
            crash_step=25,
            every=10,
        )
        assert result.partitions == expected.partitions

    def test_cora_like(self):
        from repro.datasets.cora import CoraConfig

        dataset = generate_cora_dataset(
            CoraConfig(n_papers=10, n_citations=80, n_authors=25, n_venues=5, seed=5)
        )
        domain = CoraDomainModel()
        refs = list(dataset.store)
        expected, _, result = _crash_and_resume(
            lambda: ReferenceStore(domain.schema, refs),
            domain,
            crash_step=25,
            every=10,
        )
        assert result.partitions == expected.partitions


class TestParallelCrashResume:
    """``--workers N`` and ``--resume`` together: a parallel run that
    crashes mid-iterate and resumes must stay byte-identical to an
    uninterrupted *serial* run — checkpoints carry no worker state, and
    the build's parallel scoring is itself deterministic."""

    @staticmethod
    def _parallel_config():
        from dataclasses import replace

        from repro.core import EngineConfig

        return replace(EngineConfig(), workers=2)

    @pytest.mark.parametrize("name", ["A", "B", "C", "D"])
    def test_pim_datasets(self, name):
        dataset = generate_pim_dataset(name, scale=0.12, seed=11)
        domain = PimDomainModel()
        refs = list(dataset.store)
        serial = Reconciler(ReferenceStore(domain.schema, refs), domain).run()
        expected, _, result = _crash_and_resume(
            lambda: ReferenceStore(domain.schema, refs),
            domain,
            crash_step=25,
            every=10,
            config=self._parallel_config(),
        )
        assert result.partitions == serial.partitions
        assert expected.partitions == serial.partitions

    def test_cora_like(self):
        from repro.datasets.cora import CoraConfig

        dataset = generate_cora_dataset(
            CoraConfig(n_papers=10, n_citations=80, n_authors=25, n_venues=5, seed=5)
        )
        domain = CoraDomainModel()
        refs = list(dataset.store)
        serial = Reconciler(ReferenceStore(domain.schema, refs), domain).run()
        expected, _, result = _crash_and_resume(
            lambda: ReferenceStore(domain.schema, refs),
            domain,
            crash_step=25,
            every=10,
            config=self._parallel_config(),
        )
        assert result.partitions == serial.partitions
        assert expected.partitions == serial.partitions


class TestQuarantineIngestion:
    """Acceptance criterion: a 5%-malformed corpus loads leniently with
    every bad record quarantined; strict mode fails fast naming the
    file and line."""

    def _corrupted_dataset(self, tmp: Path):
        dataset = generate_pim_dataset("A", scale=0.15, seed=7)
        directory = save_dataset(dataset, tmp / "ds")
        bad_lines = inject_malformed_lines(
            directory / "references.jsonl", rate=0.05, seed=7
        )
        assert bad_lines
        return directory, bad_lines

    def test_strict_mode_fails_fast_with_location(self):
        with tempfile.TemporaryDirectory() as tmp:
            directory, bad_lines = self._corrupted_dataset(Path(tmp))
            with pytest.raises(DataError) as excinfo:
                load_dataset(directory)
            error = excinfo.value
            assert error.path == str(directory / "references.jsonl")
            assert error.line == min(bad_lines)
            assert "references.jsonl" in str(error)
            assert f":{min(bad_lines)}:" in str(error)

    def test_lenient_mode_quarantines_every_bad_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            directory, bad_lines = self._corrupted_dataset(Path(tmp))
            dataset = load_dataset(directory, lenient=True)
            ref_file = str(directory / "references.jsonl")
            quarantined_lines = {
                record.line
                for record in dataset.quarantined
                if record.path == ref_file
            }
            # Every corrupted line was set aside, each with a reason.
            assert set(bad_lines) <= quarantined_lines
            assert all(record.reason for record in dataset.quarantined)
            # The quarantine file mirrors Dataset.quarantined.
            quarantine_path = directory / "quarantine.jsonl"
            assert quarantine_path.exists()
            rows = [
                json.loads(line)
                for line in quarantine_path.read_text().splitlines()
            ]
            assert len(rows) == len(dataset.quarantined)
            assert all({"path", "line", "reason", "raw"} <= set(row) for row in rows)

    def test_lenient_survivors_reconcile(self):
        with tempfile.TemporaryDirectory() as tmp:
            directory, _ = self._corrupted_dataset(Path(tmp))
            dataset = load_dataset(directory, lenient=True)
            assert len(dataset.store) > 0
            result = Reconciler(dataset.store, PimDomainModel()).run()
            assert result.completed
            # The partial corpus still partitions every surviving ref.
            seen = [
                ref
                for class_name in dataset.store.schema.class_names
                for cluster in result.clusters(class_name)
                for ref in cluster
            ]
            assert sorted(seen) == sorted(r.ref_id for r in dataset.store)

    def test_clean_dataset_round_trips_without_quarantine(self):
        with tempfile.TemporaryDirectory() as tmp:
            dataset = generate_pim_dataset("A", scale=0.1, seed=3)
            directory = save_dataset(dataset, Path(tmp) / "ds")
            strict = load_dataset(directory)
            lenient = load_dataset(directory, lenient=True)
            assert not strict.quarantined
            assert not lenient.quarantined
            assert not (directory / "quarantine.jsonl").exists()
            assert len(strict.store) == len(dataset.store)
