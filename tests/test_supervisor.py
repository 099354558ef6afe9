"""The parallel build's one failure path.

The contract under test (see ``runtime/supervisor.py``): ``--workers
N`` gives the ``--workers 1`` partition or raises the ``--workers 1``
exception. Any pool failure — a dead worker or an exception raised
while scoring — kills the pool, records one ``parallel_fallback`` and
re-scores serially in the parent; no worker process survives it.
"""

import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.core import EngineConfig, Reconciler
from repro.domains import PimDomainModel
from repro.runtime import ChaosInjector, SupervisedScorer


def _no_live_children(timeout: float = 10.0) -> bool:
    """True once every worker process has been reaped."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


class ComparatorFault(Exception):
    """A deterministic comparator bug."""


#: a Person name-value pair that the ``tiny_pim_a`` build compares.
FAULTY_NAMES = frozenset({"Ruth Jones", "William Jones"})


def _faulty_name_comparator(comparator):
    def compare(left: str, right: str) -> float:
        if frozenset({left, right}) == FAULTY_NAMES:
            raise ComparatorFault(f"cannot compare {left!r} with {right!r}")
        return comparator(left, right)

    return compare


class FaultyNameDomain(PimDomainModel):
    """PIM whose Person name comparator raises on one value pair.

    Module-level with a no-argument constructor, so scoring workers can
    rebuild it."""

    def __init__(self) -> None:
        super().__init__()
        self._atomic["Person"] = tuple(
            replace(
                channel,
                comparator=_faulty_name_comparator(channel.comparator),
                fast_comparator=None,
            )
            if channel.name == "name"
            else channel
            for channel in self._atomic["Person"]
        )


class TestCleanRuns:
    def test_supervised_run_matches_serial_with_zero_counters(self, tiny_pim_a):
        serial = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        config = replace(EngineConfig(), workers=2)
        engine = Reconciler(tiny_pim_a.store, PimDomainModel(), config)
        result = engine.run()
        assert result.partitions == serial.partitions
        assert engine.stats.task_retries == 0
        assert not engine.stats.degradations
        assert _no_live_children()

    def test_rejects_unrebuildable_domain_and_tiny_pools(self):
        class LocalDomain(PimDomainModel):
            """Not importable by workers."""

        with pytest.raises(ValueError):
            SupervisedScorer(LocalDomain(), 2)
        with pytest.raises(ValueError):
            SupervisedScorer(PimDomainModel(), 1)


class TestChaosRecovery:
    def test_single_worker_kill_recovers_identically(self, tiny_pim_a, tmp_path):
        serial = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        config = replace(EngineConfig(), workers=2)
        engine = Reconciler(tiny_pim_a.store, PimDomainModel(), config)
        engine.chaos = ChaosInjector(kill_at_chunk=0, marker_dir=str(tmp_path))
        result = engine.run()
        assert result.partitions == serial.partitions
        assert [event.kind for event in engine.stats.degradations] == [
            "parallel_fallback"
        ]
        assert engine.stats.task_retries == 1
        assert _no_live_children()


class TestWorkerErrors:
    def test_comparator_error_raises_as_serial(self, tiny_pim_a):
        with pytest.raises(ComparatorFault) as serial:
            Reconciler(tiny_pim_a.store, FaultyNameDomain()).run()
        config = replace(EngineConfig(), workers=2)
        engine = Reconciler(tiny_pim_a.store, FaultyNameDomain(), config)
        with pytest.raises(ComparatorFault) as parallel:
            engine.run()
        assert str(parallel.value) == str(serial.value)
        assert _no_live_children()


class TestMidBuildPoolFailure:
    def test_broken_pool_mid_build_degrades_instead_of_raising(
        self, tiny_pim_a, monkeypatch
    ):
        from concurrent.futures.process import BrokenProcessPool

        class ExplodingScorer:
            """Stands in for SupervisedScorer: its interface, no pool."""

            def __init__(self):
                self.shutdowns = 0

            def score(self, *args, **kwargs):
                raise BrokenProcessPool("worker died mid-build")

            def shutdown(self):
                self.shutdowns += 1

        stub = ExplodingScorer()
        config = replace(EngineConfig(), workers=2)
        engine = Reconciler(tiny_pim_a.store, PimDomainModel(), config)
        monkeypatch.setattr(engine, "_make_scorer", lambda: stub)
        result = engine.run()
        assert result.completed
        kinds = {event.kind for event in engine.stats.degradations}
        assert "parallel_fallback" in kinds
        assert engine.stats.parallel_workers == 1
        assert stub.shutdowns >= 1
        baseline = Reconciler(tiny_pim_a.store, PimDomainModel()).run()
        assert result.partitions == baseline.partitions
