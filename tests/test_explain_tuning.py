"""Tests for merge explanations."""

import pytest

from repro.core import EngineConfig, Reconciler, ReferenceStore
from repro.core.explain import explain_merge
from repro.domains import PimDomainModel

from .conftest import example1_references


@pytest.fixture(scope="module")
def example1_run():
    domain = PimDomainModel()
    store = ReferenceStore(domain.schema, example1_references())
    reconciler = Reconciler(store, domain, EngineConfig())
    result = reconciler.run()
    return reconciler, result


class TestExplain:
    def test_direct_merge(self, example1_run):
        reconciler, _ = example1_run
        explanation = explain_merge(reconciler, "p3", "p7")
        assert explanation.connected
        assert explanation.steps
        assert "p3" in explanation.describe()

    def test_chain_merge(self, example1_run):
        reconciler, _ = example1_run
        explanation = explain_merge(reconciler, "p2", "p9")
        assert explanation.connected
        assert len(explanation.steps) >= 1
        # Evidence is surfaced.
        assert any(step.evidence for step in explanation.steps)

    def test_key_premerge(self, example1_run):
        reconciler, _ = example1_run
        explanation = explain_merge(reconciler, "p8", "p9")
        assert explanation.connected
        assert explanation.steps
        channels = {ch for step in explanation.steps for ch in step.evidence}
        assert "key" in channels or "email" in channels

    def test_not_connected(self, example1_run):
        reconciler, _ = example1_run
        explanation = explain_merge(reconciler, "p1", "p2")
        assert not explanation.connected
        assert "NOT" in explanation.describe()

    def test_self(self, example1_run):
        reconciler, _ = example1_run
        assert explain_merge(reconciler, "p1", "p1").connected

    def test_article_merge(self, example1_run):
        reconciler, _ = example1_run
        explanation = explain_merge(reconciler, "a1", "a2")
        assert explanation.connected
        channels = {ch for step in explanation.steps for ch in step.evidence}
        assert "title" in channels

