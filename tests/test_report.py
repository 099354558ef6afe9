"""Tests for the paper's claims table and the one-shot report."""

import dataclasses

import pytest

import repro.evaluation.report as report_module
from repro.baselines import EVIDENCE_LEVELS, MODES
from repro.cli import main
from repro.core.engine import Reconciler
from repro.evaluation.experiments import pim_outcome
from repro.evaluation.report import CLAIMS, Measured, build_report, check_claims


def _algo_row(key, value, **overrides):
    row = {key: value}
    for algo, (precision, recall) in (("InDepDec", (0.95, 0.5)), ("DepGraph", (0.96, 0.9))):
        row[f"{algo}_precision"] = precision
        row[f"{algo}_recall"] = recall
        row[f"{algo}_f"] = 2 * precision * recall / (precision + recall)
    row.update(overrides)
    return row


def holding_tables() -> Measured:
    """Hand-made tables on which every claim holds."""
    cells = {}
    for row, mode in enumerate(MODES):
        for column, evidence in enumerate(EVIDENCE_LEVELS):
            cells[(mode.name, evidence.name)] = 100 - 10 * column - row
    cells[("Traditional", "Article")] = cells[("Traditional", "Name&Email")]
    grid = {
        "cells": cells,
        "entities": 50,
        "references": 400,
        "mode_reductions": {mode.name: 40.0 for mode in MODES},
        "evidence_reductions": {evidence.name: 5.0 for evidence in EVIDENCE_LEVELS},
        "overall": 60.0,
    }
    return Measured(
        table1={
            name: {"dataset": name, "references": 200, "entities": 10, "ratio": 20.0}
            for name in ("PIM A", "PIM B", "PIM C", "PIM D", "Cora")
        },
        table2={c: _algo_row("class", c) for c in ("Person", "Article", "Venue")},
        table3={
            "Full": _algo_row("dataset", "Full"),
            "PArticle": _algo_row("dataset", "PArticle"),
            "PEmail": _algo_row("dataset", "PEmail", InDepDec_recall=0.8),
        },
        table4={
            d: _algo_row(
                "dataset", d, entities=10, references=80,
                InDepDec_partitions=30, DepGraph_partitions=20,
            )
            for d in "ABCD"
        },
        table5=grid,
        table6={
            "DepGraph": {
                "method": "DepGraph", "precision": 0.99, "recall": 0.9,
                "entities_with_false_positives": 1, "graph_nodes": 900,
            },
            "Non-Constraint": {
                "method": "Non-Constraint", "precision": 0.9, "recall": 0.95,
                "entities_with_false_positives": 5, "graph_nodes": 900,
            },
        },
        table7={
            c: _algo_row("class", c, DepGraph_precision=0.9 if c == "Venue" else 0.99)
            for c in ("Person", "Article", "Venue")
        },
    )


class TestReport:
    def test_every_claim_holds_on_holding_tables(self):
        verdicts = check_claims(holding_tables())
        assert len(verdicts) == len(CLAIMS) == 26
        assert [text for text, ok in verdicts if not ok] == []

    def test_checklist_is_boolean(self):
        for text, ok in check_claims(holding_tables()):
            assert isinstance(text, str) and text.startswith("Table ")
            assert "{" not in text  # the tolerance is filled in
            assert isinstance(ok, bool)

    def test_each_claim_is_stated_once(self):
        texts = [text for text, _ in check_claims(holding_tables())]
        assert len(set(texts)) == len(texts)

    def test_one_broken_number_fails_only_its_claims(self):
        tables = holding_tables()
        venue = dict(tables.table7["Venue"], DepGraph_precision=0.99)
        broken = dataclasses.replace(tables, table7={**tables.table7, "Venue": venue})
        failed = [text for text, ok in check_claims(broken) if not ok]
        assert failed == [
            "Table 7: Cora venue propagation: recall up by more than 0.2, "
            "precision down"
        ]


class TestReportCommand:
    def test_failing_claim_is_unchecked_and_exits_1(
        self, monkeypatch, tmp_path, capsys
    ):
        tables = holding_tables()
        row = dict(tables.table4["A"], DepGraph_partitions=31)
        broken = dataclasses.replace(tables, table4={**tables.table4, "A": row})
        monkeypatch.setattr(report_module, "measure", lambda scale: broken)
        target = tmp_path / "report.md"
        assert main(["report", str(target), "--scale", "0.5"]) == 1
        claim = (
            "Table 4: DepGraph produces no more partitions than InDepDec "
            "on every dataset"
        )
        markdown = target.read_text()
        assert f"- [ ] {claim}" in markdown
        assert "## Paper claims — 25/26 hold" in markdown
        assert "Scale 0.5" in markdown
        captured = capsys.readouterr()
        assert f"[ ] {claim}" in captured.out
        assert captured.out.count("[x] ") == 25
        assert "1 of 26 paper claims fail" in captured.err

    def test_holding_claims_exit_0(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(report_module, "measure", lambda scale: holding_tables())
        target = tmp_path / "report.md"
        assert main(["report", str(target)]) == 0
        assert "26/26 hold" in target.read_text()
        assert capsys.readouterr().err == ""

    def test_report_text_is_stable(self, monkeypatch):
        """No wall time or other run-to-run noise, so the committed
        report.md can be checked with a plain diff."""
        monkeypatch.setattr(report_module, "measure", lambda scale: holding_tables())
        assert build_report(1.0) == build_report(1.0)
        assert "took" not in build_report(1.0)[0]

    def test_each_run_is_reconciled_once(self, monkeypatch):
        """Tables 2, 3 (Full row), 4, 5 and 6 share one scored run per
        (dataset, config): measuring them reconciles 40 distinct pairs
        and none twice. Table 7's two Cora runs, distinct by
        construction, are stubbed out to keep the test fast."""
        runs = []
        real_run = Reconciler.run

        def counting_run(self, **kwargs):
            runs.append((self.store, self.config))  # kept alive: ids stay unique
            return real_run(self, **kwargs)

        monkeypatch.setattr(Reconciler, "run", counting_run)
        monkeypatch.setattr(
            report_module,
            "table7_cora",
            lambda: [{"class": c} for c in ("Person", "Article", "Venue")],
        )
        pim_outcome.cache_clear()
        report_module.measure(0.05)
        distinct = {(id(store), config) for store, config in runs}
        assert len(runs) == len(distinct) == 40

    @pytest.mark.slow
    def test_build_report_structure(self):
        markdown, verdicts = build_report(scale=0.2)
        assert "# Reproduction report" in markdown
        assert "## Paper claims" in markdown
        assert len(verdicts) == len(CLAIMS)
        for table in ("Table 1", "Table 5", "Table 7", "Figure 6"):
            assert f"## {table}" in markdown
