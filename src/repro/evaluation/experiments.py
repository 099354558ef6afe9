"""Experiment drivers: one function per table/figure of the paper.

Every driver returns plain data structures (lists of row dicts) so
``repro tables`` can print the paper-style table and ``repro report``
can check the paper's claims on it. Generated datasets are cached per
(name, scale) within the process — the ablation grid alone reconciles
dataset A sixteen times and must not regenerate it each run — and so
are scored PIM runs per (name, scale, config): Tables 2, 3 (Full row),
4, 5 and 6 reconcile many of the same pairs, and each runs once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..baselines import EVIDENCE_LEVELS, MODES, ablation_config, indepdec_config
from ..core.engine import EngineStats, Reconciler
from ..core.model import EngineConfig
from ..core.references import Reference, ReferenceStore
from ..datasets import Dataset, generate_cora_dataset, generate_pim_dataset
from ..datasets.pim import PIM_DATASET_NAMES
from ..domains import CoraDomainModel, PimDomainModel
from .metrics import (
    PairwiseScores,
    entities_with_false_positives,
    pairwise_scores,
    partition_reduction,
)

__all__ = [
    "RunOutcome",
    "reconcile",
    "pim_dataset",
    "pim_outcome",
    "cora_dataset",
    "person_subset",
    "table1_dataset_properties",
    "table2_class_averages",
    "table3_person_subsets",
    "table4_per_dataset",
    "table5_ablation_grid",
    "figure6_series",
    "table6_constraints",
    "table7_cora",
]


@dataclass
class RunOutcome:
    """One reconciliation run scored against gold: its partition and
    engine counters, not the engine, so a shared outcome stays small."""

    dataset: Dataset
    clusters: dict[str, list[list[str]]]
    stats: EngineStats
    scores: dict[str, PairwiseScores]

    def partitions(self, class_name: str) -> int:
        return len(self.clusters[class_name])


@functools.lru_cache(maxsize=16)
def pim_dataset(name: str, scale: float = 1.0) -> Dataset:
    return generate_pim_dataset(name, scale=scale)


@functools.lru_cache(maxsize=2)
def cora_dataset() -> Dataset:
    return generate_cora_dataset()


def reconcile(
    dataset: Dataset,
    config: EngineConfig,
    *,
    domain,
    classes: tuple[str, ...] | None = None,
) -> RunOutcome:
    """Run one configuration over *dataset* and score every class."""
    reconciler = Reconciler(dataset.store, domain, config)
    result = reconciler.run()
    gold = dataset.gold.entity_of
    class_names = classes or dataset.store.schema.class_names
    scores = {
        class_name: pairwise_scores(result.clusters(class_name), gold)
        for class_name in class_names
    }
    return RunOutcome(
        dataset=dataset, clusters=result.partitions, stats=result.stats, scores=scores
    )


@functools.lru_cache(maxsize=32)
def pim_outcome(name: str, scale: float, config: EngineConfig) -> RunOutcome:
    """The scored run of *config* over PIM dataset *name* at *scale*,
    every class scored; shared by every table that makes this run."""
    return reconcile(pim_dataset(name, scale), config, domain=PimDomainModel())


def person_subset(dataset: Dataset, source: str) -> Dataset:
    """The §5.3 PEmail / PArticle subset of a PIM dataset.

    ``source="email"`` keeps only the email-extracted person references;
    ``source="bibtex"`` keeps the bibliography-extracted person
    references together with their articles and venues (the association
    evidence the subset experiment is about).
    """
    keep: set[str] = set()
    for reference in dataset.store:
        if reference.class_name == "Person":
            if dataset.gold.source_of[reference.ref_id] == source:
                keep.add(reference.ref_id)
        elif source == "bibtex":
            keep.add(reference.ref_id)
    references = []
    for reference in dataset.store:
        if reference.ref_id not in keep:
            continue
        # Drop association links pointing outside the subset.
        filtered = {}
        for attribute, vals in reference.values.items():
            schema_class = dataset.store.schema.cls(reference.class_name)
            if schema_class.attribute(attribute).is_association:
                vals = tuple(v for v in vals if v in keep)
                if not vals:
                    continue
            filtered[attribute] = vals
        references.append(
            Reference(
                ref_id=reference.ref_id,
                class_name=reference.class_name,
                values=filtered,
                source=reference.source,
            )
        )
    from ..datasets.gold import GoldStandard

    gold = GoldStandard()
    for reference in references:
        gold.add(
            reference.ref_id,
            dataset.gold.entity_of[reference.ref_id],
            reference.class_name,
            dataset.gold.source_of[reference.ref_id],
        )
    store = ReferenceStore(dataset.store.schema, references)
    store.validate()
    label = "PEmail" if source == "email" else "PArticle"
    return Dataset(
        name=f"{dataset.name} {label}", store=store, gold=gold, world=dataset.world
    )


# ---------------------------------------------------------------------------
# Table 1 — dataset properties
# ---------------------------------------------------------------------------
def table1_dataset_properties(scale: float = 1.0) -> list[dict]:
    """#references, #entities and their ratio for PIM A-D and Cora."""
    rows = [pim_dataset(name, scale).summary() for name in PIM_DATASET_NAMES]
    rows.append(cora_dataset().summary())
    return rows


# ---------------------------------------------------------------------------
# Table 2 — average P/R/F per class over the PIM datasets
# ---------------------------------------------------------------------------
def table2_class_averages(scale: float = 1.0) -> list[dict]:
    """InDepDec vs DepGraph averaged over the four PIM datasets."""
    domain = PimDomainModel()
    sums: dict[tuple[str, str], list[float]] = {}
    for name in PIM_DATASET_NAMES:
        for algo, config in (
            ("InDepDec", indepdec_config(domain)),
            ("DepGraph", EngineConfig()),
        ):
            outcome = pim_outcome(name, scale, config)
            for class_name, score in outcome.scores.items():
                bucket = sums.setdefault((algo, class_name), [0.0, 0.0, 0.0])
                bucket[0] += score.precision
                bucket[1] += score.recall
                bucket[2] += score.f_measure
    count = len(PIM_DATASET_NAMES)
    rows = []
    for class_name in ("Person", "Article", "Venue"):
        row = {"class": class_name}
        for algo in ("InDepDec", "DepGraph"):
            precision, recall, f_measure = sums[(algo, class_name)]
            row[f"{algo}_precision"] = precision / count
            row[f"{algo}_recall"] = recall / count
            row[f"{algo}_f"] = f_measure / count
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 3 — Person references on Full / PArticle / PEmail
# ---------------------------------------------------------------------------
def table3_person_subsets(scale: float = 1.0) -> list[dict]:
    """Average Person scores on the full datasets and both subsets."""
    domain = PimDomainModel()
    rows = []
    for subset in ("Full", "PArticle", "PEmail"):
        sums = {"InDepDec": [0.0, 0.0], "DepGraph": [0.0, 0.0]}
        for name in PIM_DATASET_NAMES:
            if subset != "Full":
                source = "bibtex" if subset == "PArticle" else "email"
                dataset = person_subset(pim_dataset(name, scale), source)
            for algo, config in (
                ("InDepDec", indepdec_config(domain)),
                ("DepGraph", EngineConfig()),
            ):
                if subset == "Full":
                    outcome = pim_outcome(name, scale, config)
                else:
                    outcome = reconcile(
                        dataset, config, domain=PimDomainModel(), classes=("Person",)
                    )
                sums[algo][0] += outcome.scores["Person"].precision
                sums[algo][1] += outcome.scores["Person"].recall
        count = len(PIM_DATASET_NAMES)
        row = {"dataset": subset}
        for algo in ("InDepDec", "DepGraph"):
            precision = sums[algo][0] / count
            recall = sums[algo][1] / count
            f_measure = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
            row[f"{algo}_precision"] = precision
            row[f"{algo}_recall"] = recall
            row[f"{algo}_f"] = f_measure
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 4 — per-dataset Person performance
# ---------------------------------------------------------------------------
def table4_per_dataset(scale: float = 1.0) -> list[dict]:
    """Person P/R/F and partition counts for each PIM dataset."""
    domain = PimDomainModel()
    rows = []
    for name in PIM_DATASET_NAMES:
        dataset = pim_dataset(name, scale)
        row = {
            "dataset": name,
            "entities": dataset.gold.entity_count("Person"),
            "references": dataset.gold.reference_count("Person"),
        }
        for algo, config in (
            ("InDepDec", indepdec_config(domain)),
            ("DepGraph", EngineConfig()),
        ):
            outcome = pim_outcome(name, scale, config)
            score = outcome.scores["Person"]
            row[f"{algo}_precision"] = score.precision
            row[f"{algo}_recall"] = score.recall
            row[f"{algo}_f"] = score.f_measure
            row[f"{algo}_partitions"] = outcome.partitions("Person")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 5 / Figure 6 — the evidence x mode ablation grid on PIM A
# ---------------------------------------------------------------------------
def table5_ablation_grid(scale: float = 1.0, dataset_name: str = "A") -> dict:
    """Person partition counts for every (mode, evidence) cell.

    Returns ``{"cells": {(mode, evidence): partitions}, "entities": N,
    "mode_reductions": ..., "evidence_reductions": ..., "overall": ...}``
    following Table 5's reduction formula.
    """
    dataset = pim_dataset(dataset_name, scale)
    entities = dataset.gold.entity_count("Person")
    cells: dict[tuple[str, str], int] = {}
    for mode in MODES:
        for evidence in EVIDENCE_LEVELS:
            outcome = pim_outcome(dataset_name, scale, ablation_config(evidence, mode))
            cells[(mode.name, evidence.name)] = outcome.partitions("Person")
    first_evidence = EVIDENCE_LEVELS[0].name
    last_evidence = EVIDENCE_LEVELS[-1].name
    first_mode = MODES[0].name
    last_mode = MODES[-1].name
    mode_reductions = {
        mode.name: partition_reduction(
            cells[(mode.name, first_evidence)],
            cells[(mode.name, last_evidence)],
            entities,
        )
        for mode in MODES
    }
    evidence_reductions = {
        evidence.name: partition_reduction(
            cells[(first_mode, evidence.name)],
            cells[(last_mode, evidence.name)],
            entities,
        )
        for evidence in EVIDENCE_LEVELS
    }
    overall = partition_reduction(
        cells[(first_mode, first_evidence)],
        cells[(last_mode, last_evidence)],
        entities,
    )
    return {
        "cells": cells,
        "entities": entities,
        "references": dataset.gold.reference_count("Person"),
        "mode_reductions": mode_reductions,
        "evidence_reductions": evidence_reductions,
        "overall": overall,
    }


def figure6_series(grid: dict) -> list[dict]:
    """Figure 6 is the Table-5 *grid* plotted as partitions per evidence
    level, one series per mode; this returns exactly those series."""
    series = []
    for mode in MODES:
        series.append(
            {
                "mode": mode.name,
                "points": [
                    (evidence.name, grid["cells"][(mode.name, evidence.name)])
                    for evidence in EVIDENCE_LEVELS
                ],
            }
        )
    return series


# ---------------------------------------------------------------------------
# Table 6 — effect of constraints on PIM A
# ---------------------------------------------------------------------------
def table6_constraints(scale: float = 1.0, dataset_name: str = "A") -> list[dict]:
    """DepGraph vs Non-Constraint: precision/recall, entities involved
    in false positives, and dependency-graph size."""
    dataset = pim_dataset(dataset_name, scale)
    rows = []
    for label, config in (
        ("DepGraph", EngineConfig()),
        ("Non-Constraint", EngineConfig(constraints=False)),
    ):
        outcome = pim_outcome(dataset_name, scale, config)
        score = outcome.scores["Person"]
        rows.append(
            {
                "method": label,
                "precision": score.precision,
                "recall": score.recall,
                "entities_with_false_positives": entities_with_false_positives(
                    outcome.clusters["Person"], dataset.gold.entity_of
                ),
                "graph_nodes": outcome.stats.graph_nodes,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 7 — the Cora benchmark
# ---------------------------------------------------------------------------
def table7_cora() -> list[dict]:
    """InDepDec vs DepGraph per class on the Cora-like corpus."""
    dataset = cora_dataset()
    domain = CoraDomainModel()
    outcomes = {
        algo: reconcile(dataset, config, domain=CoraDomainModel())
        for algo, config in (
            ("InDepDec", indepdec_config(domain)),
            ("DepGraph", EngineConfig()),
        )
    }
    rows = []
    for class_name in ("Person", "Article", "Venue"):
        row = {"class": class_name}
        for algo, outcome in outcomes.items():
            score = outcome.scores[class_name]
            row[f"{algo}_precision"] = score.precision
            row[f"{algo}_recall"] = score.recall
            row[f"{algo}_f"] = score.f_measure
        rows.append(row)
    return rows
