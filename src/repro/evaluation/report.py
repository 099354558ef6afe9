"""The paper's claims, and the one-shot reproduction report.

The paper's result is a set of shapes, not exact numbers: DepGraph
beats InDepDec, venue recall gains the most, dataset D loses recall to
constraint 3, and so on. :data:`CLAIMS` writes each shape down once, as
a row: the paper table it comes from, a one-line statement, a
predicate over the measured tables and the tolerance the predicate
allows. A statement shows its tolerance through ``{tol}``.

:func:`build_report` runs every experiment driver, checks every claim
and assembles a single markdown document — the verdicts, then the
measured tables next to the paper's numbers. ``python -m repro report``
writes it and exits 1 when any claim fails, at whatever ``--scale`` it
is given.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import pairwise

from .experiments import (
    figure6_series,
    table1_dataset_properties,
    table2_class_averages,
    table3_person_subsets,
    table4_per_dataset,
    table5_ablation_grid,
    table6_constraints,
    table7_cora,
)
from .tables import (
    render_figure6,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
)

__all__ = ["CLAIMS", "Claim", "Measured", "build_report", "check_claims", "measure"]


@dataclass(frozen=True)
class Measured:
    """Every experiment driver's output at one scale. Row tables are
    keyed by their first column (dataset, class, subset or method), in
    the drivers' row order; ``table5`` is the ablation grid."""

    table1: dict[str, dict]
    table2: dict[str, dict]
    table3: dict[str, dict]
    table4: dict[str, dict]
    table5: dict
    table6: dict[str, dict]
    table7: dict[str, dict]


def _keyed(rows: list[dict], key: str) -> dict[str, dict]:
    return {row[key]: row for row in rows}


def measure(scale: float = 1.0) -> Measured:
    """Run every experiment driver (PIM at *scale*, Cora at its natural size)."""
    return Measured(
        table1=_keyed(table1_dataset_properties(scale), "dataset"),
        table2=_keyed(table2_class_averages(scale), "class"),
        table3=_keyed(table3_person_subsets(scale), "dataset"),
        table4=_keyed(table4_per_dataset(scale), "dataset"),
        table5=table5_ablation_grid(scale),
        table6=_keyed(table6_constraints(scale), "method"),
        table7=_keyed(table7_cora(), "class"),
    )


@dataclass(frozen=True)
class Claim:
    """One shape the paper reports, checked on measured tables."""

    table: str
    statement: str
    tolerance: float
    holds: Callable[[Measured, float], bool]

    def check(self, measured: Measured) -> tuple[str, bool]:
        text = f"{self.table}: {self.statement.format(tol=self.tolerance)}"
        return text, bool(self.holds(measured, self.tolerance))


def _gain(row: dict, metric: str = "recall") -> float:
    return row[f"DepGraph_{metric}"] - row[f"InDepDec_{metric}"]


def _beats(row: dict, margin: float, metric: str = "recall") -> bool:
    return row[f"DepGraph_{metric}"] > row[f"InDepDec_{metric}"] + margin


def _f_holds(rows: dict[str, dict], tol: float) -> bool:
    return all(row["DepGraph_f"] >= row["InDepDec_f"] - tol for row in rows.values())


def _full_row(m: Measured) -> list[int]:
    cells = m.table5["cells"]
    return [cells[("Full", e)] for e in ("Attr-wise", "Name&Email", "Article", "Contact")]


def _contact(m: Measured) -> dict[str, int]:
    cells = m.table5["cells"]
    return {
        mode: cells[(mode, "Contact")]
        for mode in ("Traditional", "Propagation", "Merge", "Full")
    }


#: The paper's result shapes, one row each, in table order.
CLAIMS: tuple[Claim, ...] = (
    Claim(
        "Table 1", "every dataset has entities and at least {tol:g} references per entity",
        4.0, lambda m, tol: all(
            row["entities"] > 0 and row["ratio"] >= tol for row in m.table1.values()
        ),
    ),
    Claim(
        "Table 1", "Cora has 20 ± {tol:g} references per entity (paper: 18.1)",
        5.0, lambda m, tol: 20.0 - tol <= m.table1["Cora"]["ratio"] <= 20.0 + tol,
    ),
    Claim(
        "Table 2", "DepGraph F >= InDepDec F - {tol:g} on every PIM class",
        0.01, lambda m, tol: _f_holds(m.table2, tol),
    ),
    Claim(
        "Table 2", "Venue recall gains the most from propagation (within {tol:g})",
        0.02, lambda m, tol: _gain(m.table2["Venue"])
        >= max(_gain(m.table2[c]) for c in ("Person", "Article")) - tol,
    ),
    Claim(
        "Table 2", "DepGraph gains more than {tol:g} Venue recall",
        0.10, lambda m, tol: _beats(m.table2["Venue"], tol),
    ),
    Claim(
        "Table 2", "DepGraph gains more than {tol:g} Person recall",
        0.03, lambda m, tol: _beats(m.table2["Person"], tol),
    ),
    Claim(
        "Table 2", "DepGraph precision is at least {tol:g} on every PIM class",
        0.9, lambda m, tol: all(
            row["DepGraph_precision"] >= tol for row in m.table2.values()
        ),
    ),
    Claim(
        "Table 3", "DepGraph Person recall >= InDepDec's - {tol:g} on every subset",
        0.01, lambda m, tol: all(
            row["DepGraph_recall"] >= row["InDepDec_recall"] - tol
            for row in m.table3.values()
        ),
    ),
    Claim(
        "Table 3", "PArticle's Person recall gain is at least PEmail's",
        0.0, lambda m, tol: _gain(m.table3["PArticle"])
        >= _gain(m.table3["PEmail"]) - tol,
    ),
    Claim(
        "Table 3", "PArticle's Person recall gain is more than {tol:g}",
        0.10, lambda m, tol: _gain(m.table3["PArticle"]) > tol,
    ),
    Claim(
        "Table 4", "DepGraph produces no more partitions than InDepDec on every dataset",
        0, lambda m, tol: all(
            row["DepGraph_partitions"] <= row["InDepDec_partitions"] + tol
            for row in m.table4.values()
        ),
    ),
    Claim(
        "Table 4", "DepGraph F >= InDepDec F - {tol:g} on every dataset",
        0.02, lambda m, tol: _f_holds(m.table4, tol),
    ),
    Claim(
        "Table 4", "dataset A gains more than {tol:g} Person recall",
        0.05, lambda m, tol: _gain(m.table4["A"]) > tol,
    ),
    Claim(
        "Table 4",
        "dataset D shows the owner-split recall signature: its DepGraph "
        "recall is at most {tol:g} above A-C's lowest",
        0.05, lambda m, tol: m.table4["D"]["DepGraph_recall"]
        <= min(m.table4[d]["DepGraph_recall"] for d in "ABC") + tol,
    ),
    Claim(
        "Table 5", "Full-mode partitions never rise along the evidence axis",
        0, lambda m, tol: all(b <= a + tol for a, b in pairwise(_full_row(m))),
    ),
    Claim(
        "Table 5", "Name&Email evidence lowers Full-mode partitions below Attr-wise",
        0, lambda m, tol: _full_row(m)[1] < _full_row(m)[0] - tol,
    ),
    Claim(
        "Table 5",
        "Article evidence is inert in Traditional mode (within {tol:g} "
        "partitions or 2%)",
        2, lambda m, tol: abs(
            m.table5["cells"][("Traditional", "Article")]
            - m.table5["cells"][("Traditional", "Name&Email")]
        ) <= max(tol, m.table5["cells"][("Traditional", "Name&Email")] // 50),
    ),
    Claim(
        "Table 5", "at Contact, Full is within {tol:g} partitions of the best mode",
        2, lambda m, tol: _contact(m)["Full"] <= min(_contact(m).values()) + tol,
    ),
    Claim(
        "Table 5", "at Contact, Traditional is within {tol:g} partitions of the worst mode",
        2, lambda m, tol: _contact(m)["Traditional"] >= max(_contact(m).values()) - tol,
    ),
    Claim(
        "Table 5",
        "DepGraph closes more than {tol:g}% of InDepDec's partition gap "
        "(paper: 91.3%)",
        50.0, lambda m, tol: m.table5["overall"] > tol,
    ),
    Claim(
        "Table 6", "constraints do not lower Person precision",
        0.0, lambda m, tol: m.table6["DepGraph"]["precision"]
        >= m.table6["Non-Constraint"]["precision"] - tol,
    ),
    Claim(
        "Table 6", "constraints do not raise the entities involved in false positives",
        0, lambda m, tol: m.table6["DepGraph"]["entities_with_false_positives"]
        <= m.table6["Non-Constraint"]["entities_with_false_positives"] + tol,
    ),
    Claim(
        "Table 6", "constraints cost at most {tol:g} Person recall",
        0.12, lambda m, tol: m.table6["DepGraph"]["recall"]
        >= m.table6["Non-Constraint"]["recall"] - tol,
    ),
    Claim(
        "Table 7", "DepGraph F >= InDepDec F - {tol:g} on every Cora class",
        0.01, lambda m, tol: _f_holds(m.table7, tol),
    ),
    Claim(
        "Table 7",
        "Cora venue propagation: recall up by more than {tol:g}, precision down",
        0.2, lambda m, tol: _beats(m.table7["Venue"], tol)
        and m.table7["Venue"]["DepGraph_precision"]
        < m.table7["Venue"]["InDepDec_precision"],
    ),
    Claim(
        "Table 7", "Cora DepGraph Person and Article precision exceed {tol:g}",
        0.95, lambda m, tol: all(
            m.table7[c]["DepGraph_precision"] > tol for c in ("Person", "Article")
        ),
    ),
)


def check_claims(measured: Measured) -> list[tuple[str, bool]]:
    """Every claim of :data:`CLAIMS` as ``(text, holds)``, in table order."""
    return [claim.check(measured) for claim in CLAIMS]


def build_report(scale: float = 1.0) -> tuple[str, list[tuple[str, bool]]]:
    """Run all experiments; return the markdown report and the claim
    verdicts it lists."""
    measured = measure(scale)
    verdicts = check_claims(measured)
    passed = sum(1 for _, ok in verdicts if ok)

    sections = [
        "# Reproduction report — Dong, Halevy & Madhavan, SIGMOD 2005",
        "",
        f"Scale {scale} (PIM datasets; Cora at natural size).",
        "",
        f"## Paper claims — {passed}/{len(verdicts)} hold",
        "",
    ]
    for text, ok in verdicts:
        sections.append(f"- [{'x' if ok else ' '}] {text}")
    sections.append("")
    for title, body in (
        ("Table 1", render_table1(measured.table1.values())),
        ("Table 2", render_table2(measured.table2.values())),
        ("Table 3", render_table3(measured.table3.values())),
        ("Table 4", render_table4(measured.table4.values())),
        ("Table 5", render_table5(measured.table5)),
        ("Figure 6", render_figure6(figure6_series(measured.table5))),
        ("Table 6", render_table6(measured.table6.values())),
        ("Table 7", render_table7(measured.table7.values())),
    ):
        sections.append(f"## {title}")
        sections.append("")
        sections.append("```")
        sections.append(body)
        sections.append("```")
        sections.append("")
    return "\n".join(sections), verdicts
