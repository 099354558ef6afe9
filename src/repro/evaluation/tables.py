"""Fixed-width rendering of the paper's tables.

Each ``render_*`` takes the row structures produced by
:mod:`repro.evaluation.experiments` and returns a printable string in
the layout of the corresponding table, side by side with the paper's
published numbers where useful.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_figure6",
    "render_table6",
    "render_table7",
    "PAPER_NUMBERS",
]

#: The paper's published values, for side-by-side reporting.
PAPER_NUMBERS = {
    "table1": [
        ("PIM A", 27367, 2731, 10.0),
        ("PIM B", 40516, 3033, 13.4),
        ("PIM C", 18018, 2586, 7.0),
        ("PIM D", 17534, 1639, 10.7),
        ("Cora", 6107, 338, 18.1),
    ],
    "table2": {
        "Person": ((0.967, 0.926, 0.946), (0.995, 0.976, 0.986)),
        "Article": ((0.997, 0.977, 0.987), (0.999, 0.976, 0.987)),
        "Venue": ((0.935, 0.790, 0.856), (0.987, 0.937, 0.961)),
    },
    "table3": {
        "Full": ((0.967, 0.926, 0.946), (0.995, 0.976, 0.986)),
        "PArticle": ((0.999, 0.761, 0.864), (0.997, 0.994, 0.996)),
        "PEmail": ((0.999, 0.905, 0.950), (0.995, 0.974, 0.984)),
    },
    "table4": {
        "A": ((0.999, 0.741, 0.851, 3159), (0.999, 0.999, 0.999, 1873)),
        "B": ((0.974, 0.998, 0.986, 2154), (0.999, 0.999, 0.999, 2068)),
        "C": ((0.999, 0.967, 0.983, 1660), (0.982, 0.987, 0.985, 1596)),
        "D": ((0.894, 0.998, 0.943, 1579), (0.999, 0.920, 0.958, 1546)),
    },
    "table5": {
        ("Traditional", "Attr-wise"): 3159,
        ("Traditional", "Name&Email"): 2169,
        ("Traditional", "Article"): 2169,
        ("Traditional", "Contact"): 2096,
        ("Propagation", "Attr-wise"): 3159,
        ("Propagation", "Name&Email"): 2146,
        ("Propagation", "Article"): 2135,
        ("Propagation", "Contact"): 2022,
        ("Merge", "Attr-wise"): 3169,
        ("Merge", "Name&Email"): 2036,
        ("Merge", "Article"): 2036,
        ("Merge", "Contact"): 1910,
        ("Full", "Attr-wise"): 3169,
        ("Full", "Name&Email"): 2002,
        ("Full", "Article"): 1990,
        ("Full", "Contact"): 1873,
    },
    "table6": {
        "DepGraph": (0.999, 0.9994, 13, 692030),
        "Non-Constraint": (0.947, 0.9996, 61, 590438),
    },
    "table7": {
        "Person": ((0.994, 0.985, 0.989), (1.0, 0.987, 0.993)),
        "Article": ((0.985, 0.913, 0.948), (0.985, 0.924, 0.954)),
        "Venue": ((0.982, 0.362, 0.529), (0.837, 0.714, 0.771)),
    },
    # §5.4's cited comparison systems on Cora articles.
    "cora_citations": [
        ("Parag & Domingos [30] (collective)", 0.842, 0.909),
        ("Bilenko & Mooney [3] (adaptive), F", None, 0.867),
        ("Cohen & Richman [8]", 0.99, 0.925),
    ],
}


def _bar(width: int = 78) -> str:
    return "-" * width


def render_table1(rows: Iterable[dict]) -> str:
    lines = [
        "Table 1: dataset properties (measured | paper)",
        _bar(),
        f"{'Dataset':10s} {'#Refs':>8s} {'#Entities':>10s} {'Ratio':>7s}"
        f"   {'paper #Refs':>12s} {'#Ent':>6s} {'Ratio':>6s}",
    ]
    paper = {name: (refs, ents, ratio) for name, refs, ents, ratio in PAPER_NUMBERS["table1"]}
    for row in rows:
        p_refs, p_ents, p_ratio = paper.get(row["dataset"], ("-", "-", "-"))
        lines.append(
            f"{row['dataset']:10s} {row['references']:8d} {row['entities']:10d}"
            f" {row['ratio']:7.1f}   {p_refs!s:>12s} {p_ents!s:>6s} {p_ratio!s:>6s}"
        )
    return "\n".join(lines)


def _algo_cells(row: dict, algo: str) -> str:
    return (
        f"{row[f'{algo}_precision']:.3f}/{row[f'{algo}_recall']:.3f}"
        f" {row[f'{algo}_f']:.3f}"
    )


def render_table2(rows: Iterable[dict]) -> str:
    lines = [
        "Table 2: average P/R and F per class (PIM A-D)",
        _bar(),
        f"{'Class':9s} {'InDepDec P/R F':>22s} {'DepGraph P/R F':>22s}"
        f"   {'paper InDepDec':>16s} {'paper DepGraph':>16s}",
    ]
    for row in rows:
        paper_i, paper_d = PAPER_NUMBERS["table2"][row["class"]]
        lines.append(
            f"{row['class']:9s} {_algo_cells(row, 'InDepDec'):>22s}"
            f" {_algo_cells(row, 'DepGraph'):>22s}"
            f"   {paper_i[0]:.3f}/{paper_i[1]:.3f} {paper_i[2]:.3f}"
            f"  {paper_d[0]:.3f}/{paper_d[1]:.3f} {paper_d[2]:.3f}"
        )
    return "\n".join(lines)


def render_table3(rows: Iterable[dict]) -> str:
    lines = [
        "Table 3: Person references on Full / PArticle / PEmail",
        _bar(),
        f"{'Dataset':9s} {'InDepDec P/R F':>22s} {'DepGraph P/R F':>22s}"
        f"   {'paper InDepDec':>16s} {'paper DepGraph':>16s}",
    ]
    for row in rows:
        paper_i, paper_d = PAPER_NUMBERS["table3"][row["dataset"]]
        lines.append(
            f"{row['dataset']:9s} {_algo_cells(row, 'InDepDec'):>22s}"
            f" {_algo_cells(row, 'DepGraph'):>22s}"
            f"   {paper_i[0]:.3f}/{paper_i[1]:.3f} {paper_i[2]:.3f}"
            f"  {paper_d[0]:.3f}/{paper_d[1]:.3f} {paper_d[2]:.3f}"
        )
    return "\n".join(lines)


def render_table4(rows: Iterable[dict]) -> str:
    lines = [
        "Table 4: per-dataset Person performance",
        _bar(),
        f"{'DS':3s} {'ent/refs':>11s} "
        f"{'InDepDec P/R F #par':>28s} {'DepGraph P/R F #par':>28s}",
    ]
    for row in rows:
        lines.append(
            f"{row['dataset']:3s} {row['entities']:>4d}/{row['references']:<6d}"
            f" {row['InDepDec_precision']:.3f}/{row['InDepDec_recall']:.3f}"
            f" {row['InDepDec_f']:.3f} {row['InDepDec_partitions']:>5d}"
            f"    {row['DepGraph_precision']:.3f}/{row['DepGraph_recall']:.3f}"
            f" {row['DepGraph_f']:.3f} {row['DepGraph_partitions']:>5d}"
        )
    lines.append("paper:")
    for name, (paper_i, paper_d) in PAPER_NUMBERS["table4"].items():
        lines.append(
            f"{name:3s} {'':11s} {paper_i[0]:.3f}/{paper_i[1]:.3f}"
            f" {paper_i[2]:.3f} {paper_i[3]:>5d}    "
            f"{paper_d[0]:.3f}/{paper_d[1]:.3f} {paper_d[2]:.3f} {paper_d[3]:>5d}"
        )
    return "\n".join(lines)


def render_table5(grid: dict) -> str:
    from ..baselines import EVIDENCE_LEVELS, MODES

    lines = [
        f"Table 5: Person partitions by mode x evidence on PIM A "
        f"({grid['references']} refs, {grid['entities']} entities; "
        f"paper: 24076 refs, 1750 entities)",
        _bar(),
        f"{'Mode':12s}"
        + "".join(f"{evidence.name:>12s}" for evidence in EVIDENCE_LEVELS)
        + f"{'Reduction%':>12s}",
    ]
    for mode in MODES:
        cells = "".join(
            f"{grid['cells'][(mode.name, evidence.name)]:>12d}"
            for evidence in EVIDENCE_LEVELS
        )
        lines.append(
            f"{mode.name:12s}{cells}{grid['mode_reductions'][mode.name]:>11.1f}%"
        )
    reductions = "".join(
        f"{grid['evidence_reductions'][evidence.name]:>11.1f}%"
        for evidence in EVIDENCE_LEVELS
    )
    lines.append(f"{'Reduction%':12s}{reductions}{grid['overall']:>11.1f}%")
    lines.append("paper cells:")
    for mode in MODES:
        cells = "".join(
            f"{PAPER_NUMBERS['table5'][(mode.name, evidence.name)]:>12d}"
            for evidence in EVIDENCE_LEVELS
        )
        lines.append(f"{mode.name:12s}{cells}")
    return "\n".join(lines)


def render_figure6(series: list[dict]) -> str:
    lines = [
        "Figure 6: Person partitions per evidence level (one series per mode)",
        _bar(),
    ]
    for entry in series:
        points = "  ".join(f"{name}={count}" for name, count in entry["points"])
        lines.append(f"{entry['mode']:12s} {points}")
    return "\n".join(lines)


def render_table6(rows: Iterable[dict]) -> str:
    lines = [
        "Table 6: effect of constraints (PIM A, Person)",
        _bar(),
        f"{'Method':16s} {'Prec/Recall':>15s} {'#EntFP':>8s} {'#Nodes':>10s}"
        f"   {'paper P/R':>15s} {'#EntFP':>7s} {'#Nodes':>8s}",
    ]
    for row in rows:
        paper = PAPER_NUMBERS["table6"][row["method"]]
        lines.append(
            f"{row['method']:16s} {row['precision']:.3f}/{row['recall']:.4f}"
            f" {row['entities_with_false_positives']:>8d}"
            f" {row['graph_nodes']:>10d}"
            f"   {paper[0]:.3f}/{paper[1]:.4f} {paper[2]:>7d} {paper[3]:>8d}"
        )
    return "\n".join(lines)


def render_table7(rows: Iterable[dict]) -> str:
    lines = [
        "Table 7: the Cora citation benchmark",
        _bar(),
        f"{'Class':9s} {'InDepDec P/R F':>22s} {'DepGraph P/R F':>22s}"
        f"   {'paper InDepDec':>16s} {'paper DepGraph':>16s}",
    ]
    for row in rows:
        paper_i, paper_d = PAPER_NUMBERS["table7"][row["class"]]
        lines.append(
            f"{row['class']:9s} {_algo_cells(row, 'InDepDec'):>22s}"
            f" {_algo_cells(row, 'DepGraph'):>22s}"
            f"   {paper_i[0]:.3f}/{paper_i[1]:.3f} {paper_i[2]:.3f}"
            f"  {paper_d[0]:.3f}/{paper_d[1]:.3f} {paper_d[2]:.3f}"
        )
    lines.append("published comparison systems (articles):")
    for name, precision, recall in PAPER_NUMBERS["cora_citations"]:
        p = "-" if precision is None else f"{precision:.3f}"
        lines.append(f"  {name:40s} {p}/{recall:.3f}")
    return "\n".join(lines)
