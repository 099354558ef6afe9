"""Smoke and shape tests for the experiment drivers (tiny scale).

The paper's shapes are claims in ``repro.evaluation.report``, checked
by ``repro report``; here we verify that every driver runs, returns
well-formed rows, and that the renderers produce the paper-style
tables.
"""

import pytest

from repro.evaluation import (
    figure6_series,
    render_figure6,
    render_table1,
    render_table2,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    table1_dataset_properties,
    table2_class_averages,
    table4_per_dataset,
    table5_ablation_grid,
    table6_constraints,
    table7_cora,
)

SCALE = 0.25


@pytest.fixture(scope="module")
def grid():
    return table5_ablation_grid(SCALE)


class TestDrivers:
    def test_table1(self):
        rows = table1_dataset_properties(SCALE)
        assert [row["dataset"] for row in rows] == [
            "PIM A",
            "PIM B",
            "PIM C",
            "PIM D",
            "Cora",
        ]
        rendered = render_table1(rows)
        assert "27367" in rendered  # paper numbers shown side by side

    def test_table2(self):
        rows = table2_class_averages(SCALE)
        assert {row["class"] for row in rows} == {"Person", "Article", "Venue"}
        for row in rows:
            for key, value in row.items():
                if key != "class":
                    assert 0.0 <= value <= 1.0
        assert "DepGraph" in render_table2(rows)

    def test_table4(self):
        rows = table4_per_dataset(SCALE)
        assert [row["dataset"] for row in rows] == ["A", "B", "C", "D"]
        for row in rows:
            assert row["DepGraph_partitions"] >= row["entities"] * 0.5
        assert "per-dataset" in render_table4(rows)

    def test_table5_grid_complete(self, grid):
        assert len(grid["cells"]) == 16
        assert grid["entities"] > 0
        for count in grid["cells"].values():
            assert grid["entities"] <= count <= grid["references"]
        rendered = render_table5(grid)
        assert "Traditional" in rendered and "Contact" in rendered

    def test_figure6_series_match_grid(self, grid):
        series = figure6_series(grid)
        assert len(series) == 4
        for entry in series:
            for evidence_name, count in entry["points"]:
                assert grid["cells"][(entry["mode"], evidence_name)] == count
        assert "Figure 6" in render_figure6(series)

    def test_table6(self):
        rows = table6_constraints(SCALE)
        assert [row["method"] for row in rows] == ["DepGraph", "Non-Constraint"]
        for row in rows:
            assert row["graph_nodes"] > 0
        assert "constraints" in render_table6(rows)

    @pytest.mark.slow
    def test_table7_uses_full_cora(self):
        rows = table7_cora()
        assert [row["class"] for row in rows] == ["Person", "Article", "Venue"]
        rendered = render_table7(rows)
        assert "Cora" in rendered
        assert "Parag" in rendered  # cited comparison systems listed
