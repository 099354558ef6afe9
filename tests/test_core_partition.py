"""Union-find tests, including a networkx connected-components oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import ConstraintViolation, UnionFind


class TestBasics:
    def test_lazy_registration(self):
        uf = UnionFind()
        assert uf.find("a") == "a"
        assert "a" in uf and len(uf) == 1

    def test_union_and_connected(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")
        assert not uf.connected("a", "d")
        assert {uf.find(item) for item in "abcd"} == {uf.find("a"), uf.find("d")}

    def test_union_idempotent(self):
        uf = UnionFind()
        uf.union("a", "b")
        count = uf.union_count
        uf.union("a", "b")
        assert uf.union_count == count


class TestEnemies:
    def test_enemy_blocks_union(self):
        uf = UnionFind()
        uf.add_enemy("a", "b")
        assert uf.union("a", "b") is None
        assert not uf.connected("a", "b")
        assert uf.are_enemies("a", "b")

    def test_enemy_inherited_through_union(self):
        uf = UnionFind()
        uf.add_enemy("a", "b")
        uf.union("a", "c")
        # c's cluster now contains a, so c and b are enemies.
        assert uf.are_enemies("c", "b")
        assert uf.union("c", "b") is None

    def test_enemy_inherited_from_absorbed_side(self):
        uf = UnionFind()
        uf.add_enemy("a", "b")
        uf.union("b", "c")
        uf.union("c", "d")
        assert uf.union("d", "a") is None

    def test_cannot_make_connected_pair_enemies(self):
        uf = UnionFind()
        uf.union("a", "b")
        with pytest.raises(ConstraintViolation):
            uf.add_enemy("a", "b")


@st.composite
def union_sequences(draw):
    n = draw(st.integers(2, 12))
    items = [f"n{i}" for i in range(n)]
    n_ops = draw(st.integers(0, 25))
    ops = [
        (
            draw(st.sampled_from(items)),
            draw(st.sampled_from(items)),
        )
        for _ in range(n_ops)
    ]
    return items, ops


class TestAgainstNetworkxOracle:
    @given(union_sequences())
    @settings(max_examples=60)
    def test_matches_connected_components(self, data):
        items, ops = data
        uf = UnionFind(items)
        graph = nx.Graph()
        graph.add_nodes_from(items)
        for left, right in ops:
            uf.union(left, right)
            graph.add_edge(left, right)
        components = list(nx.connected_components(graph))
        assert len({uf.find(item) for item in items}) == len(components)
        for component in components:
            members = sorted(component)
            for other in members[1:]:
                assert uf.connected(members[0], other)

    @given(union_sequences())
    @settings(max_examples=40)
    def test_enemy_pairs_never_connect(self, data):
        items, ops = data
        if len(items) < 2:
            return
        uf = UnionFind(items)
        uf.add_enemy(items[0], items[1])
        for left, right in ops:
            uf.union(left, right)
        assert not uf.connected(items[0], items[1])
