"""Tests for the dependency graph: uniqueness, edges, enrichment fusion."""

import copy
import itertools

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import DependencyGraph
from repro.core.nodes import NO_EDGES, EdgeType, NodeStatus, PairNode, ValueNode, pair_key
from repro.core.partition import UnionFind


def make_graph():
    graph = DependencyGraph()
    node_ab = graph.add_pair_node("Person", "a", "b")
    node_ac = graph.add_pair_node("Person", "a", "c")
    node_bc = graph.add_pair_node("Person", "b", "c")
    return graph, node_ab, node_ac, node_bc


class TestUniqueness:
    def test_pair_node_unique_per_pair(self):
        graph = DependencyGraph()
        first = graph.add_pair_node("Person", "a", "b")
        second = graph.add_pair_node("Person", "b", "a")
        assert first is second
        assert graph.pair_nodes_created == 1

    def test_value_node_unique_per_value_pair(self):
        graph = DependencyGraph()
        first = graph.value_node("name", "x", "y", 0.8)
        second = graph.value_node("name", "y", "x", 0.8)
        assert first is second
        assert graph.value_nodes_created == 1

    def test_value_node_distinct_per_channel(self):
        graph = DependencyGraph()
        first = graph.value_node("name", "x", "y", 0.8)
        second = graph.value_node("email", "x", "y", 0.8)
        assert first is not second


class TestEdges:
    def test_typed_edges(self):
        graph, node_ab, node_ac, _ = make_graph()
        graph.add_edge(node_ab, node_ac, EdgeType.REAL)
        graph.add_edge(node_ab, node_ac, EdgeType.STRONG)
        graph.add_edge(node_ac, node_ab, EdgeType.WEAK)
        assert node_ac.key in node_ab.real_out
        assert node_ab.key in node_ac.real_in
        assert node_ac.key in node_ab.strong_out
        assert node_ac.key in node_ab.weak_in
        assert list(graph.real_out_nodes(node_ab)) == [node_ac]
        assert list(graph.strong_in_nodes(node_ac)) == [node_ab]


class TestNodeLayout:
    def test_nodes_are_slotted(self):
        graph = DependencyGraph()
        node = graph.add_pair_node("Person", "a", "b")
        value = graph.value_node("name", "x", "y", 0.8)
        assert not hasattr(node, "__dict__")
        assert not hasattr(value, "__dict__")
        assert "__dict__" not in dir(PairNode) and "__dict__" not in dir(ValueNode)

    def test_fresh_node_allocates_no_edge_set(self):
        _, node_ab, node_ac, _ = make_graph()
        for node in (node_ab, node_ac):
            assert all(edges is NO_EDGES for edges in edge_sets(node))

    @pytest.mark.parametrize("edge_type", list(EdgeType))
    def test_edge_allocates_exactly_its_two_sets(self, edge_type):
        graph, node_ab, node_ac, _ = make_graph()
        graph.add_edge(node_ab, node_ac, edge_type)
        names = {
            EdgeType.REAL: ("real_out", "real_in"),
            EdgeType.STRONG: ("strong_out", "strong_in"),
            EdgeType.WEAK: ("weak_out", "weak_in"),
        }[edge_type]
        allocated = [
            (node, name)
            for node in (node_ab, node_ac)
            for name in EDGE_NAMES
            if getattr(node, name) is not NO_EDGES
        ]
        assert allocated == [(node_ab, names[0]), (node_ac, names[1])]
        # Both ends hold the other node's own key tuple, not a copy.
        assert next(iter(getattr(node_ab, names[0]))) is node_ac.key
        assert next(iter(getattr(node_ac, names[1]))) is node_ab.key
        assert not NO_EDGES

    def test_rekey_updates_stored_key(self):
        graph = DependencyGraph()
        node = graph.add_pair_node("Person", "b", "c")
        merge(graph, UnionFind(), "a", "b")
        assert node.key == (node.left, node.right) == ("a", "c")
        assert graph.get("a", "c") is node


class TestFusion:
    def test_lone_node_rekeyed(self):
        graph = DependencyGraph()
        node = graph.add_pair_node("Person", "b", "c")
        uf = UnionFind()
        uf.union("a", "b")
        report = graph.merge_elements("a", "b", same_cluster=uf.connected)
        assert report.removed == 0
        assert [n for n in report.reactivate] == [node]
        assert node.key == pair_key("a", "c")
        # The old key resolves to the new one.
        assert graph.get("b", "c") is node
        assert graph.get("a", "c") is node

    def test_duplicate_nodes_fused(self):
        graph, node_ab, node_ac, node_bc = make_graph()
        other = graph.add_pair_node("Person", "d", "e")
        graph.add_edge(other, node_bc, EdgeType.WEAK)
        node_ac.score = 0.4
        node_bc.score = 0.6
        uf = UnionFind()
        uf.union("a", "b")
        report = graph.merge_elements(uf.find("a"), "b" if uf.find("a") == "a" else "a",
                                      same_cluster=uf.connected)
        # (a,c) and (b,c) collapse into one node carrying max score and
        # the union of neighbours.
        survivor = graph.get("a", "c")
        assert survivor is graph.get("b", "c")
        assert survivor.score == 0.6
        assert report.removed == 1
        assert other.key in survivor.weak_in

    def test_intra_cluster_node_marked_merged(self):
        graph, node_ab, _, _ = make_graph()
        uf = UnionFind()
        uf.union("a", "b")
        report = graph.merge_elements("a", "b", same_cluster=uf.connected)
        assert node_ab in report.intra
        assert node_ab.status is NodeStatus.MERGED
        assert node_ab.score == 1.0

    def test_non_merge_status_sticks_through_fusion(self):
        graph, _, node_ac, node_bc = make_graph()
        node_bc.status = NodeStatus.NON_MERGE
        uf = UnionFind()
        uf.union("a", "b")
        graph.merge_elements("a", "b", same_cluster=uf.connected)
        assert graph.get("a", "c").status is NodeStatus.NON_MERGE

    def test_value_evidence_pooled(self):
        graph = DependencyGraph()
        node_ac = graph.add_pair_node("Person", "a", "c")
        node_bc = graph.add_pair_node("Person", "b", "c")
        node_ac.add_value_evidence(graph.value_node("name", "x", "y", 0.7))
        node_bc.add_value_evidence(graph.value_node("name", "x", "z", 0.9))
        uf = UnionFind()
        uf.union("a", "b")
        graph.merge_elements("a", "b", same_cluster=uf.connected)
        survivor = graph.get("a", "c")
        # MAX over the pooled value nodes — the enrichment semantics.
        assert survivor.channel_score("name") == 0.9

    def test_resolution_chain_compresses(self):
        graph = DependencyGraph()
        graph.add_pair_node("Person", "a", "z")
        graph.add_pair_node("Person", "b", "z")
        graph.add_pair_node("Person", "c", "z")
        uf = UnionFind()
        uf.union("a", "b")
        graph.merge_elements("a", "b", same_cluster=uf.connected)
        uf.union("a", "c")
        graph.merge_elements(uf.find("a"), "c", same_cluster=uf.connected)
        # All historical keys resolve to the single surviving node.
        survivor = graph.get("a", "z")
        assert graph.get("b", "z") is survivor
        assert graph.get("c", "z") is survivor
        assert graph.fusions == 2


EDGE_NAMES = ("real_in", "strong_in", "weak_in", "real_out", "strong_out", "weak_out")


def edge_sets(node):
    return tuple(getattr(node, name) for name in EDGE_NAMES)


def assert_edge_sets_unshared(nodes):
    """No two of *nodes* (nor two edge kinds of one node) hold the same
    mutable edge set, and the shared placeholder is still empty."""
    distinct = {id(node): node for node in nodes}.values()
    owned = [
        id(edges)
        for node in distinct
        for edges in edge_sets(node)
        if edges is not NO_EDGES
    ]
    assert len(owned) == len(set(owned))
    assert not NO_EDGES


def merge(graph, uf, left, right):
    """Union two clusters the way the engine does and fuse the graph."""
    left_root, right_root = uf.find(left), uf.find(right)
    survivor = uf.union(left_root, right_root)
    absorbed = right_root if survivor == left_root else left_root
    return graph.merge_elements(survivor, absorbed, same_cluster=uf.connected)


class TestSelfReferences:
    def mutually_dependent(self):
        graph = DependencyGraph()
        node_ac = graph.add_pair_node("Person", "a", "c")
        node_bc = graph.add_pair_node("Person", "b", "c")
        for edge_type in EdgeType:
            graph.add_edge(node_ac, node_bc, edge_type)
            graph.add_edge(node_bc, node_ac, edge_type)
        return graph, node_ac, node_bc

    def test_fusing_mutually_dependent_nodes_drops_self_edges(self):
        graph, node_ac, node_bc = self.mutually_dependent()
        report = merge(graph, UnionFind(), "a", "b")
        assert report.reactivate == [node_ac]
        survivor = report.reactivate[0]
        key = survivor.key

        def self_edges():
            return [k for s in edge_sets(survivor) for k in s if graph.resolve(k) == key]

        # Fusion unioned both nodes' edges, so each set now points home.
        assert len(self_edges()) == 12
        graph.drop_self_references(survivor)
        assert self_edges() == []
        assert survivor not in list(graph.real_out_nodes(survivor))

    def test_dead_key_is_a_no_op(self):
        graph, _, node_bc = self.mutually_dependent()
        merge(graph, UnionFind(), "a", "b")
        assert graph.get_key(node_bc.key) is not node_bc
        before = copy.deepcopy(edge_sets(node_bc))
        graph.drop_self_references(node_bc)
        assert edge_sets(node_bc) == before
        assert all(before)


class TestCanonicalKeys:
    def test_left_le_right_after_rekey_fusion_and_restore(self):
        graph = DependencyGraph()
        lone = graph.add_pair_node("Person", "a", "c")
        graph.add_pair_node("Person", "b", "e")
        fused_into = graph.add_pair_node("Person", "d", "e")
        uf = UnionFind()
        # Survivor "d" sorts after "c": the re-keyed node must flip sides.
        merge(graph, uf, "d", "a")
        assert lone.key == ("c", "d") == (lone.left, lone.right)
        report = merge(graph, uf, "d", "b")
        assert report.removed == 1 and report.reactivate == [fused_into]
        assert fused_into.key == ("d", "e")
        restored = DependencyGraph.from_snapshot(graph.snapshot())
        for current in (graph, restored):
            keys = sorted(node.key for node in current.nodes())
            assert keys == [("c", "d"), ("d", "e")]
            assert all(node.left <= node.right for node in current.nodes())


def old_drop_self_references(graph, node):
    """The pre-index scan: resolve every key of every edge set."""
    key = node.key
    for edge_set in edge_sets(node):
        edge_set -= {k for k in edge_set if graph.resolve(k) == key}


ELEMENTS = "abcdef"


@st.composite
def fusion_scripts(draw):
    elements = ELEMENTS[: draw(st.integers(2, len(ELEMENTS)))]
    pairs = list(itertools.combinations(elements, 2))
    node_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    index = st.integers(0, 20)
    edge = st.tuples(st.just("edge"), index, index, st.sampled_from(list(EdgeType)))
    union = st.tuples(st.just("union"), st.sampled_from(pairs))
    # Edges twice as often as unions, so fused nodes carry edges to fold.
    ops = draw(st.lists(st.one_of(edge, edge, union), max_size=30))
    restore_at = draw(st.integers(0, len(ops)))
    return node_pairs, ops, restore_at


class TestDropSelfReferencesMatchesScan:
    @given(fusion_scripts())
    @settings(max_examples=150, deadline=None)
    def test_index_matches_old_scan(self, script):
        node_pairs, ops, restore_at = script
        graph = DependencyGraph()
        for left, right in node_pairs:
            graph.add_pair_node("Person", left, right)
        uf = UnionFind()
        tracked = list(graph.nodes())
        for step, op in enumerate(ops):
            if step == restore_at:
                graph = DependencyGraph.from_snapshot(graph.snapshot())
                tracked = list(graph.nodes())
            if op[0] == "edge":
                live = sorted(graph.nodes(), key=lambda node: node.key)
                graph.add_edge(live[op[1] % len(live)], live[op[2] % len(live)], op[3])
                continue
            left, right = op[1]
            if uf.connected(left, right):
                continue
            report = merge(graph, uf, left, right)
            # Fused-away nodes included: fusion copies, never hands on.
            assert_edge_sets_unshared([*tracked, *graph.nodes()])
            for node in report.reactivate:
                old_graph, old_node = copy.deepcopy((graph, node))
                old_drop_self_references(old_graph, old_node)
                graph.drop_self_references(node)
                assert edge_sets(node) == edge_sets(old_node)
            # Every node ever seen, live or fused away, agrees too.
            new_graph, new_nodes = copy.deepcopy((graph, tracked))
            old_graph, old_nodes = copy.deepcopy((graph, tracked))
            for new_node, old_node in zip(new_nodes, old_nodes):
                new_graph.drop_self_references(new_node)
                old_drop_self_references(old_graph, old_node)
                assert edge_sets(new_node) == edge_sets(old_node)
            assert all(node.left <= node.right for node in graph.nodes())
