"""The dependency graph (Definition 3.1) and its enrichment surgery.

The graph holds one :class:`~repro.core.nodes.PairNode` per pair of
elements (uniqueness is what lets reconciliation decisions influence
each other), plus a registry of :class:`~repro.core.nodes.ValueNode`
objects deduplicated per (channel, value, value) triple.

Enrichment (§3.3) re-keys and fuses pair nodes as clusters grow. Edges
between pair nodes are stored as pair *keys*; rather than rewriting
every neighbour list on fusion, the graph keeps an alias table mapping
dead keys to their successors, and :meth:`resolve` follows it (with
path compression). Neighbour iteration therefore always sees the live,
fused node.

The graph also keeps the reverse of that table: for each live key, the
dead keys whose alias chain ends there. It is written only where an
alias is written (a re-key or a fusion), and when a live key is itself
retired its dead keys move to the successor, smaller set into larger.
:meth:`drop_self_references` uses it to strip the edges a fusion turned
into self-loops without resolving every neighbour key. Checkpoints hold
only the forward table; :meth:`from_snapshot` rebuilds the reverse one.

The graph holds live nodes only: a fused-away node leaves every table
here, and nothing else keeps it. A node's edge sets start as the
shared empty :data:`~repro.core.nodes.NO_EDGES`; :meth:`add_edge` and
fusion give a node its own set the first time an edge kind gains a key,
so no two nodes ever share a mutable edge set.
"""

from __future__ import annotations

from collections.abc import Iterator

from .nodes import (
    NO_EDGES,
    EdgeSet,
    EdgeType,
    NodeStatus,
    PairKey,
    PairNode,
    ValueNode,
    pair_key,
)

__all__ = ["DependencyGraph", "FusionReport"]


class FusionReport:
    """What a cluster merge did to the graph, for the engine to act on.

    ``reactivate`` lists nodes that gained evidence (new incoming
    neighbours or a grown cluster behind one of their sides) and should
    re-enter the queue (§3.3 step 3); ``removed`` counts fused-away
    nodes; ``intra`` lists nodes that became internal to one cluster
    and were marked merged.
    """

    def __init__(self) -> None:
        self.reactivate: list[PairNode] = []
        self.removed = 0
        self.intra: list[PairNode] = []


class DependencyGraph:
    """Registry of pair nodes, value nodes, edges and key aliases."""

    def __init__(self) -> None:
        self._nodes: dict[PairKey, PairNode] = {}
        self._alias: dict[PairKey, PairKey] = {}
        # Reverse of _alias: live key -> dead keys whose chain ends there.
        self._aliases_of: dict[PairKey, set[PairKey]] = {}
        self._by_element: dict[str, set[PairKey]] = {}
        self._value_nodes: dict[tuple[str, str, str], ValueNode] = {}
        self.value_nodes_created = 0
        self.pair_nodes_created = 0
        self.fusions = 0

    # -- basic access -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: PairKey) -> bool:
        return self.resolve(key) in self._nodes

    def nodes(self) -> Iterator[PairNode]:
        return iter(self._nodes.values())

    def node_count(self) -> int:
        """Total element-pair nodes ever created (pair + value nodes),
        the graph-size statistic of Table 6."""
        return self.pair_nodes_created + self.value_nodes_created

    def resolve(self, key: PairKey) -> PairKey:
        """Follow the alias chain from *key* to the current key."""
        alias = self._alias
        if key not in alias:
            return key
        root = key
        while root in alias:
            root = alias[root]
        while alias.get(key, root) != root:
            alias[key], key = root, alias[key]
        return root

    def get(self, left: str, right: str) -> PairNode | None:
        return self._nodes.get(self.resolve(pair_key(left, right)))

    def get_key(self, key: PairKey) -> PairNode | None:
        return self._nodes.get(self.resolve(key))

    # -- construction -----------------------------------------------------
    def add_pair_node(self, class_name: str, left: str, right: str) -> PairNode:
        """Create (or return) the unique node for this element pair."""
        key = pair_key(left, right)
        existing = self._nodes.get(key)
        if existing is not None:
            return existing
        node = PairNode(class_name=class_name, left=key[0], right=key[1])
        key = node.key
        self._nodes[key] = node
        self._by_element.setdefault(key[0], set()).add(key)
        self._by_element.setdefault(key[1], set()).add(key)
        self.pair_nodes_created += 1
        return node

    def value_node(
        self, channel: str, left_value: str, right_value: str, score: float
    ) -> ValueNode:
        """Create (or return) the unique value node for this value pair."""
        ordered = (
            (left_value, right_value)
            if left_value <= right_value
            else (right_value, left_value)
        )
        registry_key = (channel, ordered[0], ordered[1])
        existing = self._value_nodes.get(registry_key)
        if existing is not None:
            return existing
        node = ValueNode(
            channel=channel, left_value=ordered[0], right_value=ordered[1], score=score
        )
        self._value_nodes[registry_key] = node
        self.value_nodes_created += 1
        return node

    def add_edge(self, source: PairNode, target: PairNode, edge_type: EdgeType) -> None:
        """Directed dependency: *target*'s score depends on *source*.

        A node's first edge of a kind gives it its own set in place of
        the empty shared :data:`~repro.core.nodes.NO_EDGES`."""
        source_key = source.key
        target_key = target.key
        if edge_type is EdgeType.REAL:
            if source.real_out:
                source.real_out.add(target_key)
            else:
                source.real_out = {target_key}
            if target.real_in:
                target.real_in.add(source_key)
            else:
                target.real_in = {source_key}
        elif edge_type is EdgeType.STRONG:
            if source.strong_out:
                source.strong_out.add(target_key)
            else:
                source.strong_out = {target_key}
            if target.strong_in:
                target.strong_in.add(source_key)
            else:
                target.strong_in = {source_key}
        else:
            if source.weak_out:
                source.weak_out.add(target_key)
            else:
                source.weak_out = {target_key}
            if target.weak_in:
                target.weak_in.add(source_key)
            else:
                target.weak_in = {source_key}

    # -- neighbour iteration ------------------------------------------------
    def _resolve_neighbours(self, keys: set[PairKey]) -> Iterator[PairNode]:
        # Sorted so activation order — and with it the queue contents —
        # is identical between a fresh run and one resumed from a
        # checkpoint (sets rebuilt from a snapshot need not iterate in
        # their original insertion order).
        seen: set[PairKey] = set()
        for key in sorted(keys):
            resolved = self.resolve(key)
            if resolved in seen:
                continue
            seen.add(resolved)
            node = self._nodes.get(resolved)
            if node is not None:
                yield node

    def real_out_nodes(self, node: PairNode) -> Iterator[PairNode]:
        return self._resolve_neighbours(node.real_out)

    def strong_out_nodes(self, node: PairNode) -> Iterator[PairNode]:
        return self._resolve_neighbours(node.strong_out)

    def weak_out_nodes(self, node: PairNode) -> Iterator[PairNode]:
        return self._resolve_neighbours(node.weak_out)

    def strong_in_nodes(self, node: PairNode) -> Iterator[PairNode]:
        return self._resolve_neighbours(node.strong_in)

    # -- enrichment (§3.3) ---------------------------------------------------
    def merge_elements(
        self, survivor: str, absorbed: str, *, same_cluster
    ) -> FusionReport:
        """Fold every node mentioning *absorbed* onto *survivor*.

        ``same_cluster(a, b)`` tells whether two elements now belong to
        one cluster (the engine passes a union-find ``connected``).
        Implements §3.3's local surgery: for each third element r3 with
        nodes m=(survivor, r3) and n=(absorbed, r3), connect n's
        neighbours to m, remove n; lone nodes are re-keyed. Nodes whose
        two sides fall into one cluster are marked merged.
        """
        report = FusionReport()
        absorbed_keys = self._by_element.pop(absorbed, set())
        survivor_index = self._by_element.setdefault(survivor, set())
        for old_key in sorted(absorbed_keys):
            node = self._nodes.get(old_key)
            if node is None or self.resolve(old_key) != old_key:
                continue
            other = node.left if node.right == absorbed else node.right
            if other == survivor or same_cluster(other, survivor):
                # The pair became internal to one cluster: it is merged
                # by definition. Keep the node (under its old key) so
                # neighbour counts still see a merged neighbour.
                if node.status is not NodeStatus.MERGED:
                    node.status = NodeStatus.MERGED
                    node.score = 1.0
                    report.intra.append(node)
                continue
            new_key = pair_key(survivor, other)
            target = self._nodes.get(self.resolve(new_key))
            if target is not None and target is not node:
                self._fuse(source=node, target=target, old_key=old_key, other=other)
                report.removed += 1
                report.reactivate.append(target)
            else:
                # Lone node: re-key in place.
                del self._nodes[old_key]
                node.left, node.right = new_key
                node.key = new_key
                self._nodes[new_key] = node
                self._retire(old_key, new_key)
                self._by_element.setdefault(other, set()).discard(old_key)
                self._by_element.setdefault(other, set()).add(new_key)
                survivor_index.add(new_key)
                report.reactivate.append(node)
        self.fusions += 1
        return report

    def _fuse(
        self, *, source: PairNode, target: PairNode, old_key: PairKey, other: str
    ) -> None:
        """Merge *source*'s evidence and edges into *target* and retire
        *source* behind an alias."""
        for channel, value_nodes in source.value_evidence.items():
            existing = target.value_evidence.setdefault(channel, [])
            known = {id(vn) for vn in existing}
            for value_node in value_nodes:
                if id(value_node) not in known:
                    existing.append(value_node)
        target.real_in = _union(target.real_in, source.real_in)
        target.strong_in = _union(target.strong_in, source.strong_in)
        target.weak_in = _union(target.weak_in, source.weak_in)
        target.real_out = _union(target.real_out, source.real_out)
        target.strong_out = _union(target.strong_out, source.strong_out)
        target.weak_out = _union(target.weak_out, source.weak_out)
        target.recompute_count += source.recompute_count
        target.score = max(target.score, source.score)
        # Negative evidence sticks: if either side was non-merge, the
        # fused node is non-merge.
        if source.status is NodeStatus.NON_MERGE:
            target.status = NodeStatus.NON_MERGE
        del self._nodes[old_key]
        self._retire(old_key, target.key)
        self._by_element.setdefault(other, set()).discard(old_key)

    def _retire(self, old_key: PairKey, new_key: PairKey) -> None:
        """Alias live *old_key* to live *new_key*; the dead keys that
        ended at *old_key* now end at *new_key* (smaller set into
        larger)."""
        self._alias[old_key] = new_key
        moved = self._aliases_of.pop(old_key, None)
        if moved is None:
            moved = {old_key}
        else:
            moved.add(old_key)
        kept = self._aliases_of.get(new_key)
        if kept is None:
            self._aliases_of[new_key] = moved
        elif len(kept) >= len(moved):
            kept |= moved
        else:
            moved |= kept
            self._aliases_of[new_key] = moved

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready structural snapshot of the whole graph.

        Value nodes are serialised once (they are deduplicated by
        registry key) and referenced from pair nodes by index; edge
        sets become sorted key lists so the snapshot is byte-stable for
        identical graphs.
        """
        value_keys = sorted(self._value_nodes)
        value_index = {key: position for position, key in enumerate(value_keys)}
        nodes = []
        for key in sorted(self._nodes):
            node = self._nodes[key]
            nodes.append(
                {
                    "class": node.class_name,
                    "left": node.left,
                    "right": node.right,
                    "score": node.score,
                    "status": node.status.value,
                    "recompute_count": node.recompute_count,
                    "evidence": {
                        channel: [
                            value_index[
                                (vnode.channel, vnode.left_value, vnode.right_value)
                            ]
                            for vnode in vnodes
                        ]
                        for channel, vnodes in sorted(node.value_evidence.items())
                        if vnodes
                    },
                    "real_in": sorted(node.real_in),
                    "strong_in": sorted(node.strong_in),
                    "weak_in": sorted(node.weak_in),
                    "real_out": sorted(node.real_out),
                    "strong_out": sorted(node.strong_out),
                    "weak_out": sorted(node.weak_out),
                }
            )
        return {
            "value_nodes": [
                [key[0], key[1], key[2], self._value_nodes[key].score]
                for key in value_keys
            ],
            "nodes": nodes,
            "alias": sorted(
                [list(old), list(new)] for old, new in self._alias.items()
            ),
            "pair_nodes_created": self.pair_nodes_created,
            "value_nodes_created": self.value_nodes_created,
            "fusions": self.fusions,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "DependencyGraph":
        graph = cls()
        values: list[ValueNode] = []
        for channel, left_value, right_value, score in data["value_nodes"]:
            node = ValueNode(
                channel=channel,
                left_value=left_value,
                right_value=right_value,
                score=score,
            )
            graph._value_nodes[(channel, left_value, right_value)] = node
            values.append(node)
        for entry in data["nodes"]:
            node = PairNode(
                class_name=entry["class"],
                left=entry["left"],
                right=entry["right"],
                score=entry["score"],
                status=NodeStatus(entry["status"]),
                recompute_count=entry["recompute_count"],
            )
            for channel, indices in entry["evidence"].items():
                node.value_evidence[channel] = [values[i] for i in indices]
            node.real_in = _restored(entry["real_in"])
            node.strong_in = _restored(entry["strong_in"])
            node.weak_in = _restored(entry["weak_in"])
            node.real_out = _restored(entry["real_out"])
            node.strong_out = _restored(entry["strong_out"])
            node.weak_out = _restored(entry["weak_out"])
            key = node.key
            graph._nodes[key] = node
            graph._by_element.setdefault(key[0], set()).add(key)
            graph._by_element.setdefault(key[1], set()).add(key)
        alias = graph._alias = {tuple(old): tuple(new) for old, new in data["alias"]}
        aliases_of = graph._aliases_of
        for old in alias:
            # Walk without compressing, so the restored forward table
            # (and any snapshot taken from it) is exactly the saved one.
            root = alias[old]
            while root in alias:
                root = alias[root]
            aliases_of.setdefault(root, set()).add(old)
        graph.pair_nodes_created = data["pair_nodes_created"]
        graph.value_nodes_created = data["value_nodes_created"]
        graph.fusions = data["fusions"]
        return graph

    def drop_self_references(self, node: PairNode) -> None:
        """Remove edges that now point from *node* to itself (possible
        after fusion when two mutually-dependent nodes collapse).

        Those are the edges to the node's own key or to a dead key whose
        alias chain ends there. A node whose key is itself dead has none.
        Empty sets (the shared placeholder among them) are skipped.
        """
        key = node.key
        if key in self._alias:
            return
        dead = self._aliases_of.get(key)
        for edge_set in (
            node.real_in,
            node.strong_in,
            node.weak_in,
            node.real_out,
            node.strong_out,
            node.weak_out,
        ):
            if not edge_set:
                continue
            edge_set.discard(key)
            if dead:
                # The intersection walks whichever set is smaller.
                edge_set -= edge_set & dead


def _union(edges: EdgeSet, extra: EdgeSet) -> EdgeSet:
    """*edges* grown by *extra*: the same set when *edges* holds keys,
    a new one when it is empty (the shared placeholder among them).
    Never *extra* itself, so a fused-away node's set is not handed on."""
    if not extra:
        return edges
    if not edges:
        return set(extra)
    edges |= extra
    return edges


def _restored(keys: list) -> EdgeSet:
    """A snapshot's edge list as a node's edge set, or the placeholder."""
    return {tuple(key) for key in keys} if keys else NO_EDGES
