"""Dependency-graph nodes and edge types.

A node represents the similarity of a pair of *elements* (Definition
3.1). Two node flavours exist:

* **value nodes** — a pair of atomic attribute values (possibly of
  different attributes, e.g. a name against an email account). Their
  similarity is computed once by the attribute comparator and never
  changes.
* **pair nodes** — a pair of references of one class. Their similarity
  is recomputed as evidence accumulates; they carry the
  active/inactive/merged/non-merge status of §3.2 and §3.4.

Edges are directed and typed (§3.1's refinement): REAL (the target's
score depends on the source's *value*), STRONG (reconciling the source
implies reconciling the target), WEAK (reconciling the source merely
boosts the target).

Most pair nodes are fused away by enrichment and most edge kinds of a
node stay empty, so both node classes are slotted, and a pair node's
six edge attributes all start as the one shared immutable
:data:`NO_EDGES`. :meth:`~repro.core.graph.DependencyGraph.add_edge`
gives a node its own set with the first edge of a kind; code that adds
edges goes through the graph, never through the placeholder. ``key`` is
stored, so every edge to a node shares the node's one key tuple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "NodeStatus",
    "EdgeType",
    "PairKey",
    "EdgeSet",
    "pair_key",
    "NO_EDGES",
    "ValueNode",
    "PairNode",
]


class NodeStatus(enum.Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    MERGED = "merged"
    NON_MERGE = "non-merge"


class EdgeType(enum.Enum):
    REAL = "real"
    STRONG = "strong-boolean"
    WEAK = "weak-boolean"


PairKey = tuple[str, str]
#: A node's keys of one edge kind: its own set, or the shared NO_EDGES.
EdgeSet = set[PairKey] | frozenset[PairKey]


def pair_key(left: str, right: str) -> PairKey:
    """Canonical unordered key for an element pair."""
    return (left, right) if left <= right else (right, left)


#: The edge set of every kind a node has no edge of yet. Immutable, so
#: a write that bypasses the graph fails instead of growing every node.
NO_EDGES: frozenset[PairKey] = frozenset()


@dataclass(slots=True)
class ValueNode:
    """Similarity of a pair of atomic attribute values.

    ``channel`` names the evidence channel this comparison feeds (e.g.
    ``"name"``, ``"email"``, ``"name_email"``); the channel determines
    which comparator produced ``score`` and which weight the S_rv
    function applies to it.
    """

    channel: str
    left_value: str
    right_value: str
    score: float

    @property
    def status(self) -> NodeStatus:
        # §3.2/§5.2: value nodes are merged only at exact similarity 1
        # (the paper sets the attribute merge-threshold to 1).
        return NodeStatus.MERGED if self.score >= 1.0 else NodeStatus.INACTIVE


@dataclass(slots=True)
class PairNode:
    """Similarity of a pair of references of one class.

    The node is keyed by the pair of *cluster roots*, so enrichment
    (§3.3) can re-key and fuse nodes as clusters grow. ``left`` and
    ``right`` always hold the current roots in canonical order
    (``left <= right``, as :func:`pair_key` gives them), and ``key``
    is the tuple of the two, set at construction and by every re-key.
    """

    class_name: str
    left: str
    right: str
    score: float = 0.0
    status: NodeStatus = NodeStatus.ACTIVE
    # Incoming dependencies by type. Value-node evidence is grouped per
    # channel; reference-pair dependencies reference PairKeys resolved
    # through the graph registry (so fusion updates them in one place).
    # Each edge set is NO_EDGES until the node's first edge of its kind.
    value_evidence: dict[str, list[ValueNode]] = field(default_factory=dict)
    real_in: EdgeSet = NO_EDGES
    strong_in: EdgeSet = NO_EDGES
    weak_in: EdgeSet = NO_EDGES
    real_out: EdgeSet = NO_EDGES
    strong_out: EdgeSet = NO_EDGES
    weak_out: EdgeSet = NO_EDGES
    recompute_count: int = 0
    key: PairKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = (self.left, self.right)

    @property
    def is_merged(self) -> bool:
        return self.status is NodeStatus.MERGED

    @property
    def is_non_merge(self) -> bool:
        return self.status is NodeStatus.NON_MERGE

    def add_value_evidence(self, value_node: ValueNode) -> None:
        self.value_evidence.setdefault(value_node.channel, []).append(value_node)

    def channel_score(self, channel: str) -> float | None:
        """MAX over the channel's value nodes (Equation 1's multi-value
        rule); ``None`` when the channel has no evidence."""
        nodes = self.value_evidence.get(channel)
        if not nodes:
            return None
        return max(node.score for node in nodes)
