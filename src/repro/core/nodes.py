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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["NodeStatus", "EdgeType", "PairKey", "pair_key", "ValueNode", "PairNode"]


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


def pair_key(left: str, right: str) -> PairKey:
    """Canonical unordered key for an element pair."""
    return (left, right) if left <= right else (right, left)


@dataclass
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


@dataclass
class PairNode:
    """Similarity of a pair of references of one class.

    The node is keyed by the pair of *cluster roots*, so enrichment
    (§3.3) can re-key and fuse nodes as clusters grow. ``left`` and
    ``right`` always hold the current roots in canonical order
    (``left <= right``, as :func:`pair_key` gives them), so ``key`` is
    simply the tuple of the two.
    """

    class_name: str
    left: str
    right: str
    score: float = 0.0
    status: NodeStatus = NodeStatus.ACTIVE
    # Incoming dependencies by type. Value-node evidence is grouped per
    # channel; reference-pair dependencies reference PairKeys resolved
    # through the graph registry (so fusion updates them in one place).
    value_evidence: dict[str, list[ValueNode]] = field(default_factory=dict)
    real_in: set[PairKey] = field(default_factory=set)
    strong_in: set[PairKey] = field(default_factory=set)
    weak_in: set[PairKey] = field(default_factory=set)
    real_out: set[PairKey] = field(default_factory=set)
    strong_out: set[PairKey] = field(default_factory=set)
    weak_out: set[PairKey] = field(default_factory=set)
    recompute_count: int = 0

    @property
    def key(self) -> PairKey:
        return (self.left, self.right)

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
