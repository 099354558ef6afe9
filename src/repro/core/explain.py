"""Explanations: *why* did the engine reconcile two references?

Trust in an entity-resolution system comes from inspectable decisions.
:func:`explain_merge` reconstructs, from a finished
:class:`~repro.core.engine.Reconciler`, the chain of merge decisions
connecting two references and the evidence each decision rested on —
the attribute values that matched, the strong-boolean implications
(shared articles) and the weak-boolean support (common contacts).

When the engine ran with a merge-provenance audit log
(:class:`~repro.obs.provenance.ProvenanceLog`, recorded by a subscribed
:class:`~repro.obs.telemetry.Telemetry`), each step *replays the
actual decision record* — the channel scores, threshold, boolean
supports and triggering propagation the engine saw at decision time —
instead of recomputing similarities against post-hoc cluster state.
Non-merged pairs get their last decision record too: what the score
was, how far below the threshold it stayed, and what evidence existed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..obs.telemetry import Telemetry
from .engine import Reconciler
from .nodes import NodeStatus

__all__ = ["MergeStep", "MergeExplanation", "explain_merge"]


@dataclass(frozen=True)
class MergeStep:
    """One merge decision along the chain."""

    left: str
    right: str
    class_name: str
    score: float
    #: channel -> (left value, right value, score) of the best evidence.
    evidence: dict[str, tuple[str, str, float]] = field(default_factory=dict)
    strong_support: int = 0
    weak_support: int = 0
    #: provenance replay fields (``None`` when no audit log was kept):
    #: the propagation that triggered the deciding recomputation and
    #: the pair whose merge propagated it.
    trigger: str | None = None
    trigger_pair: tuple[str, str] | None = None
    #: True when the step replays a recorded decision rather than
    #: recomputing against the finished engine.
    from_record: bool = False

    def describe(self) -> str:
        parts = [
            f"{self.left} == {self.right} (score {self.score:.2f})",
        ]
        for channel, (value_l, value_r, score) in sorted(self.evidence.items()):
            parts.append(f"    {channel}: {value_l!r} ~ {value_r!r} ({score:.2f})")
        if self.strong_support:
            parts.append(f"    + {self.strong_support} reconciled association(s)")
        if self.weak_support:
            parts.append(f"    + {self.weak_support} common contact(s)")
        if self.trigger is not None and self.trigger != "seed":
            via = (
                f" of {self.trigger_pair[0]} == {self.trigger_pair[1]}"
                if self.trigger_pair
                else ""
            )
            parts.append(f"    triggered by {self.trigger} propagation{via}")
        if self.from_record:
            parts.append("    [replayed from decision record]")
        return "\n".join(parts)


@dataclass(frozen=True)
class MergeExplanation:
    """The full chain from one reference to another."""

    source: str
    target: str
    connected: bool
    steps: tuple[MergeStep, ...] = ()
    #: for non-reconciled pairs with an audit log: the last recorded
    #: decision about the pair (why it stayed apart), as a dict.
    last_decision: dict | None = None

    def describe(self) -> str:
        if not self.connected:
            lines = [f"{self.source} and {self.target} were NOT reconciled"]
            if self.last_decision is not None:
                record = self.last_decision
                lines.append(
                    f"  last decision: {record['decision']} at score "
                    f"{record['score']:.2f} (threshold {record['threshold']:.2f})"
                )
                for channel, score in sorted(record.get("channels", {}).items()):
                    lines.append(f"    {channel}: {score:.2f}")
                if record.get("strong_support"):
                    lines.append(
                        f"    + {record['strong_support']} reconciled association(s)"
                    )
                if record.get("weak_support"):
                    lines.append(f"    + {record['weak_support']} common contact(s)")
                lines.append("  [replayed from decision record]")
            return "\n".join(lines)
        lines = [f"{self.source} == {self.target} via {len(self.steps)} decision(s):"]
        lines.extend(step.describe() for step in self.steps)
        return "\n".join(lines)


def _step_from_node(reconciler: Reconciler, node, prov) -> MergeStep:
    evidence: dict[str, tuple[str, str, float]] = {}
    for channel, value_nodes in node.value_evidence.items():
        best = max(value_nodes, key=lambda vn: vn.score, default=None)
        if best is not None:
            evidence[channel] = (best.left_value, best.right_value, best.score)
    record = prov.merge_record(node.left, node.right) if prov is not None else None
    if record is not None:
        # Replay the audited decision: supports, score and trigger as
        # the engine saw them when it merged — not post-hoc state.
        return MergeStep(
            left=node.left,
            right=node.right,
            class_name=node.class_name,
            score=record.score,
            evidence=evidence,
            strong_support=record.strong_support,
            weak_support=record.weak_support,
            trigger=record.trigger,
            trigger_pair=record.trigger_pair,
            from_record=True,
        )
    return MergeStep(
        left=node.left,
        right=node.right,
        class_name=node.class_name,
        score=node.score,
        evidence=evidence,
        strong_support=reconciler._strong_count(node),
        weak_support=reconciler._weak_count(node),
    )


def explain_merge(
    reconciler: Reconciler, source: str, target: str, *, provenance=None
) -> MergeExplanation:
    """Explain how *source* and *target* ended up in one cluster.

    Performs a breadth-first search over the merged pair nodes of the
    dependency graph restricted to the pair's cluster, so the returned
    steps form a shortest chain of actual merge decisions. Pre-merged
    references (key agreement before graph construction) contribute a
    synthetic "key" step. With a provenance log — *provenance*, or by
    default the one recorded by the engine's telemetry subscriber —
    every step replays its recorded decision, and a non-reconciled pair
    reports its last recorded decision.
    """
    prov = provenance
    if prov is None:
        prov = getattr(reconciler.observers.find(Telemetry), "provenance", None)
    uf = reconciler.uf
    if not uf.connected(source, target):
        last = None
        if prov is not None:
            record = prov.last_decision(source, target)
            if record is None:
                # The raw pair may never have formed a node (enrich
                # mode keys nodes by cluster roots): try the roots.
                record = prov.last_decision(uf.find(source), uf.find(target))
            if record is not None:
                last = record.to_dict()
        return MergeExplanation(
            source=source, target=target, connected=False, last_decision=last
        )
    if source == target:
        return MergeExplanation(source=source, target=target, connected=True)

    # Collect merged nodes inside this cluster, as edges over elements.
    root = uf.find(source)
    adjacency: dict[str, list[tuple[str, object]]] = {}
    for node in reconciler.graph.nodes():
        if node.status is not NodeStatus.MERGED:
            continue
        if uf.find(node.left) != root:
            continue
        adjacency.setdefault(node.left, []).append((node.right, node))
        adjacency.setdefault(node.right, []).append((node.left, node))

    # Elements may be cluster roots (enrich mode): map each member
    # reference onto the element(s) representing it in the graph.
    def elements_for(ref_id: str) -> list[str]:
        candidates = {ref_id}
        # Any element whose key appears in the graph and whose cluster
        # contains ref_id works as a proxy.
        for element in adjacency:
            if element == ref_id:
                return [ref_id]
        for element in adjacency:
            members = reconciler._members.get(element, [element])
            if ref_id in members:
                candidates.add(element)
        return sorted(candidates)

    sources = elements_for(source)
    targets = set(elements_for(target))

    key_step = MergeStep(
        left=source,
        right=target,
        class_name=reconciler.store.get(source).class_name,
        score=1.0,
        evidence={"key": ("<shared key value>", "<shared key value>", 1.0)},
    )

    queue = deque((element, ()) for element in sources)
    seen: set[str] = set(sources)
    while queue:
        element, path = queue.popleft()
        if element in targets:
            steps = tuple(_step_from_node(reconciler, node, prov) for node in path)
            if not steps:
                # Same element on both sides: the pair was unified by
                # the key pre-merge (e.g. an identical email address).
                steps = (key_step,)
            return MergeExplanation(
                source=source, target=target, connected=True, steps=steps
            )
        for neighbour, node in adjacency.get(element, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append((neighbour, path + (node,)))

    # Connected but no merged-node path: the pair was unified by the
    # key pre-merge (or by enrichment-internal bookkeeping).
    return MergeExplanation(
        source=source, target=target, connected=True, steps=(key_step,)
    )
