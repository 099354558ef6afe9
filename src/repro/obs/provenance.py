"""Merge-provenance audit log: every decision, with its evidence.

The engine's behaviour is defined by *decisions* — merge, non-merge,
or defer (stay below threshold) — each taken from a concrete bundle of
evidence: per-channel scores, the S_rv combination, strong/weak
boolean support, and the dependency-graph propagation that triggered
the recomputation in the first place. A :class:`ProvenanceLog`
records one :class:`DecisionRecord` per decision, in decision order,
so the run can be *replayed* rather than re-derived:

* ``repro explain`` answers from the actual records (what the engine
  saw at decision time) instead of recomputing similarities against
  post-hoc cluster state;
* audits can ask "which channel carried this merge" or "what
  propagation chain led here" for any pair, merged or not.

Records are append-only and exportable as JSONL. Sequence numbers are
local to the log; they are never serialised into checkpoints, so
provenance cannot perturb resume determinism.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..core.nodes import PairKey, pair_key

__all__ = ["DecisionRecord", "ProvenanceLog"]

#: decision tags, stable and machine-readable.
MERGE = "merge"
NON_MERGE_CONFLICT = "non_merge_conflict"
NON_MERGE_ENEMY = "non_merge_enemy"
DEFER = "defer"
TRANSITIVE = "transitive_merge"

DECISIONS = (
    MERGE,
    NON_MERGE_CONFLICT,
    NON_MERGE_ENEMY,
    DEFER,
    TRANSITIVE,
)

#: activation causes (what put the node on the queue).
TRIGGERS = ("seed", "real", "strong", "weak", "fusion", "incremental")


@dataclass(frozen=True)
class DecisionRecord:
    """One engine decision about one element pair.

    ``channels`` holds the per-channel evidence scores that fed S_rv
    at decision time; ``s_rv`` the combined real-valued score,
    ``strong_support`` / ``weak_support`` the boolean counts *used*
    (zero when S_rv stayed below ``t_rv``). ``trigger`` says why the
    node was recomputed (``seed`` = initial queue seeding, ``strong``
    / ``weak`` / ``real`` = propagation along that edge type from
    ``trigger_pair``, ``fusion`` = reactivation after an enrichment
    fusion). ``score`` is the node's (monotone) score after the
    decision and ``threshold`` the merge bar it was compared against.
    """

    seq: int
    pair: PairKey
    class_name: str
    decision: str
    score: float
    threshold: float
    s_rv: float
    t_rv: float
    strong_support: int
    weak_support: int
    channels: dict[str, float] = field(default_factory=dict)
    trigger: str = "seed"
    trigger_pair: PairKey | None = None
    recompute_index: int = 0

    def to_dict(self) -> dict:
        data = asdict(self)
        data["pair"] = list(self.pair)
        if self.trigger_pair is not None:
            data["trigger_pair"] = list(self.trigger_pair)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionRecord":
        # Tolerate extra keys: logs written by other versions of the
        # engine may carry fields this record does not know.
        known = {f.name for f in fields(cls)}
        data = {key: value for key, value in data.items() if key in known}
        data["pair"] = tuple(data["pair"])
        if data.get("trigger_pair") is not None:
            data["trigger_pair"] = tuple(data["trigger_pair"])
        return cls(**data)


class ProvenanceLog:
    """Append-only decision log with per-pair lookup.

    The engine notes the *cause* of each queue activation
    (:meth:`note_activation`); when the node is eventually popped and
    recomputed, the pending cause is consumed into the decision record
    (:meth:`take_activation`). ``jsonl_path`` additionally streams
    every record to a JSONL file as it is recorded (append mode, so a
    resumed run continues the same audit trail).
    """

    def __init__(self, jsonl_path: str | Path | None = None) -> None:
        self.records: list[DecisionRecord] = []
        self._by_pair: dict[PairKey, list[int]] = {}
        self._pending: dict[PairKey, tuple[str, PairKey | None]] = {}
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._handle = None

    def __len__(self) -> int:
        return len(self.records)

    # -- activation causes ---------------------------------------------
    def note_activation(
        self, key: PairKey, trigger: str, source: PairKey | None = None
    ) -> None:
        """Remember why *key* was (re)queued; the latest cause wins."""
        self._pending[key] = (trigger, source)

    def take_activation(self, key: PairKey) -> tuple[str, PairKey | None]:
        """Consume the pending cause for *key* (default: seed)."""
        return self._pending.pop(key, ("seed", None))

    # -- recording ------------------------------------------------------
    def record(
        self,
        *,
        pair: PairKey,
        class_name: str,
        decision: str,
        score: float,
        threshold: float,
        s_rv: float = 0.0,
        t_rv: float = 0.0,
        strong_support: int = 0,
        weak_support: int = 0,
        channels: dict[str, float] | None = None,
        trigger: str = "seed",
        trigger_pair: PairKey | None = None,
        recompute_index: int = 0,
    ) -> DecisionRecord:
        record = DecisionRecord(
            seq=len(self.records),
            pair=pair,
            class_name=class_name,
            decision=decision,
            score=round(score, 6),
            threshold=threshold,
            s_rv=round(s_rv, 6),
            t_rv=t_rv,
            strong_support=strong_support,
            weak_support=weak_support,
            channels={name: round(value, 6) for name, value in (channels or {}).items()},
            trigger=trigger,
            trigger_pair=trigger_pair,
            recompute_index=recompute_index,
        )
        self.records.append(record)
        self._by_pair.setdefault(record.pair, []).append(record.seq)
        if self.jsonl_path is not None:
            if self._handle is None:
                self.jsonl_path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.jsonl_path.open("a")
            self._handle.write(json.dumps(record.to_dict()) + "\n")
            # Flushed per record: a crashed run's trail must be on disk
            # at least up to its last checkpoint, or the resumed run's
            # audit log would silently miss decisions the restored
            # engine state already contains.
            self._handle.flush()
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- queries --------------------------------------------------------
    def decisions_for(self, left: str, right: str) -> list[DecisionRecord]:
        """All decisions about the (unordered) pair, in decision order."""
        return [self.records[i] for i in self._by_pair.get(pair_key(left, right), ())]

    def last_decision(self, left: str, right: str) -> DecisionRecord | None:
        decisions = self.decisions_for(left, right)
        return decisions[-1] if decisions else None

    def merge_record(self, left: str, right: str) -> DecisionRecord | None:
        """The decision that merged the pair, if one did."""
        for record in self.decisions_for(left, right):
            if record.decision in (MERGE, TRANSITIVE):
                return record
        return None

    def merged_pairs(self) -> list[PairKey]:
        return [r.pair for r in self.records if r.decision == MERGE]

    def non_merged_pairs(self) -> list[PairKey]:
        return [
            r.pair
            for r in self.records
            if r.decision in (DEFER, NON_MERGE_CONFLICT, NON_MERGE_ENEMY)
        ]

    # -- round-trip -----------------------------------------------------
    def to_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict()) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ProvenanceLog":
        log = cls()
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = DecisionRecord.from_dict(json.loads(line))
                log.records.append(record)
                # Index by position, not stored seq: an append-continued
                # file (resume) restarts seq numbering mid-file.
                log._by_pair.setdefault(record.pair, []).append(len(log.records) - 1)
        return log
