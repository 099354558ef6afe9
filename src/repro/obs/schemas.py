"""Schemas and validators for every telemetry artifact.

Pure-python structural validation (no external JSON-Schema dependency)
for the machine-readable outputs:

* the JSONL **event log** (``events.jsonl``),
* the **Chrome trace** file (``trace.json``),
* the **provenance** decision records (``provenance.jsonl``),
* the **run manifest** (``run.json``) and the **crash bundle**
  (``crash_bundle.json``).

Each ``validate_*`` raises :class:`SchemaError` naming the offending
field; CI's observability smoke job runs them against real run output
so schema drift fails the build instead of silently breaking
downstream consumers. The ``*_SCHEMA`` dicts, in a small JSON-Schema
subset, both document the shapes and drive the validators of events,
decisions, manifests and crash bundles.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .events import LEVELS
from .provenance import DECISIONS, TRIGGERS

__all__ = [
    "SchemaError",
    "EVENT_SCHEMA",
    "TRACE_EVENT_SCHEMA",
    "DECISION_SCHEMA",
    "MANIFEST_SCHEMA",
    "CRASH_BUNDLE_SCHEMA",
    "validate_crash_bundle",
    "validate_event",
    "validate_event_log",
    "validate_chrome_trace",
    "validate_decision",
    "validate_provenance_jsonl",
    "validate_manifest",
    "trace_process_names",
]


class SchemaError(ValueError):
    """A telemetry artifact does not match its documented schema."""


EVENT_SCHEMA = {
    "type": "object",
    "required": ["ts", "level", "event"],
    "properties": {
        "ts": {"type": "number"},
        "level": {"enum": list(LEVELS)},
        "event": {"type": "string", "minLength": 1},
    },
    "additionalProperties": True,  # event-specific flat fields
}

TRACE_EVENT_SCHEMA = {
    "type": "object",
    "required": ["name", "ph", "pid", "tid"],
    "properties": {
        "name": {"type": "string"},
        "ph": {"enum": ["X", "i", "M"]},
        "ts": {"type": "number", "minimum": 0},
        "dur": {"type": "number", "minimum": 0},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "cat": {"type": "string"},
        "args": {"type": "object"},
    },
}

_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
_SCORES = {
    "type": "object",
    "required": ["precision", "recall", "f1"],
    "properties": {"precision": _UNIT, "recall": _UNIT, "f1": _UNIT},
}

#: Run manifest (``run.json``). See :mod:`repro.obs.manifest` for the
#: full field inventory.
MANIFEST_SCHEMA = {
    "type": "object",
    "required": [
        "manifest_version", "kind", "run", "config", "partition",
        "quality", "convergence", "counters", "degradations",
        "execution",
    ],
    "properties": {
        "manifest_version": {"const": 2},
        "kind": {"const": "repro_run_manifest"},
        "run": {
            "type": "object",
            "required": ["dataset", "algorithm", "references", "completed"],
        },
        "partition": {
            "type": "object",
            "required": ["digest", "per_class"],
            "properties": {"digest": {"type": "string", "pattern": "sha256:[0-9a-f]{64}"}},
        },
        "quality": {  # class -> {pairwise, bcubed, partitions}
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["pairwise", "bcubed"],
                "properties": {"pairwise": _SCORES, "bcubed": _SCORES},
            },
        },
        "convergence": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["recomputations", "merges", "queued", "precision", "recall"],
                "additionalProperties": {"type": "number"},
            },
        },
        "counters": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "degradations": {"type": "array"},
        "execution": {
            "type": "object",
            "required": ["resumed", "build_seconds", "iterate_seconds"],
        },
    },
}

_RING = {"type": "array"}

#: Crash bundle (``crash_bundle.json``) dumped by the flight recorder
#: when a run dies or degrades. ``rings`` holds the recorder's four
#: ring buffers, ``stacks`` per-thread formatted stacks, and
#: ``worker_lanes`` the relay's retained lane rings + lane deaths.
CRASH_BUNDLE_SCHEMA = {
    "type": "object",
    "required": [
        "bundle_version", "kind", "reason", "phase", "stop_reason",
        "exception", "config", "stats", "rings", "stacks", "worker_lanes",
    ],
    "properties": {
        "bundle_version": {"const": 1},
        "kind": {"const": "repro_crash_bundle"},
        "reason": {"type": "string", "minLength": 1},
        "phase": {"type": ["string", "null"]},
        "stop_reason": {"type": ["string", "null"]},
        "exception": {
            "type": ["object", "null"],
            "required": ["type", "message", "traceback"],
            "properties": {"traceback": {"type": "array"}},
        },
        "config": {"type": "object"},
        "stats": {"type": "object"},  # partial EngineStats (asdict)
        "rings": {
            "type": "object",
            "required": ["ring_size", "events", "decisions", "chunks", "degradations"],
            "properties": {
                "ring_size": {"type": "integer"},
                "events": _RING,
                "decisions": _RING,
                "chunks": _RING,
                "degradations": _RING,
            },
        },
        "stacks": {  # "tid (name)" -> [frame lines]
            "type": "object",
            "additionalProperties": {"type": "array", "items": {"type": "string"}},
        },
        "worker_lanes": {
            "type": "object",
            "required": ["lanes", "deaths"],
            "properties": {"lanes": {"type": "object"}, "deaths": {"type": "array"}},
        },
    },
}

DECISION_SCHEMA = {
    "type": "object",
    "required": [
        "seq", "pair", "class_name", "decision", "score", "threshold",
        "s_rv", "t_rv", "strong_support", "weak_support", "channels", "trigger",
    ],
    "properties": {
        "seq": {"type": "integer", "minimum": 0},
        "pair": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 2,
            "maxItems": 2,
        },
        "decision": {"enum": list(DECISIONS)},
        "trigger": {"enum": list(TRIGGERS)},
        "channels": {"type": "object", "additionalProperties": {"type": "number"}},
        "score": _UNIT,
    },
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def _check(value, schema: dict, where: str) -> None:
    """Validate *value* against the JSON-Schema subset the ``*_SCHEMA``
    dicts use: type, const, enum, minimum/maximum, minLength, pattern,
    items, minItems/maxItems, required, properties and schema-valued
    additionalProperties."""
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    _require(
        not kinds or any(isinstance(value, _TYPES[kind]) for kind in kinds),
        f"{where} must be {' or '.join(kinds)}: {value!r}",
    )
    if value is None:
        return
    if "const" in schema:
        _require(value == schema["const"], f"{where} must be {schema['const']!r}: {value!r}")
    if "enum" in schema:
        _require(
            value in schema["enum"],
            f"{where}: unknown {value!r}; expected one of {schema['enum']}",
        )
    if "minimum" in schema:
        _require(value >= schema["minimum"], f"{where} below {schema['minimum']}: {value!r}")
    if "maximum" in schema:
        _require(value <= schema["maximum"], f"{where} above {schema['maximum']}: {value!r}")
    if "minLength" in schema:
        _require(len(value) >= schema["minLength"], f"{where} must not be empty")
    if "pattern" in schema:
        _require(
            re.fullmatch(schema["pattern"], value) is not None,
            f"{where} must match {schema['pattern']!r}: {value!r}",
        )
    if "items" in schema:
        for index, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{index}]")
    if "minItems" in schema or "maxItems" in schema:
        _require(
            schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)),
            f"{where} has {len(value)} items",
        )
    for key in schema.get("required", ()):
        _require(key in value, f"{where} missing required field {key!r}")
    properties = schema.get("properties", {})
    for key, sub in properties.items():
        if key in value:
            _check(value[key], sub, f"{where}.{key}")
    extra = schema.get("additionalProperties")
    if isinstance(extra, dict):
        for key, item in value.items():
            if key not in properties:
                _check(item, extra, f"{where}[{key!r}]")


def validate_event(obj: dict) -> None:
    """One event-log record against :data:`EVENT_SCHEMA`."""
    _check(obj, EVENT_SCHEMA, "event")


def validate_event_log(path: str | Path) -> int:
    """Every line of a JSONL event log; returns the event count."""
    count = 0
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{line_number}: not valid JSON: {exc}") from exc
            try:
                validate_event(obj)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{line_number}: {exc}") from exc
            count += 1
    return count


def validate_chrome_trace(obj: dict) -> int:
    """A Chrome trace-event JSON object; returns the event count."""
    _require(isinstance(obj, dict), "trace must be a JSON object")
    _require("traceEvents" in obj, "trace missing 'traceEvents'")
    events = obj["traceEvents"]
    _require(isinstance(events, list) and events, "'traceEvents' must be a non-empty list")
    for index, event in enumerate(events):
        _require(isinstance(event, dict), f"traceEvents[{index}] must be an object")
        for key in ("name", "ph", "pid", "tid"):
            _require(key in event, f"traceEvents[{index}] missing {key!r}")
        phase = event["ph"]
        _require(phase in ("X", "i", "M"), f"traceEvents[{index}] unknown phase {phase!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                _require(key in event, f"traceEvents[{index}] complete event missing {key!r}")
                _require(
                    isinstance(event[key], (int, float)) and event[key] >= 0,
                    f"traceEvents[{index}].{key} must be a non-negative number",
                )
        elif phase == "M":
            args = event.get("args")
            _require(
                isinstance(args, dict),
                f"traceEvents[{index}] metadata event missing 'args' object",
            )
            if event["name"] in ("process_name", "thread_name"):
                _require(
                    isinstance(args.get("name"), str) and args["name"],
                    f"traceEvents[{index}] {event['name']} args.name must be "
                    "a non-empty string",
                )
    return len(events)


def trace_process_names(obj: dict) -> dict[int, str]:
    """``pid -> process name`` from a trace's metadata events.

    The cross-process relay's acceptance check: a parallel run's trace
    must show at least two named lanes (engine + ≥1 worker)."""
    names: dict[int, str] = {}
    for event in obj.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event["pid"]] = event.get("args", {}).get("name", "")
    return names


def validate_decision(obj: dict) -> None:
    """One provenance record against :data:`DECISION_SCHEMA`."""
    _check(obj, DECISION_SCHEMA, "decision")


def validate_provenance_jsonl(path: str | Path) -> int:
    """Every line of a provenance JSONL export; returns the count."""
    count = 0
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                validate_decision(json.loads(line))
            except (json.JSONDecodeError, SchemaError) as exc:
                raise SchemaError(f"{path}:{line_number}: {exc}") from exc
            count += 1
    return count


def validate_manifest(obj: dict) -> None:
    """A run manifest (``run.json``) against :data:`MANIFEST_SCHEMA`."""
    _check(obj, MANIFEST_SCHEMA, "manifest")


def validate_crash_bundle(obj: dict) -> None:
    """A crash bundle against :data:`CRASH_BUNDLE_SCHEMA`."""
    _check(obj, CRASH_BUNDLE_SCHEMA, "crash bundle")
