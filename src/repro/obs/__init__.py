"""Observability: structured logs, span traces, provenance.

Everything here reaches the engine through one seam,
:mod:`~repro.obs.observer`: an :class:`Observer` protocol of typed
callbacks and the :class:`Observers` fan-out the engine reports to.
The telemetry subscriber, :class:`Telemetry`, bundles three sinks:

* :mod:`~repro.obs.events` — the JSONL event stream
  (``events.jsonl``),
* :mod:`~repro.obs.tracing` — nested timed spans exported as Chrome
  trace-event JSON (``trace.json``, loads in Perfetto),
* :mod:`~repro.obs.provenance` — the merge-provenance audit log every
  ``explain`` replay runs from (``provenance.jsonl``).

A ``--run-dir`` run attaches all three and writes them, with the
manifest, into the run directory under fixed names.

On top of the sinks sits the **run-analysis layer**:

* :mod:`~repro.obs.manifest` — the versioned ``run.json`` summary
  every ``--run-dir`` run emits (config fingerprint, partition digest,
  per-class quality, convergence samples, counters, timings); the one
  machine-readable summary of a run,
* :mod:`~repro.obs.diffing` — ``repro diff``: cross-run regression
  localization down to the flipped pair, its channel, and the
  root-cause chain through the provenance graph.

And the **cross-process layer**: :mod:`~repro.obs.relay` ships
worker-side telemetry back piggybacked on chunk results and merges it
into the parent's sinks with real pid/tid trace lanes.

By default the engine subscribes only the flight recorder and the
hotspot sketch; telemetry and fault injectors are subscribed
explicitly. Every subscriber is strictly observational — partitions
are byte-identical with any set of them, and none of their state
(timestamps, span ids, record sequence numbers) enters checkpoints or
their fingerprints.
"""

from .diffing import DiffVerdict, diff_runs
from .events import LEVELS, EventLog
from .flight import (
    CRASH_BUNDLE_FILENAME,
    FlightRecorder,
    build_crash_bundle,
    dump_crash_bundle,
    load_crash_bundle,
)
from .hotspots import HotspotSketch, SpaceSaving, gini
from .manifest import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    RUN_FILES,
    RunDir,
    RunDirError,
    build_manifest,
    invariant_view,
    load_manifest,
    load_run_dir,
    partition_digest,
    write_manifest,
)
from .observer import Observer, Observers
from .provenance import DecisionRecord, ProvenanceLog
from .relay import TelemetryRelay, WorkerTelemetry
from .render import (
    render_degradations,
    render_diff,
    render_doctor,
    render_hotspots,
    render_quarantine,
)
from .schemas import (
    SchemaError,
    validate_crash_bundle,
    trace_process_names,
    validate_chrome_trace,
    validate_event,
    validate_event_log,
    validate_decision,
    validate_manifest,
    validate_provenance_jsonl,
)
from .telemetry import Telemetry
from .tracing import Tracer

__all__ = [
    "LEVELS",
    "EventLog",
    "DecisionRecord",
    "ProvenanceLog",
    "DiffVerdict",
    "diff_runs",
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "RUN_FILES",
    "RunDir",
    "RunDirError",
    "build_manifest",
    "invariant_view",
    "load_manifest",
    "load_run_dir",
    "partition_digest",
    "write_manifest",
    "render_degradations",
    "render_diff",
    "render_doctor",
    "render_hotspots",
    "render_quarantine",
    "CRASH_BUNDLE_FILENAME",
    "FlightRecorder",
    "build_crash_bundle",
    "dump_crash_bundle",
    "load_crash_bundle",
    "HotspotSketch",
    "SpaceSaving",
    "gini",
    "SchemaError",
    "validate_crash_bundle",
    "trace_process_names",
    "validate_chrome_trace",
    "validate_event",
    "validate_event_log",
    "validate_decision",
    "validate_manifest",
    "validate_provenance_jsonl",
    "Observer",
    "Observers",
    "TelemetryRelay",
    "WorkerTelemetry",
    "Telemetry",
    "Tracer",
]
