"""Fault-tolerant reconciliation runtime.

These parts make every run bounded, interruptible, resumable and honest
about degradation:

* :mod:`~repro.runtime.errors` — the typed exception taxonomy
  (:class:`ReproError` and friends),
* :mod:`~repro.runtime.guards` — :class:`RunGuard` deadline / budget /
  growth ceilings and :class:`DegradationEvent`,
* :mod:`~repro.runtime.checkpoint` — atomic, checksummed engine-state
  checkpoints and :class:`Checkpointer`,
* :mod:`~repro.runtime.degrade` — :class:`ResilientReconciler`, the
  guard-and-fall-back wrapper,
* :mod:`~repro.runtime.supervisor` — :class:`SupervisedScorer`, the
  fork pool for parallel scoring; any failure kills it and the engine
  scores the rest of the build serially,
* :mod:`~repro.runtime.fsutil` — :func:`atomic_write_text`, the
  crash-safe write primitive shared by checkpoints and quarantine
  files,
* :mod:`~repro.runtime.faults` — the deterministic fault-injection
  harness (including :class:`ChaosInjector`) used by the tests and the
  CI smoke jobs.

Only the error taxonomy is imported eagerly: ``repro.core`` raises
these types itself, so the heavier modules (which import ``repro.core``
back) load lazily on first attribute access.
"""

from .errors import (
    BudgetExceeded,
    CheckpointError,
    DataError,
    DeadlineExceeded,
    GuardTripped,
    InjectedFault,
    QueueEmpty,
    ReproError,
)

_LAZY = {
    "DegradationEvent": "guards",
    "RunGuard": "guards",
    "CHECKPOINT_VERSION": "checkpoint",
    "Checkpointer": "checkpoint",
    "config_fingerprint": "checkpoint",
    "engine_state": "checkpoint",
    "load_checkpoint": "checkpoint",
    "restore_engine": "checkpoint",
    "save_checkpoint": "checkpoint",
    "ResilientReconciler": "degrade",
    "ChaosInjector": "faults",
    "CrashAtStep": "faults",
    "corrupt_checkpoint": "faults",
    "inject_malformed_lines": "faults",
    "atomic_write_text": "fsutil",
    "SupervisedScorer": "supervisor",
}

__all__ = [
    "ReproError",
    "DataError",
    "QueueEmpty",
    "GuardTripped",
    "BudgetExceeded",
    "DeadlineExceeded",
    "CheckpointError",
    "InjectedFault",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
