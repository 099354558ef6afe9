"""The runtime error taxonomy.

Every failure mode the reconciliation runtime can surface is a typed
:class:`ReproError` subclass, so callers can distinguish "the data is
bad" (:class:`DataError`) from "a saved state is unusable"
(:class:`CheckpointError`) — and handle each differently (fail fast,
fall back to an older checkpoint). A run that reaches its deadline or
recomputation budget is not an error: the
:class:`~repro.runtime.guards.RunGuard` trip ends it with a partial
result whose ``stop_reason`` says why. Bare ``KeyError`` / ``IndexError`` /
``json.JSONDecodeError`` escapes from ``core/`` and ``datasets/`` are
considered bugs.

This module is deliberately import-free (stdlib only, no ``repro``
imports): ``repro.core`` itself raises these types, so anything heavier
would be a circular import.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DataError",
    "QueueEmpty",
    "CheckpointError",
    "InjectedFault",
]


class ReproError(Exception):
    """Base class of every typed error raised by the runtime."""


class DataError(ReproError):
    """A record or file could not be parsed or validated.

    Carries the offending file ``path`` and 1-based ``line`` number
    whenever they are known, so a strict loader failure names exactly
    the record that killed it.
    """

    def __init__(
        self, reason: str, *, path: str | None = None, line: int | None = None
    ) -> None:
        self.reason = reason
        self.path = str(path) if path is not None else None
        self.line = line
        location = ""
        if self.path is not None:
            location = self.path if line is None else f"{self.path}:{line}"
            location += ": "
        elif line is not None:
            location = f"line {line}: "
        super().__init__(location + reason)


class QueueEmpty(ReproError):
    """Popping an active queue that holds no live keys."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or trusted (bad
    checksum, wrong version, mismatched configuration)."""


class InjectedFault(ReproError):
    """A deliberate failure raised by the fault-injection harness."""
