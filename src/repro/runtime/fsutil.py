"""Crash-safe filesystem primitives shared by the runtime.

One function, one contract: :func:`atomic_write_text` either leaves
the previous file contents fully intact or replaces them with the
complete new text — never a truncated hybrid. The pattern (temp file
in the destination directory, flush + fsync, ``os.replace``) is the
same one checkpoints have always used; it lives here so every durable
artifact (checkpoints, quarantine files) gets the
identical guarantee instead of a hand-rolled ``open(..., "w")``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace *path*'s contents with *text*.

    The temporary file is created in *path*'s directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX). On
    any failure the temporary file is removed and the original file —
    if one existed — is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    return path
