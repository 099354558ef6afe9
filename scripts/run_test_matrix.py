#!/usr/bin/env python
"""Shard the pytest suite by file across CI jobs.

Deterministically splits ``tests/test_*.py`` (sorted, round-robin) into
``--shard-count`` bins and runs pytest on the ``--shard-index``-th bin,
so a CI matrix of N jobs covers every file exactly once regardless of
how long any single file takes:

    python scripts/run_test_matrix.py --shard-index 0 --shard-count 3
    python scripts/run_test_matrix.py --shard-index 1 --shard-count 3 --all -- -x

``--all`` clears the repo's default ``addopts`` (which deselects the
``slow`` marker to keep local tier-1 wall-time down) so CI
runs the complete matrix, long identity tests included. Everything
after ``--`` is passed to pytest verbatim. A shard whose files all
deselect (pytest exit code 5) counts as success — the *matrix* covers
everything, each bin need not.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def shard_files(files: list[Path], index: int, count: int) -> list[Path]:
    """Round-robin bin *index* of *count* over the sorted file list."""
    return [path for i, path in enumerate(files) if i % count == index]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shard-index", type=int, default=0)
    parser.add_argument("--shard-count", type=int, default=1)
    parser.add_argument(
        "--all",
        action="store_true",
        help="clear default addopts so slow-marked tests run too",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print this shard's files without running pytest",
    )
    args, pytest_args = parser.parse_known_args(argv)
    if pytest_args and pytest_args[0] == "--":
        pytest_args = pytest_args[1:]
    if not 0 <= args.shard_index < args.shard_count:
        parser.error(
            f"--shard-index {args.shard_index} not in "
            f"[0, {args.shard_count})"
        )

    files = sorted((REPO / "tests").glob("test_*.py"))
    if not files:
        print("no test files found", file=sys.stderr)
        return 2
    selected = shard_files(files, args.shard_index, args.shard_count)
    print(
        f"shard {args.shard_index}/{args.shard_count}: "
        f"{len(selected)}/{len(files)} files"
    )
    for path in selected:
        print(f"  {path.relative_to(REPO)}")
    if args.list:
        return 0
    if not selected:
        return 0

    cmd = [sys.executable, "-m", "pytest"]
    if args.all:
        cmd += ["-o", "addopts=", "-q"]
    cmd += [str(path.relative_to(REPO)) for path in selected]
    cmd += pytest_args
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    rc = subprocess.call(cmd, cwd=REPO, env=env)
    # Exit code 5 = "no tests collected": an all-deselected bin is fine.
    return 0 if rc == 5 else rc


if __name__ == "__main__":
    raise SystemExit(main())
