"""Shared-memory janitor: sweep ``ppgnn-*`` segments orphaned by dead runs.

Every shared-memory segment the data path creates is named
``ppgnn-<kind>-<pid>-<hex>`` (:mod:`repro.dataloading.shm`), where ``<pid>``
is the *creating* process — the one that owns unlinking.  If that process is
SIGKILLed (OOM, preemption, a fault-injection test) its finalizers never run
and the segment survives in ``/dev/shm``, silently eating host memory until
reboot.  The janitor closes that last gap: it scans for ``ppgnn-*`` entries
whose embedded creator pid no longer exists and unlinks them.

Segments whose creator is still alive are never touched, so the sweep is
safe to run at any time — including concurrently with live training runs and
at the start of every test (the ``/dev/shm`` leak-check fixture runs it so
one killed test cannot poison the leak accounting of later ones).

CLI::

    python -m repro.resilience.janitor [--dry-run] [--shm-dir /dev/shm]
"""

from __future__ import annotations

import argparse
import os
import re
from pathlib import Path
from typing import List

from repro.utils.logging import get_logger

logger = get_logger("resilience.janitor")

__all__ = ["orphaned_segments", "sweep_orphans", "main"]

#: matches ``repro.dataloading.shm._new_segment_name``, plus an optional
#: ``-v<digits>`` component: ``/dev/shm`` is outside input, and segments of
#: releases that tagged serving swaps with a store version must still be
#: recognized and swept once their creator pid is dead
_SEGMENT_PATTERN = re.compile(
    r"^(?P<prefix>[a-z]+)-(?P<kind>[a-z]+)(?:-v(?P<version>\d+))?-(?P<pid>\d+)-[0-9a-f]+$"
)

_DEFAULT_SHM_DIR = Path("/dev/shm")


def pid_alive(pid: int) -> bool:
    """Whether a process ``pid`` exists (the creator of a segment, staging or scratch)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists under another user
        return True
    return True


def orphaned_segments(prefix: str = "ppgnn", shm_dir: Path = _DEFAULT_SHM_DIR) -> List[Path]:
    """Segments under ``shm_dir`` whose embedded creator pid is dead."""
    shm_dir = Path(shm_dir)
    if not shm_dir.is_dir():
        return []
    orphans = []
    for path in sorted(shm_dir.glob(f"{prefix}-*")):
        match = _SEGMENT_PATTERN.match(path.name)
        if match is None:
            continue  # not one of ours (or a name scheme we don't understand)
        if not pid_alive(int(match.group("pid"))):
            orphans.append(path)
    return orphans


def sweep_orphans(
    prefix: str = "ppgnn", shm_dir: Path = _DEFAULT_SHM_DIR, dry_run: bool = False
) -> List[Path]:
    """Unlink every orphaned segment; returns the paths swept (or would-sweep)."""
    orphans = orphaned_segments(prefix=prefix, shm_dir=shm_dir)
    for path in orphans:
        if dry_run:
            logger.info("janitor (dry run): would unlink %s", path)
            continue
        try:
            path.unlink()
            logger.info("janitor: unlinked orphaned segment %s", path)
        except FileNotFoundError:
            pass  # raced another sweeper; the segment is gone either way
        except OSError as error:  # pragma: no cover - permissions, etc.
            logger.warning("janitor: could not unlink %s: %s", path, error)
    return orphans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dry-run", action="store_true", help="report, do not unlink")
    parser.add_argument("--prefix", default="ppgnn", help="segment name prefix to sweep")
    parser.add_argument(
        "--shm-dir", default=str(_DEFAULT_SHM_DIR), help="shared-memory mount to scan"
    )
    args = parser.parse_args(argv)
    swept = sweep_orphans(prefix=args.prefix, shm_dir=Path(args.shm_dir), dry_run=args.dry_run)
    verb = "would sweep" if args.dry_run else "swept"
    print(f"janitor: {verb} {len(swept)} orphaned segment(s)")
    for path in swept:
        print(f"  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
