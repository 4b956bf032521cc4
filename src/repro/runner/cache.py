"""On-disk result store: content-hashed, atomic, version-partitioned.

Layout (one JSON file per completed job)::

    <root>/v<SCHEMA_VERSION>/<key[:2]>/<key>.json

where ``root`` is, in priority order, the explicit ``--cache-dir``
argument, the ``REPRO_CACHE_DIR`` environment variable, or
``~/.cache/repro``.  The two-character fan-out directory keeps any one
directory small even with tens of thousands of entries.

Safety properties:

* **Atomic writes** — entries are written to a same-directory temp file
  and ``os.replace``d into place, so a crashed or concurrent writer can
  never leave a half-written entry where a reader will find it.
  Concurrent writers of the same key are idempotent (same content, last
  rename wins).
* **Version invalidation** — the schema version is baked into both the
  directory name and each payload; bumping
  :data:`~repro.runner.jobs.SCHEMA_VERSION` orphans every old entry
  rather than reinterpreting it.
* **Corruption tolerance** — an unreadable, truncated, or key-mismatched
  entry is treated as a miss and deleted, never raised to the caller;
  the job simply reruns.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import shutil
import threading
from dataclasses import dataclass

from ..metrics.serialize import run_record_from_dict, run_record_to_dict
from .jobs import SCHEMA_VERSION, JobSpec, spec_to_dict

__all__ = ["ENV_CACHE_DIR", "CacheStats", "ResultCache", "default_cache_root"]

#: Environment override for the cache root (the CLI flag wins over it).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_root() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path("~/.cache/repro").expanduser()


@dataclass(frozen=True)
class CacheStats:
    """Summary of one cache root (current schema version only)."""

    root: str
    schema: int
    entries: int
    bytes: int
    #: Aggregated execution cost of the entries that recorded it (older
    #: entries predate the side channel): total simulation wall time and
    #: the largest per-job peak RSS.  This is the data `cache stats`
    #: surfaces for budgeting a sweep's jobs against a machine's cores
    #: and memory.
    timed_entries: int = 0
    wall_seconds: float = 0.0
    peak_rss_kb: int = 0

    def to_dict(self) -> dict:
        """JSON-safe form, as ``cache stats --json`` prints it."""
        return {
            "root": self.root,
            "schema": self.schema,
            "entries": self.entries,
            "bytes": self.bytes,
            "timed_entries": self.timed_entries,
            "wall_seconds": self.wall_seconds,
            "peak_rss_kb": self.peak_rss_kb,
        }

    def describe(self) -> str:
        kib = self.bytes / 1024.0
        line = f"{self.entries} entries, {kib:.1f} KiB at {self.root} (schema v{self.schema})"
        if self.timed_entries:
            line += (
                f"\n{self.timed_entries} timed entries: {self.wall_seconds:.1f}s "
                f"total wall, peak job RSS {self.peak_rss_kb / 1024.0:.1f} MiB"
            )
        return line


#: Process-wide uniquifier for temp-file names: two threads of one
#: process writing the same key share a pid, so pid alone can collide.
_TMP_SEQ = itertools.count()


class ResultCache:
    """Hash-keyed store of :class:`~repro.experiments.common.RunRecord`."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = pathlib.Path(root).expanduser() if root else default_cache_root()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def version_dir(self) -> pathlib.Path:
        """The subtree holding entries for the current schema version."""
        return self.root / f"v{SCHEMA_VERSION}"

    def path_for(self, spec: JobSpec) -> pathlib.Path:
        key = spec.key()
        return self.version_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, spec: JobSpec):
        """The cached record for ``spec``, or ``None`` on miss.

        Any malformed entry (truncated JSON, wrong schema, wrong key,
        missing fields) is discarded and reported as a miss.
        """
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            return None
        try:
            if payload["schema"] != SCHEMA_VERSION or payload["key"] != spec.key():
                raise ValueError("stale or mismatched cache entry")
            record = run_record_from_dict(payload["record"])
        except (KeyError, TypeError, ValueError):
            self._discard(path)
            return None
        return record

    def put(self, spec: JobSpec, record) -> pathlib.Path:
        """Store ``record`` under ``spec``'s key (atomic tmp+rename)."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SCHEMA_VERSION,
            "key": spec.key(),
            "spec": spec_to_dict(spec),
            "record": run_record_to_dict(record),
        }
        # Wall time / peak RSS ride along when the record carries them
        # (execute_job's side channel); never part of the record itself,
        # so cached payload equality across processes is preserved.
        exec_info = getattr(record, "_exec", None)
        if exec_info is not None:
            payload["exec"] = exec_info
        # Unique per (pid, thread, sequence): concurrent writers of the
        # same key — two processes, or two threads of one process —
        # each write their own temp file and race only on the atomic
        # rename, where last-writer-wins is idempotent (same content).
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}.{threading.get_ident()}"
            f".{next(_TMP_SEQ)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    def __contains__(self, spec: JobSpec) -> bool:
        return self.path_for(spec).exists()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _entries(self) -> list[pathlib.Path]:
        if not self.version_dir.is_dir():
            return []
        return sorted(self.version_dir.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self._entries())

    def stats(self) -> CacheStats:
        """Entry count, on-disk size and execution-cost aggregates for
        the current schema version."""
        entries = self._entries()
        size = 0
        timed = 0
        wall = 0.0
        peak_rss = 0
        for path in entries:
            try:
                size += path.stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                pass
            try:
                exec_info = json.loads(path.read_text()).get("exec")
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if not isinstance(exec_info, dict):
                continue
            seconds = exec_info.get("wall_seconds")
            if isinstance(seconds, (int, float)):
                timed += 1
                wall += seconds
            rss = exec_info.get("max_rss_kb")
            if isinstance(rss, int) and rss > peak_rss:
                peak_rss = rss
        return CacheStats(
            root=str(self.root),
            schema=SCHEMA_VERSION,
            entries=len(entries),
            bytes=size,
            timed_entries=timed,
            wall_seconds=wall,
            peak_rss_kb=peak_rss,
        )

    def purge(self) -> int:
        """Delete the whole cache root (all schema versions); return the
        number of current-version entries that were dropped."""
        dropped = len(self._entries())
        shutil.rmtree(self.root, ignore_errors=True)
        return dropped

    def _discard(self, path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing deletion
            pass
