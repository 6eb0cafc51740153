"""Persistent on-disk verdict cache, keyed by canonical cache keys.

One JSON file per entry under a cache directory, named by the submission
cache key (a SHA-256 hex string from :func:`repro.service.jobs.cache_key`,
which folds together the content-addressed program fingerprint and every
verdict-relevant option).  The layout is deliberately primitive:

* **one key = one file** — concurrent services sharing a directory never
  contend on an index, and a corrupt or truncated entry damages exactly
  one key;
* **atomic publication** — entries are written to a temp file and
  ``os.replace``-d into place, so a reader sees either nothing or a
  complete entry, never a partial write;
* **self-describing** — each entry carries the cache schema version,
  its key, the verdict payload, and provenance (kind, kernel, engine
  runs paid, wall seconds, creation time), so ``repro status`` can
  attribute a hit and a schema bump invalidates every old entry on
  read (stale entries are simply treated as misses);
* **stat-checked index** — each instance remembers every entry it wrote
  or read and validated, with the signature (inode, size, mtime) of the
  file it came from.  A repeat hit costs one ``os.stat``: while the file
  keeps that signature the remembered entry answers; a missing file is
  a miss, and a changed one is read and validated again.  The disk stays
  the store, so a restarted service, or a second one sharing the
  directory, still hits.

What invalidates a cached verdict is entirely a property of the *key*
(see ``docs/service.md``): a program edit, a different reduction /
preemption bound / memoization setting / memory model, a different
schedule budget, or a bump of the key schema (or, for source jobs, of
``PYSOURCE_VERSION``) or of this entry schema.  The cache itself never
inspects verdicts.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.obs import metrics as obs_metrics

__all__ = ["ResultCache"]

#: Entry schema: bump to orphan (ignore) every previously written entry.
ENTRY_SCHEMA = "repro.service.cache/v1"

_KEY_CHARS = set("0123456789abcdef")

#: What identifies one version of an entry file: (inode, size, mtime).
Signature = Tuple[int, int, int]


def _signature(st: os.stat_result) -> Signature:
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class ResultCache:
    """Directory-backed verdict store with hit/miss accounting.

    ``root`` is created on first use.  ``get``/``put`` are safe to call
    from several service processes sharing the directory; in-process the
    service serialises them on the event loop.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: key -> (entry, signature of the file it was written to or
        #: read from); one item per distinct key this instance has seen.
        self._index: Dict[str, Tuple[Dict[str, Any], Signature]] = {}

    # -- keys --------------------------------------------------------------

    @staticmethod
    def _validate_key(key: str) -> str:
        # Keys become file names: accept only the sha256-hex alphabet so
        # a malformed wire key can never traverse outside the cache dir.
        if not key or len(key) != 64 or not set(key) <= _KEY_CHARS:
            raise ValueError(f"malformed cache key: {key!r}")
        return key

    def _path(self, key: str) -> Path:
        return self.root / f"{self._validate_key(key)}.json"

    # -- access ------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``key``, or ``None`` (miss).

        Unreadable, truncated, or schema-mismatched entries count as
        misses — the job just runs again and overwrites them.  An entry
        answered from the index is the same object on every hit: callers
        must not mutate it.
        """
        path = self._path(key)
        indexed = self._index.get(key)
        if indexed is not None:
            try:
                unchanged = _signature(os.stat(path)) == indexed[1]
            except OSError:
                unchanged = False
            if unchanged:
                self.hits += 1
                return indexed[0]
            del self._index[key]
        try:
            with open(path, encoding="utf-8") as fh:
                signature = _signature(os.fstat(fh.fileno()))
                entry = json.loads(fh.read())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != ENTRY_SCHEMA
            or entry.get("key") != key
        ):
            self.misses += 1
            return None
        self._index[key] = (entry, signature)
        self.hits += 1
        return entry

    def put(
        self,
        key: str,
        verdict: Dict[str, Any],
        *,
        kind: str,
        kernel: str,
        engine_runs: int,
        wall_seconds: float,
    ) -> Dict[str, Any]:
        """Atomically publish one verdict entry; returns the stored dict."""
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": self._validate_key(key),
            "kind": kind,
            "kernel": kernel,
            "verdict": verdict,
            "engine_runs": engine_runs,
            "wall_seconds": wall_seconds,
            "created_ts": time.time(),
        }
        data = memoryview(json.dumps(entry).encode("utf-8"))
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except FileNotFoundError:  # first put, or the root was removed
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            try:
                while data:
                    data = data[os.write(fd, data):]
                signature = _signature(os.fstat(fd))
            finally:
                os.close(fd)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._index[key] = (entry, signature)
        self.writes += 1
        return entry

    # -- reporting ---------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def hit_rate(self) -> float:
        """Fraction of lookups answered from disk."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """Dashboard-ready counters, also published to :mod:`repro.obs.metrics`.

        The directory is scanned once per call.  The published totals are
        gauges, not counters: ``repro status`` asks on every request, so
        last-write-wins is the safe choice (the per-event ``service.*``
        counters live in the service core).
        """
        entries = len(self)
        registry = obs_metrics.active()
        if registry is not None:
            registry.set_gauge(
                "service.cache_lookup_total", self.hits + self.misses
            )
            registry.set_gauge("service.cache_hit_total", self.hits)
            registry.set_gauge("service.cache_entries", entries)
        return {
            "path": str(self.root),
            "entries": entries,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": self.hit_rate(),
        }
