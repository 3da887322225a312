"""Persistent representation-number cache: append-only JSON lines.

Each record stores the canonical index actually queried, the exact count as a
decimal string, and the engine version; a version bump invalidates old
entries without touching the file.  Corrupt lines are skipped with a warning,
never trusted.
"""

from __future__ import annotations

import json
import os
import random

try:
    import fcntl
except ImportError:  # non-POSIX
    fcntl = None

# Stored records are trusted only under the version that wrote them.  Bump
# it when the index_key serialization or the canonical key form
# (indices.canonical_signed_perm) changes, or when a fix could change a
# stored count; old records are then ignored, never rewritten.
ENGINE_VERSION = "1"

ENV_CACHE_PATH = "SCHOTTKY_WORKBENCH_CACHE"

# verify_sample draws the same sample on every run
_SAMPLE_SEED = 0


def index_key(genus: int, upper: list) -> str:
    """Canonical serialization of a GramTarget: genus + upper triangle."""
    return json.dumps({"g": genus, "u": [int(x) for x in upper]},
                      separators=(",", ":"), sort_keys=True)


class CountCache:
    """In-memory map over an optional append-only JSONL file.

    One writer at a time (advisory flock on append); readers work on the
    snapshot loaded at construction plus their own writes.
    """

    def __init__(self, path=None):
        self.path = os.fspath(path) if path is not None else None
        self._mem = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.loaded_records = 0
        self.corrupt_records = 0
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self):
        # a byte that is not UTF-8 spoils its line only
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    lid, key, count, ver = (rec[k] for k in (
                        "lattice_id", "index_key", "count", "engine_version"))
                    # put writes an ASCII line of four strings, count in digits
                    if not (all(isinstance(f, str) for f in (lid, key, count, ver))
                            and line.isascii() and count.isascii()
                            and count.isdigit()):
                        raise TypeError("not a record as put writes it")
                    count = int(count)
                except (ValueError, KeyError, TypeError):
                    self.corrupt_records += 1
                    # loaded only here: a clean cache never pays for it
                    import logging
                    logging.getLogger(__name__).warning(
                        "cache %s: skipping corrupt line %d", self.path,
                        lineno)
                    continue
                if ver != ENGINE_VERSION:
                    continue
                self._mem[(lid, key)] = count
                self.loaded_records += 1

    def get(self, lattice_id: str, key: str):
        got = self._mem.get((lattice_id, key))
        if got is None:
            self.misses += 1
        else:
            self.hits += 1
        return got

    def put(self, lattice_id: str, key: str, count: int):
        self._mem[(lattice_id, key)] = int(count)
        self.puts += 1
        if self.path is None:
            return
        rec = {
            "lattice_id": lattice_id,
            "index_key": key,
            "count": str(int(count)),
            "engine_version": ENGINE_VERSION,
        }
        line = json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n"
        with open(self.path, "ab+") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                # a writer that died mid-line left no newline: end its line
                if fh.seek(0, os.SEEK_END):
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        line = "\n" + line
                fh.write(line.encode("utf-8"))
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def stats(self) -> dict:
        return {
            "entries": len(self._mem),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "loaded_records": self.loaded_records,
            "corrupt_records": self.corrupt_records,
            "engine_version": ENGINE_VERSION,
            "path": self.path,
        }

    def entries(self):
        return dict(self._mem)

    def verify_sample(self, recompute, fraction: float = 0.01):
        """Recompute a random sample of stored counts with `recompute(lattice_id,
        key)`; returns the list of mismatches (expected empty)."""
        if not 0 < fraction <= 1:            # also rejects NaN
            raise ValueError("fraction must be in (0, 1]")
        rng = random.Random(_SAMPLE_SEED)
        items = sorted(self._mem.items())
        k = max(1, int(len(items) * fraction)) if items else 0
        mismatches = []
        for (lid, key), val in rng.sample(items, k):
            fresh = recompute(lid, key)
            if fresh != val:
                mismatches.append({"lattice_id": lid, "index_key": key,
                                   "cached": val, "recomputed": fresh})
        return mismatches


def cache_from_env(path=None) -> CountCache:
    """Build a cache from an explicit path or the environment variable; an
    empty variable counts as unset."""
    if path is None:
        path = os.environ.get(ENV_CACHE_PATH) or None
    return CountCache(path)
