"""Persistent on-disk cache of completed certification queries.

Each completed :class:`~repro.scheduler.queries.CertQuery` is stored as one
JSON file named by the query's content hash, sharded into 256 two-hex-digit
subdirectories (``<dir>/ab/ab12....json``) so a long sweep never piles tens
of thousands of entries into one directory. The key already covers the
model weight hash, the corpus fingerprint and every query parameter, so a
hit is valid by construction — there is no separate invalidation step:
retraining the model or regenerating the corpus simply changes the key.

Writes are atomic (temp file + ``os.replace``) and additionally serialized
per shard with an advisory ``fcntl.flock`` on ``<shard>/.lock``: with the
supervised pool (or a service restarting under load) *multiple processes*
can complete entries for the same shard concurrently, and the lock keeps
their mkstemp/replace sequences from interleaving. The read path stays
lock-free — ``os.replace`` is atomic, so a reader always sees either the
old or the new complete entry, never a torn one. A corrupt or truncated
entry (killed process, disk hiccup) is treated as a miss and deleted,
mirroring the model-zoo cache recovery in ``repro.experiments.harness``.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import warnings

try:
    import fcntl
except ImportError:  # non-POSIX: writes stay atomic, just unserialized
    fcntl = None

from ..faults import fault_cache_commit, fault_cache_committed

__all__ = ["ResultCache", "default_cache_dir"]

# 2: payloads carry the degradation metadata (degraded / fallback_chain /
# fault) alongside radius, seconds and perf.
# 3: invalidates entries a reused worker fleet may have computed with the
# model of an earlier run (stored under a later model's valid keys).
_FORMAT_VERSION = 3


def default_cache_dir():
    """``.cert_cache`` at the repository root (created on first write)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(root, ".cert_cache")


class ResultCache:
    """Query-keyed radius store; see the module docstring for layout."""

    def __init__(self, path):
        self.path = path

    def _entry_path(self, query):
        key = query.key()
        return os.path.join(self.path, key[:2], key + ".json")

    @contextlib.contextmanager
    def _shard_lock(self, shard_dir):
        """Advisory per-shard write lock (no-op where flock is missing).

        Blocks until the shard is free; held only across one entry's
        mkstemp/dump/replace, so contention is bounded by a single JSON
        write. Readers never take it.
        """
        if fcntl is None:
            yield
            return
        lock_path = os.path.join(shard_dir, ".lock")
        with open(lock_path, "a+") as lock_file:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    # --------------------------------------------------------------- lookup
    def get(self, query):
        """The cached payload dict for ``query``, or None on a miss.

        Payloads hold ``radius``, ``seconds`` and the worker's ``perf``
        snapshot. Unreadable entries are deleted and reported as misses.
        """
        path = self._entry_path(query)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as f:
                payload = json.load(f)
            if payload.get("version") != _FORMAT_VERSION:
                raise ValueError(f"unknown cache version "
                                 f"{payload.get('version')!r}")
            float(payload["radius"])  # validates the one load-bearing field
            return payload
        except (OSError, ValueError, KeyError, TypeError) as e:
            warnings.warn(f"discarding corrupt result cache entry {path!r} "
                          f"({type(e).__name__}: {e})", stacklevel=2)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    # ---------------------------------------------------------------- store
    def put(self, query, radius, seconds, perf, degraded=False,
            fallback_chain=(), fault=None):
        """Persist a completed query's result (atomic replace)."""
        path = self._entry_path(query)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "version": _FORMAT_VERSION,
            "key": query.key(),
            "query": query.describe(),
            "radius": float(radius),
            "seconds": float(seconds),
            "perf": perf,
            "degraded": bool(degraded),
            "fallback_chain": list(fallback_chain),
            "fault": fault,
        }
        with self._shard_lock(os.path.dirname(path)):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(payload, f)
                # Chaos hook (no-op without an active REPRO_FAULT_PLAN):
                # the cache-kill fault exits here, leaving only the temp
                # file — the exact crash window the atomic-replace scheme
                # must absorb.
                fault_cache_commit(tmp)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        # cache-garble fault: corrupt the committed shard post-rename, so
        # the next get() must detect and self-heal (delete + miss).
        fault_cache_committed(path)
