"""Crash-safe journal of completed certification queries (JSONL).

The result cache (:mod:`repro.scheduler.cache`) memoizes *across* runs;
the journal makes a single harness run *resumable through a crash*. Every
completed query outcome is appended as one JSON line — written whole,
flushed, and fsync'd before the run moves on — so a run killed at any
instant leaves a journal whose complete lines are all valid and whose only
possible damage is one truncated trailing line.

``python -m repro.experiments --resume`` replays the journal before
scheduling: queries whose key (the PR 2 :class:`CertQuery` sha256 content
hash, covering model weights, corpus fingerprint and every query
parameter) already has a valid entry are answered from the journal without
recomputation; missing or corrupt entries are recomputed and re-appended.
Because :func:`~repro.scheduler.worker.execute_query` is a pure function
of (weights, query), the resumed report is bitwise identical to an
uninterrupted run — only the un-journaled queries cost anything.

Replay is tolerant by construction: lines that fail to parse, fail
validation, or lack a terminating newline (the partial-write signature)
are skipped, never fatal. The *last* valid entry for a key wins, so
re-appending after recomputation self-heals earlier corruption.
"""

from __future__ import annotations

import json
import os

__all__ = ["RunJournal", "default_journal_path"]

# 2: skips entries a reused worker fleet may have computed with the model
# of an earlier run (stored under a later model's valid keys).
_FORMAT_VERSION = 2


def default_journal_path():
    """``.cert_journal.jsonl`` at the repository root."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(root, ".cert_journal.jsonl")


class RunJournal:
    """Append-only JSONL journal of query outcomes, keyed by query hash.

    Parameters
    ----------
    path:
        Journal file location (parent directories created on demand).
    resume:
        ``True`` keeps an existing journal so :meth:`replay` can answer
        from it; ``False`` (a fresh run) truncates any leftover file so
        stale outcomes from an abandoned run cannot leak in.
    """

    def __init__(self, path, resume=False):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if not resume and os.path.exists(path):
            os.remove(path)
        if resume:
            self._truncate_torn_tail()

    def _truncate_torn_tail(self):
        """Drop a partial trailing line left by a crashed append.

        Without this, the next append would butt against the torn fragment
        and fuse with it into one unparseable line, silently losing a
        *new* entry to the old crash.
        """
        try:
            with open(self.path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when no complete line survives
        with open(self.path, "r+b") as f:
            f.truncate(keep)

    # --------------------------------------------------------------- replay
    def replay(self):
        """Valid journal entries as ``{query_key: entry_dict}``.

        Skips unparseable lines, entries of a different format version,
        entries missing the load-bearing fields, and a trailing line
        without its newline (a write killed mid-append). Later entries
        for the same key supersede earlier ones.
        """
        entries = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, "rb") as f:
            for raw in f:
                if not raw.endswith(b"\n"):
                    break  # partial trailing write from a crashed run
                try:
                    entry = json.loads(raw)
                    if entry.get("version") != _FORMAT_VERSION:
                        continue
                    key = entry["key"]
                    float(entry["radius"])
                except (ValueError, KeyError, TypeError):
                    continue
                entries[key] = entry
        return entries

    # --------------------------------------------------------------- append
    def append(self, query, radius, seconds, perf, source,
               degraded=False, fallback_chain=(), fault=None):
        """Durably append one completed outcome (single fsync'd line)."""
        entry = {
            "version": _FORMAT_VERSION,
            "key": query.key(),
            "query": query.describe(),
            "radius": float(radius),
            "seconds": float(seconds),
            "perf": perf,
            "source": source,
            "degraded": bool(degraded),
            "fallback_chain": list(fallback_chain),
            "fault": fault,
        }
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        # One write() of one full line in append mode: POSIX appends are
        # atomic enough that a crash leaves at worst a truncated final
        # line, which replay() skips. fsync before returning makes the
        # entry durable the moment the query counts as "completed".
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, line.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
