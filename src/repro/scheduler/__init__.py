"""Parallel certification scheduler with a persistent result cache.

The paper's protocol certifies a maximal radius per (sentence, position,
norm, verifier variant) by binary search — independent queries that this
package expands (:mod:`~repro.scheduler.queries`), fans across the
supervised worker pool (:mod:`~repro.scheduler.pool`, driven by
:mod:`~repro.scheduler.scheduler`), and memoizes on disk keyed by model
weights, corpus fingerprint and query config
(:mod:`~repro.scheduler.cache`). The experiment harness submits every
radius report through the process-wide default scheduler; ``python -m
repro.experiments --workers N [--cache]`` configures it from the CLI.
"""

from .queries import (CertQuery, model_weight_hash, corpus_fingerprint,
                      verifier_config_items, positions_for,
                      expand_word_queries)
from .cache import ResultCache, default_cache_dir
from .journal import RunJournal, default_journal_path
from .pool import DrainedRun, PoisonedQueryError, WorkerSupervisor
from .scheduler import QueryOutcome, CertScheduler, merge_outcome_perf
from .worker import execute_query

__all__ = [
    "CertQuery", "model_weight_hash", "corpus_fingerprint",
    "verifier_config_items", "positions_for", "expand_word_queries",
    "ResultCache", "default_cache_dir",
    "RunJournal", "default_journal_path",
    "WorkerSupervisor", "PoisonedQueryError", "DrainedRun",
    "QueryOutcome", "CertScheduler", "merge_outcome_perf",
    "execute_query",
    "get_default_scheduler", "set_default_scheduler", "configure",
]

_DEFAULT = None


def get_default_scheduler():
    """The process-wide scheduler the harness submits through.

    Defaults to serial in-process execution with no cache — exactly the
    classic single-core harness behaviour.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = CertScheduler(workers=0)
    return _DEFAULT


def set_default_scheduler(scheduler):
    """Replace the process-wide default scheduler; returns it.

    The replaced scheduler's worker fleet, if any, is stopped.
    """
    global _DEFAULT
    if _DEFAULT is not None and _DEFAULT is not scheduler:
        _DEFAULT.close()
    _DEFAULT = scheduler
    return scheduler


def configure(workers=0, cache_dir=None, journal_path=None, resume=False,
              lease_timeout=None, drain_timeout=30.0):
    """Install a fresh default scheduler from knob values; returns it.

    ``journal_path`` enables the crash-safe run journal there (``resume``
    keeps and replays an existing journal; otherwise a leftover file is
    truncated for a fresh run). ``resume`` alone journals at the default
    :func:`default_journal_path`. ``workers > 0`` runs misses on the
    leased, heartbeat-monitored :class:`WorkerSupervisor` fleet;
    ``lease_timeout`` / ``drain_timeout`` tune its liveness and
    graceful-drain deadlines.
    """
    journal = None
    if journal_path or resume:
        journal = RunJournal(journal_path or default_journal_path(),
                             resume=resume)
    return set_default_scheduler(CertScheduler(workers=workers,
                                               cache_dir=cache_dir,
                                               journal=journal,
                                               lease_timeout=lease_timeout,
                                               drain_timeout=drain_timeout))
