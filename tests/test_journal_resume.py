"""Tests for the crash-safe run journal: durable appends, tolerant replay,
and resume runs that recompute only un-journaled queries while reproducing
the uninterrupted run's radii bitwise."""

import json
import os

import pytest

from repro.scheduler import (CertQuery, CertScheduler, RunJournal,
                             expand_word_queries)
from repro.scheduler.journal import _FORMAT_VERSION
from repro.verify import FAST


def _query(position=1):
    return CertQuery(verifier="deept", model_hash="cafe",
                     corpus_fingerprint="f00d", sentence=(1, 2, 3),
                     position=position, p=2.0, config=())


class TestRunJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        query = _query()
        journal.append(query, 0.5, 1.25, {"counters": {"x": 1}},
                       "worker", degraded=True,
                       fallback_chain=("fast", "ibp"), fault="boom")
        entries = journal.replay()
        entry = entries[query.key()]
        assert entry["radius"] == 0.5
        assert entry["degraded"] is True
        assert entry["fallback_chain"] == ["fast", "ibp"]
        assert entry["fault"] == "boom"
        assert entry["perf"] == {"counters": {"x": 1}}

    def test_one_line_per_entry_last_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(str(path))
        query = _query()
        journal.append(query, 0.25, 1.0, None, "worker")
        journal.append(query, 0.5, 1.0, None, "inprocess")
        assert len(path.read_text().splitlines()) == 2
        assert journal.replay()[query.key()]["radius"] == 0.5

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(str(path))
        good, lost = _query(1), _query(2)
        journal.append(good, 0.5, 1.0, None, "worker")
        with open(path, "a") as f:
            f.write("{definitely not json}\n")
            f.write(json.dumps({"version": 999, "key": lost.key(),
                                "radius": 0.1}) + "\n")
            f.write(json.dumps({"version": _FORMAT_VERSION,
                                "key": lost.key()}) + "\n")
        entries = journal.replay()
        assert good.key() in entries
        assert lost.key() not in entries  # bad version / missing radius

    def test_partial_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(str(path))
        query = _query()
        journal.append(query, 0.5, 1.0, None, "worker")
        with open(path, "a") as f:
            f.write('{"version": 1, "key": "abc", "rad')  # killed mid-write
        entries = journal.replay()
        assert entries[query.key()]["radius"] == 0.5
        assert len(entries) == 1

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(str(path)).append(_query(), 0.5, 1.0, None, "worker")
        assert RunJournal(str(path), resume=True).replay()
        assert RunJournal(str(path), resume=False).replay() == {}
        assert not path.exists()

    def test_missing_file_replays_empty(self, tmp_path):
        assert RunJournal(str(tmp_path / "missing.jsonl"),
                          resume=True).replay() == {}


class TestSchedulerResume:
    @pytest.fixture(scope="class")
    def queries(self, tiny_model, tiny_sentence):
        return expand_word_queries(
            tiny_model, [tiny_sentence], 2.0, verifier="deept",
            config=FAST(noise_symbol_cap=64), n_positions=3,
            n_iterations=3)

    def test_journaled_run_then_full_resume(self, tiny_model, queries,
                                            tmp_path):
        path = str(tmp_path / "run.jsonl")
        first = CertScheduler(workers=0, journal=RunJournal(path))
        baseline = first.run(tiny_model, queries)
        assert first.last_stats["journal_hits"] == 0

        resumed = CertScheduler(workers=0,
                                journal=RunJournal(path, resume=True))
        outcomes = resumed.run(tiny_model, queries)
        assert [o.radius for o in outcomes] \
            == [o.radius for o in baseline]
        assert resumed.last_stats["journal_hits"] == len(queries)
        assert sum(resumed.last_stats["executed"].values()) == 0
        assert all(o.source == "journal" for o in outcomes)

    def test_resume_after_partial_run_recomputes_only_missing(
            self, tiny_model, queries, tmp_path):
        """Simulate a crash by truncating the journal to its first entry:
        resume must recompute exactly the lost queries and reproduce the
        uninterrupted radii bitwise."""
        serial = CertScheduler(workers=0).run(tiny_model, queries)

        path = str(tmp_path / "crashed.jsonl")
        CertScheduler(workers=0,
                      journal=RunJournal(path)).run(tiny_model, queries)
        lines = open(path).readlines()
        assert len(lines) == len(queries)
        with open(path, "w") as f:
            f.write(lines[0])          # the only query that "completed"
            f.write('{"version": 1, "tru')  # plus a torn final append

        resumed = CertScheduler(workers=0,
                                journal=RunJournal(path, resume=True))
        outcomes = resumed.run(tiny_model, queries)
        assert [o.radius for o in outcomes] \
            == [o.radius for o in serial]
        stats = resumed.last_stats
        assert stats["journal_hits"] == 1
        assert stats["executed"]["inprocess"] == len(queries) - 1
        # The recomputed entries were re-journaled: a second resume is
        # answered entirely from the journal.
        again = CertScheduler(workers=0,
                              journal=RunJournal(path, resume=True))
        assert all(o.source == "journal"
                   for o in again.run(tiny_model, queries))

    def test_journal_takes_precedence_over_cache(self, tiny_model, queries,
                                                 tmp_path):
        path = str(tmp_path / "run.jsonl")
        scheduler = CertScheduler(workers=0,
                                  cache_dir=str(tmp_path / "cache"),
                                  journal=RunJournal(path))
        scheduler.run(tiny_model, queries[:1])
        warm = CertScheduler(workers=0, cache_dir=str(tmp_path / "cache"),
                             journal=RunJournal(path, resume=True))
        outcomes = warm.run(tiny_model, queries[:1])
        assert outcomes[0].source == "journal"
        assert warm.last_stats["cache_hits"] == 0


class TestCliFlags:
    def test_resume_flag_parses_and_configures(self, tmp_path, monkeypatch):
        from repro.experiments.__main__ import _build_parser
        args = _build_parser().parse_args(
            ["1", "--resume", "--journal", str(tmp_path / "j.jsonl")])
        assert args.resume and args.journal.endswith("j.jsonl")

    def test_configure_builds_journal(self, tmp_path):
        from repro.scheduler import configure, get_default_scheduler, \
            set_default_scheduler
        previous = get_default_scheduler()
        try:
            scheduler = configure(journal_path=str(tmp_path / "j.jsonl"),
                                  resume=True)
            assert scheduler.journal is not None
            assert scheduler.journal.path.endswith("j.jsonl")
            assert configure().journal is None
        finally:
            set_default_scheduler(previous)
