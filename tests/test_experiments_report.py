"""The benchmark report and its regression gates (``report --check``).

Every check reads the committed ``benchmarks/results`` files or a copy of
them in ``tmp_path``; each report is written to ``tmp_path``, so the
tracked ``REPORT.md`` is never rewritten.
"""

import json
import os
import shutil

import pytest

from repro.experiments.__main__ import main
from repro.experiments.report import (build_checks, default_results_dir,
                                      load_results, run_report)

GATED = ("resilience", "scheduler", "service", "pool", "trace")

# (results file, key, value): one failing value per gate; None deletes the
# key.
BREAKS = [
    ("resilience", "guard_overhead_fraction", 0.5),
    ("resilience", "radii_identical", None),
    ("resilience", "healthy_guard_trips", 1),
    ("scheduler", "radii_identical", False),
    ("scheduler", "warm_recomputed_queries", None),
    ("service", "hangs", 2),
    ("service", "rescue_resolved", None),
    ("pool", "worker_deaths", 2),
    ("pool", "zero_loss", None),
    ("pool", "deaths_accounted", False),
    ("trace", "disabled_overhead_fraction", 0.5),
    ("trace", "merge_deterministic", None),
]


def _copy_results(tmp_path):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    for key in GATED:
        name = f"BENCH_{key}.json"
        shutil.copy(os.path.join(default_results_dir(), name),
                    results_dir / name)
    return results_dir


class TestCommittedResults:
    def test_every_gate_passes(self, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert run_report(out=str(out), check=True) == 0
        assert "5 benchmark(s), 18/18 checks pass" in capsys.readouterr().out
        checks = build_checks(load_results())
        assert len(checks) == 18 and all(row["ok"] for row in checks)
        assert {row["benchmark"] for row in checks} == set(GATED)
        assert "Regression checks — 18/18 pass" in out.read_text()

    def test_empty_results_dir_checks_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "REPORT.md"
        assert run_report(results_dir=str(empty), out=str(out),
                          check=True) == 0
        assert "0 benchmark(s), 0/0 checks pass" in capsys.readouterr().out
        assert "No `BENCH_*.json` results found" in out.read_text()


class TestGates:
    # ``bench``, not ``benchmark``: pytest-benchmark owns that fixture name.
    @pytest.mark.parametrize("bench,key,value", BREAKS,
                             ids=[f"{b}-{k}" for b, k, _ in BREAKS])
    def test_one_bad_value_fails_its_gate(self, tmp_path, capsys, bench,
                                          key, value):
        results_dir = _copy_results(tmp_path)
        path = results_dir / f"BENCH_{bench}.json"
        data = json.loads(path.read_text())
        assert key in data
        if value is None:
            del data[key]
        else:
            data[key] = value
        path.write_text(json.dumps(data))

        failures = [row for row in build_checks(load_results(
            str(results_dir))) if not row["ok"]]
        assert len(failures) == 1
        assert failures[0]["benchmark"] == bench

        out = tmp_path / "REPORT.md"
        assert run_report(results_dir=str(results_dir), out=str(out),
                          check=True) == 1
        assert f"FAIL [{bench}]" in capsys.readouterr().out
        assert "**FAIL**" in out.read_text()
        # Without --check the same report is informational.
        assert run_report(results_dir=str(results_dir), out=str(out)) == 0


class TestTraceAndJournalSections:
    def test_sections_render_through_the_cli(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        spans = [{"op": "relu", "layer": 0, "seconds": 0.01},
                 {"op": "softmax", "layer": 1, "seconds": 0.02}]
        (trace_dir / "table1.jsonl").write_text(
            "".join(json.dumps(span) + "\n" for span in spans))
        journal = tmp_path / "journal.jsonl"
        records = [{"key": "a", "radius": 0.1, "source": "computed",
                    "degraded": False},
                   {"key": "b", "radius": 0.0, "source": "computed",
                    "degraded": True}]
        journal.write_text(
            "".join(json.dumps(record) + "\n" for record in records))
        out = tmp_path / "REPORT.md"

        code = main(["report", "--check", "--results-dir",
                     str(_copy_results(tmp_path)), "--report-out", str(out),
                     "--trace-dir", str(trace_dir), "--journal",
                     str(journal)])
        assert code == 0
        assert "18/18 checks pass" in capsys.readouterr().out
        text = out.read_text()
        assert "## Certification traces" in text
        assert "| table1.jsonl | 2 | 2 |" in text
        assert "## Run journal" in text
        assert (f"`{journal}` — 2 outcomes (computed: 2); 1 degraded."
                in text)
