"""Join benchmark results into one markdown report with regression gates.

``python -m repro.experiments report`` scans ``benchmarks/results`` for
``BENCH_*.json`` files, optionally folds in certification-trace JSONL
files and a run journal, and renders ``REPORT.md``: a headline table per
benchmark, a trend row per results file, and a regression-check table.
With ``--check`` the exit code turns nonzero when any regression gate
fails, so CI can run the report as a quality bar:

* resilience    — guard overhead under budget, healthy runs untouched;
* scheduler     — radii identical across serial/parallel/warm, warm
                  cache recomputes nothing;
* service       — the concurrency soak: zero hung requests, radii
                  identical to serial execution, in-flight dedup actually
                  observed, injected faults resolved degraded-or-error;
* pool          — the supervised-pool crash soak: zero hangs, radii
                  bitwise identical to serial for non-poisoned queries,
                  every injected worker death requeued or poisoned, the
                  poison answered only from the IBP floor under its
                  rewritten key, zero queries lost across a mid-soak
                  SIGTERM drain plus ``--resume`` restart;
* trace         — disabled-tracer overhead under budget, deterministic
                  merge.

Missing results files are reported but never fail the check: a partial
checkout (e.g. CI running only the quick benches) still gets a report
covering what exists.
"""

from __future__ import annotations

import json
import os

__all__ = ["load_results", "build_checks", "render_markdown", "run_report"]


def _repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.abspath(os.path.join(here, "..", "..", ".."))


def default_results_dir():
    return os.path.join(_repo_root(), "benchmarks", "results")


def load_results(results_dir=None):
    """All ``BENCH_*.json`` files in ``results_dir``, keyed by suffix."""
    results_dir = results_dir or default_results_dir()
    results = {}
    if not os.path.isdir(results_dir):
        return results
    for name in sorted(os.listdir(results_dir)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            key = name[len("BENCH_"):-len(".json")]
            with open(os.path.join(results_dir, name)) as f:
                results[key] = json.load(f)
    return results


def _check(rows, benchmark, label, ok, value):
    rows.append({"benchmark": benchmark, "check": label,
                 "value": value, "ok": bool(ok)})


def build_checks(results):
    """Regression gates over whichever results files exist."""
    rows = []
    resilience = results.get("resilience")
    if resilience:
        overhead = resilience.get("guard_overhead_fraction", 1.0)
        budget = resilience.get("guard_overhead_budget", 0.05)
        _check(rows, "resilience", f"guard overhead < {budget:.0%}",
               overhead < budget, f"{overhead:+.1%}")
        _check(rows, "resilience", "healthy radii identical to unguarded",
               resilience.get("radii_identical"),
               str(resilience.get("radii_identical")))
        for key in ("healthy_degradations", "healthy_guard_trips"):
            count = resilience.get(key, -1)
            _check(rows, "resilience", f"{key} == 0", count == 0,
                   str(count))

    scheduler = results.get("scheduler")
    if scheduler:
        _check(rows, "scheduler", "radii identical (serial/parallel/warm)",
               scheduler.get("radii_identical"),
               str(scheduler.get("radii_identical")))
        recomputed = scheduler.get("warm_recomputed_queries", -1)
        _check(rows, "scheduler", "warm cache recomputes nothing",
               recomputed == 0, str(recomputed))
        if scheduler.get("speedup_asserted"):
            speedup = scheduler.get("speedup", 0.0)
            _check(rows, "scheduler", "pool speedup >= 1.5x",
                   speedup >= 1.5, f"{speedup:.2f}x")

    service = results.get("service")
    if service:
        hangs = service.get("hangs", -1)
        _check(rows, "service", "no request hangs past its timeout",
               hangs == 0, str(hangs))
        _check(rows, "service", "radii identical to serial execution",
               service.get("radii_identical"),
               str(service.get("radii_identical")))
        dedup = service.get("dedup_hits", 0) + service.get("result_hits", 0)
        _check(rows, "service", "in-flight dedup observed", dedup > 0,
               str(dedup))
        _check(rows, "service", "injected fault resolved degraded-or-error",
               service.get("rescue_resolved"),
               str(service.get("rescue_status")))

    pool = results.get("pool")
    if pool:
        hangs = pool.get("hangs", -1)
        _check(rows, "pool", "no hangs (both phases met their deadlines)",
               hangs == 0, str(hangs))
        _check(rows, "pool", "non-poisoned radii bitwise identical to "
               "serial", pool.get("radii_identical"),
               str(pool.get("radii_identical")))
        deaths = pool.get("worker_deaths", 0)
        _check(rows, "pool", "injected worker deaths >= 3", deaths >= 3,
               str(deaths))
        _check(rows, "pool", "every injected death requeued or poisoned",
               pool.get("deaths_accounted"),
               f"{pool.get('lease_deaths')} deaths = "
               f"{pool.get('requeued_leases')} requeued + "
               f"{pool.get('poisoned_queries')} poisoned")
        _check(rows, "pool", "poison answered only from the IBP floor "
               "under its rewritten key", pool.get("poison_quarantined"),
               str(pool.get("poison_quarantined")))
        _check(rows, "pool", "zero queries lost across drain + --resume",
               pool.get("zero_loss"), str(pool.get("zero_loss")))

    trace = results.get("trace")
    if trace:
        overhead = trace.get("disabled_overhead_fraction", 1.0)
        budget = trace.get("overhead_budget", 0.05)
        _check(rows, "trace", f"disabled-tracer overhead < {budget:.0%}",
               overhead < budget, f"{overhead:+.1%}")
        _check(rows, "trace", "trace merge deterministic",
               trace.get("merge_deterministic"),
               str(trace.get("merge_deterministic")))
    return rows


def _headline(key, data):
    if key == "resilience":
        return (f"guard overhead "
                f"{data.get('guard_overhead_fraction', 0):+.1%}")
    if key == "scheduler":
        return f"fork {data.get('speedup', 0):.2f}x vs serial"
    if key == "service":
        return (f"{data.get('n_queries', 0)} queries / "
                f"{data.get('n_tenants', 0)} tenants, "
                f"{data.get('hangs', '?')} hangs, p95 "
                f"{data.get('latency_p95', 0):.2f}s, "
                f"dedup {data.get('dedup_hits', 0)}")
    if key == "pool":
        return (f"{data.get('n_queries', 0)} queries, "
                f"{data.get('worker_deaths', 0)} deaths -> "
                f"{data.get('requeued_leases', 0)} requeued / "
                f"{data.get('poisoned_queries', 0)} poisoned, "
                f"{data.get('hangs', '?')} hangs, drain "
                f"{(data.get('drain') or {}).get('drain_seconds') or 0:.2f}s")
    if key == "trace":
        return (f"disabled overhead "
                f"{data.get('disabled_overhead_fraction', 0):+.1%}, "
                f"{data.get('spans_per_propagation', 0)} spans/propagation")
    return data.get("benchmark", key)


def summarize_traces(trace_dir):
    """Per-file span counts for the JSONL traces in ``trace_dir``."""
    rows = []
    if not trace_dir or not os.path.isdir(trace_dir):
        return rows
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(trace_dir, name)
        spans = 0
        layers = set()
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                spans += 1
                try:
                    layers.add(json.loads(line).get("layer"))
                except json.JSONDecodeError:
                    pass
        rows.append({"file": name, "spans": spans,
                     "layers": len(layers - {None})})
    return rows


def summarize_journal(path):
    """Outcome counts for a crash-safe run journal, if one exists."""
    if not path or not os.path.isfile(path):
        return None
    entries = 0
    degraded = 0
    sources = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            entries += 1
            degraded += bool(record.get("degraded"))
            source = record.get("source", "?")
            sources[source] = sources.get(source, 0) + 1
    return {"path": path, "entries": entries, "degraded": degraded,
            "sources": sources}


def render_markdown(results, checks, traces=None, journal=None):
    lines = ["# Benchmark report", ""]
    if not results:
        lines += ["No `BENCH_*.json` results found — run the benchmarks "
                  "first.", ""]

    if results:
        lines += ["## Trend", "",
                  "| benchmark | headline | mode | timestamp |",
                  "|---|---|---|---|"]
        for key, data in sorted(results.items()):
            mode = "quick" if data.get("quick") else "full"
            lines.append(f"| {key} | {_headline(key, data)} | {mode} "
                         f"| {data.get('timestamp', '?')} |")
        lines.append("")

    if checks:
        failures = [row for row in checks if not row["ok"]]
        lines += [f"## Regression checks — "
                  f"{len(checks) - len(failures)}/{len(checks)} pass", "",
                  "| benchmark | check | value | status |",
                  "|---|---|---|---|"]
        for row in checks:
            status = "ok" if row["ok"] else "**FAIL**"
            lines.append(f"| {row['benchmark']} | {row['check']} "
                         f"| {row['value']} | {status} |")
        lines.append("")

    if traces:
        lines += ["## Certification traces", "",
                  "| trace | spans | layers |", "|---|---|---|"]
        for row in traces:
            lines.append(f"| {row['file']} | {row['spans']} "
                         f"| {row['layers']} |")
        lines.append("")

    if journal:
        sources = ", ".join(f"{name}: {count}" for name, count
                            in sorted(journal["sources"].items()))
        lines += ["## Run journal", "",
                  f"`{journal['path']}` — {journal['entries']} outcomes "
                  f"({sources}); {journal['degraded']} degraded.", ""]
    return "\n".join(lines)


def run_report(results_dir=None, out=None, check=False, trace_dir=None,
               journal_path=None):
    """Build the report; returns a process exit code (for ``--check``)."""
    results = load_results(results_dir)
    checks = build_checks(results)
    traces = summarize_traces(trace_dir)
    journal = summarize_journal(journal_path)
    markdown = render_markdown(results, checks, traces, journal)

    out = out or os.path.join(_repo_root(), "REPORT.md")
    with open(out, "w") as f:
        f.write(markdown + "\n")

    failures = [row for row in checks if not row["ok"]]
    print(f"report: {len(results)} benchmark(s), "
          f"{len(checks) - len(failures)}/{len(checks)} checks pass "
          f"-> {out}")
    for row in failures:
        print(f"  FAIL [{row['benchmark']}] {row['check']} "
              f"(got {row['value']})")
    if check and failures:
        return 1
    return 0
