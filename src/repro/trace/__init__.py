"""The pipeline's one recorder: counters, gauges and certification spans.

One span per abstract-transformer application — layer index, op kind, wall
time, bound-tightness statistics (interval widths, φ vs ε error mass,
symbol counts around DecorrelateMin_k) — plus pipeline events (guard trips,
degradation-ladder hops, injected faults). The recorder (:data:`TRACER`)
also keeps the engine's event counters and peak gauges, which are always
on; spans are recorded only while tracing is enabled. It is
process-global and fork-safe; scheduler workers record their own queries
and the parent merges them in deterministic query-key order.

Emit traces with ``python -m repro.experiments ... --trace-dir DIR`` and
compare runs with ``python -m repro.trace diff A/ B/`` (non-zero exit on
bound-width or per-op time regressions).
"""

from .tracer import (CertTracer, TRACER, traced, merge_perf, write_jsonl,
                     read_jsonl)
from .diff import (load_spans, aggregate_spans, diff_aggregates,
                   diff_traces, DEFAULTS)

__all__ = [
    "CertTracer", "TRACER", "traced", "merge_perf", "write_jsonl",
    "read_jsonl", "load_spans", "aggregate_spans", "diff_aggregates",
    "diff_traces", "DEFAULTS",
]
