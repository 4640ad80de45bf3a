"""Lightweight performance instrumentation for the verification engine.

The propagation engine is a long pipeline of numpy kernels whose cost is
dominated by a handful of structural events: dense materializations of the
lazily-kept eps tails, reallocations of the growth buffer, and the per-stage
matmul work inside attention.  This module provides a process-global
:class:`PerfRecorder` that the zonotope storage layer, the verifier and the
experiment harness all report into:

* **stage timers** — ``with PERF.stage("attention"): ...`` accumulates wall
  time and call counts per named stage;
* **counters** — ``PERF.count("eps_materializations")`` tallies discrete
  events (materializations, buffer reallocations, tail appends);
* **gauges** — ``PERF.gauge_max("peak_eps_rows", n)`` keeps running maxima
  (peak noise-symbol count of a propagation).

Recording is off by default and every hook is a cheap attribute check when
disabled, so instrumented hot paths pay (almost) nothing in production.
Enable explicitly (``PERF.enable()``) or scoped (``with PERF.collecting():``
— the idiom used by the experiment harness and the engine benchmark).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["PerfRecorder", "PERF"]


class PerfRecorder:
    """Accumulates stage timings, event counters and running maxima."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self):
        """Drop all recorded data (the enabled flag is unchanged)."""
        self.stage_seconds = defaultdict(float)
        self.stage_calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.gauges = {}

    # ------------------------------------------------------------- recording
    @contextmanager
    def stage(self, name):
        """Time a named pipeline stage (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] += time.perf_counter() - start
            self.stage_calls[name] += 1

    def count(self, name, k=1):
        """Add ``k`` to the event counter ``name``."""
        if self.enabled:
            self.counters[name] += k

    def gauge_max(self, name, value):
        """Keep the running maximum of gauge ``name``."""
        if self.enabled:
            previous = self.gauges.get(name)
            if previous is None or value > previous:
                self.gauges[name] = value

    # ------------------------------------------------------------- lifecycle
    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    @contextmanager
    def collecting(self, reset=True):
        """Enable recording for a scope, restoring the prior state after.

        With ``reset=True`` (default) previously recorded data is dropped so
        the snapshot taken at scope exit covers exactly the scoped work.
        """
        previous = self.enabled
        if reset:
            self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous

    # ----------------------------------------------------------- aggregation
    def merge(self, snapshot):
        """Fold a :meth:`snapshot` dict into this recorder.

        Stage seconds/call counts and event counters add; gauges keep the
        running maximum. Aggregation bypasses the ``enabled`` gate — it is
        bookkeeping over already-recorded data (e.g. snapshots shipped back
        from scheduler worker processes), not new instrumentation.
        """
        for name, entry in snapshot.get("stages", {}).items():
            self.stage_seconds[name] += float(entry["seconds"])
            self.stage_calls[name] += int(entry["calls"])
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] += value
        for name, value in snapshot.get("gauges", {}).items():
            previous = self.gauges.get(name)
            if previous is None or value > previous:
                self.gauges[name] = value
        return self

    # ------------------------------------------------------------- reporting
    def snapshot(self):
        """A plain-dict copy of everything recorded (JSON-serializable)."""
        return {
            "stages": {
                name: {"seconds": self.stage_seconds[name],
                       "calls": self.stage_calls[name]}
                for name in sorted(self.stage_seconds)
            },
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def report_lines(self):
        """Human-readable one-line-per-entry summary of the snapshot."""
        lines = []
        for name in sorted(self.stage_seconds):
            lines.append(f"  stage {name:<20} {self.stage_seconds[name]:8.3f}s"
                         f"  ({self.stage_calls[name]} calls)")
        for name, value in sorted(self.counters.items()):
            lines.append(f"  count {name:<20} {value}")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"  peak  {name:<20} {value}")
        return lines


PERF = PerfRecorder()
"""The process-global recorder every engine hook reports into."""

# Fork safety: a forked worker (the certification scheduler's pool) must not
# inherit the parent's half-recorded data — each child starts from a clean
# recorder and ships its own snapshots back for the parent to merge().
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=PERF.reset)
