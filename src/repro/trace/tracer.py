"""The recorder: counters, gauges and spans of the certification pipeline.

:class:`CertTracer` is one process-global singleton (:data:`TRACER`) that
every pipeline hook reports into:

* **counters** — ``TRACER.count("eps_rows_materialized", k)`` tallies
  discrete events (eps materializations, buffer reallocations, guard
  trips, degradations, binary-search probes);
* **gauges** — ``TRACER.gauge_max("peak_eps_rows", n)`` keeps running
  maxima (the peak eps-symbol count of a propagation);
* **spans** — one structured record per abstract-transformer
  application, described below.

Counters and gauges are always on: each is one dict update. Spans are
recorded only while tracing is enabled (``TRACER.enable()`` or ``with
TRACER.collecting():``); when it is off, a span site pays two trivial
calls (:meth:`CertTracer.start` returns None and
:meth:`CertTracer.finish` returns at once).

:meth:`CertTracer.query_scope` is the per-query unit: it hands the caller
one query's spans, counters and gauges and restores the outer ones, which
is how a scheduler worker ships a query's record back (the serial path
takes the same code). ``events`` is a monotone count of every count and
span: a worker's heartbeat reports it as its liveness signal.

Fork safety: a forked scheduler worker starts from an empty recorder
(``os.register_at_fork``) but keeps the parent's enabled flag, so
worker-side propagations are traced whenever the parent traces.

A *span* is a plain JSON-serializable dict with the fields

``query``      sha256 key of the owning CertQuery (None outside the
               scheduler),
``layer``      transformer-layer index the op ran in (``n_layers`` marks
               the classifier head, None outside a propagation),
``op``         op kind: ``affine``, ``relu``, ``tanh``, ``exp``,
               ``reciprocal``, ``rsqrt``, ``sigmoid``, ``gelu``,
               ``dot-fast``, ``dot-precise``, ``multiply-*``, ``softmax``,
               ``softmax-sum-refine``, ``reduce`` — or an *event* kind:
               ``guard-trip``, ``degradation-hop``, ``fault-injected``,
``seconds``    wall time of the application (0.0 for events),
``width_mean`` / ``width_max``
               mean/max concrete interval width of the output zonotope
               (Theorem 1 bounds; may be ``inf`` after overflow),
``phi_mass``   total ℓq dual-norm mass of the phi block,
``eps_mass``   total ℓ1 mass of the eps block (the ε error mass),
``n_phi`` / ``n_eps``
               symbol counts of the output,
``eps_before`` input eps-symbol count (``reduce`` spans only; ``n_eps`` is
               the count after DecorrelateMin_k).

Events carry ``op``/``layer``/``query`` plus event-specific fields
(``stage``/``detail`` for guard trips, ``rung``/``fault`` for degradation
hops, ``kind`` for injected faults) and no zonotope statistics.

Recording never mutates a zonotope: statistics are read through the
tail-aware :meth:`~repro.zonotope.multinorm.MultiNormZonotope.bounds` and
``eps_l1`` queries, so a traced propagation is bitwise identical to an
untraced one.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

__all__ = ["CertTracer", "TRACER", "traced", "merge_perf", "write_jsonl",
           "read_jsonl"]


class CertTracer:
    """Process-global recorder for the certification pipeline."""

    def __init__(self):
        self.enabled = False
        self.events = 0
        self.reset()

    def reset(self):
        """Drop all recorded spans, counters and gauges (the enabled flag
        and the ``events`` liveness count are unchanged)."""
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self._layer = None
        self._query = None

    # ------------------------------------------------------------- lifecycle
    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    @contextmanager
    def collecting(self, reset=True):
        """Enable tracing for a scope, restoring the prior state after."""
        previous = self.enabled
        if reset:
            self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous

    # --------------------------------------------------------------- context
    @contextmanager
    def layer_scope(self, index):
        """Attribute spans recorded in this scope to layer ``index``."""
        if not self.enabled:
            yield
            return
        previous = self._layer
        self._layer = index
        try:
            yield
        finally:
            self._layer = previous

    @contextmanager
    def query_scope(self, key):
        """Record one query on its own and hand the record to the caller.

        Yields a dict that is filled *at scope exit* with ``spans`` (every
        span recorded inside the scope, attributed to ``key``) and
        ``perf`` (the scope's counters and gauges, see
        :meth:`perf_snapshot`). The outer spans, counters and gauges are
        restored untouched. This is how a scheduler worker (or the serial
        in-process path — deliberately the same code path, so serial and
        parallel runs produce identical records) ships a query's record
        back to the parent, which re-absorbs all traces in deterministic
        query-key order.
        """
        record = {}
        outer = (self._query, self.spans, self.counters, self.gauges)
        self._query = key
        self.spans, self.counters, self.gauges = [], {}, {}
        try:
            yield record
        finally:
            record["spans"] = self.spans
            record["perf"] = self.perf_snapshot()
            self._query, self.spans, self.counters, self.gauges = outer

    # ------------------------------------------------------------- recording
    def count(self, name, k=1):
        """Add ``k`` to the event counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + k
        self.events += 1

    def gauge_max(self, name, value):
        """Keep the running maximum of gauge ``name``."""
        previous = self.gauges.get(name)
        if previous is None or value > previous:
            self.gauges[name] = value

    def start(self):
        """Open an op span: its start time, or None while tracing is off."""
        return time.perf_counter() if self.enabled else None

    def finish(self, started, op, zonotope, **extra):
        """Record the op span :meth:`start` opened (nothing if it did not)."""
        if started is not None:
            self.record_op(op, zonotope, time.perf_counter() - started,
                           **extra)

    def record_op(self, op, zonotope, seconds, **extra):
        """Record one abstract-transformer application producing
        ``zonotope``."""
        if not self.enabled:
            return
        span = {"query": self._query, "layer": self._layer, "op": op,
                "seconds": float(seconds)}
        span.update(_zonotope_stats(zonotope))
        span.update(extra)
        self.spans.append(span)
        self.events += 1

    def record_event(self, op, **fields):
        """Record a zero-duration pipeline event (guard trip, ladder hop,
        injected fault)."""
        if not self.enabled:
            return
        span = {"query": self._query, "layer": self._layer, "op": op,
                "seconds": 0.0}
        span.update(fields)
        self.spans.append(span)
        self.events += 1

    # ----------------------------------------------------------- aggregation
    def absorb(self, spans):
        """Fold already-recorded spans (e.g. shipped back from a scheduler
        worker) into this tracer. This is bookkeeping over recorded data
        and bypasses the ``enabled`` gate — callers gate on
        ``TRACER.enabled`` themselves."""
        self.spans.extend(dict(span) for span in spans)

    def snapshot(self):
        """A copy of every recorded span (list of plain dicts)."""
        return [dict(span) for span in self.spans]

    def perf_snapshot(self):
        """The counters and gauges as a JSON-serializable dict."""
        return {"counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items()))}


def merge_perf(snapshots):
    """Fold :meth:`CertTracer.perf_snapshot` dicts into one.

    Counters add and gauges keep the maximum; any other key (the
    ``stages`` of entries written by older versions) is ignored.
    ``None`` entries are skipped.
    """
    counters, gauges = {}, {}
    for snapshot in filter(None, snapshots):
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
    return {"counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items()))}


def _zonotope_stats(z):
    """Bound-tightness statistics of a zonotope, without mutating it.

    ``bounds()`` and ``eps_l1()`` are tail-aware pure queries; the lazy eps
    tail is never materialized for the sake of a span.
    """
    import numpy as np

    from ..zonotope.multinorm import norm_along_axis0

    lower, upper = z.bounds()
    width = upper - lower
    return {
        "width_mean": float(np.mean(width)),
        "width_max": float(np.max(width, initial=0.0)),
        "phi_mass": float(norm_along_axis0(z.phi, z.q).sum())
        if z.n_phi else 0.0,
        "eps_mass": float(z.eps_l1().sum()) if z.n_eps else 0.0,
        "n_phi": int(z.n_phi),
        "n_eps": int(z.n_eps),
    }


def traced(op):
    """Decorator tracing a zonotope-in/zonotope-out abstract transformer."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = TRACER.start()
            out = fn(*args, **kwargs)
            TRACER.finish(started, op, out)
            return out
        return wrapper
    return decorate


# ------------------------------------------------------------------ JSONL IO
def write_jsonl(spans, path, append=False):
    """Write (or append) spans to ``path``, one JSON object per line."""
    with open(path, "a" if append else "w") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")


def read_jsonl(path):
    """Read a span list written by :func:`write_jsonl`."""
    spans = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


TRACER = CertTracer()
"""The process-global recorder every pipeline hook reports into."""

# Fork safety: a forked scheduler worker starts from an empty recorder —
# but keeps the parent's enabled flag, so worker-side propagations are
# traced whenever the parent traces — and ships each query's record back
# through execute_query for the parent to merge.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=TRACER.reset)
