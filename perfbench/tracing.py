"""Per-layer tracing for the benchmark's traced runs.

The benchmark times the program's layers from the outside: it replaces
public functions of ``repro.zonotope``, ``repro.verify`` and
``repro.scheduler`` with wrappers that record one span per call, under
the name each caller looks the function up by (``repro.verify.propagation``
imports ``zonotope_matmul``, ``softmax`` and ``reduce_noise_symbols`` by
name, so those names are patched in that module, not in
``repro.zonotope``). Nothing under ``src/`` is changed.

A span is a dict with ``id``, ``name``, ``start``/``end``
(``time.perf_counter`` of its process), the ``parent`` span open in the
same thread, and ``request`` — the query key, inherited from the
enclosing ``scheduler.execute`` span. Spans stay in memory;
:meth:`SpanRecorder.flush` appends them to a JSONL file. Pool workers
leave through ``os._exit``, which skips every exit hook, so the wrapper
around ``execute_query`` flushes a worker's spans after each query.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import threading
import time

from metrics import percentile

# Span names whose self time is a per-layer metric ("<name>.self_s").
SELF_TIME_SPANS = (
    "zonotope.matmul_precise", "zonotope.matmul_fast", "zonotope.softmax",
    "zonotope.refine", "zonotope.reduce", "zonotope.elementwise",
    "zonotope.layer_norm", "verify.propagate", "verify.guard",
    "scheduler.execute",
)


class SpanRecorder:
    """In-memory span store for one process (thread-aware parents)."""

    def __init__(self):
        self.spans = []
        self.owner_pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._count = 0

    def open(self, name, request=None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._count += 1
            span_id = f"{os.getpid()}-{self._count}"
        span = {"id": span_id, "name": name,
                "parent": parent["id"] if parent else None,
                "request": request if request is not None
                else (parent["request"] if parent else None),
                "start": time.perf_counter(), "end": None}
        span.update(attrs)
        stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def flush(self, path):
        """Append every recorded span to ``path`` and forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            with open(path, "a") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def wrap(recorder, owner, attr, name, request=None, after=None):
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``name`` is a span name or a function of the call's arguments;
    ``request`` optionally derives the request id from the arguments;
    ``after(span, args, result)`` annotates the span once the call
    returned.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        span = recorder.open(name(args, kwargs) if callable(name) else name,
                             request=request(args) if request else None)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", attr)
    setattr(owner, attr, wrapper)


def _matmul_name(args, kwargs):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    variant = getattr(config, "variant", "fast")
    return f"zonotope.matmul_{variant}"


def install(recorder, worker_span_dir=None):
    """Wrap the layers' public functions; call before any pool forks.

    ``worker_span_dir``: where a process other than the recorder's owner
    (a forked pool worker) flushes its spans after each query.
    """
    from repro.scheduler import cache, journal, pool, scheduler, worker
    from repro.verify import propagation, verifier
    from repro.zonotope import refinement
    # The package re-exports the function under the module's name.
    softmax_module = importlib.import_module("repro.zonotope.softmax")

    # zonotope: the abstract transformers, under their callers' names.
    wrap(recorder, propagation, "zonotope_matmul", _matmul_name)
    wrap(recorder, propagation, "zonotope_softmax", "zonotope.softmax")
    wrap(recorder, refinement, "refine_softmax_rows", "zonotope.refine")
    wrap(recorder, propagation, "reduce_noise_symbols", "zonotope.reduce")
    wrap(recorder, propagation, "fused_layer_norm", "zonotope.layer_norm")
    for owner, attr in ((softmax_module, "exp"),
                        (softmax_module, "reciprocal"),
                        (propagation, "relu"), (propagation, "tanh")):
        wrap(recorder, owner, attr, "zonotope.elementwise")

    # verify: one probe per certify call, the propagation, the guards.
    def probe_done(span, args, result):
        span["degraded"] = bool(getattr(result, "degraded", False))

    wrap(recorder, verifier.DeepTVerifier, "certify_word_perturbation",
         "verify.probe", after=probe_done)
    wrap(recorder, verifier, "propagate_classifier", "verify.propagate")
    wrap(recorder, propagation, "check_zonotope", "verify.guard")

    # scheduler: query execution (serial path and pool workers), leases,
    # result cache and run journal.
    def executed(span, args, result):
        _, _, perf, _ = result
        perf = perf or {}
        span["eps_rows_materialized"] = \
            perf.get("counters", {}).get("eps_rows_materialized", 0)
        span["peak_eps_rows"] = perf.get("gauges", {}).get("peak_eps_rows",
                                                          0)
        if worker_span_dir and os.getpid() != recorder.owner_pid:
            recorder.flush(os.path.join(worker_span_dir,
                                        f"spans-{os.getpid()}.jsonl"))

    def query_key(args):
        return args[1].key()

    wrap(recorder, scheduler, "execute_query", "scheduler.execute",
         request=query_key, after=executed)
    wrap(recorder, worker, "execute_query", "scheduler.execute",
         request=query_key, after=executed)

    def leased(span, args, results):
        span["exec_seconds"] = sum(result.seconds for result in results)

    wrap(recorder, pool.WorkerSupervisor, "run_batch", "scheduler.lease",
         request=lambda args: args[1][0].key(), after=leased)
    wrap(recorder, cache.ResultCache, "get", "scheduler.cache_get",
         request=query_key)
    wrap(recorder, cache.ResultCache, "put", "scheduler.cache_put",
         request=query_key)
    wrap(recorder, journal.RunJournal, "append", "scheduler.journal_append",
         request=query_key)


def read_spans(directory):
    """Every span flushed to ``spans-*.jsonl`` files in ``directory``."""
    spans = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as handle:
                spans.extend(json.loads(line) for line in handle if line)
    return spans


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def layer_metrics(spans):
    """The zonotope / verify / scheduler per-layer metrics of a run."""
    own = self_times(spans)
    by_name = collections.defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name[name]]

    def p50(name):
        values = durations(name)
        return percentile(values, 50) if values else 0.0

    out = {f"{name}.self_s": sum(own[s["id"]] for s in by_name[name])
           for name in SELF_TIME_SPANS}
    out["zonotope.matmul_precise.calls"] = \
        len(by_name["zonotope.matmul_precise"])
    executed = by_name["scheduler.execute"]
    out["zonotope.eps_rows_materialized"] = sum(
        s.get("eps_rows_materialized", 0) for s in executed)
    out["zonotope.peak_eps_rows"] = max(
        (s.get("peak_eps_rows", 0) for s in executed), default=0)
    probes = by_name["verify.probe"]
    out["verify.probes_per_query"] = \
        len(probes) / len(executed) if executed else 0.0
    out["verify.s_per_probe"] = \
        sum(durations("verify.probe")) / len(probes) if probes else 0.0
    out["verify.degraded_probes"] = sum(1 for s in probes
                                        if s.get("degraded"))
    overheads = [s["end"] - s["start"] - s["exec_seconds"]
                 for s in by_name["scheduler.lease"]]
    out["scheduler.lease_overhead_p50_s"] = \
        percentile(overheads, 50) if overheads else 0.0
    out["scheduler.cache_get_p50_s"] = p50("scheduler.cache_get")
    out["scheduler.cache_put_p50_s"] = p50("scheduler.cache_put")
    out["scheduler.journal_append_p50_s"] = p50("scheduler.journal_append")
    for phase in ("import", "model_load", "pool_ready"):
        out[f"setup.{phase}_s"] = sum(durations(f"setup.{phase}"))
    return out
