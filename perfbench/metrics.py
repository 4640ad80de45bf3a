"""Metric arithmetic shared by run.py and the benchmark's tests.

Pure functions over plain lists and dicts; nothing here imports the
program under test.
"""

from __future__ import annotations

import math

# A percentile is reported only when at least this many samples lie
# beyond it, so a tail figure never rests on one or two slow requests.
TAIL_SAMPLES = 10


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_reportable_percentile(n, candidates=(99, 90, 50)):
    """The highest candidate percentile with >= TAIL_SAMPLES beyond it.

    Returns None when even the median has fewer than TAIL_SAMPLES samples
    above it.
    """
    for q in candidates:
        if n * (100 - q) / 100.0 >= TAIL_SAMPLES - 1e-9:
            return q
    return None


def latency_summary(latencies):
    """``latency_p50_s`` and, when the sample allows it, ``latency_p90_s``.

    The p90 needs >= 100 samples (ten beyond it); under that it is left
    out rather than reported from a handful of tail points.
    """
    out = {"latency_p50_s": percentile(latencies, 50)}
    top = highest_reportable_percentile(len(latencies), (90, 50))
    if top == 90:
        out["latency_p90_s"] = percentile(latencies, 90)
    return out


def radius_gmean(radii):
    """Geometric mean of the certified radii (all must be finite, > 0)."""
    if not radii:
        raise ValueError("radius_gmean of an empty sample")
    for radius in radii:
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius {radius!r} has no geometric mean")
    return math.exp(math.fsum(math.log(r) for r in radii) / len(radii))


def undegraded_share(answers, attempted):
    """Answers at the requested precision, over the queries attempted.

    ``answers`` holds one dict per *answered* query with ``status`` and
    ``degraded``; errors, refusals and timeouts are either absent (never
    answered) or carry a status other than ``"done"`` — all count as
    misses.
    """
    if attempted <= 0:
        raise ValueError("undegraded_share needs at least one attempt")
    good = sum(1 for a in answers
               if a.get("status") == "done" and not a.get("degraded"))
    return good / attempted
