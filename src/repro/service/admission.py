"""Admission control: token-bucket rate limits and load-shedding QoS.

Two independent gates stand between a submission and the execution queue:

* :class:`TokenBucket` — per-tenant request pacing. A bucket holds at most
  ``burst`` tokens, refills continuously at ``rate`` tokens/second, and a
  submission costs one token; an empty bucket is a typed 429. Time is an
  explicit parameter of every operation, so the refill law ("never more
  than ``burst + rate * elapsed`` grants in any window") is a provable
  property, not a wall-clock accident.

* :class:`AdmissionController` — queue-depth load shedding that reuses the
  PR-3 degradation ladder as a *quality-of-service* knob. Instead of a
  binary admit/reject, rising backlog degrades the work admitted:

      depth <  degrade_fast_at   admit as submitted           ("full")
      depth >= degrade_fast_at   precise/combined -> fast      ("fast")
      depth >= degrade_ibp_at    any verifier -> interval IBP  ("ibp")
      depth >= reject_at         typed 503, nothing enqueued

  :func:`~repro.scheduler.queries.degrade_query` rewrites the
  :class:`CertQuery` itself (new config / verifier ⇒ new sha256 key), so a
  degraded answer can never be cached or deduplicated under the
  full-precision key. Every rung is a
  sound verifier — degradation only loses certified radius, it never flips
  an uncertifiable query to certified — which is what makes "serve a
  looser answer" an acceptable overload response at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scheduler.queries import QOS_RUNGS, degrade_query, rung_for_query

__all__ = ["TokenBucket", "AdmissionController", "QOS_RUNGS",
           "degrade_query", "rung_for_query"]


class TokenBucket:
    """Continuous-refill token bucket (one token per admitted request).

    ``now`` is always caller-supplied (seconds, any monotonic origin) so
    tests can drive time explicitly; the server passes its event loop's
    monotonic clock.
    """

    def __init__(self, rate, burst, now=0.0):
        if rate < 0 or burst <= 0:
            raise ValueError("rate must be >= 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = float(now)

    def _refill(self, now):
        # Time never runs backwards for the bucket: a backwards-stepping
        # ``now`` (clock skew between callers, NTP jumps) clamps to a zero
        # elapsed delta — it can neither mint tokens nor drain them — and
        # the high-water mark is kept so the skewed interval is not
        # re-credited once the clock catches up.
        elapsed = max(0.0, float(now) - self._updated)
        if elapsed > 0.0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate)
        self._updated = max(self._updated, float(now))

    def tokens(self, now):
        """Current token balance at time ``now`` (refill applied)."""
        self._refill(now)
        return self._tokens

    def try_acquire(self, now):
        """Take one token; False when the bucket is empty."""
        self._refill(now)
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True


@dataclass(frozen=True)
class AdmissionController:
    """Maps execution-queue depth to a QoS decision.

    Thresholds are in *queued queries not yet executing*; they must be
    ordered ``degrade_fast_at <= degrade_ibp_at <= reject_at`` so load
    walks the ladder strictly downwards: full -> fast -> ibp -> reject.
    """

    degrade_fast_at: int = 8
    degrade_ibp_at: int = 16
    reject_at: int = 32

    def __post_init__(self):
        if not (0 < self.degrade_fast_at <= self.degrade_ibp_at
                <= self.reject_at):
            raise ValueError(
                "thresholds must satisfy 0 < degrade_fast_at <= "
                "degrade_ibp_at <= reject_at")

    def decide(self, depth):
        """QoS action for a submission arriving at queue depth ``depth``.

        Returns ``("reject", None)`` or ``("admit", rung)`` with ``rung``
        in :data:`QOS_RUNGS`.
        """
        if depth >= self.reject_at:
            return ("reject", None)
        if depth >= self.degrade_ibp_at:
            return ("admit", "ibp")
        if depth >= self.degrade_fast_at:
            return ("admit", "fast")
        return ("admit", "full")
