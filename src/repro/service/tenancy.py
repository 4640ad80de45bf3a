"""Per-tenant state: rate-limit buckets and usage accounting.

Tenants are identified by the ``tenant`` field of a submission (default
``"anonymous"``). Each tenant gets its own :class:`TokenBucket`, created
lazily from its :class:`TenantPolicy` (a per-tenant override or the
registry default), plus monotonically increasing usage counters that the
``/metrics`` endpoint exposes per tenant. Unknown tenants are served under
the default policy rather than rejected — admission control, not
authentication, is this layer's job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admission import TokenBucket, check_bucket_parameters

__all__ = ["TenantPolicy", "TenantRegistry"]


@dataclass(frozen=True)
class TenantPolicy:
    """Rate-limit knobs for one tenant.

    ``rate`` is sustained submissions/second, ``burst`` the bucket
    capacity (short spikes above the sustained rate that are tolerated).
    """

    rate: float = 50.0
    burst: int = 20

    def __post_init__(self):
        # Checked here rather than when the lazily built bucket meets the
        # tenant's first submission, so a bad policy fails the service's
        # construction instead of answering every submission with a 500.
        check_bucket_parameters(self.rate, self.burst)


class TenantRegistry:
    """Lazily materialized per-tenant buckets and counters."""

    def __init__(self, default_policy=None, policies=None):
        self.default_policy = default_policy or TenantPolicy()
        self.policies = dict(policies or {})
        self._buckets = {}
        self._counters = {}

    def policy_for(self, tenant):
        return self.policies.get(tenant, self.default_policy)

    def _bucket_for(self, tenant, now):
        bucket = self._buckets.get(tenant)
        if bucket is None:
            policy = self.policy_for(tenant)
            bucket = TokenBucket(policy.rate, policy.burst, now=now)
            self._buckets[tenant] = bucket
        return bucket

    def try_acquire(self, tenant, now):
        """Charge one submission to ``tenant``; False = rate limited."""
        admitted = self._bucket_for(tenant, now).try_acquire(now)
        self.count(tenant, "submitted")
        if not admitted:
            self.count(tenant, "rate_limited")
        return admitted

    def count(self, tenant, event, k=1):
        """Bump a per-tenant usage counter (created on first use)."""
        counters = self._counters.setdefault(tenant, {})
        counters[event] = counters.get(event, 0) + k

    def snapshot(self, now):
        """Per-tenant metrics: counters plus the live token balance."""
        tenants = {}
        for tenant in sorted(set(self._counters) | set(self._buckets)):
            entry = dict(self._counters.get(tenant, {}))
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                entry["tokens"] = round(bucket.tokens(now), 3)
            tenants[tenant] = entry
        return tenants
