"""Deterministic fault injection for the certification pipeline.

Chaos harness for the resilience layers: a seeded, reproducible injector
that can corrupt intermediate zonotopes (NaN / Inf / overscaled
coefficients entering a chosen layer), kill or stall supervised-pool
workers at query start, and crash or garble
:class:`~repro.scheduler.cache.ResultCache` shard writes.
Production code carries only cheap hook calls (a ``None`` check when no
plan is active); the faults themselves live here, behind a
:class:`FaultPlan`.

Activation is either programmatic (tests)::

    with install_fault_plan(FaultPlan(kind="nan", layer=1)):
        verifier.certify_region(region, label)   # degrades, never crashes

or environmental, so scheduler *worker processes* and CLI smoke runs are
exercised without any test-only code in the production paths::

    REPRO_FAULT_PLAN='{"kind": "kill-worker"}' \
        python -m repro.experiments 1 --workers 2

Fault kinds
-----------
``nan`` / ``inf``   poison one seeded-random center entry of the zonotope
                    entering layer ``layer``.
``overscale``       multiply that zonotope's affine form by 1e200 so
                    downstream products overflow to Inf (the realistic
                    slow-blowup path — guards trip later, not at the
                    injection site).
``kill-worker``     ``os._exit`` a pool worker at lease start (the
                    supervisor requeues the lease, and quarantines a query
                    that keeps killing workers to the IBP floor); with no
                    worker process (the fleet of none), raise
                    :class:`InjectedWorkerDeath` instead.
``stall``           sleep ``stall_seconds`` at query start (forces the
                    lease deadline or the service's query timeout).
``cache-kill``      ``os._exit`` between a cache shard's temp-file write
                    and its atomic rename (a crashed writer mid-commit).
``cache-garble``    truncate the shard file right after a successful
                    commit (disk corruption; the next read must recover).
``heartbeat-suppress``  a supervised-pool worker executes its lease but
                    suppresses *every* outgoing message — heartbeats and
                    the result alike (a network partition in miniature);
                    the supervisor must detect the silence, kill the
                    worker and requeue the lease.
``boot-kill``       a freshly spawned supervised-pool worker ``os._exit``s
                    before its first lease (a respawn storm; the
                    supervisor's exponential backoff and dead-slot
                    accounting must keep the run live).

Supervised-pool faults are *parent-side directives*: the supervisor asks
:func:`fault_lease_directives` / :func:`fault_spawn_directive` in its own
process and ships the resulting instruction to the worker inside the
lease (or spawn) message; the fleet of none
(``WorkerSupervisor(workers=0)``) takes the same directives before it
answers a query on the calling thread. That keeps ``max_faults``
accounting in one deterministic place — the parent — instead of
scattering independent per-worker counters across forked children. A
plan's ``target_key`` restricts which query keys the seeded draws may
fire on, and ``poison_key`` marks a key prefix whose leases are killed
*every* time (bypassing ``max_faults``): the deterministic way to
manufacture a poison query that crosses the supervisor's quarantine
threshold.

Every injection decision is a deterministic function of (plan seed,
injection count): ``probability`` draws come from a seeded generator and
``max_faults`` bounds how many times the plan fires per process (``None``
= every eligible site).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["FaultPlan", "FaultInjector", "InjectedWorkerDeath",
           "install_fault_plan", "active_injector", "reset_fault_state",
           "fault_zonotope", "fault_cache_commit", "fault_cache_committed",
           "fault_lease_directives", "fault_spawn_directive",
           "ENV_FAULT_PLAN"]

ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

_ZONOTOPE_KINDS = ("nan", "inf", "overscale")
_KINDS = _ZONOTOPE_KINDS + ("kill-worker", "stall", "cache-kill",
                            "cache-garble", "heartbeat-suppress",
                            "boot-kill")

# Exit code of an injected process kill — distinguishable from real crashes
# in scheduler smoke logs.
KILL_EXIT_CODE = 17


class InjectedWorkerDeath(RuntimeError):
    """An injected worker kill, surfaced in-process.

    The fleet of none (``WorkerSupervisor(workers=0)``) answers queries
    on the calling thread — in the certification service, inside the
    serving process — so a ``kill`` directive cannot ``os._exit`` there
    without taking the caller down. It raises this error at query start
    instead; the service rescues the waiting request from the IBP floor.
    """


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible fault campaign.

    Attributes
    ----------
    kind:
        Fault class; see the module docstring.
    layer:
        Target layer index for zonotope-corruption kinds (the fault fires
        on the zonotope *entering* this layer).
    seed:
        Seeds the probability draws and the choice of corrupted entry.
    probability:
        Chance an eligible site actually fires (deterministic seeded
        draws); 1.0 fires every time.
    max_faults:
        Per-process cap on injections; ``None`` means unlimited.
    stall_seconds:
        Sleep length for the ``stall`` kind.
    target_key:
        Restricts supervised-pool lease directives to query keys with
        this prefix (``None`` = any key is eligible).
    poison_key:
        Query-key prefix whose supervised-pool leases are *always*
        killed, bypassing ``probability`` and ``max_faults`` — the
        deterministic poison-query generator.
    """

    kind: str
    layer: int = 0
    seed: int = 0
    probability: float = 1.0
    max_faults: int = None
    stall_seconds: float = 5.0
    target_key: str = None
    poison_key: str = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {_KINDS}")

    @classmethod
    def from_env(cls, env=None):
        """Plan from the ``REPRO_FAULT_PLAN`` JSON env var, or None."""
        raw = (env or os.environ).get(ENV_FAULT_PLAN)
        if not raw:
            return None
        return cls(**json.loads(raw))

    def to_env(self):
        """JSON value for ``REPRO_FAULT_PLAN`` reproducing this plan."""
        payload = {"kind": self.kind, "layer": self.layer,
                   "seed": self.seed, "probability": self.probability,
                   "stall_seconds": self.stall_seconds}
        if self.max_faults is not None:
            payload["max_faults"] = self.max_faults
        if self.target_key is not None:
            payload["target_key"] = self.target_key
        if self.poison_key is not None:
            payload["poison_key"] = self.poison_key
        return json.dumps(payload)


class FaultInjector:
    """Executes a :class:`FaultPlan`; tracks per-process injection state."""

    def __init__(self, plan):
        self.plan = plan
        self.fired = 0
        self._rng = np.random.default_rng(plan.seed)

    def _should_fire(self):
        plan = self.plan
        if plan.max_faults is not None and self.fired >= plan.max_faults:
            return False
        if plan.probability < 1.0 \
                and self._rng.random() >= plan.probability:
            return False
        self.fired += 1
        return True

    # ------------------------------------------------------------- zonotopes
    def corrupt_zonotope(self, z, layer_index):
        """Corrupted copy of ``z`` when the plan targets this layer."""
        plan = self.plan
        if plan.kind not in _ZONOTOPE_KINDS or layer_index != plan.layer \
                or not self._should_fire():
            return z
        from .zonotope import MultiNormZonotope
        if plan.kind == "overscale":
            return z.scale(1e200)
        center = np.array(z.center, dtype=np.float64, copy=True)
        flat = center.reshape(-1)
        index = int(self._rng.integers(flat.size))
        flat[index] = np.nan if plan.kind == "nan" else np.inf
        return MultiNormZonotope(center, z.phi, z.eps, z.p)

    # ------------------------------------------------------- supervised pool
    def lease_directives(self, query_key):
        """Parent-side directives to ship with a supervised-pool lease.

        Returns ``None`` (no fault) or a small dict the worker obeys at
        lease start: ``{"kill": True}`` (``os._exit``), ``{"stall": s}``
        (sleep with heartbeats flowing but no progress — exercising the
        progress-gated deadline, not the mere liveness check) or
        ``{"suppress": True}`` (execute but send nothing back). The
        decision is taken *here*, in the supervisor's process, so one
        seeded counter governs the whole fleet.
        """
        plan = self.plan
        if plan.poison_key and query_key.startswith(plan.poison_key):
            return {"kill": True}
        if plan.kind not in ("kill-worker", "stall", "heartbeat-suppress"):
            return None
        if plan.target_key and not query_key.startswith(plan.target_key):
            return None
        if not self._should_fire():
            return None
        if plan.kind == "kill-worker":
            return {"kill": True}
        if plan.kind == "stall":
            return {"stall": plan.stall_seconds}
        return {"suppress": True}

    def spawn_directive(self):
        """Parent-side boot directive for a freshly spawned pool worker."""
        if self.plan.kind == "boot-kill" and self._should_fire():
            return {"boot_kill": True}
        return None

    # ----------------------------------------------------------------- cache
    def cache_commit(self, tmp_path):
        """Hook between a shard's temp write and its atomic rename."""
        if self.plan.kind == "cache-kill" and self._should_fire():
            os._exit(KILL_EXIT_CODE)

    def cache_committed(self, path):
        """Hook after a successful shard commit: simulate disk garbling."""
        if self.plan.kind == "cache-garble" and self._should_fire():
            size = os.path.getsize(path)
            with open(path, "r+b") as f:
                f.truncate(max(size // 2, 1))


_INJECTOR = None
_ENV_LOADED = False


def active_injector():
    """The process's injector: installed plan, else the env plan, else None.

    The environment is consulted once per process. Pool workers inherit
    the parent's injector at fork time, but every worker fault is decided
    parent-side (see :meth:`FaultInjector.lease_directives`).
    """
    global _INJECTOR, _ENV_LOADED
    if _INJECTOR is None and not _ENV_LOADED:
        _ENV_LOADED = True
        plan = FaultPlan.from_env()
        if plan is not None:
            _INJECTOR = FaultInjector(plan)
    return _INJECTOR


def reset_fault_state():
    """Drop the active injector and re-read the environment next time."""
    global _INJECTOR, _ENV_LOADED
    _INJECTOR = None
    _ENV_LOADED = False


@contextmanager
def install_fault_plan(plan):
    """Activate ``plan`` for a scope (tests); restores the prior state."""
    global _INJECTOR, _ENV_LOADED
    previous = (_INJECTOR, _ENV_LOADED)
    _INJECTOR = FaultInjector(plan) if plan is not None else None
    _ENV_LOADED = True
    try:
        yield _INJECTOR
    finally:
        _INJECTOR, _ENV_LOADED = previous


# ------------------------------------------------------------------- hooks
# The production call sites. Each is a near-free no-op without a plan.

def fault_zonotope(z, layer_index):
    """Propagation hook: possibly corrupt the zonotope entering a layer."""
    injector = active_injector()
    if injector is None:
        return z
    corrupted = injector.corrupt_zonotope(z, layer_index)
    if corrupted is not z:
        from .trace import TRACER
        TRACER.record_event("fault-injected", layer=layer_index,
                            kind=injector.plan.kind)
    return corrupted


def fault_lease_directives(query_key):
    """Supervisor hook when leasing ``query_key`` to a pool worker (or
    answering it with none)."""
    injector = active_injector()
    if injector is None:
        return None
    return injector.lease_directives(query_key)


def fault_spawn_directive():
    """Supervisor hook when (re)spawning a pool worker process."""
    injector = active_injector()
    if injector is None:
        return None
    return injector.spawn_directive()


def fault_cache_commit(tmp_path):
    """ResultCache hook between temp-file write and atomic rename."""
    injector = active_injector()
    if injector is not None:
        injector.cache_commit(tmp_path)


def fault_cache_committed(path):
    """ResultCache hook right after a successful commit."""
    injector = active_injector()
    if injector is not None:
        injector.cache_committed(path)
