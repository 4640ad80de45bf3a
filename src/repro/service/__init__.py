"""Certification-as-a-service: the asyncio serving layer.

Wraps the batch-harness stack (pure query execution, result cache, run
journal, tracer) in a long-running HTTP server with per-tenant rate
limits, in-flight dedup and load-shedding admission control that reuses
the verifier's degradation ladder as a QoS knob. See
:mod:`repro.service.server` for the request path and DESIGN.md §13 for
the invariants.

Start one from the CLI::

    python -m repro.experiments serve --port 8100 --cache

and talk to it with ``curl`` or :class:`repro.service.ServiceClient`.
"""

from .admission import (AdmissionController, TokenBucket, QOS_RUNGS,
                        degrade_query, rung_for_query)
from .client import ServiceClient
from .protocol import (BadRequest, Draining, NotFound, Overloaded,
                       RateLimited, ServiceError, parse_submission,
                       outcome_payload)
from .server import CertService, ServiceConfig
from .tenancy import TenantPolicy, TenantRegistry

__all__ = [
    "AdmissionController", "TokenBucket", "QOS_RUNGS", "degrade_query",
    "rung_for_query",
    "ServiceClient",
    "BadRequest", "Draining", "NotFound", "Overloaded", "RateLimited",
    "ServiceError",
    "parse_submission", "outcome_payload",
    "CertService", "ServiceConfig",
    "TenantPolicy", "TenantRegistry",
]
