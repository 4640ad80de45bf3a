"""Wire protocol of the certification service: JSON in, JSON out.

A submission is a JSON object describing one T1 certification query::

    {"tenant": "acme",
     "sentence": [3, 17, 2, 9],        # token ids
     "position": 1,                    # perturbed word (0 = [CLS], invalid)
     "p": 2.0,                         # 1, 2 or "inf"
     "verifier": "deept",          # "deept" | "crown" | "ibp"
     "config": {"noise_symbol_cap": 64},   # VerifierConfig overrides
     "backsub_depth": 10,              # crown only
     "initial": 0.01, "n_iterations": 12}

:func:`parse_submission` turns it into the scheduler's existing
:class:`~repro.scheduler.queries.CertQuery` — the server supplies the model
weight hash and the sentence supplies its own corpus fingerprint, so a
service query's sha256 key is exactly the key the result cache and run
journal already use. Malformed submissions raise typed
:class:`ServiceError` subclasses that the HTTP layer maps onto status
codes and machine-readable ``code`` strings (429 for rate limits, 503 for
load shedding), never stack traces.
"""

from __future__ import annotations

import math

from ..scheduler.queries import (CertQuery, corpus_fingerprint,
                                 verifier_config_items)
from ..verify import VerifierConfig

__all__ = ["ServiceError", "BadRequest", "NotFound", "RateLimited",
           "Overloaded", "Draining", "parse_submission", "outcome_payload",
           "error_payload", "MAX_SENTENCE_TOKENS", "MAX_SEARCH_ITERATIONS",
           "MAX_SYMBOL_CAP", "MAX_BODY_BYTES", "REQUEST_READ_SECONDS"]

# Submission hard caps: a public endpoint must bound the work one request
# can demand before admission control even sees it. A DeepT probe's time
# and memory grow with its eps block, which only the symbol caps bound,
# so they are capped too (every table and benchmark uses at most 128).
MAX_SENTENCE_TOKENS = 128
MAX_SEARCH_ITERATIONS = 24
MAX_SYMBOL_CAP = 512
# Request bodies are refused above this many bytes before they are read;
# the largest valid submission is a few KB.
MAX_BODY_BYTES = 64 * 1024
# A request line, its headers and its body must arrive within this many
# seconds, or the connection is answered 400 and closed: a client that
# stalls mid-request cannot hold a connection and its handler forever.
# The ``?wait=`` long poll runs after the read and is not bounded by it.
REQUEST_READ_SECONDS = 10.0


class ServiceError(Exception):
    """A typed request failure; ``status``/``code`` reach the client."""

    status = 500
    code = "internal"

    def payload(self):
        return error_payload(self)


class BadRequest(ServiceError):
    status = 400
    code = "bad-request"


class NotFound(ServiceError):
    status = 404
    code = "not-found"


class RateLimited(ServiceError):
    """Token bucket exhausted for this tenant (HTTP 429)."""

    status = 429
    code = "rate-limited"


class Overloaded(ServiceError):
    """Admission control shed this query (HTTP 503)."""

    status = 503
    code = "overloaded"


class Draining(Overloaded):
    """The service is draining for restart; resubmit elsewhere (503)."""

    code = "draining"


def error_payload(error):
    """The JSON body of a failed request."""
    return {"status": "error", "code": error.code, "error": str(error)}


def _parse_p(raw):
    if raw in ("inf", "Infinity"):
        return float("inf")
    try:
        p = float(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"p must be a number or 'inf', got {raw!r}")
    if not (p >= 1):
        raise BadRequest(f"p must be >= 1, got {p}")
    return p


def _parse_sentence(raw):
    if not isinstance(raw, (list, tuple)) or not raw:
        raise BadRequest("sentence must be a non-empty list of token ids")
    if len(raw) > MAX_SENTENCE_TOKENS:
        raise BadRequest(f"sentence exceeds {MAX_SENTENCE_TOKENS} tokens")
    try:
        return tuple(int(t) for t in raw)
    except (TypeError, ValueError):
        raise BadRequest("sentence entries must be integers")


def parse_submission(payload, model_hash):
    """Validate a submission dict; returns ``(CertQuery, tenant)``.

    ``model_hash`` is the serving model's weight hash (computed once at
    server start) — submissions certify against *the* served model, so the
    hash is server-supplied, never client-supplied.
    """
    if not isinstance(payload, dict):
        raise BadRequest("submission body must be a JSON object")
    known = {"tenant", "sentence", "position", "p", "verifier", "config",
             "backsub_depth", "initial", "n_iterations"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise BadRequest(f"unknown submission fields: {unknown}")

    tenant = payload.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not tenant:
        raise BadRequest("tenant must be a non-empty string")

    sentence = _parse_sentence(payload.get("sentence"))
    try:
        position = int(payload.get("position"))
    except (TypeError, ValueError):
        raise BadRequest("position must be an integer")
    if not 1 <= position < len(sentence):
        raise BadRequest(
            f"position must be in [1, {len(sentence) - 1}] "
            f"(position 0 is [CLS]), got {position}")
    p = _parse_p(payload.get("p", 2.0))

    verifier = payload.get("verifier", "deept")
    if verifier not in ("deept", "crown", "ibp"):
        raise BadRequest(f"unknown verifier {verifier!r}")
    if verifier == "crown":
        try:
            depth = int(payload.get("backsub_depth", 10))
        except (TypeError, ValueError):
            raise BadRequest("backsub_depth must be an integer")
        config_items = (("backsub_depth", depth),)
    else:
        overrides = payload.get("config") or {}
        if not isinstance(overrides, dict):
            raise BadRequest("config must be a JSON object")
        try:
            config = VerifierConfig(**overrides)
        except (TypeError, ValueError) as error:
            raise BadRequest(f"bad verifier config: {error}")
        if config.noise_symbol_cap is None:
            raise BadRequest("noise_symbol_cap must be an integer: an "
                             "uncapped query has unbounded cost")
        for name in ("noise_symbol_cap", "last_layer_cap"):
            cap = getattr(config, name)
            if cap is not None and cap > MAX_SYMBOL_CAP:
                raise BadRequest(f"{name} must be at most {MAX_SYMBOL_CAP}, "
                                 f"got {cap}")
        config_items = verifier_config_items(config)

    try:
        initial = float(payload.get("initial", 0.01))
        n_iterations = int(payload.get("n_iterations", 12))
    except (TypeError, ValueError):
        raise BadRequest("initial must be a number, n_iterations an "
                         "integer")
    if not (initial > 0 and math.isfinite(initial)):
        raise BadRequest(f"initial must be positive and finite, "
                         f"got {initial}")
    if not 1 <= n_iterations <= MAX_SEARCH_ITERATIONS:
        raise BadRequest(f"n_iterations must be in "
                         f"[1, {MAX_SEARCH_ITERATIONS}]")

    query = CertQuery(
        verifier=verifier, model_hash=model_hash,
        corpus_fingerprint=corpus_fingerprint([sentence]),
        sentence=sentence, position=position, p=p, config=config_items,
        initial=initial, n_iterations=n_iterations)
    return query, tenant


def outcome_payload(key, *, radius, seconds, source, tenant, qos_rung,
                    degraded=False, fallback_chain=(), fault=None,
                    rescued=None):
    """The JSON body of a completed query (the ``done`` state)."""
    return {
        "status": "done", "key": key,
        "radius": float(radius), "seconds": float(seconds),
        "source": source, "tenant": tenant, "qos_rung": qos_rung,
        "degraded": bool(degraded),
        "fallback_chain": list(fallback_chain), "fault": fault,
        "rescued": rescued,
    }
