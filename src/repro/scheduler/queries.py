"""Certification-query records and harness-run expansion.

The paper's evaluation protocol is an embarrassingly parallel bag of
independent radius searches: one per (sentence, position, p-norm,
verifier-variant, search-config) combination. This module flattens a
harness run into that bag — a list of :class:`CertQuery` records — and
gives each record a stable content hash so the scheduler can memoize
completed queries across processes and across runs.

A query is *self-describing*: it carries the model weight hash and the
corpus fingerprint alongside the per-query parameters, so two runs against
retrained weights or a regenerated corpus never collide in the cache even
when the sentences and configs look identical.

The module also holds the one query-rewrite rule for degraded answers:
:func:`degrade_query` moves a query down the QoS ladder
(:data:`QOS_RUNGS`) under a new content key, and :func:`rung_for_query`
names the rung a query sits at. The service's load shedding and rescue
rung and the pool's poison quarantine all use it.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

__all__ = ["CertQuery", "model_weight_hash", "corpus_fingerprint",
           "verifier_config_items", "positions_for", "expand_word_queries",
           "QOS_RUNGS", "rung_for_query", "degrade_query"]

# QoS levels, loosest last; the order mirrors the verifier's degradation
# ladder (precise -> fast -> IBP).
QOS_RUNGS = ("full", "fast", "ibp")


def model_weight_hash(model):
    """Stable hash of the model's weights (name-sorted state dict)."""
    digest = hashlib.sha256()
    state = model.state_dict()
    for name in sorted(state):
        array = np.ascontiguousarray(np.asarray(state[name],
                                                dtype=np.float64))
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def corpus_fingerprint(sentences):
    """Stable hash of an evaluation-sentence list (token ids, in order)."""
    digest = hashlib.sha256()
    for sentence in sentences:
        digest.update(repr(tuple(int(t) for t in sentence)).encode())
    return digest.hexdigest()[:16]


def verifier_config_items(config):
    """A :class:`~repro.verify.config.VerifierConfig` as sorted items.

    The canonical (name, value) tuple is hashable, picklable, and rebuilds
    the config exactly via ``VerifierConfig(**dict(items))``.
    """
    return tuple(sorted(asdict(config).items()))


def positions_for(sequence, n_positions, seed=0):
    """Content-word positions to perturb (position 0 is [CLS])."""
    rng = np.random.default_rng(seed)
    candidates = np.arange(1, len(sequence))
    chosen = rng.permutation(candidates)[:n_positions]
    return sorted(int(c) for c in chosen)


@dataclass(frozen=True)
class CertQuery:
    """One maximal-radius certification query (a unit of scheduler work).

    Attributes
    ----------
    verifier:
        ``"deept"`` (Multi-norm Zonotope), ``"crown"`` (linear-bounds
        baseline) or ``"ibp"`` (pure interval propagation — the
        degradation ladder's floor, used by the certification service as
        its deepest quality-of-service rung).
    model_hash / corpus_fingerprint:
        Content hashes tying the query to specific weights and sentences.
    sentence:
        Token ids, as a tuple (hashable).
    position:
        Perturbed word position (threat model T1).
    p:
        The perturbation norm (1, 2 or ``inf``).
    config:
        Sorted (name, value) pairs: the full ``VerifierConfig`` for DeepT
        queries, ``(("backsub_depth", d),)`` for CROWN queries.
    initial / n_iterations:
        Binary-search bracketing start and bisection step count.
    """

    verifier: str
    model_hash: str
    corpus_fingerprint: str
    sentence: tuple
    position: int
    p: float
    config: tuple
    initial: float = 0.01
    n_iterations: int = 12

    def __post_init__(self):
        if self.verifier not in ("deept", "crown", "ibp"):
            raise ValueError(f"unknown verifier {self.verifier!r}")

    def key(self):
        """Stable content hash identifying the query in the result cache."""
        parts = "|".join(repr(getattr(self, f.name))
                         for f in fields(self))
        return hashlib.sha256(parts.encode()).hexdigest()

    def describe(self):
        """Short human-readable summary (stored next to cached results)."""
        return (f"{self.verifier} p={self.p} pos={self.position} "
                f"len={len(self.sentence)} iters={self.n_iterations} "
                f"model={self.model_hash}")


def expand_word_queries(model, sentences, p, *, verifier="deept",
                        config=None, backsub_depth=None, n_positions=1,
                        seed=0, initial=0.01, n_iterations=12,
                        model_hash=None):
    """Flatten a harness run into the scheduler's query list.

    One query per (sentence, perturbed position); positions follow the
    harness protocol (:func:`positions_for`, [CLS] excluded). For
    ``verifier="deept"`` pass the :class:`VerifierConfig`; for
    ``verifier="crown"`` pass ``backsub_depth``.
    """
    if verifier == "deept":
        if config is None:
            raise ValueError("deept queries need a VerifierConfig")
        config_items = verifier_config_items(config)
    elif verifier == "crown":
        if backsub_depth is None:
            raise ValueError("crown queries need a backsub_depth")
        config_items = (("backsub_depth", int(backsub_depth)),)
    else:
        raise ValueError(f"unknown verifier {verifier!r}")
    model_hash = model_hash or model_weight_hash(model)
    fingerprint = corpus_fingerprint(sentences)
    queries = []
    for sentence in sentences:
        for position in positions_for(sentence, n_positions, seed):
            queries.append(CertQuery(
                verifier=verifier, model_hash=model_hash,
                corpus_fingerprint=fingerprint,
                sentence=tuple(int(t) for t in sentence),
                position=position, p=float(p), config=config_items,
                initial=float(initial), n_iterations=int(n_iterations)))
    return queries


def rung_for_query(query):
    """The QoS rung a query is already at (used to report, not decide).

    A DeepT query is at the "fast" rung exactly when its dot-product
    variant is fast.
    """
    if query.verifier == "ibp":
        return "ibp"
    if query.verifier == "deept" \
            and dict(query.config).get("dot_product_variant") == "fast":
        return "fast"
    return "full"


def degrade_query(query, rung):
    """Rewrite ``query`` to run at QoS ``rung``; returns a new CertQuery.

    The rewrite changes the query's content (and therefore its sha256
    key): a fast- or IBP-degraded answer lives under its own cache/journal
    key and can never masquerade as the full-precision result. Queries
    already at or below the requested rung are returned unchanged — the
    ladder only ever moves downwards.
    """
    if rung not in QOS_RUNGS:
        raise ValueError(f"unknown QoS rung {rung!r}")
    if rung == "full" or query.verifier == "ibp":
        return query
    if rung == "ibp":
        return replace(query, verifier="ibp")
    # rung == "fast": meaningful only for deept queries above "fast".
    if query.verifier != "deept" or rung_for_query(query) == "fast":
        return query
    config = dict(query.config)
    config["dot_product_variant"] = "fast"
    return replace(query, config=tuple(sorted(config.items())))
