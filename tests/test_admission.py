"""Admission-control tests: token buckets, the QoS ladder, typed sheds.

The unit half drives :class:`TokenBucket` with explicit fake time (the
refill law is a property, not a wall-clock accident) and checks the
degradation ladder's ordering and key-rewriting invariants. The service
half goes over the wire: typed 429s for rate limits, typed 503s for load
shedding, and depth-driven degradation full -> fast -> ibp -> reject. The
soundness test at the bottom is the property that makes QoS degradation
acceptable at all: a looser rung never flips an uncertifiable query to
certified.
"""

import asyncio

import pytest

from repro.scheduler.queries import CertQuery, verifier_config_items
from repro.scheduler.worker import execute_query
from repro.service import (AdmissionController, ServiceConfig, TenantPolicy,
                           TokenBucket, degrade_query, parse_submission,
                           rung_for_query)
from repro.verify import DeepTVerifier, IBPVerifier, VerifierConfig
from tests.service_utils import (FAST_CONFIG, make_sentences, serving_held,
                                 submission)


class TestTokenBucket:
    def test_grants_never_exceed_burst_plus_rate(self):
        """In any window [0, t]: grants <= burst + rate * t."""
        bucket = TokenBucket(rate=5.0, burst=3, now=0.0)
        grants = 0
        t = 0.0
        while t <= 2.0:
            if bucket.try_acquire(t):
                grants += 1
            assert grants <= 3 + 5.0 * t + 1e-9, t
            t += 0.01
        # burst + rate * elapsed, up to one float-boundary grant short.
        assert 12 <= grants <= 13

    def test_refill_is_monotone_and_capped(self):
        bucket = TokenBucket(rate=2.0, burst=4, now=0.0)
        for _ in range(4):
            assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)  # empty
        previous = bucket.tokens(0.0)
        for t in (0.25, 0.5, 1.0, 2.0, 10.0, 100.0):
            balance = bucket.tokens(t)
            assert balance >= previous
            assert balance <= 4.0
            previous = balance
        assert balance == 4.0  # long idle refills to burst exactly

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=2, now=0.0)
        assert bucket.try_acquire(10.0)
        balance = bucket.tokens(10.0)
        # A stale clock neither refunds nor drains tokens.
        assert bucket.tokens(3.0) == balance
        assert bucket.tokens(10.0) == balance

    def test_backwards_stepping_time_source_mints_nothing(self):
        """A clock that jumps backwards (NTP step, skewed caller) can't
        refill the bucket: only *forward* progress past the high-water
        mark credits tokens."""
        bucket = TokenBucket(rate=10.0, burst=5, now=100.0)
        for _ in range(5):
            assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)  # empty at t=100

        # A time source stepping backwards in big and small jumps: every
        # call is in the bucket's past, so the balance must stay 0.
        for t in (99.9, 90.0, 50.0, 0.0, -1000.0):
            assert bucket.tokens(t) == 0.0
            assert not bucket.try_acquire(t)
        # The backwards excursion is not re-credited when the clock
        # catches back up: refill resumes from the t=100 high-water mark.
        assert bucket.tokens(100.05) == pytest.approx(0.5)
        assert bucket.tokens(100.1) == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=5)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmissionController:
    def test_depth_walks_the_ladder_in_order(self):
        controller = AdmissionController(degrade_fast_at=2,
                                         degrade_ibp_at=4, reject_at=6)
        rungs = [controller.decide(depth) for depth in range(8)]
        assert rungs[:2] == [("admit", "full")] * 2
        assert rungs[2:4] == [("admit", "fast")] * 2
        assert rungs[4:6] == [("admit", "ibp")] * 2
        assert rungs[6:] == [("reject", None)] * 2

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            AdmissionController(degrade_fast_at=5, degrade_ibp_at=3,
                                reject_at=10)
        with pytest.raises(ValueError):
            AdmissionController(degrade_fast_at=0)


def _query(verifier="deept", config=None, **overrides):
    if config is None:
        # The default VerifierConfig already uses the fast dot product;
        # the ladder's "full" rung needs the precise variant.
        config = verifier_config_items(
            VerifierConfig(dot_product_variant="precise"))
    fields = dict(verifier=verifier, model_hash="abc123",
                  corpus_fingerprint="def456", sentence=(1, 2, 3),
                  position=1, p=2.0, config=config)
    fields.update(overrides)
    return CertQuery(**fields)


class TestDegradeQuery:
    def test_full_rung_is_identity(self):
        query = _query()
        assert degrade_query(query, "full") is query

    def test_fast_rewrites_config_and_key(self):
        query = _query()
        fast = degrade_query(query, "fast")
        assert fast.key() != query.key()
        assert dict(fast.config)["dot_product_variant"] == "fast"
        assert rung_for_query(fast) == "fast"
        # Already-fast queries are unchanged (ladder only moves down).
        assert degrade_query(fast, "fast") is fast

    def test_ibp_rewrites_verifier_and_key(self):
        query = _query()
        floor = degrade_query(query, "ibp")
        assert floor.verifier == "ibp"
        assert floor.key() != query.key()
        assert rung_for_query(floor) == "ibp"
        assert degrade_query(floor, "ibp") is floor
        assert degrade_query(floor, "fast") is floor  # never back up

    def test_crown_queries_have_no_fast_rung(self):
        crown = _query(verifier="crown", config=(("backsub_depth", 10),))
        assert degrade_query(crown, "fast") is crown
        assert degrade_query(crown, "ibp").verifier == "ibp"

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError):
            degrade_query(_query(), "turbo")


class TestServiceAdmission:
    """The gates over the wire; a held executor keeps queries queued."""

    def test_rate_limit_is_a_typed_429(self, tiny_model, tiny_corpus):
        sentences = make_sentences(len(tiny_corpus.vocab), 3, seed=11)

        async def main():
            policies = {"miser": TenantPolicy(rate=0.0, burst=1)}
            async with serving_held(tiny_model, tenant_policies=policies) \
                    as (service, client, _):
                status, ack = await client.submit(
                    submission(sentences[0], tenant="miser"))
                assert status == 202 and ack["status"] == "queued"
                status, body = await client.submit(
                    submission(sentences[1], tenant="miser"))
                assert status == 429
                assert body["code"] == "rate-limited"
                # Rate limits are per tenant: others are unaffected.
                status, ack = await client.submit(
                    submission(sentences[2], tenant="spender"))
                assert status == 202
                return service.metrics_payload()

        metrics = asyncio.run(main())
        assert metrics["counters"]["rejected_rate_limited"] == 1
        assert metrics["tenants"]["miser"]["rate_limited"] == 1

    def test_overload_is_a_typed_503(self, tiny_model, tiny_corpus):
        sentences = make_sentences(len(tiny_corpus.vocab), 3, seed=12)

        async def main():
            config = ServiceConfig(degrade_fast_at=1, degrade_ibp_at=1,
                                   reject_at=1)
            async with serving_held(tiny_model, config=config) \
                    as (service, client, gate):
                # The first query occupies the executor; the second waits
                # in the queue.
                for sentence in sentences[:2]:
                    status, _ = await client.submit(submission(sentence))
                    assert status == 202
                    await gate.occupied()
                status, body = await client.submit(submission(sentences[2]))
                assert status == 503
                assert body["code"] == "overloaded"
                return service.metrics_payload()

        metrics = asyncio.run(main())
        assert metrics["counters"]["rejected_overloaded"] == 1

    def test_load_degrades_down_the_ladder_in_order(self, tiny_model,
                                                    tiny_corpus):
        """Rising depth admits full, then fast, then ibp, then sheds."""
        sentences = make_sentences(len(tiny_corpus.vocab), 5, seed=13)
        # Full-precision submissions, so the fast rung is a real rewrite.
        payloads = [submission(s, config={"noise_symbol_cap": 64,
                                          "dot_product_variant": "precise"})
                    for s in sentences]

        async def main():
            config = ServiceConfig(degrade_fast_at=1, degrade_ibp_at=2,
                                   reject_at=3)
            async with serving_held(tiny_model, config=config) \
                    as (service, client, gate):
                rungs = []
                for payload in payloads[:4]:
                    status, ack = await client.submit(payload)
                    assert status == 202
                    rungs.append(ack["qos_rung"])
                    # The first query occupies the executor, so the queue
                    # depth seen by the rest starts at zero.
                    await gate.occupied()
                status, body = await client.submit(payloads[4])
                return rungs, status, body, service.metrics_payload()

        rungs, status, body, metrics = asyncio.run(main())
        assert rungs == ["full", "full", "fast", "ibp"]
        assert status == 503 and body["code"] == "overloaded"
        assert metrics["counters"]["qos_degraded_fast"] == 1
        assert metrics["counters"]["qos_degraded_ibp"] == 1


class TestDegradationSoundness:
    """Looser rungs never flip uncertified -> certified."""

    @pytest.fixture(scope="class")
    def sentence(self, tiny_corpus):
        return make_sentences(len(tiny_corpus.vocab), 1, seed=3)[0]

    def test_looser_certified_implies_tighter_certified(self, tiny_model,
                                                        sentence):
        precise = DeepTVerifier(
            tiny_model, VerifierConfig(noise_symbol_cap=64,
                                       dot_product_variant="precise"))
        fast = DeepTVerifier(
            tiny_model, VerifierConfig(noise_symbol_cap=64,
                                       dot_product_variant="fast"))
        ibp = IBPVerifier(tiny_model)
        token_ids = list(sentence)
        for radius in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
            ibp_ok = bool(ibp.certify_word_perturbation(
                token_ids, 1, radius, 2.0))
            fast_ok = bool(fast.certify_word_perturbation(
                token_ids, 1, radius, 2.0))
            precise_ok = bool(precise.certify_word_perturbation(
                token_ids, 1, radius, 2.0))
            if ibp_ok:
                assert fast_ok and precise_ok, radius
            if fast_ok:
                assert precise_ok, radius

    def test_certified_radius_shrinks_down_the_ladder(self, tiny_model,
                                                      sentence):
        model_hash = None
        radii = {}
        for rung, payload in (
                ("full", submission(
                    sentence,
                    config={"noise_symbol_cap": 64,
                            "dot_product_variant": "precise"})),
                ("fast", submission(sentence, config=dict(FAST_CONFIG))),
                ("ibp", submission(sentence, verifier="ibp"))):
            if model_hash is None:
                from repro.scheduler.queries import model_weight_hash
                model_hash = model_weight_hash(tiny_model)
            query, _ = parse_submission(payload, model_hash)
            radii[rung] = execute_query(tiny_model, query)[0]
        assert radii["ibp"] <= radii["fast"] <= radii["full"]
