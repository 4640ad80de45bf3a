"""End-to-end tests for the certification service's asyncio front end.

Everything here goes over the real HTTP wire path (ephemeral-port server +
stdlib client): submit/poll lifecycle, in-flight dedup (N identical
submissions, one execution), health/metrics schema, and the mixed-tenant
concurrency soak with radii bitwise identical to serial execution.
"""

import asyncio
import json
import multiprocessing

import pytest

from repro.scheduler.worker import execute_query
from repro.service import ServiceConfig, parse_submission
from repro.service.protocol import MAX_BODY_BYTES
from repro.trace import TRACER, read_jsonl
from repro.trace.__main__ import main as trace_main
from tests.service_utils import (make_sentences, serving, serving_held,
                                 submission)


@pytest.fixture(scope="module")
def sentences(tiny_corpus):
    return make_sentences(len(tiny_corpus.vocab), 8)


class TestLifecycle:
    def test_submit_poll_lifecycle(self, tiny_model, sentences):
        async def main():
            async with serving_held(tiny_model) as (service, client, gate):
                status, ack = await client.submit(submission(sentences[0]))
                assert status == 202
                assert ack["status"] == "queued"
                assert ack["qos_rung"] == "fast"  # already at fast config
                key = ack["key"]

                # Polling while the executor holds the query sees the 202
                # progress state.
                await gate.occupied()
                status, progress = await client.result(key)
                assert status == 202
                assert progress["status"] in ("queued", "running")
                if progress["status"] == "queued":
                    assert progress["position"] == 0

                gate.release()
                status, done = await client.wait(key, timeout=120)
                assert status == 200
                assert done["status"] == "done"
                assert done["key"] == key
                assert done["source"] == "inprocess"
                assert done["degraded"] is False
                assert isinstance(done["radius"], float)

                # Resubmitting the identical query is answered instantly
                # from the result map (200 straight from /submit).
                status, again = await client.submit(submission(sentences[0]))
                assert status == 200
                assert again["status"] == "done"
                assert again["radius"] == done["radius"]

                status, _ = await client.result("not-a-real-key")
                assert status == 404
                return service.metrics_payload()

        metrics = asyncio.run(main())
        assert metrics["counters"]["executed_queries"] == 1
        assert metrics["counters"]["result_hits"] == 1

    def test_submit_wait_inline(self, tiny_model, sentences):
        async def main():
            async with serving(tiny_model) as (_, client):
                status, done = await client.submit(
                    submission(sentences[1]), wait=120)
                assert status == 200
                assert done["status"] == "done"

        asyncio.run(main())

    def test_bad_requests_are_typed_400s(self, tiny_model, sentences):
        bad = [
            submission(sentences[0], position=0),        # [CLS] position
            submission(sentences[0], position=99),       # out of range
            submission([]),                              # empty sentence
            submission(sentences[0], verifier="quantum"),
            submission(sentences[0], n_iterations=0),
            submission(sentences[0], initial=-1.0),
            submission(sentences[0], surprise="field"),  # unknown field
            submission(sentences[0], p=0.5),             # p < 1
        ]

        async def main():
            async with serving(tiny_model) as (_, client):
                for payload in bad:
                    status, body = await client.submit(payload)
                    assert status == 400, payload
                    assert body["code"] == "bad-request"
                status, body = await client.request("GET", "/nope")
                assert status == 404
                assert body["code"] == "not-found"

        asyncio.run(main())

    @pytest.mark.parametrize("knob", [{"coeff_tol": 0.1},
                                      {"propagate_rewrites": False},
                                      {"guards": False},
                                      {"degradation_ladder": False},
                                      {"symbol_budget": 1},
                                      {"reduction_strategy": "peak"}])
    def test_removed_config_knobs_are_typed_400s(self, tiny_model,
                                                 sentences, knob):
        """None of ``coeff_tol`` (a tolerance under which fresh error
        symbols would be dropped, so bounds stop enclosing the network),
        ``propagate_rewrites``, ``guards``, ``degradation_ladder``,
        ``symbol_budget`` or ``reduction_strategy`` is a config field: a
        client config naming one is refused before anything runs."""
        self._assert_refused(tiny_model, submission(
            sentences[0], config={"noise_symbol_cap": 128, **knob}))

    @pytest.mark.parametrize("config", [
        {"noise_symbol_cap": None}, {"noise_symbol_cap": 100000},
        {"noise_symbol_cap": -1}, {"noise_symbol_cap": 12.5},
        {"noise_symbol_cap": 64, "last_layer_cap": 513}],
        ids=["null", "huge", "negative", "fractional", "last-layer-huge"])
    def test_unbounded_or_malformed_symbol_caps_are_typed_400s(
            self, tiny_model, sentences, config):
        """A symbol cap a client sets must be a count of at most
        ``MAX_SYMBOL_CAP``: nothing else bounds a probe's eps block, and a
        negative or fractional cap is a config error, not a numerical
        fault for the ladder to absorb."""
        self._assert_refused(tiny_model, submission(sentences[0],
                                                    config=config))

    @staticmethod
    def _assert_refused(tiny_model, payload):
        async def main():
            async with serving(tiny_model) as (service, client):
                status, body = await client.submit(payload, wait=30)
                assert status == 400, body
                assert body["code"] == "bad-request"
                return service.metrics_payload()["counters"]

        counters = asyncio.run(main())
        assert counters.get("executed_queries", 0) == 0

    def test_sentences_the_model_cannot_embed_are_typed_400s(
            self, tiny_model):
        """Token ids outside the served vocabulary and sentences longer
        than the model's ``max_len`` are refused before admission — a
        negative id would otherwise certify another token by wrapping."""
        vocab, max_len = tiny_model.vocab_size, tiny_model.max_len
        bad = [submission([-1, 5, 7, 9]),
               submission([vocab, 5, 7, 9]),
               submission([5] * (max_len + 1))]

        async def main():
            async with serving(tiny_model) as (service, client):
                for payload in bad:
                    status, body = await client.submit(payload, wait=30)
                    assert status == 400, payload
                    assert body["code"] == "bad-request"
                return service.metrics_payload()["counters"]

        counters = asyncio.run(main())
        assert counters.get("executed_queries", 0) == 0

    def test_drain_after_stop_reports_instead_of_raising(self, tiny_model):
        """A ``/drain`` still running when the service stops finds no
        supervisor: it reports the drain rather than answering 500."""
        async def main():
            async with serving(tiny_model) as (service, _):
                pass
            return await service.drain("after stop")

        report = asyncio.run(main())
        assert report["status"] == "drained"
        assert report["timed_out"] == 0

    """Raw requests: ``Content-Length`` is checked before the body is
    read, so a malformed or oversized one is a typed 400."""

    @staticmethod
    def _raw_submit(model, content_length, body=b""):
        """POST ``body`` to /submit under ``content_length``; returns
        ``(http_status, payload)``."""
        head = (f"POST /submit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {content_length}\r\n"
                f"Connection: close\r\n\r\n").encode()

        async def main():
            async with serving(model) as (service, _):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                try:
                    writer.write(head + body)
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), 10)
                finally:
                    writer.close()
                    await writer.wait_closed()
            status_line, _, rest = raw.partition(b"\r\n")
            return (int(status_line.split()[1]),
                    json.loads(rest.partition(b"\r\n\r\n")[2]))

        return asyncio.run(main())

    @pytest.mark.parametrize("content_length",
                             ["abc", "-5", str(MAX_BODY_BYTES + 1)],
                             ids=["not-a-number", "negative", "over-cap"])
    def test_bad_content_length_is_a_typed_400(self, tiny_model,
                                               content_length):
        status, body = self._raw_submit(tiny_model, content_length)
        assert status == 400
        assert body["code"] == "bad-request"

    def test_body_just_under_the_cap_is_read(self, tiny_model, sentences):
        payload = json.dumps(submission(sentences[0],
                                        verifier="ibp")).encode()
        body = payload + b" " * (MAX_BODY_BYTES - 1 - len(payload))
        status, ack = self._raw_submit(tiny_model, len(body), body)
        assert status == 202
        assert ack["status"] == "queued"


class TestDedup:
    def test_concurrent_identical_queries_execute_once(self, tiny_model,
                                                       sentences):
        """N in-flight duplicates attach to one computation."""
        n_clients = 5

        async def main():
            async with serving_held(tiny_model) as (service, client, gate):
                executions = []
                inner = service._run_query

                def counting(query):
                    executions.append(query)
                    return inner(query)

                service._run_query = counting
                payload = submission(sentences[2])
                acks = await asyncio.gather(*(client.submit(payload)
                                              for _ in range(n_clients)))
                keys = {ack["key"] for _, ack in acks}
                assert len(keys) == 1
                gate.release()
                results = await asyncio.gather(*(client.wait(key, 120)
                                                 for key in keys))
                return (executions, results,
                        service.metrics_payload()["counters"])

        executions, results, counters = asyncio.run(main())
        assert len(executions) == 1
        assert counters["executed_queries"] == 1
        assert counters["dedup_hits"] == n_clients - 1
        for status, done in results:
            assert status == 200 and done["status"] == "done"


class TestHealthAndMetrics:
    def test_schemas(self, tiny_model):
        async def main():
            async with serving(tiny_model) as (service, client):
                status, health = await client.health()
                assert status == 200
                status, metrics = await client.metrics()
                assert status == 200
                return service.model_hash, health, metrics

        model_hash, health, metrics = asyncio.run(main())
        assert health["status"] == "ok"
        assert health["model_hash"] == model_hash
        assert health["uptime_seconds"] >= 0
        assert health["queue_depth"] == 0
        assert health["inflight"] == 0

        for field in ("model_hash", "uptime_seconds", "queue_depth",
                      "inflight", "results_held", "counters",
                      "cache_hit_rate", "tenants", "perf"):
            assert field in metrics, field
        assert isinstance(metrics["counters"], dict)
        assert isinstance(metrics["tenants"], dict)


class TestTraceFile:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_executed_spans_reach_the_trace_file(self, tiny_model,
                                                 sentences, tmp_path,
                                                 workers):
        """``serve --trace-dir`` backs onto ``trace_path``: every executed
        outcome's spans land in the file, tagged with the executed
        query's key, in-process and from a pool worker alike."""
        if workers and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("supervised pool requires the fork start method")
        path = str(tmp_path / "serve.jsonl")

        async def main():
            config = ServiceConfig(workers=workers)
            async with serving(tiny_model, config=config,
                               trace_path=path) as (_, client):
                status, done = await client.submit(
                    submission(sentences[3]), wait=120)
                assert status == 200 and done["status"] == "done"
                return done

        with TRACER.collecting():  # before the fleet forks
            done = asyncio.run(main())
            # Spans go to the file only, never into the global list.
            assert TRACER.spans == []
        assert done["source"] == ("worker" if workers else "inprocess")
        spans = read_jsonl(path)
        assert spans, "an executed traced query must write spans"
        assert {span["query"] for span in spans} == {done["key"]}
        assert trace_main(["diff", path, path]) == 0


class TestSoak:
    def test_fifty_mixed_tenant_queries(self, tiny_model, sentences):
        """The acceptance soak: 50 concurrent queries across 3 tenants.

        Every query completes within its timeout (no hangs), radii are
        bitwise identical to serial execution, and the metrics show
        in-flight dedup.
        """
        tenants = ("acme", "globex", "initech")
        distinct = [submission(s) for s in sentences]  # 8 distinct
        payloads = [dict(distinct[i % len(distinct)],
                         tenant=tenants[i % len(tenants)])
                    for i in range(50)]

        async def main():
            config = ServiceConfig(default_burst=64, degrade_fast_at=64,
                                   degrade_ibp_at=96, reject_at=128)
            async with serving(tiny_model, config=config) as (service,
                                                              client):
                async def one(payload):
                    status, ack = await client.submit(payload)
                    assert status in (200, 202), ack
                    if ack.get("status") == "done":
                        return ack
                    status, done = await client.wait(ack["key"],
                                                     timeout=180)
                    assert status == 200, done
                    return done

                results = await asyncio.gather(*(one(p) for p in payloads))
                return (service.model_hash, results,
                        service.metrics_payload())

        model_hash, results, metrics = asyncio.run(main())

        references = {}
        for payload in distinct:
            query, _ = parse_submission(payload, model_hash)
            references[query.key()] = execute_query(tiny_model, query)[0]

        assert len(results) == 50
        for done in results:
            assert done["status"] == "done"
            assert done["radius"] == references[done["key"]]

        counters = metrics["counters"]
        assert counters["dedup_hits"] >= 1
        assert counters["executed_queries"] == len(distinct)
        assert counters["submitted"] == 50
        assert set(metrics["tenants"]) == set(tenants)
