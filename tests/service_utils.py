"""Shared helpers for the certification-service test battery.

No pytest-asyncio in the container: every test drives its own event loop
with ``asyncio.run``. The :func:`serving` context starts a real
:class:`~repro.service.CertService` on an ephemeral port and yields it
alongside a :class:`~repro.service.ServiceClient`, so the battery goes
through the actual HTTP wire path, not method calls.
"""

import asyncio
import contextlib
import threading

import numpy as np

from repro.service import CertService, ServiceClient


@contextlib.asynccontextmanager
async def serving(model, *, config=None, **kwargs):
    """Start a service on a free port; always stopped on exit."""
    service = CertService(model, config=config, **kwargs)
    await service.start("127.0.0.1", 0)
    client = ServiceClient("127.0.0.1", service.port)
    try:
        yield service, client
    finally:
        await service.stop()


class ExecutorGate:
    """Holds the service's single executor until released.

    Replaces ``service._run_query``: the first dispatched query blocks in
    the executor thread, so it stays ``running`` and every later
    admission lands in the queue behind it. :meth:`release` lets held and
    later queries run the real engine; :meth:`close` makes them fail
    instead, so no engine work outlives a stopped service.
    """

    def __init__(self, service):
        self.entered = threading.Event()
        self._open = threading.Event()
        self._closed = False
        inner = service._run_query

        def gated(query):
            self.entered.set()
            self._open.wait()
            if self._closed:
                raise RuntimeError("executor gate closed")
            return inner(query)

        service._run_query = gated

    async def occupied(self, timeout=30.0):
        """Wait until a query holds the executor."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not self.entered.is_set():
            assert loop.time() < deadline, "no query reached the executor"
            await asyncio.sleep(0.005)

    def release(self):
        self._open.set()

    def close(self):
        self._closed = True
        self._open.set()


@contextlib.asynccontextmanager
async def serving_held(model, **kwargs):
    """:func:`serving` with the executor held by an :class:`ExecutorGate`.

    Yields ``(service, client, gate)``; the gate closes after the service
    stopped.
    """
    gate = None
    try:
        async with serving(model, **kwargs) as (service, client):
            gate = ExecutorGate(service)
            yield service, client, gate
    finally:
        if gate is not None:
            gate.close()


# A cheap-but-real DeepT configuration: the fast dot-product variant and a
# tight noise-symbol cap keep one query well under a second on the tiny
# test model while exercising the full zonotope pipeline.
FAST_CONFIG = {"dot_product_variant": "fast", "noise_symbol_cap": 64}


def submission(sentence, position=1, tenant="acme", **overrides):
    """A valid /submit payload for ``sentence`` (override any field)."""
    payload = {"tenant": tenant,
               "sentence": [int(t) for t in sentence],
               "position": int(position),
               "p": 2.0,
               "verifier": "deept",
               "config": dict(FAST_CONFIG),
               "n_iterations": 2}
    payload.update(overrides)
    return payload


def make_sentences(vocab_size, n, length=6, seed=7):
    """Distinct same-length synthetic sentences."""
    rng = np.random.default_rng(seed)
    sentences = []
    seen = set()
    while len(sentences) < n:
        sentence = tuple(
            int(t) for t in rng.integers(1, vocab_size, size=length))
        if sentence not in seen:
            seen.add(sentence)
            sentences.append(sentence)
    return sentences
