"""Shared fixtures: tiny trained models and sampling helpers.

Session-scoped fixtures train once; every network is deliberately small
(embed 8-16, 1-3 layers) so the whole suite runs in minutes while still
exercising the real code paths.
"""

import time

import numpy as np
import pytest

from repro.nlp import make_corpus
from repro.nn import (TransformerClassifier, train_transformer,
                      MLPClassifier, train_mlp)


@pytest.fixture(scope="session", autouse=True)
def no_recorded_results():
    """No test rewrites the tracked tables in ``benchmarks/results``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_RECORD", "1")
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_corpus():
    return make_corpus("sst-small", n_train=160, n_test=40, seed=1)


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus):
    """A trained 2-layer transformer (shared, treat as read-only)."""
    model = TransformerClassifier(len(tiny_corpus.vocab), embed_dim=8,
                                  n_heads=2, hidden_dim=8, n_layers=2,
                                  max_len=16, seed=0)
    train_transformer(model, tiny_corpus.train_sequences,
                      tiny_corpus.train_labels, epochs=6, lr=2e-3)
    return model


@pytest.fixture(scope="session")
def tiny_model_std_norm(tiny_corpus):
    """Same but with standard layer normalization (Table 7 path)."""
    model = TransformerClassifier(len(tiny_corpus.vocab), embed_dim=8,
                                  n_heads=2, hidden_dim=8, n_layers=2,
                                  max_len=16, seed=0, divide_by_std=True)
    train_transformer(model, tiny_corpus.train_sequences,
                      tiny_corpus.train_labels, epochs=6, lr=2e-3)
    return model


@pytest.fixture(scope="session")
def tiny_sentence(tiny_corpus, tiny_model):
    """A correctly classified short test sentence."""
    for seq, lab in zip(tiny_corpus.test_sequences, tiny_corpus.test_labels):
        if len(seq) <= 8 and tiny_model.predict(seq) == int(lab):
            return seq
    return tiny_corpus.test_sequences[0]


@pytest.fixture
def rendezvous_engine(tmp_path, monkeypatch):
    """Make every query wait up to 1 s for a second one to start.

    Patches ``worker.execute_query`` — before any fleet forks, so pool
    workers run the wrapper too. Each call drops a start marker in
    ``tmp_path``, waits for a second marker, then runs the real query.
    Returns a function counting the calls that met another one: two
    queries that run at the same time both meet; run one after the other,
    only the second does.
    """
    import repro.scheduler.worker as worker_mod
    real = worker_mod.execute_query

    def rendezvous(model, query):
        (tmp_path / f"start-{query.key()}").touch()
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            if len(list(tmp_path.glob("start-*"))) >= 2:
                (tmp_path / f"met-{query.key()}").touch()
                break
            time.sleep(0.01)
        return real(model, query)

    monkeypatch.setattr(worker_mod, "execute_query", rendezvous)
    return lambda: len(list(tmp_path.glob("met-*")))


@pytest.fixture(scope="session")
def digit_data():
    from repro.data import make_binary_digit_dataset
    images, labels = make_binary_digit_dataset(n_per_class=40, size=8,
                                               seed=0)
    return images.reshape(len(images), -1), labels


@pytest.fixture(scope="session")
def tiny_mlp(digit_data):
    features, labels = digit_data
    model = MLPClassifier(features.shape[1], [6, 6], n_classes=2, seed=0)
    train_mlp(model, features[:60], labels[:60], epochs=20, lr=2e-3)
    return model


def sample_lp_ball(rng, dim, p, radius=1.0):
    """A point with ||x||_p <= radius, roughly uniform in direction."""
    if dim == 0:
        return np.zeros(0)
    raw = rng.normal(size=dim)
    norm = np.linalg.norm(raw, ord=p) if p != np.inf \
        else np.abs(raw).max()
    return raw / max(norm, 1e-12) * radius * rng.uniform(0, 1)


def assert_sound(zonotope_out, concrete_fn, zonotope_in, rng, n=150,
                 tol=1e-8):
    """Every sampled concrete output lies within the output bounds."""
    lower, upper = zonotope_out.bounds()
    for _ in range(n):
        phi = sample_lp_ball(rng, zonotope_in.n_phi, zonotope_in.p) \
            if zonotope_in.n_phi else np.zeros(0)
        eps = rng.uniform(-1, 1, size=zonotope_in.n_eps)
        x = zonotope_in.concretize(phi, eps)
        y = concrete_fn(x)
        assert np.all(y >= lower - tol), \
            f"lower bound violated by {np.max(lower - y)}"
        assert np.all(y <= upper + tol), \
            f"upper bound violated by {np.max(y - upper)}"
