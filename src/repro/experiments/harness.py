"""Shared experiment infrastructure: model zoo, radius statistics, timing.

The paper evaluates on 10 correctly-classified random test sentences,
computing for every word position the maximal certified radius by binary
search, and reports Min / Avg radius plus total time per verifier. This
module reproduces that protocol at the repro scale recorded in DESIGN §5
(small widths, short sentences, small symbol caps) and caches trained
models on disk so every benchmark sees identical networks.
"""

from __future__ import annotations

import os
import time
import warnings
import zipfile
from dataclasses import dataclass, field

import numpy as np

from ..nlp import make_corpus
from ..nn import (TransformerClassifier, train_transformer,
                  evaluate_transformer)
from ..scheduler import (expand_word_queries, get_default_scheduler,
                         merge_outcome_perf)

__all__ = ["ExperimentScale", "SCALE", "model_cache_dir", "get_corpus",
           "get_transformer", "load_cached_state", "load_or_train",
           "evaluation_sentences", "RadiusReport", "radius_report_deept",
           "radius_report_crown", "format_radius_row"]


@dataclass
class ExperimentScale:
    """Repro-scale defaults (paper-scale values in comments)."""

    embed_dim: int = 16          # paper: 128 (256 for Table 3)
    n_heads: int = 2             # paper: 4
    hidden_dim: int = 16         # paper: 128 (512 for Table 3)
    max_len: int = 16            # paper: sentences up to 32 words
    n_train: int = 400           # paper: SST 67k
    n_test: int = 80
    epochs: int = 16
    lr: float = 2e-3
    n_sentences: int = 1         # paper: 10
    n_positions: int = 1         # paper: every position
    search_iterations: int = 5   # bisection steps after bracketing
    noise_symbol_cap: int = 128  # paper: 14000 (DeepT-Fast)
    precise_symbol_cap: int = 96  # paper: 10000 (DeepT-Precise)
    baf_depth: int = 30
    seed: int = 1


SCALE = ExperimentScale()


def model_cache_dir():
    """Directory for cached trained weights (created on demand)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    path = os.path.join(root, ".model_cache")
    os.makedirs(path, exist_ok=True)
    return path


def load_cached_state(model, path):
    """Load cached weights from ``path`` into ``model`` if possible.

    Returns True on success. A corrupt, truncated or stale cache file
    (``zipfile.BadZipFile``/``EOFError`` from a bad archive, ``KeyError``
    from a missing parameter, ``OSError``/``ValueError`` from unreadable
    data) is deleted so the caller retrains and rewrites it. The archive is
    fully extracted before any parameter is assigned; a mid-assignment
    failure is still possible for a stale key set, so callers should
    rebuild the model before retraining.
    """
    if not os.path.exists(path):
        return False
    try:
        with np.load(path) as archive:
            state = {k: np.array(archive[k]) for k in archive.files}
        model.load_state_dict(state)
        return True
    except (zipfile.BadZipFile, EOFError, KeyError, OSError, ValueError) as e:
        warnings.warn(f"discarding corrupt model cache {path!r} "
                      f"({type(e).__name__}: {e}); retraining",
                      stacklevel=2)
        try:
            os.remove(path)
        except OSError:
            pass
        return False


_CORPUS_CACHE = {}


def get_corpus(preset="sst-small", scale=None):
    """Corpus for a preset, cached per process."""
    scale = scale or SCALE
    key = (preset, scale.n_train, scale.n_test, scale.seed)
    if key not in _CORPUS_CACHE:
        _CORPUS_CACHE[key] = make_corpus(preset, n_train=scale.n_train,
                                         n_test=scale.n_test,
                                         seed=scale.seed)
    return _CORPUS_CACHE[key]


def load_or_train(name, build_model, train):
    """Load the model cached as ``name``, or train and cache a new one.

    ``build_model()`` makes an untrained model. On a miss a fresh one (so
    no partial load leaks in) is trained in place by ``train(model)`` and
    saved under ``name`` in :func:`model_cache_dir`.
    """
    path = os.path.join(model_cache_dir(), name)
    model = build_model()
    if not load_cached_state(model, path):
        model = build_model()  # discard any partial load
        train(model)
        np.savez(path, **model.state_dict())
    return model


def get_transformer(preset="sst-small", n_layers=3, scale=None,
                    divide_by_std=False, certified_training=False,
                    embed_dim=None, hidden_dim=None):
    """Train (or load from cache) a Transformer for an experiment.

    ``certified_training=True`` produces the Table 8/9 network: synonym
    embeddings tied at initialization and IBP certified training against
    each sentence's synonym box (the Xu et al. substitute, DESIGN §2).
    Returns ``(model, dataset, accuracy)``.
    """
    scale = scale or SCALE
    dataset = get_corpus(preset, scale)
    embed_dim = embed_dim or scale.embed_dim
    hidden_dim = hidden_dim or scale.hidden_dim
    lr_tag = "" if scale.lr == 2e-3 else f"_lr{scale.lr}"
    # "_rs0.0" names a retired input-noise setting; the committed
    # archives carry it, so the key keeps it.
    cache_key = (f"{preset}_L{n_layers}_E{embed_dim}_H{hidden_dim}"
                 f"_div{int(divide_by_std)}_rs0.0"
                 f"_ct{int(certified_training)}"
                 f"_n{scale.n_train}_e{scale.epochs}{lr_tag}_s{scale.seed}")

    def build_model():
        return TransformerClassifier(
            len(dataset.vocab), embed_dim=embed_dim, n_heads=scale.n_heads,
            hidden_dim=hidden_dim, n_layers=n_layers, max_len=scale.max_len,
            seed=scale.seed, divide_by_std=divide_by_std)

    def train(model):
        if certified_training:
            from ..nlp import build_synonym_attack, tie_synonym_embeddings
            from ..nn import train_transformer_certified
            tie_synonym_embeddings(model, dataset.vocab)

            def radius_fn(sequence):
                attack = build_synonym_attack(model, dataset.vocab, sequence)
                return attack.radius * 1.3

            train_transformer_certified(
                model, dataset.train_sequences, dataset.train_labels,
                radius_fn, epochs=max(scale.epochs, 24), warmup_epochs=3,
                kappa=0.3, lr=1e-3, seed=scale.seed)
        else:
            train_transformer(model, dataset.train_sequences,
                              dataset.train_labels, epochs=scale.epochs,
                              lr=scale.lr, seed=scale.seed)

    model = load_or_train(cache_key + ".npz", build_model, train)
    accuracy = evaluate_transformer(model, dataset.test_sequences,
                                    dataset.test_labels)
    return model, dataset, accuracy


def evaluation_sentences(model, dataset, n_sentences, max_tokens=None,
                         seed=0):
    """Correctly classified random test sentences (the paper's protocol)."""
    rng = np.random.default_rng(seed)
    max_tokens = max_tokens or model.max_len
    order = rng.permutation(len(dataset.test_sequences))
    chosen = []
    for index in order:
        sequence = dataset.test_sequences[index]
        if len(sequence) > max_tokens:
            continue
        if model.predict(sequence) != int(dataset.test_labels[index]):
            continue
        chosen.append(sequence)
        if len(chosen) == n_sentences:
            break
    return chosen


@dataclass
class RadiusReport:
    """Min / Avg certified radius and wall time for one verifier setting.

    ``perf`` holds the engine's counters and gauges over the report's
    queries (:func:`repro.trace.merge_perf`: materialization counters,
    probes, peak symbol counts).
    """

    name: str
    radii: list = field(default_factory=list)
    seconds: float = 0.0
    perf: dict | None = None

    @property
    def min_radius(self):
        """Smallest certified radius over the evaluated positions."""
        return min(self.radii) if self.radii else 0.0

    @property
    def avg_radius(self):
        """Mean certified radius (the paper's Avg column)."""
        return float(np.mean(self.radii)) if self.radii else 0.0


def _radius_report(model, sentences, p, scale, name, seed, scheduler,
                   **expand_kwargs):
    """Shared engine: expand → schedule → merge, in input-query order."""
    scale = scale or SCALE
    scheduler = scheduler or get_default_scheduler()
    queries = expand_word_queries(
        model, sentences, p, n_positions=scale.n_positions, seed=seed,
        n_iterations=scale.search_iterations, **expand_kwargs)
    report = RadiusReport(name=name)
    start = time.perf_counter()
    outcomes = scheduler.run(model, queries)
    report.radii = [outcome.radius for outcome in outcomes]
    report.perf = merge_outcome_perf(outcomes)
    report.seconds = time.perf_counter() - start
    return report


def radius_report_deept(model, sentences, p, config, scale=None, name="DeepT",
                        seed=0, scheduler=None):
    """Max-radius statistics for a DeepT verifier configuration.

    Queries are submitted through ``scheduler`` (default: the process-wide
    :func:`repro.scheduler.get_default_scheduler` — serial in-process with
    no cache unless configured otherwise, e.g. by the ``--workers`` CLI
    flag). Radii are identical for every worker count; only the wall time
    in ``report.seconds`` changes.
    """
    return _radius_report(model, sentences, p, scale, name, seed, scheduler,
                          verifier="deept", config=config)


def radius_report_crown(model, sentences, p, backsub_depth, scale=None,
                        name="CROWN", seed=0, scheduler=None):
    """Max-radius statistics for a CROWN verifier at a given depth."""
    return _radius_report(model, sentences, p, scale, name, seed, scheduler,
                          verifier="crown", backsub_depth=backsub_depth)


def format_radius_row(label, reports):
    """One paper-style table row: per-report Min / Avg / Time columns."""
    cells = [f"{label:<10}"]
    for report in reports:
        cells.append(f"{report.min_radius:>9.4f} {report.avg_radius:>9.4f} "
                     f"{report.seconds:>8.1f}s")
    return " | ".join(cells)
