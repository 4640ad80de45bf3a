"""Training loops for the classifiers.

The paper trains its Transformers from scratch on SST/Yelp; we do the same
on the synthetic corpora. The Table 8/9 network comes from
:func:`train_transformer_certified`, IBP certified training against each
sentence's synonym box: our stand-in for the certified training of Xu et
al. (DESIGN §2).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, cross_entropy, stack, no_grad
from ..autograd.optim import Adam

__all__ = ["train_transformer", "train_transformer_certified",
           "evaluate_transformer", "train_mlp", "evaluate_mlp",
           "train_vision_transformer", "evaluate_vision_transformer"]


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_transformer(model, sequences, labels, epochs=10, lr=1e-3,
                      batch_size=16, seed=0, verbose=False):
    """Train a :class:`TransformerClassifier` on token-id sequences.

    Parameters
    ----------
    sequences:
        List of integer token-id lists (variable length).
    labels:
        Array of 0/1 labels.
    """
    labels = np.asarray(labels)
    optimizer = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        total_loss, count = 0.0, 0
        for idx in _batches(len(sequences), batch_size, rng):
            optimizer.zero_grad()
            loss = cross_entropy(
                model.forward_batch([sequences[i] for i in idx]),
                labels[idx])
            loss.backward()
            optimizer.step()
            total_loss += loss.item() * len(idx)
            count += len(idx)
        history.append(total_loss / count)
        if verbose:
            print(f"epoch {epoch + 1}/{epochs}: loss={history[-1]:.4f}")
    return history


def _count_correct(model, embeddings, labels):
    """Correct predictions of one no-grad forward over stacked embeddings."""
    with no_grad():
        logits = model.forward_from_embeddings(Tensor(np.stack(embeddings)))
    return int(np.count_nonzero(logits.data.argmax(axis=-1) == labels))


def evaluate_transformer(model, sequences, labels):
    """Classification accuracy of the model on a labelled corpus.

    Sentences of one length run as one stacked forward, without padding.
    """
    labels = np.asarray(labels)
    by_length = {}
    for index, sequence in enumerate(sequences):
        by_length.setdefault(len(sequence), []).append(index)
    correct = sum(
        _count_correct(model, [model.embed_array(sequences[i]) for i in group],
                       labels[group])
        for group in by_length.values())
    return correct / len(sequences)


def train_mlp(model, inputs, labels, epochs=20, lr=1e-3, batch_size=32,
              seed=0, verbose=False):
    """Train an :class:`MLPClassifier` on a (n, d) feature matrix."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels)
    optimizer = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        total_loss, count = 0.0, 0
        for idx in _batches(len(inputs), batch_size, rng):
            optimizer.zero_grad()
            logits = model.forward(Tensor(inputs[idx]))
            loss = cross_entropy(logits, labels[idx])
            loss.backward()
            optimizer.step()
            total_loss += loss.item() * len(idx)
            count += len(idx)
        history.append(total_loss / count)
        if verbose:
            print(f"epoch {epoch + 1}/{epochs}: loss={history[-1]:.4f}")
    return history


def evaluate_mlp(model, inputs, labels):
    predictions = model.predict(inputs)
    return float(np.mean(predictions == np.asarray(labels)))


def train_vision_transformer(model, images, labels, epochs=5, lr=1e-3,
                             batch_size=16, seed=0, verbose=False):
    """Train a :class:`VisionTransformerClassifier` on (n, H, W) images."""
    labels = np.asarray(labels)
    optimizer = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        total_loss, count = 0.0, 0
        for idx in _batches(len(images), batch_size, rng):
            optimizer.zero_grad()
            logits = stack([model.forward(images[i]) for i in idx], axis=0)
            loss = cross_entropy(logits, labels[idx])
            loss.backward()
            optimizer.step()
            total_loss += loss.item() * len(idx)
            count += len(idx)
        history.append(total_loss / count)
        if verbose:
            print(f"epoch {epoch + 1}/{epochs}: loss={history[-1]:.4f}")
    return history


def evaluate_vision_transformer(model, images, labels):
    """Classification accuracy, all images in one stacked forward."""
    correct = _count_correct(model, [model.embed_array(img) for img in images],
                             np.asarray(labels))
    return correct / len(images)


def train_transformer_certified(model, sequences, labels, radius_fn,
                                epochs=16, warmup_epochs=4, lr=1e-3,
                                batch_size=16, kappa=0.5, seed=0,
                                verbose=False):
    """IBP certified training (stand-in for Xu et al., used for Table 8).

    After ``warmup_epochs`` of clean training, the loss becomes
    ``kappa * CE(clean) + (1 - kappa) * CE(worst-case)`` where the
    worst-case logits come from differentiable interval propagation
    (:mod:`repro.nn.ibp`) of a per-example embedding box. The box ramps
    linearly from 0 to its full size over the remaining epochs.

    Parameters
    ----------
    radius_fn:
        ``radius_fn(sequence) -> (N, E) ndarray`` of per-coordinate
        half-widths (e.g. the synonym box of the sentence), or a float for
        a uniform box.
    """
    from .ibp import ibp_forward, worst_case_logits

    labels = np.asarray(labels)
    optimizer = Adam(model.parameters(), lr=lr, clip_norm=5.0)
    rng = np.random.default_rng(seed)
    history = []
    ramp_epochs = max(epochs - warmup_epochs, 1)
    for epoch in range(epochs):
        ramp = min(max(epoch - warmup_epochs + 1, 0) / ramp_epochs, 1.0)
        total_loss, count = 0.0, 0
        for idx in _batches(len(sequences), batch_size, rng):
            optimizer.zero_grad()
            clean_logits, worst_logits = [], []
            for i in idx:
                emb = model.embed(sequences[i])
                clean_logits.append(model.forward_from_embeddings(emb))
                if ramp > 0:
                    if callable(radius_fn):
                        radius = radius_fn(sequences[i])
                    else:
                        radius = np.full(emb.shape, float(radius_fn))
                    interval = ibp_forward(model, emb, ramp * radius)
                    worst_logits.append(
                        worst_case_logits(interval, int(labels[i])))
            loss = cross_entropy(stack(clean_logits, axis=0), labels[idx])
            if worst_logits:
                robust = cross_entropy(stack(worst_logits, axis=0),
                                       labels[idx])
                loss = kappa * loss + (1.0 - kappa) * robust
            loss.backward()
            optimizer.step()
            total_loss += loss.item() * len(idx)
            count += len(idx)
        history.append(total_loss / count)
        if verbose:
            print(f"epoch {epoch + 1}/{epochs}: loss={history[-1]:.4f} "
                  f"(ramp={ramp:.2f})")
    return history
