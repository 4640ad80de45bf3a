"""Abstract interpretation of Transformer classifiers (Sections 4 and 5).

Propagates a Multi-norm Zonotope over the input embeddings through every
operation of a :class:`~repro.nn.TransformerClassifier` (or the
vision variant — anything with the same layer structure), producing a
zonotope over the two output logits.

The propagation mirrors ``TransformerClassifier.forward_from_embeddings``
operation by operation:

* affine layers, residual additions and the paper's no-division layer norm
  use the exact affine transformers (Theorem 2);
* ``Q K^T`` and ``softmax(..) V`` use the dot-product transformer
  (fast/precise per config);
* the softmax uses the Section 5.2 form, optionally with the Section 5.3
  sum refinement whose symbol tightenings are applied to every live
  zonotope of the layer;
* standard layer norm (Table 7 ablation) additionally needs the
  multiplication and 1/sqrt transformers;
* noise symbols are reduced at every layer input (Section 5.1), before the
  residual branch is taken, so both branches share one symbol space;
* every stage's output is checked finite (:func:`check_zonotope`), so a
  numerical blowup raises :class:`~repro.verify.guards.NumericalBlowupError`
  at the stage that produced it.
"""

from __future__ import annotations

import numpy as np

from ..faults import fault_zonotope
from ..trace import TRACER, traced
from ..zonotope import (
    DotProductConfig, apply_eps_rewrites, fused_layer_norm,
    propagation_errstate, reduce_noise_symbols, relu, tanh, rsqrt,
    softmax as zonotope_softmax, zonotope_matmul, zonotope_multiply,
)
from .config import VerifierConfig
from .guards import check_zonotope

__all__ = ["propagate_linear", "propagate_layer_norm", "propagate_attention",
           "propagate_feed_forward", "propagate_transformer_layer",
           "propagate_classifier"]


@traced("affine")
def propagate_linear(z, linear):
    """Exact affine transformer for a :class:`repro.nn.Linear`."""
    out = z.matmul_const(linear.weight.data)
    if linear.bias is not None:
        out = out + linear.bias.data
    return out


def propagate_layer_norm(z, norm, dot_config):
    """Layer norm; exact for the paper's no-division variant.

    The standard variant divides by the standard deviation, which needs the
    multiplication transformer (for the squares and the final product) and
    the 1/sqrt transformer — the extra over-approximation is what Table 7
    measures.
    """
    if not norm.divide_by_std:
        # One multi-array pass per coefficient block; bitwise identical to
        # the chained form ``(z - mean).scale(gamma) + beta``.
        return fused_layer_norm(z, norm.gamma.data, norm.beta.data)
    centered = z - z.mean_vars(axis=-1, keepdims=True)
    squares = zonotope_multiply(centered, centered, dot_config)
    variance = squares.mean_vars(axis=-1, keepdims=True)
    # The true variance is non-negative even when the multiplication
    # transformer's abstract lower bound is not.
    inv_std = rsqrt(variance, shift=norm.eps, assume_nonnegative=True)
    centered = zonotope_multiply(centered, inv_std, dot_config)
    return centered.scale(norm.gamma.data) + norm.beta.data


def _apply_rewrites_everywhere(rewrites, zonotopes):
    """Apply softmax-refinement symbol tightenings to live zonotopes."""
    return [apply_eps_rewrites(z, rewrites) for z in zonotopes]


def _stacked_projection(x, heads, proj_name):
    """Apply one projection of every head as a single affine map.

    Concatenating the per-head (E, d) weight matrices into (E, H*d) turns
    ``H`` separate ``matmul_const`` calls into one, and — more importantly —
    gives every head's downstream transformer a *shared* symbol space, so
    the fresh symbols different heads introduce stay distinct instead of
    aliasing at overlapping indices.
    """
    started = TRACER.start()
    weight = np.concatenate(
        [getattr(h, proj_name).weight.data for h in heads], axis=1)
    out = x.matmul_const(weight)
    biases = [getattr(h, proj_name).bias for h in heads]
    if all(b is not None for b in biases):
        out = out + np.concatenate([b.data for b in biases])
    TRACER.finish(started, "affine", out, projection=proj_name)
    return out


def propagate_attention(z, attention, config, dot_config):
    """Multi-head self-attention (Eq. 1) on an (N, E) zonotope.

    All heads are batched: Q/K/V projections run as one stacked affine map,
    the score and mixing dot-products as single per-head-batched matmuls
    ((H, n, d) @ (H, d, n) and (H, n, n) @ (H, n, d)), and the softmax on
    the (H*n, n) row-flattened scores (softmax is row-wise, so flattening
    the head axis into rows is exact). Besides the speedup, batching fixes
    a soundness defect of the sequential per-head loop: each head appended
    its fresh symbols starting at the *input's* symbol count, so distinct
    heads' fresh symbols shared indices and were aliased as equal when the
    head outputs were concatenated.

    Returns ``(output, x)`` where ``x`` is the (possibly rewritten) input —
    softmax-refinement tightenings must also apply to the residual branch.
    """
    heads = attention.heads
    n_heads = len(heads)
    n_tokens = z.shape[0]
    d_k = heads[0].d_k
    d_v = heads[0].w_v.weight.data.shape[1]
    x = z

    queries = _stacked_projection(x, heads, "w_q")     # (n, H*dk)
    keys = _stacked_projection(x, heads, "w_k")
    values = _stacked_projection(x, heads, "w_v")      # (n, H*dv)

    qh = queries.reshape(n_tokens, n_heads, d_k).transpose_vars(1, 0, 2)
    kh = keys.reshape(n_tokens, n_heads, d_k).transpose_vars(1, 2, 0)
    vh = values.reshape(n_tokens, n_heads, d_v).transpose_vars(1, 0, 2)

    scores = zonotope_matmul(qh, kh, dot_config).scale(1.0 / np.sqrt(d_k))
    flat_scores = scores.reshape(-1, n_tokens)
    if config.softmax_sum_refinement:
        weights, rewrites = zonotope_softmax(flat_scores, refine_sum=True)
        if rewrites:
            x, vh = _apply_rewrites_everywhere(rewrites, [x, vh])
    else:
        weights = zonotope_softmax(flat_scores)
    weights = weights.reshape(scores.shape)

    mixed = zonotope_matmul(weights, vh, dot_config)   # (H, n, dv)
    stacked = mixed.transpose_vars(1, 0, 2).reshape(n_tokens, n_heads * d_v)
    return propagate_linear(stacked, attention.w_o), x


def propagate_feed_forward(z, ffn):
    """Position-wise FFN: affine -> activation -> affine."""
    hidden = propagate_linear(z, ffn.fc1)
    if getattr(ffn, "activation", "relu") == "gelu":
        from ..zonotope import gelu
        hidden = gelu(hidden)
    else:
        hidden = relu(hidden)
    return propagate_linear(hidden, ffn.fc2)


def propagate_transformer_layer(z, layer, config, dot_config):
    """One encoder layer: attention and FFN with residual + norm.

    Each stage output passes through the propagation guard
    (:func:`repro.verify.guards.check_zonotope`) so a numerical blowup is
    caught at the abstract transformer that produced it, not layers later.
    """
    attended, z = propagate_attention(z, layer.attention, config, dot_config)
    check_zonotope(attended, "attention")
    z = propagate_layer_norm(z + attended, layer.norm1, dot_config)
    check_zonotope(z, "layer_norm1")
    ffn_out = propagate_feed_forward(z, layer.ffn)
    check_zonotope(ffn_out, "ffn")
    z = propagate_layer_norm(z + ffn_out, layer.norm2, dot_config)
    check_zonotope(z, "layer_norm2")
    return z


def propagate_classifier(model, input_zonotope, config=None):
    """Full abstract forward pass: embeddings zonotope -> logits zonotope.

    Parameters
    ----------
    model:
        A :class:`TransformerClassifier` or
        :class:`VisionTransformerClassifier` (same layer structure).
    input_zonotope:
        Zonotope over the (N, E) input embeddings.
    config:
        :class:`VerifierConfig`; defaults to DeepT-Fast settings.
    """
    config = config or VerifierConfig()
    n_layers = len(model.layers)
    with propagation_errstate():
        z = input_zonotope
        for index, layer in enumerate(model.layers):
            with TRACER.layer_scope(index):
                # Deterministic fault-injection point (no-op without an
                # active REPRO_FAULT_PLAN): corrupts the zonotope entering
                # layer k so the guard checkpoints downstream are exercised
                # end to end.
                z = fault_zonotope(z, index)
                cap = config.cap_for_layer(index, n_layers)
                if cap is not None:
                    z = reduce_noise_symbols(z, cap)
                    check_zonotope(z, "reduction")
                dot_config = DotProductConfig(
                    variant=config.variant_for_layer(index, n_layers),
                    order=config.dual_norm_order)
                z = propagate_transformer_layer(z, layer, config,
                                                dot_config)
                TRACER.gauge_max("peak_eps_rows", z.n_eps)
        with TRACER.layer_scope(n_layers):
            pooled = tanh(propagate_linear(z[0], model.pool))
            out = propagate_linear(pooled, model.classifier)
            check_zonotope(out, "classifier_head")
    return out
