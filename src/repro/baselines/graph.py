"""Computation-graph IR for linear-bound (CROWN-style) verification.

The CROWN baseline of Shi et al. (ICLR 2020) — the paper's main comparator —
propagates *linear* lower/upper bounds through the network and obtains
concrete bounds by backsubstituting towards the input. That requires an
explicit operation graph (the Transformer has residual branches and bilinear
nodes whose two parents must both be tracked), so this module defines a
small IR:

====================  =========================================================
op                    semantics
====================  =========================================================
``input``             the (N, E) embedding matrix under perturbation
``affine``            ``y = x @ W + b`` (last-axis matmul, constant ``W, b``)
``scale_shift``       ``y = a * x + b`` with constant (broadcastable) a, b
``add``               ``y = x1 + x2``
``transpose``         2-D transpose
``slice_rows``        ``y = x[start:stop]``
``concat_last``       concatenate several parents along the last axis
``relu/tanh/exp/
reciprocal``          elementwise nonlinearities
``mul``               ``y = x1 * x2`` elementwise (bilinear; same shape)
``matmul``            ``y = x1 @ x2`` (bilinear; both operands are nodes)
====================  =========================================================

Linear constructs (mean-subtraction, sums, broadcasts) are expressed through
``affine`` with suitable constant matrices. Every node carries interval
bounds filled in by interval propagation (:func:`interval_propagate`), which
the relaxations consume and which backsubstitution intersects with.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Node", "Graph", "build_transformer_graph", "interval_propagate"]


class Node:
    """One operation in the graph."""

    __slots__ = ("index", "op", "parents", "params", "shape",
                 "lower", "upper")

    def __init__(self, index, op, parents, params, shape):
        self.index = index
        self.op = op
        self.parents = parents
        self.params = params
        self.shape = tuple(shape)
        self.lower = None
        self.upper = None

    @property
    def size(self):
        """Number of scalar elements in the node."""
        return int(np.prod(self.shape))

    def __repr__(self):
        return f"Node({self.index}, {self.op}, shape={self.shape})"


class Graph:
    """A topologically ordered list of nodes with a single input."""

    def __init__(self):
        self.nodes = []

    def _add(self, op, parents, params, shape):
        node = Node(len(self.nodes), op, parents, params, shape)
        self.nodes.append(node)
        return node

    # ------------------------------------------------------------- builders
    def input(self, shape):
        """The (single) input node holding the perturbed embeddings."""
        return self._add("input", [], {}, shape)

    def affine(self, x, weight, bias=None):
        """``y = x @ W (+ b)`` with constant parameters."""
        weight = np.asarray(weight, dtype=np.float64)
        shape = x.shape[:-1] + (weight.shape[1],)
        bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        return self._add("affine", [x], {"weight": weight, "bias": bias},
                         shape)

    def scale_shift(self, x, scale=1.0, shift=0.0):
        """``y = a * x + b`` with constant (broadcastable) a, b."""
        scale = np.broadcast_to(np.asarray(scale, dtype=np.float64),
                                x.shape).copy()
        shift = np.broadcast_to(np.asarray(shift, dtype=np.float64),
                                x.shape).copy()
        return self._add("scale_shift", [x],
                         {"scale": scale, "shift": shift}, x.shape)

    def add(self, x1, x2):
        """Elementwise sum of two nodes (residual connections)."""
        if x1.shape != x2.shape:
            raise ValueError(f"add shape mismatch {x1.shape} vs {x2.shape}")
        return self._add("add", [x1, x2], {}, x1.shape)

    def transpose(self, x):
        """2-D transpose (for the K operand of Q K^T)."""
        if len(x.shape) != 2:
            raise ValueError("transpose expects a 2-D node")
        return self._add("transpose", [x], {}, (x.shape[1], x.shape[0]))

    def slice_rows(self, x, start, stop):
        """Row slice ``x[start:stop]`` (pooling picks row 0)."""
        return self._add("slice_rows", [x], {"start": start, "stop": stop},
                         (stop - start,) + x.shape[1:])

    def concat_last(self, xs):
        """Concatenate parents along the last axis (head stacking)."""
        width = sum(x.shape[-1] for x in xs)
        lead = xs[0].shape[:-1]
        for x in xs:
            if x.shape[:-1] != lead:
                raise ValueError("concat_last leading-shape mismatch")
        return self._add("concat_last", list(xs), {}, lead + (width,))

    def unary(self, op, x, **params):
        """Elementwise nonlinearity node (relu/tanh/exp/reciprocal/rsqrt)."""
        if op not in ("relu", "tanh", "exp", "reciprocal", "rsqrt"):
            raise ValueError(f"unknown unary op {op}")
        return self._add(op, [x], dict(params), x.shape)

    def mul(self, x1, x2, clip=None):
        """Elementwise product; ``clip=(lo, hi)`` declares known output
        bounds (e.g. softmax outputs always lie in [0, 1])."""
        if x1.shape != x2.shape:
            raise ValueError(f"mul shape mismatch {x1.shape} vs {x2.shape}")
        return self._add("mul", [x1, x2], {"clip": clip}, x1.shape)

    def matmul(self, x1, x2):
        """Bilinear matrix product of two *nodes* (both under perturbation)."""
        if len(x1.shape) != 2 or len(x2.shape) != 2 \
                or x1.shape[1] != x2.shape[0]:
            raise ValueError(f"matmul shapes {x1.shape} @ {x2.shape}")
        return self._add("matmul", [x1, x2], {},
                         (x1.shape[0], x2.shape[1]))

    # ------------------------------------------------ derived linear helpers
    def mean_subtract_last(self, x):
        """``y = x - mean(x, axis=-1)`` as an affine node."""
        dim = x.shape[-1]
        matrix = np.eye(dim) - np.full((dim, dim), 1.0 / dim)
        return self.affine(x, matrix)

    def sum_last(self, x):
        """Sum over the last axis, keeping it as size 1."""
        dim = x.shape[-1]
        return self.affine(x, np.ones((dim, 1)))

    def repeat_last(self, x, times):
        """Broadcast a trailing size-1 axis to ``times``."""
        if x.shape[-1] != 1:
            raise ValueError("repeat_last expects trailing size 1")
        return self.affine(x, np.ones((1, times)))


def build_transformer_graph(model, n_tokens):
    """Build the verification graph of a Transformer classifier.

    Mirrors ``TransformerClassifier.forward_from_embeddings`` (same layers,
    same pooling, final logits affine) for a fixed input length. The CROWN
    softmax is the primitive composition exp -> sum -> reciprocal -> mul
    (Section 5.4: the baseline does *not* use DeepT's
    ``1/sum exp(nu_j - nu_i)`` rewrite).

    Returns ``(graph, input_node, output_node)`` where the output node holds
    the logits with shape (1, n_classes).
    """
    return GraphBuilder(model, n_tokens).build()


class GraphBuilder:
    """Builds the verification graph for a fixed input length ``n``."""

    def __init__(self, model, n_tokens):
        self.model = model
        self.n = n_tokens

    def build(self):
        """Construct the graph; returns (graph, input_node, logits_node)."""
        model = self.model
        graph = Graph()
        x = graph.input((self.n, model.embed_dim))
        current = x
        for layer in model.layers:
            current = self._layer(graph, current, layer)
        pooled = graph.slice_rows(current, 0, 1)
        pooled = graph.affine(pooled, model.pool.weight.data,
                              model.pool.bias.data)
        pooled = graph.unary("tanh", pooled)
        logits = graph.affine(pooled, model.classifier.weight.data,
                              model.classifier.bias.data)
        return graph, x, logits

    def _layer(self, graph, x, layer):
        attended = self._attention(graph, x, layer.attention)
        x = self._layer_norm(graph, graph.add(x, attended), layer.norm1)
        ffn = self._feed_forward(graph, x, layer.ffn)
        return self._layer_norm(graph, graph.add(x, ffn), layer.norm2)

    def _attention(self, graph, x, attention):
        heads = []
        for head in attention.heads:
            queries = graph.affine(x, head.w_q.weight.data,
                                   head.w_q.bias.data)
            keys = graph.affine(x, head.w_k.weight.data, head.w_k.bias.data)
            values = graph.affine(x, head.w_v.weight.data,
                                  head.w_v.bias.data)
            scores = graph.matmul(queries, graph.transpose(keys))
            scores = graph.scale_shift(scores, 1.0 / np.sqrt(head.d_k), 0.0)
            weights = self._softmax(graph, scores)
            heads.append(graph.matmul(weights, values))
        stacked = graph.concat_last(heads)
        return graph.affine(stacked, attention.w_o.weight.data,
                            attention.w_o.bias.data)

    def _feed_forward(self, graph, x, ffn):
        hidden = graph.affine(x, ffn.fc1.weight.data, ffn.fc1.bias.data)
        hidden = graph.unary("relu", hidden)
        return graph.affine(hidden, ffn.fc2.weight.data, ffn.fc2.bias.data)

    def _softmax(self, graph, scores):
        """CROWN softmax: exp -> sum -> reciprocal -> mul (Section 5.4)."""
        exps = graph.unary("exp", scores)
        denom = graph.sum_last(exps)
        # A sum of exponentials is non-negative regardless of how loose the
        # interval arithmetic gets (inf-contaminated IBP would otherwise
        # report a NaN/-inf lower bound here).
        denom.params["clip"] = (0.0, np.inf)
        recip = graph.unary("reciprocal", denom)
        recip_full = graph.repeat_last(recip, scores.shape[-1])
        return graph.mul(exps, recip_full, clip=(0.0, 1.0))

    def _layer_norm(self, graph, x, norm):
        centered = graph.mean_subtract_last(x)
        if norm.divide_by_std:
            squares = graph.mul(centered, centered, clip=(0.0, np.inf))
            dim = centered.shape[-1]
            variance = graph.affine(squares, np.full((dim, 1), 1.0 / dim))
            inv_std = graph.unary("rsqrt", variance, shift=norm.eps)
            inv_full = graph.repeat_last(inv_std, dim)
            centered = graph.mul(centered, inv_full)
        return graph.scale_shift(centered, norm.gamma.data, norm.beta.data)



def interval_propagate(graph, input_lower, input_upper):
    """Fill every node's interval bounds by interval arithmetic (IBP).

    These bounds seed the relaxations and are intersected with the
    backsubstituted ones; they also make the reciprocal's positivity
    precondition robust (the IBP bound of a sum of exponentials is always
    positive). NaNs arising from inf arithmetic (exp overflow on very large
    regions) are sanitized to the vacuous bounds -inf/+inf, keeping the
    propagation sound and well-defined at any radius.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for node in graph.nodes:
            _node_interval(node, input_lower, input_upper)
            node.lower = np.where(np.isnan(node.lower), -np.inf, node.lower)
            node.upper = np.where(np.isnan(node.upper), np.inf, node.upper)
            clip = node.params.get("clip")
            if clip is not None:
                node.lower = np.clip(node.lower, clip[0], clip[1])
                node.upper = np.clip(node.upper, clip[0], clip[1])
    return graph


def _node_interval(node, input_lower, input_upper):
    parents = node.parents
    if node.op == "input":
        node.lower = np.asarray(input_lower, dtype=np.float64)
        node.upper = np.asarray(input_upper, dtype=np.float64)
    elif node.op == "affine":
        w = node.params["weight"]
        w_pos = np.maximum(w, 0.0)
        w_neg = np.minimum(w, 0.0)
        node.lower = parents[0].lower @ w_pos + parents[0].upper @ w_neg
        node.upper = parents[0].upper @ w_pos + parents[0].lower @ w_neg
        if node.params["bias"] is not None:
            node.lower = node.lower + node.params["bias"]
            node.upper = node.upper + node.params["bias"]
    elif node.op == "scale_shift":
        a, b = node.params["scale"], node.params["shift"]
        lo = parents[0].lower * a
        hi = parents[0].upper * a
        node.lower = np.minimum(lo, hi) + b
        node.upper = np.maximum(lo, hi) + b
    elif node.op == "add":
        node.lower = parents[0].lower + parents[1].lower
        node.upper = parents[0].upper + parents[1].upper
    elif node.op == "transpose":
        node.lower = parents[0].lower.T
        node.upper = parents[0].upper.T
    elif node.op == "slice_rows":
        rows = slice(node.params["start"], node.params["stop"])
        node.lower = parents[0].lower[rows]
        node.upper = parents[0].upper[rows]
    elif node.op == "concat_last":
        node.lower = np.concatenate([p.lower for p in parents], axis=-1)
        node.upper = np.concatenate([p.upper for p in parents], axis=-1)
    elif node.op == "relu":
        node.lower = np.maximum(parents[0].lower, 0.0)
        node.upper = np.maximum(parents[0].upper, 0.0)
    elif node.op == "tanh":
        node.lower = np.tanh(parents[0].lower)
        node.upper = np.tanh(parents[0].upper)
    elif node.op == "exp":
        node.lower = np.exp(parents[0].lower)
        node.upper = np.exp(parents[0].upper)
    elif node.op == "rsqrt":
        shift = node.params.get("shift", 0.0)
        if np.any(parents[0].lower + shift < 0):
            raise ValueError("rsqrt over a negative interval")
        with np.errstate(divide="ignore"):
            node.lower = 1.0 / np.sqrt(parents[0].upper + shift)
            node.upper = 1.0 / np.sqrt(np.maximum(parents[0].lower + shift,
                                                  0.0))
    elif node.op == "reciprocal":
        # A zero lower bound (exp underflow in the softmax denominator)
        # soundly yields an infinite upper bound; negative bounds would be
        # a real precondition violation.
        if np.any(parents[0].lower < 0):
            raise ValueError("reciprocal over a negative interval")
        with np.errstate(divide="ignore"):
            node.lower = 1.0 / parents[0].upper
            node.upper = 1.0 / parents[0].lower
    elif node.op == "mul":
        products = [parents[0].lower * parents[1].lower,
                    parents[0].lower * parents[1].upper,
                    parents[0].upper * parents[1].lower,
                    parents[0].upper * parents[1].upper]
        # inf * 0 produces NaN; fmin/fmax ignore NaNs so a defined product
        # wins, and all-NaN entries are sanitized by the caller.
        node.lower = np.fmin(np.fmin(products[0], products[1]),
                             np.fmin(products[2], products[3]))
        node.upper = np.fmax(np.fmax(products[0], products[1]),
                             np.fmax(products[2], products[3]))
    elif node.op == "matmul":
        a_lo, a_hi = parents[0].lower, parents[0].upper
        b_lo, b_hi = parents[1].lower, parents[1].upper
        # Center/radius formulation of interval matmul.
        a_c, a_r = 0.5 * (a_lo + a_hi), 0.5 * (a_hi - a_lo)
        b_c, b_r = 0.5 * (b_lo + b_hi), 0.5 * (b_hi - b_lo)
        center = a_c @ b_c
        radius = np.abs(a_c) @ b_r + a_r @ np.abs(b_c) + a_r @ b_r
        node.lower = center - radius
        node.upper = center + radius
    else:
        raise ValueError(f"unknown op {node.op}")
