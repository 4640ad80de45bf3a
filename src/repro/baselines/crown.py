"""CROWN-style linear-bound verifier for Transformers (the paper's baseline).

Reimplementation of the relaxation family of Shi et al. (ICLR 2020),
"Robustness Verification for Transformers", which DeepT compares against:

* every graph node gets linear lower/upper bounds on its elements by
  *backsubstitution*: an objective's coefficients are pushed backwards
  through the graph — exactly through linear ops, through relaxation planes
  at nonlinear and bilinear (McCormick) nodes — until the input, where the
  ℓp region is concretized via the dual norm;
* ``backsub_depth`` bounds how far the substitution walks before
  concretizing against stored interval bounds. Unlimited depth is
  **CROWN-Backward** (precise, superlinearly slow in depth); a small depth
  is **CROWN-BaF** ("backward & forward": backsubstitution stopped early,
  much faster, precision degrading with depth — the behaviour Tables 1-3
  exhibit); depth 0 degenerates to pure interval propagation (IBP).

Every node's stored bounds are the intersection of IBP and backsubstituted
bounds, which keeps the reciprocal's positivity precondition robust.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..verify.guards import certified_from_margin
from ..verify.regions import word_position_mask
from .graph import build_transformer_graph, interval_propagate
from .relaxations import unary_relaxation, mul_relaxation

__all__ = ["LpBallInputRegion", "BoxInputRegion", "CrownVerifier",
           "BACKWARD_UNLIMITED"]

BACKWARD_UNLIMITED = 10 ** 9


def _sanitize_planes(a_x, a_z, gamma, fallback_constant):
    """Replace non-finite McCormick planes by constant interval planes."""
    bad = ~(np.isfinite(a_x) & np.isfinite(a_z) & np.isfinite(gamma))
    if not np.any(bad):
        return a_x, a_z, gamma
    a_x = np.where(bad, 0.0, a_x)
    a_z = np.where(bad, 0.0, a_z)
    gamma = np.where(bad, np.broadcast_to(fallback_constant, gamma.shape),
                     gamma)
    return a_x, a_z, gamma


def _masked_dot(coeffs, values):
    """Sum of coeffs*values treating 0 * inf as 0 (vacuous-plane guard)."""
    product = np.where(coeffs != 0.0, coeffs * values, 0.0)
    axes = tuple(range(1, product.ndim))
    return product.sum(axis=axes)


class LpBallInputRegion:
    """ℓp ball of ``radius`` around (masked coordinates of) the input."""

    def __init__(self, center, radius, p, perturbed_mask=None):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.p = float(p)
        if perturbed_mask is None:
            perturbed_mask = np.ones(self.center.shape, dtype=bool)
        self.mask = np.asarray(perturbed_mask, dtype=bool)

    def q(self):
        """Dual exponent of the region's p."""
        if self.p == 1.0:
            return np.inf
        if self.p == np.inf:
            return 1.0
        return self.p / (self.p - 1.0)

    def interval(self):
        """Elementwise input interval (for IBP seeding)."""
        spread = np.where(self.mask, self.radius, 0.0)
        return self.center - spread, self.center + spread

    def concretize(self, coeffs):
        """(min, max) of ``sum coeffs * x`` over the region, per objective.

        ``coeffs`` has shape (n_obj, *input_shape).
        """
        base = _masked_dot(coeffs, self.center)
        masked = coeffs * self.mask
        flat = masked.reshape(coeffs.shape[0], -1)
        q = self.q()
        if q == 1.0:
            dual = np.abs(flat).sum(axis=1)
        elif q == np.inf:
            dual = np.abs(flat).max(axis=1)
        else:
            dual = (np.abs(flat) ** q).sum(axis=1) ** (1.0 / q)
        spread = self.radius * dual
        return base - spread, base + spread


class BoxInputRegion:
    """Per-coordinate box (synonym attack regions)."""

    def __init__(self, center, radius_per_coord):
        self.center = np.asarray(center, dtype=np.float64)
        self.radii = np.asarray(radius_per_coord, dtype=np.float64)

    def interval(self):
        """Elementwise input interval (IBP seed)."""
        return self.center - self.radii, self.center + self.radii

    def concretize(self, coeffs):
        """(min, max) of ``sum coeffs * x`` over the box, per objective."""
        base = _masked_dot(coeffs, self.center)
        spread = _masked_dot(np.abs(coeffs), self.radii)
        return base - spread, base + spread


@dataclass
class CrownStats:
    """Bookkeeping for the scaling comparisons (Tables 1-5)."""

    backsub_nodes: int = 0
    seconds: float = 0.0


class _BacksubEngine:
    """One backsubstitution pass from an objective node."""

    def __init__(self, graph, region, depth):
        self.graph = graph
        self.region = region
        self.depth = depth

    def lower_bounds(self, node, objective):
        """Lower bounds of ``objective @ vec(node)`` per objective row.

        ``objective``: (n_obj, node.size). Upper bounds are obtained by the
        caller via negation.
        """
        n_obj = objective.shape[0]
        coeffs = {node.index: objective.reshape((n_obj,) + node.shape)}
        budget = {node.index: self.depth}
        constant = np.zeros(n_obj)
        visited = 0

        with np.errstate(over="ignore", invalid="ignore"):
            return self._run(node, coeffs, budget, constant, visited)

    def _run(self, node, coeffs, budget, constant, visited):
        for current in reversed(self.graph.nodes[: node.index + 1]):
            lam = coeffs.pop(current.index, None)
            if lam is None:
                continue
            visited += 1
            if current.op == "input":
                lo, _ = self.region.concretize(lam)
                constant += lo
                continue
            if budget.get(current.index, 0) <= 0:
                constant += self._concretize_frontier(lam, current)
                continue
            self._push(current, lam, coeffs, constant, budget)
        self.visited = visited
        return constant

    # ------------------------------------------------------------ internals
    @staticmethod
    def _accumulate(coeffs, parent, value):
        if parent.index in coeffs:
            coeffs[parent.index] = coeffs[parent.index] + value
        else:
            coeffs[parent.index] = value

    @staticmethod
    def _concretize_frontier(lam, node):
        pos = np.maximum(lam, 0.0)
        neg = np.minimum(lam, 0.0)
        return _masked_dot(pos, node.lower) + _masked_dot(neg, node.upper)

    def _push(self, node, lam, coeffs, constant, budget):
        """Push objective coefficients one op backwards (lower-bound mode)."""
        parents = node.parents
        remaining = budget.get(node.index, 0) - 1
        for parent in parents:
            budget[parent.index] = max(budget.get(parent.index, 0), remaining)

        if node.op == "affine":
            w = node.params["weight"]
            self._accumulate(coeffs, parents[0], lam @ w.T)
            if node.params["bias"] is not None:
                constant += _masked_dot(lam, node.params["bias"])
        elif node.op == "scale_shift":
            self._accumulate(coeffs, parents[0], lam * node.params["scale"])
            constant += _masked_dot(lam, node.params["shift"])
        elif node.op == "add":
            self._accumulate(coeffs, parents[0], lam)
            self._accumulate(coeffs, parents[1], lam)
        elif node.op == "transpose":
            self._accumulate(coeffs, parents[0], np.swapaxes(lam, 1, 2))
        elif node.op == "slice_rows":
            full = np.zeros((lam.shape[0],) + parents[0].shape)
            full[:, node.params["start"]: node.params["stop"]] = lam
            self._accumulate(coeffs, parents[0], full)
        elif node.op == "concat_last":
            offset = 0
            for parent in parents:
                width = parent.shape[-1]
                self._accumulate(coeffs, parent,
                                 lam[..., offset: offset + width])
                offset += width
        elif node.op in ("relu", "tanh", "exp", "reciprocal", "rsqrt",
                         "gelu"):
            parent = parents[0]
            a_l, b_l, a_u, b_u = unary_relaxation(node.op, parent.lower,
                                                  parent.upper, node.params)
            # Elementwise fallback to interval planes where the relaxation
            # is non-finite (exp overflow on huge regions).
            bad_l = ~(np.isfinite(a_l) & np.isfinite(b_l))
            a_l = np.where(bad_l, 0.0, a_l)
            b_l = np.where(bad_l, node.lower, b_l)
            bad_u = ~(np.isfinite(a_u) & np.isfinite(b_u))
            a_u = np.where(bad_u, 0.0, a_u)
            b_u = np.where(bad_u, node.upper, b_u)
            pos = np.maximum(lam, 0.0)
            neg = np.minimum(lam, 0.0)
            self._accumulate(coeffs, parent, pos * a_l + neg * a_u)
            constant += _masked_dot(pos, b_l) + _masked_dot(neg, b_u)
        elif node.op == "mul":
            x, z = parents
            al_x, al_z, gl, au_x, au_z, gu = mul_relaxation(
                x.lower, x.upper, z.lower, z.upper)
            al_x, al_z, gl = _sanitize_planes(al_x, al_z, gl, node.lower)
            au_x, au_z, gu = _sanitize_planes(au_x, au_z, gu, node.upper)
            pos = np.maximum(lam, 0.0)
            neg = np.minimum(lam, 0.0)
            self._accumulate(coeffs, x, pos * al_x + neg * au_x)
            self._accumulate(coeffs, z, pos * al_z + neg * au_z)
            constant += _masked_dot(pos, gl) + _masked_dot(neg, gu)
        elif node.op == "matmul":
            x, z = parents  # (n, k) @ (k, m)
            lx = x.lower[:, :, None]
            ux = x.upper[:, :, None]
            lz = z.lower[None, :, :]
            uz = z.upper[None, :, :]
            al_x, al_z, gl, au_x, au_z, gu = mul_relaxation(lx, ux, lz, uz)
            with np.errstate(invalid="ignore", over="ignore"):
                products = np.stack([lx * lz, lx * uz, ux * lz, ux * uz])
                prod_lower = np.where(
                    np.isnan(np.fmin.reduce(products)), -np.inf,
                    np.fmin.reduce(products))
                prod_upper = np.where(
                    np.isnan(np.fmax.reduce(products)), np.inf,
                    np.fmax.reduce(products))
            al_x, al_z, gl = _sanitize_planes(al_x, al_z, gl, prod_lower)
            au_x, au_z, gu = _sanitize_planes(au_x, au_z, gu, prod_upper)
            pos = np.maximum(lam, 0.0)
            neg = np.minimum(lam, 0.0)
            # Coefficient on x[i, t]: sum_j lam[o, i, j] * a_x[i, t, j].
            x_coeff = (np.einsum("oij,itj->oit", pos, al_x)
                       + np.einsum("oij,itj->oit", neg, au_x))
            z_coeff = (np.einsum("oij,itj->otj", pos, al_z)
                       + np.einsum("oij,itj->otj", neg, au_z))
            self._accumulate(coeffs, x, x_coeff)
            self._accumulate(coeffs, z, z_coeff)
            # gamma[i, t, j] enters y[i, j] summed over t.
            constant += (np.einsum("oij,itj->o", pos, gl)
                         + np.einsum("oij,itj->o", neg, gu))
        else:
            raise ValueError(f"cannot backsubstitute through {node.op}")


class CrownVerifier:
    """Linear-bound verifier with configurable backsubstitution depth.

    Parameters
    ----------
    model:
        A :class:`TransformerClassifier`-shaped network.
    backsub_depth:
        Graph-op horizon of each backsubstitution.
        ``BACKWARD_UNLIMITED`` reproduces CROWN-Backward; the default 30
        (roughly one encoder layer's worth of graph ops) reproduces
        CROWN-BaF's early stopping; 0 is IBP.
    """

    def __init__(self, model, backsub_depth=30):
        self.model = model
        self.backsub_depth = backsub_depth
        self.stats = CrownStats()

    # ---------------------------------------------------------------- bounds
    def _bound_all(self, graph, region):
        """Intersect every node's IBP bounds with backsubstituted ones."""
        lo, hi = region.interval()
        interval_propagate(graph, lo, hi)
        if self.backsub_depth <= 0:
            return
        needs_tight = {"relu", "tanh", "exp", "reciprocal", "rsqrt",
                       "gelu", "mul", "matmul"}
        engine = _BacksubEngine(graph, region, self.backsub_depth)
        bound_parents = set()
        for node in graph.nodes:
            if node.op in needs_tight:
                for parent in node.parents:
                    bound_parents.add(parent.index)
        for node in graph.nodes:
            if node.index not in bound_parents or node.op == "input":
                continue
            identity = np.eye(node.size)
            # One walk bounds both directions: rows [I; -I].
            stacked = engine.lower_bounds(node,
                                          np.vstack([identity, -identity]))
            lower = stacked[: node.size]
            upper = -stacked[node.size:]
            self.stats.backsub_nodes += 1
            node.lower = np.maximum(node.lower, lower.reshape(node.shape))
            node.upper = np.minimum(node.upper, upper.reshape(node.shape))
            # Numerical guard: keep lower <= upper.
            node.lower, node.upper = (np.minimum(node.lower, node.upper),
                                      np.maximum(node.lower, node.upper))
            clip = node.params.get("clip")
            if clip is not None:
                node.lower = np.clip(node.lower, clip[0], clip[1])
                node.upper = np.clip(node.upper, clip[0], clip[1])

    def margin_lower_bound(self, region, true_label, n_tokens=None,
                           n_classes=None):
        """Certified lower bound of min_other (y_true - y_other)."""
        start = time.perf_counter()
        n_tokens = n_tokens or region.center.shape[0]
        graph, _, logits = build_transformer_graph(self.model, n_tokens)
        self._bound_all(graph, region)
        n_classes = n_classes or logits.shape[-1]
        objective_rows = []
        for other in range(n_classes):
            if other == true_label:
                continue
            row = np.zeros(logits.size)
            row[true_label] = 1.0
            row[other] = -1.0
            objective_rows.append(row)
        engine = _BacksubEngine(graph, region,
                                max(self.backsub_depth, 1))
        lower = engine.lower_bounds(logits, np.stack(objective_rows))
        # The margin is also bounded by the stored (IBP-intersected) logits
        # intervals; take the better of the two, as any CROWN
        # implementation seeded with interval bounds does.
        logits_lower = logits.lower.reshape(-1)
        logits_upper = logits.upper.reshape(-1)
        interval_margins = [
            logits_lower[true_label] - logits_upper[other]
            for other in range(n_classes) if other != true_label]
        best = max(float(lower.min()), float(min(interval_margins)))
        self.stats.seconds += time.perf_counter() - start
        return best

    # ----------------------------------------------------------- public API
    def certify_region(self, region, true_label):
        """True iff the backsubstituted margin bound is positive."""
        return certified_from_margin(
            self.margin_lower_bound(region, true_label))

    def certify_word_perturbation(self, token_ids, position, radius, p,
                                  true_label=None):
        """T1 certification of one word's ℓp ball."""
        if true_label is None:
            true_label = self.model.predict(token_ids)
        embeddings = self.model.embed_array(token_ids)
        region = LpBallInputRegion(embeddings, radius, p,
                                   word_position_mask(embeddings, position))
        return self.certify_region(region, true_label)

    def certify_synonym_attack(self, attack, true_label=None):
        """T2 certification of a synonym attack box."""
        if true_label is None:
            true_label = self.model.predict(attack.token_ids)
        region = BoxInputRegion(attack.center, attack.radius)
        return self.certify_region(region, true_label)
