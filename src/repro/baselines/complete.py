"""Complete verification of small ReLU networks (GeoCert stand-in, App. A.2).

The paper's Table 10 compares the Multi-norm Zonotope against GeoCert, a
*complete* verifier computing exact pointwise robustness of small
fully-connected ReLU networks. GeoCert's polytope-walking code is not
reproducible offline, so this module provides a complete method of the same
family: **branch-and-bound over ReLU activation patterns**.

* Internal nodes are bounded by a *pattern-conditioned zonotope*: ReLUs
  fixed active/inactive propagate exactly (identity / zero), free ReLUs use
  the usual minimal-area transformer. A branch's bound ignores the cell's
  sign constraints, which is sound because the branches jointly cover the
  region (every concrete input matches some branch's pattern).
* At a leaf every ReLU is fixed, the network restricted to the cell is
  affine, and the margin is minimized *exactly* over the input region
  intersected with the cell polytope — a linear program for ℓ∞ regions
  (``scipy.optimize.linprog``) and a ball-constrained LP solved with SLSQP
  for ℓ2.

Like GeoCert, the method certifies (nearly) the true robust radius at a
cost orders of magnitude above one abstract pass — the contrast Table 10
reports. A node budget bounds worst cases; exhausting it returns ``None``
("unknown"), which radius searches treat as failure, keeping reported radii
sound.
"""

from __future__ import annotations

import numpy as np

from ..zonotope import MultiNormZonotope
from ..zonotope.elementwise import relu as relu_transformer

__all__ = ["BranchAndBoundVerifier"]


def _conditioned_relu(z, pattern_layer):
    """ReLU transformer with fixed neurons handled exactly.

    ``pattern_layer``: int array over the layer's neurons, +1 fixed active
    (identity), -1 fixed inactive (zero), 0 free (minimal-area transformer).
    """
    out = relu_transformer(z)
    fixed_on = pattern_layer == 1
    fixed_off = pattern_layer == -1
    if not (fixed_on.any() or fixed_off.any()):
        return out
    center = np.where(fixed_off, 0.0,
                      np.where(fixed_on, z.center, out.center))
    phi = out.phi.copy()
    eps = out.eps.copy()
    # Fixed-active neurons propagate exactly (identity); fresh transformer
    # symbols (rows past z's count) must not touch them.
    phi[:, fixed_on] = 0.0
    eps[:, fixed_on] = 0.0
    phi[: z.n_phi, fixed_on] = z.phi[:, fixed_on]
    eps[: z.n_eps, fixed_on] = z.eps[:, fixed_on]
    phi[:, fixed_off] = 0.0
    eps[:, fixed_off] = 0.0
    return MultiNormZonotope(center, phi, eps, z.p)


class _Subproblem:
    """One branch-and-bound node: a partial activation pattern."""

    __slots__ = ("pattern",)

    def __init__(self, pattern):
        self.pattern = pattern  # list of int8 arrays; 0 = free

    def split(self, layer, neuron):
        """Two children fixing ``neuron`` active / inactive."""
        on = [p.copy() for p in self.pattern]
        off = [p.copy() for p in self.pattern]
        on[layer][neuron] = 1
        off[layer][neuron] = -1
        return _Subproblem(on), _Subproblem(off)


class BranchAndBoundVerifier:
    """Complete (budgeted) robustness verifier for :class:`MLPClassifier`.

    Parameters
    ----------
    model:
        An ``MLPClassifier`` (ReLU hidden layers + linear output).
    node_limit:
        Maximum branch-and-bound nodes per margin query; exceeding it
        returns ``None`` (unknown).
    """

    def __init__(self, model, node_limit=600):
        self.model = model
        self.node_limit = node_limit
        self.layers = model.weights_and_biases()

    # ------------------------------------------------ conditioned zonotope
    def _node_bound(self, sub, region, margin_w, margin_b):
        """(margin lower bound, per-layer pre-activation bounds)."""
        z = region
        pre_bounds = []
        for layer_index, (weight, bias) in enumerate(self.layers[:-1]):
            pre = z.matmul_const(weight) + bias
            pre_bounds.append(pre.bounds())
            z = _conditioned_relu(pre, sub.pattern[layer_index])
        margin_z = z.matmul_const(margin_w.reshape(-1, 1))
        lower = margin_z.bounds()[0].reshape(-1)[0] + margin_b
        return float(lower), pre_bounds

    # ----------------------------------------------------------- leaf solve
    def _cell_affine(self, pattern):
        """Affine form of the network on a fully fixed cell.

        Returns (per-layer (W_z, b_z) pre-activation affine maps in terms of
        the input, final (W_out, b_out)).
        """
        w_cur = np.eye(self.layers[0][0].shape[0])
        b_cur = np.zeros(self.layers[0][0].shape[0])
        pre_maps = []
        for layer_index, (weight, bias) in enumerate(self.layers[:-1]):
            w_z = w_cur @ weight
            b_z = b_cur @ weight + bias
            pre_maps.append((w_z, b_z))
            active = (pattern[layer_index] == 1).astype(np.float64)
            w_cur = w_z * active
            b_cur = b_z * active
        weight, bias = self.layers[-1]
        return pre_maps, (w_cur @ weight, b_cur @ weight + bias)

    def _leaf_solve(self, sub, center, radius, p, margin_w_out, margin_b_out):
        """Exact min margin over region ∩ cell; (value, x*) or None.

        ``None`` means the cell does not intersect the region (prune).
        """
        # Imported here: scipy.optimize is slow to import and only the
        # Table 10 complete verifier needs it.
        from scipy.optimize import linprog, minimize

        pre_maps, (w_out, b_out) = self._cell_affine(sub.pattern)
        objective = w_out @ margin_w_out
        obj_const = b_out @ margin_w_out + margin_b_out

        rows, rhs = [], []
        for layer_index, (w_z, b_z) in enumerate(pre_maps):
            pat = sub.pattern[layer_index]
            on = pat == 1
            off = pat == -1
            # active: z >= 0  ->  -w x <= b ; inactive: z <= 0 -> w x <= -b.
            if on.any():
                rows.append(-w_z[:, on].T)
                rhs.append(b_z[on])
            if off.any():
                rows.append(w_z[:, off].T)
                rhs.append(-b_z[off])
        a_ub = np.vstack(rows) if rows else None
        b_ub = np.concatenate(rhs) if rhs else None

        if p == np.inf:
            bounds = [(c - radius, c + radius) for c in center]
            res = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                          method="highs")
            if not res.success:
                return None
            return float(res.fun + obj_const), res.x

        constraints = []
        if a_ub is not None:
            constraints.append({
                "type": "ineq",
                "fun": lambda v: b_ub - a_ub @ v,
                "jac": lambda v: -a_ub,
            })
        constraints.append({
            "type": "ineq",
            "fun": lambda v: radius ** 2 - np.sum((v - center) ** 2),
            "jac": lambda v: -2.0 * (v - center),
        })
        res = minimize(lambda v: objective @ v, center.copy(),
                       jac=lambda v: objective, constraints=constraints,
                       method="SLSQP",
                       options={"maxiter": 200, "ftol": 1e-9})
        if not res.success:
            # SLSQP reports infeasibility as failure; verify before pruning.
            feasible = (np.sum((res.x - center) ** 2) <= radius ** 2 + 1e-9
                        and (a_ub is None
                             or np.all(a_ub @ res.x <= b_ub + 1e-7)))
            if not feasible:
                return None
        return float(objective @ res.x + obj_const), res.x

    # --------------------------------------------------------------- queries
    def margin_is_positive(self, center, radius, p, true_label, other_label):
        """True/False/None: does min margin stay positive over the region?"""
        p = float(p)
        if p not in (2.0, np.inf):
            raise ValueError("complete verifier supports p in {2, inf}")
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        region = MultiNormZonotope.from_lp_ball(center, radius, p)
        weight, bias = self.layers[-1]
        margin_w = weight[:, true_label] - weight[:, other_label]
        margin_b = bias[true_label] - bias[other_label]
        class_selector = (np.eye(weight.shape[1])[true_label]
                          - np.eye(weight.shape[1])[other_label])

        root = _Subproblem([np.zeros(w.shape[1], dtype=np.int8)
                            for w, _ in self.layers[:-1]])
        stack = [root]
        visited = 0
        while stack:
            sub = stack.pop()
            visited += 1
            if visited > self.node_limit:
                return None
            lower, pre_bounds = self._node_bound(sub, region, margin_w,
                                                 margin_b)
            if lower > 0:
                continue
            branch = self._pick_branch(sub, pre_bounds)
            if branch is None:
                # All remaining free neurons are sign-stable on this branch;
                # complete the pattern with their stable signs and solve the
                # affine cell exactly.
                completed = self._complete_pattern(sub, pre_bounds)
                solved = self._leaf_solve(completed, center, radius, p,
                                          class_selector, 0.0)
                if solved is None:
                    continue  # cell misses the region
                value, x_star = solved
                if value > 1e-9:
                    continue
                prediction = int(self.model.predict(x_star.reshape(1, -1))[0])
                if prediction != true_label:
                    return False
                # Minimizer sits numerically on the decision boundary; the
                # region is not strictly certifiable.
                return False
            stack.extend(sub.split(*branch))
        return True

    @staticmethod
    def _complete_pattern(sub, pre_bounds):
        """Fix stable free neurons to their IBP-certain sign."""
        pattern = [p.copy() for p in sub.pattern]
        for layer, (z_lo, z_hi) in enumerate(pre_bounds):
            free = pattern[layer] == 0
            pattern[layer][free & (z_lo >= 0)] = 1
            pattern[layer][free & (z_hi <= 0)] = -1
            # Anything still free crosses zero but was not picked: treat as
            # inactive (its exact sign constraint is added to the cell).
            pattern[layer][pattern[layer] == 0] = -1
        return _Subproblem(pattern)

    @staticmethod
    def _pick_branch(sub, pre_bounds):
        """Free neuron with the widest sign-crossing pre-activation."""
        best, best_width = None, 0.0
        for layer, (z_lo, z_hi) in enumerate(pre_bounds):
            free = sub.pattern[layer] == 0
            crossing = free & (z_lo < 0) & (z_hi > 0)
            for neuron in np.flatnonzero(crossing):
                width = min(-z_lo[neuron], z_hi[neuron])
                if width > best_width:
                    best, best_width = (layer, int(neuron)), width
        return best

    def certify(self, x, radius, p, true_label=None):
        """Certify all class margins; True / False / None (budget hit)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if true_label is None:
            true_label = int(self.model.predict(x.reshape(1, -1))[0])
        unknown = False
        for other in range(self.model.n_classes):
            if other == true_label:
                continue
            verdict = self.margin_is_positive(x, radius, p, true_label,
                                              other)
            if verdict is False:
                return False
            unknown = unknown or verdict is None
        return None if unknown else True

    def max_certified_radius(self, x, p, true_label=None, initial=0.05,
                             n_iterations=10):
        """Binary search on the certified radius (unknown counts as fail)."""
        from ..verify.radius import binary_search_radius

        def predicate(radius):
            return self.certify(x, radius, p, true_label=true_label) is True

        return binary_search_radius(predicate, initial=initial,
                                    n_iterations=n_iterations)
