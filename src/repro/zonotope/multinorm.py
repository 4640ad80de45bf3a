"""The Multi-norm Zonotope abstract domain (Section 4).

A Multi-norm Zonotope abstracts a tensor of variables ``x`` as

    x = c + A . phi + B . eps,    ||phi||_p <= 1,   eps_j in [-1, 1],

where ``phi`` are the ℓp-bound noise symbols introduced by the input region
and ``eps`` are classical ℓ∞ noise symbols (the input box for p=∞, plus the
fresh symbols created by non-linear abstract transformers). With no ``phi``
symbols the domain degenerates to the classical Zonotope.

Storage layout: for a variable tensor of shape ``S``,

* ``center`` has shape ``S``,
* ``phi`` has shape ``(Ep,) + S``  (symbol axis first),
* the eps block logically has shape ``(Einf,) + S`` but is held in
  structured form: an exactly-sized dense row array followed by an
  optional lazy *tail* of one-nonzero-per-variable symbols
  (:class:`~repro.zonotope.storage.EpsTail`) — the shape every fresh symbol
  from :meth:`append_fresh_eps` has.  Elementwise transformers, variable
  sums/reshapes/transposes and interval bounds operate on the tail in
  O(symbols) without densifying; ``matmul_const`` and the dot product's
  exact part scatter it; the other mixing operations (sums of zonotopes,
  slicing, symbol reduction, the Precise eps-eps bound) materialize it
  first.  The ``eps`` property always yields the dense block, so external
  code sees the classical layout.

Concrete interval bounds follow Theorem 1 via the dual norm (Lemma 1):
``l = c - ||A_k||_q - ||B_k||_1`` and ``u = c + ||A_k||_q + ||B_k||_1``
with ``1/p + 1/q = 1``.
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .numeric import propagation_errstate
from .storage import EpsTail

__all__ = ["MultiNormZonotope", "dual_exponent", "norm_along_axis0",
           "sum_along"]

_SUPPORTED_P = (1.0, 2.0, np.inf)

# numpy's float add.reduce sums an axis of fewer than this many entries
# left to right from 0.0; its pairwise summation blocks 8-way from here on.
_SHORT_AXIS = 8


def dual_exponent(p):
    """The exponent ``q`` dual to ``p`` (1/p + 1/q = 1)."""
    p = float(p)
    if p == 1.0:
        return np.inf
    if p == 2.0:
        return 2.0
    if p == np.inf:
        return 1.0
    if p <= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return p / (p - 1.0)


def norm_along_axis0(coeffs, q):
    """ℓq norm over the (leading) symbol axis of a coefficient tensor."""
    if coeffs.shape[0] == 0:
        return np.zeros(coeffs.shape[1:])
    if q == 1.0:
        return np.abs(coeffs).sum(axis=0)
    if q == 2.0:
        return np.sqrt((coeffs * coeffs).sum(axis=0))
    if q == np.inf:
        return np.abs(coeffs).max(axis=0)
    return (np.abs(coeffs) ** q).sum(axis=0) ** (1.0 / q)


def sum_along(values, axis, keepdims=False):
    """``values.sum(axis)``, bitwise; a short last axis by whole-array adds.

    Over a last axis of fewer than ``_SHORT_AXIS`` entries numpy's own
    order is ``0.0 + v[0] + v[1] + ...``, so adding the slices in that
    order gives its result, signed zeros, infinities and NaN included,
    several times faster on the softmax's many short rows. Other axes and
    longer ones keep ``np.sum``, whose pairwise order no slice chain
    reproduces.
    """
    count = values.shape[axis]
    if axis % values.ndim != values.ndim - 1 or not 0 < count < _SHORT_AXIS:
        return values.sum(axis=axis, keepdims=keepdims)
    with propagation_errstate():
        total = values[..., 0] + 0.0
        for k in range(1, count):
            total += values[..., k]
    return total[..., None] if keepdims else total


class MultiNormZonotope:
    """A Multi-norm Zonotope over a tensor of variables.

    Instances are immutable by convention: transformers return new objects
    (coefficient arrays may be shared when unchanged).
    """

    __slots__ = ("center", "phi", "p", "_eps_rows", "_eps_tail")

    def __init__(self, center, phi=None, eps=None, p=np.inf):
        self.center = np.asarray(center, dtype=np.float64)
        shape = self.center.shape
        if phi is None:
            phi = np.zeros((0,) + shape)
        if eps is None:
            eps = np.zeros((0,) + shape)
        self.phi = np.asarray(phi, dtype=np.float64)
        eps = np.asarray(eps, dtype=np.float64)
        self.p = float(p)
        if self.p not in _SUPPORTED_P and self.p <= 1.0:
            raise ValueError(f"unsupported p-norm {p}")
        if self.phi.shape[1:] != shape or eps.shape[1:] != shape:
            raise ValueError(
                f"coefficient shapes {self.phi.shape} / {eps.shape} do "
                f"not match variable shape {shape}")
        self._eps_rows = eps
        self._eps_tail = None

    @classmethod
    def _build(cls, center, phi, rows, tail, p):
        """Unvalidated construction from internal storage (hot path):
        ``rows`` is the dense eps rows, ``tail`` an :class:`EpsTail` or
        None."""
        obj = object.__new__(cls)
        obj.center = center
        obj.phi = phi
        obj.p = p
        obj._eps_rows = rows
        obj._eps_tail = tail
        return obj

    # ----------------------------------------------------------- eps storage
    def _ensure_dense(self):
        """Fold the lazy tail into dense rows (mixing ops need them).

        Mutates only the internal representation; the abstract value is
        unchanged, so sharing is preserved.
        """
        if self._eps_tail is not None:
            self._eps_rows = self._materialized_eps()
            self._eps_tail = None

    def _materialized_eps(self):
        """A new dense block of the rows followed by the scattered tail."""
        tail = self._eps_tail
        TRACER.count("eps_materializations")
        TRACER.count("eps_rows_materialized", len(tail))
        count = self._eps_rows.shape[0]
        total = count + len(tail)
        dense = np.zeros((total,) + self.shape)
        dense[:count] = self._eps_rows
        flat = dense.reshape(total, -1)
        tail.scatter_rows(flat[count:])
        return dense

    @property
    def eps(self):
        """Dense ``(Einf,) + S`` eps block (materializes any lazy tail)."""
        self._ensure_dense()
        return self._eps_rows

    def eps_copy(self):
        """A dense eps block the caller owns: ``self.eps.copy()``, except
        that a lazy tail is scattered straight into the new block (one
        allocation instead of two) and this zonotope stays lazy."""
        if self._eps_tail is None:
            return self._eps_rows.copy()
        return self._materialized_eps()

    def _eps_l1(self):
        """Per-variable ℓ1 mass of the eps block, tail-aware."""
        if self._eps_rows.shape[0]:
            total = np.abs(self._eps_rows).sum(axis=0)
        else:
            total = np.zeros(self.shape)
        if self._eps_tail is not None:
            total = total + self._eps_tail.l1_per_variable(
                self.center.size).reshape(self.shape)
        return total

    def eps_l1(self):
        """Per-variable ℓ1 mass of the eps block without densifying it.

        Equals ``norm_along_axis0(self.eps, 1.0)`` but runs in O(symbols)
        on a lazy tail — the dot-product transformer's dual-norm cascades
        collapse eps blocks with exactly this norm.
        """
        return self._eps_l1()

    # -------------------------------------------------------------- metadata
    @property
    def shape(self):
        return self.center.shape

    @property
    def ndim(self):
        return self.center.ndim

    @property
    def n_phi(self):
        """Number of ℓp noise symbols (E_p)."""
        return self.phi.shape[0]

    @property
    def n_eps(self):
        """Number of ℓ∞ noise symbols (E_∞)."""
        count, tail = self._eps_rows.shape[0], self._eps_tail
        return count if tail is None else count + len(tail)

    @property
    def q(self):
        """Dual exponent of ``p``."""
        return dual_exponent(self.p)

    def __repr__(self):
        return (f"MultiNormZonotope(shape={self.shape}, p={self.p}, "
                f"n_phi={self.n_phi}, n_eps={self.n_eps})")

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_lp_ball(cls, center, radius, p, perturbed_mask=None):
        """Zonotope for an ℓp ball of ``radius`` around ``center``.

        ``perturbed_mask`` (boolean, same shape as ``center``) restricts
        which coordinates are perturbed — e.g. one word's embedding row in
        threat model T1. One noise symbol is created per perturbed
        coordinate. For p=∞ the symbols are classical ``eps`` symbols (the
        Multi-norm Zonotope then coincides with a classical Zonotope); for
        p in {1, 2} they are ``phi`` symbols.
        """
        center = np.asarray(center, dtype=np.float64)
        if perturbed_mask is None:
            perturbed_mask = np.ones(center.shape, dtype=bool)
        perturbed_mask = np.asarray(perturbed_mask, dtype=bool)
        flat_idx = np.flatnonzero(perturbed_mask.reshape(-1))
        n_sym = len(flat_idx)
        coeffs = np.zeros((n_sym,) + center.shape)
        coeffs.reshape(n_sym, -1)[np.arange(n_sym), flat_idx] = float(radius)
        if float(p) == np.inf:
            return cls(center, eps=coeffs, p=np.inf)
        return cls(center, phi=coeffs, p=p)

    @classmethod
    def from_box(cls, center, radius_per_coord):
        """Classical zonotope for a per-coordinate box (synonym regions)."""
        center = np.asarray(center, dtype=np.float64)
        radius = np.asarray(radius_per_coord, dtype=np.float64)
        mask = radius.reshape(-1) > 0
        flat_idx = np.flatnonzero(mask)
        coeffs = np.zeros((len(flat_idx),) + center.shape)
        if len(flat_idx):  # an all-zero box is a point (no symbols)
            coeffs.reshape(len(flat_idx), -1)[
                np.arange(len(flat_idx)), flat_idx] = \
                radius.reshape(-1)[flat_idx]
        return cls(center, eps=coeffs, p=np.inf)

    @classmethod
    def point(cls, center, p=np.inf, n_phi=0, n_eps=0):
        """Degenerate zonotope for a concrete value (zero coefficients)."""
        center = np.asarray(center, dtype=np.float64)
        return cls(center,
                   phi=np.zeros((n_phi,) + center.shape),
                   eps=np.zeros((n_eps,) + center.shape), p=p)

    # --------------------------------------------------------------- bounds
    def bounds(self):
        """Concrete interval bounds (Theorem 1): sound and tight.

        Overflowed affine forms (infinite center/coefficients, e.g. from
        exponentials of enormous regions) would yield NaN via inf - inf;
        those entries degrade to the vacuous-but-sound bounds -inf/+inf.
        """
        with propagation_errstate():
            spread = norm_along_axis0(self.phi, self.q) + self._eps_l1()
            lower = self.center - spread
            upper = self.center + spread
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            lower = np.where(np.isnan(lower), -np.inf, lower)
            upper = np.where(np.isnan(upper), np.inf, upper)
        return lower, upper

    def radius(self):
        """Half-width of the concrete interval bounds."""
        return norm_along_axis0(self.phi, self.q) + self._eps_l1()

    def concretize(self, phi_values, eps_values):
        """Evaluate the affine forms at concrete noise instantiations.

        Raises if the instantiation violates the norm constraints (beyond a
        small numerical tolerance) — useful for soundness tests.
        """
        phi_values = np.asarray(phi_values, dtype=np.float64)
        eps_values = np.asarray(eps_values, dtype=np.float64)
        if phi_values.shape != (self.n_phi,):
            raise ValueError(f"expected {self.n_phi} phi values")
        if eps_values.shape != (self.n_eps,):
            raise ValueError(f"expected {self.n_eps} eps values")
        if self.n_phi and np.linalg.norm(phi_values, ord=self.p) > 1 + 1e-9:
            raise ValueError("phi instantiation violates the ℓp constraint")
        if self.n_eps and np.abs(eps_values).max(initial=0.0) > 1 + 1e-9:
            raise ValueError("eps instantiation violates [-1, 1]")
        out = self.center.copy()
        if self.n_phi:
            out += np.tensordot(phi_values, self.phi, axes=(0, 0))
        if self.n_eps:
            out += np.tensordot(eps_values, self.eps, axes=(0, 0))
        return out

    def sample(self, rng, n=1):
        """Draw ``n`` concrete points from the zonotope (for sound tests).

        Vectorized over ``n``: all noise instantiations are drawn and
        contracted against the coefficient blocks in one shot.
        """
        if n <= 0:
            return np.zeros((0,) + self.shape)
        points = np.broadcast_to(self.center, (n,) + self.shape).copy()
        if self.n_phi:
            raw = rng.normal(size=(n, self.n_phi))
            norms = np.linalg.norm(raw, ord=self.p, axis=1)
            scales = rng.uniform(0.0, 1.0, size=n) / np.maximum(norms, 1e-12)
            points += np.tensordot(raw * scales[:, None], self.phi,
                                   axes=(1, 0))
        if self.n_eps:
            eps_values = rng.uniform(-1.0, 1.0, size=(n, self.n_eps))
            points += np.tensordot(eps_values, self.eps, axes=(1, 0))
        return points

    # ------------------------------------------------------ symbol alignment
    def pad_eps(self, n_total):
        """Zero-pad the eps block to ``n_total`` symbols (fresh symbols)."""
        if n_total < self.n_eps:
            raise ValueError("cannot pad to fewer symbols")
        if n_total == self.n_eps:
            return self
        extra = n_total - self.n_eps
        rows, tail = self._eps_rows, self._eps_tail
        if tail is not None:
            tail = EpsTail.concatenated(tail, EpsTail.zeros(extra))
        else:
            rows = np.concatenate([rows, np.zeros((extra,) + self.shape)])
        return MultiNormZonotope._build(self.center, self.phi, rows, tail,
                                        self.p)

    def aligned_with(self, other):
        """Return (self', other') with identical symbol counts.

        Both zonotopes must come from the same propagation (identical phi
        block size and p); the eps blocks are zero-padded to the max, which
        is correct because later symbols are always fresh.
        """
        if self.n_phi != other.n_phi or self.p != other.p:
            raise ValueError("zonotopes come from different symbol spaces")
        n = max(self.n_eps, other.n_eps)
        return self.pad_eps(n), other.pad_eps(n)

    def append_fresh_eps(self, magnitudes):
        """Append one fresh ℓ∞ symbol per variable with given magnitude.

        ``magnitudes`` has the variable shape; variables with a zero
        magnitude get no symbol (their rows would be all-zero). This is how
        every non-linear transformer introduces its ``beta_new eps_new``
        term.  The fresh block extends the lazy one-nonzero-per-variable
        tail instead of being densified into rows.
        """
        fresh = EpsTail.from_magnitudes(magnitudes)
        if len(fresh) == 0:
            return self
        TRACER.gauge_max("peak_eps_rows", self.n_eps + len(fresh))
        return MultiNormZonotope._build(
            self.center, self.phi, self._eps_rows,
            EpsTail.concatenated(self._eps_tail, fresh), self.p)

    # -------------------------------------------------- affine (Theorem 2)
    def affine_image(self, lam, mu=None):
        """Exact per-variable affine map ``lam * x + mu`` (tail-aware).

        This is the linear skeleton of every elementwise transformer:
        ``lam``/``mu`` broadcast over the variable shape, the dense
        coefficients are rescaled rows-at-once and a lazy tail is rescaled
        in O(symbols) via its per-variable magnitudes.
        """
        lam = np.asarray(lam, dtype=np.float64)
        center = lam * self.center
        if mu is not None:
            center = center + mu
        phi = lam * self.phi
        rows = lam * self._eps_rows
        tail = self._eps_tail
        if tail is not None:
            lam_flat = np.broadcast_to(lam, self.shape).reshape(-1)
            tail = tail.scale_flat(lam_flat)
        return MultiNormZonotope._build(center, phi, rows, tail, self.p)

    def _binary_affine(self, other, f):
        a, b = self.aligned_with(other)
        return MultiNormZonotope(f(a.center, b.center), f(a.phi, b.phi),
                                 f(a.eps, b.eps), self.p)

    def __add__(self, other):
        if isinstance(other, MultiNormZonotope):
            return self._binary_affine(other, np.add)
        other = np.asarray(other, dtype=np.float64)
        center = self.center + other
        if center.shape != self.shape:
            raise ValueError(
                f"constant of shape {other.shape} broadcasts the variable "
                f"shape {self.shape}")
        return MultiNormZonotope._build(center, self.phi, self._eps_rows,
                                        self._eps_tail, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, MultiNormZonotope):
            return self._binary_affine(other, np.subtract)
        other = np.asarray(other, dtype=np.float64)
        center = self.center - other
        if center.shape != self.shape:
            raise ValueError(
                f"constant of shape {other.shape} broadcasts the variable "
                f"shape {self.shape}")
        return MultiNormZonotope._build(center, self.phi, self._eps_rows,
                                        self._eps_tail, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        tail = self._eps_tail
        return MultiNormZonotope._build(
            -self.center, -self.phi, -self._eps_rows,
            tail.negated() if tail is not None else None, self.p)

    def scale(self, factor):
        """Elementwise scaling by a constant scalar or array (exact)."""
        factor = np.asarray(factor, dtype=np.float64)
        if np.broadcast_shapes(self.shape, factor.shape) != self.shape:
            # Up-broadcasting factors are rejected with the legacy error.
            return MultiNormZonotope(self.center * factor,
                                     self.phi * factor,
                                     self.eps * factor, self.p)
        return self.affine_image(factor)

    __mul__ = scale          # constants only; variable products live in
    __rmul__ = scale         # repro.zonotope.dotproduct

    def matmul_const(self, weight):
        """Right-multiply the variables by a constant matrix: ``x @ W``.

        Variable tensors with last axis ``k`` and ``W`` of shape (k, m).
        Exact (affine transformer, Theorem 2). A lazy tail mixes along the
        last axis here, but each tail row maps to a scaled row of ``W``
        scattered at its variable position — so the tail is consumed in
        O(T·m) instead of being densified and pushed through the matmul.
        """
        weight = np.asarray(weight, dtype=np.float64)
        center = self.center @ weight
        rows, tail = self._eps_rows, self._eps_tail
        if tail is not None and len(tail):
            count = rows.shape[0]
            eps = np.zeros((self.n_eps,) + center.shape)
            if count:
                eps[:count] = rows @ weight
            tail.scatter_matmul(eps, count, self.shape, weight)
        else:
            eps = self.eps @ weight
        return MultiNormZonotope._build(center, self.phi @ weight, eps, None,
                                        self.p)

    # ----------------------------------------------------- variable reshapes
    def __getitem__(self, idx):
        """Select variables (slicing applies to the variable axes)."""
        sym_idx = (slice(None),) + (idx if isinstance(idx, tuple) else (idx,))
        return MultiNormZonotope(self.center[idx], self.phi[sym_idx],
                                 self.eps[sym_idx], self.p)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        center = self.center.reshape(shape)
        new_shape = center.shape
        # C-order reshapes preserve flat variable indices, so a lazy tail
        # carries over untouched.
        rows = self._eps_rows
        return MultiNormZonotope._build(
            center, self.phi.reshape((self.n_phi,) + new_shape),
            rows.reshape(rows.shape[:1] + new_shape), self._eps_tail, self.p)

    def transpose_vars(self, *axes):
        """Transpose the variable axes (symbol axis stays first)."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        sym_axes = (0,) + tuple(a + 1 for a in axes)
        center = self.center.transpose(axes)
        tail = self._eps_tail
        if tail is not None:
            tail = tail.transposed(self.shape, axes, center.shape)
        return MultiNormZonotope._build(
            center, self.phi.transpose(sym_axes),
            self._eps_rows.transpose(sym_axes), tail, self.p)

    def sum_vars(self, axis, keepdims=False):
        """Sum variables along an axis (exact affine transformer).

        A lazy tail survives the sum: each tail symbol touches a single
        variable, so its coefficient simply moves to the collapsed index.
        """
        axis = axis % self.ndim
        center = sum_along(self.center, axis, keepdims)
        tail = self._eps_tail
        if tail is not None:
            tail = tail.summed(self.shape, axis, keepdims, center.shape)
        return MultiNormZonotope._build(
            center, sum_along(self.phi, axis + 1, keepdims),
            sum_along(self._eps_rows, axis + 1, keepdims), tail, self.p)

    def mean_vars(self, axis, keepdims=False):
        """Mean of variables along an axis (exact)."""
        count = self.shape[axis % self.ndim]
        return self.sum_vars(axis, keepdims=keepdims).scale(1.0 / count)

    def expand_dims(self, axis):
        """Insert a size-one variable axis."""
        axis = axis % (self.ndim + 1)
        center = np.expand_dims(self.center, axis)
        return MultiNormZonotope._build(
            center, np.expand_dims(self.phi, axis + 1),
            np.expand_dims(self._eps_rows, axis + 1), self._eps_tail, self.p)
