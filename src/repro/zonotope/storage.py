"""Structured storage for eps-coefficient blocks (the engine fast path).

Profiling a DeepT propagation shows the dense ``(E, *S)`` eps block is the
engine's cost centre — not because of the math done *on* it, but because of
how it grows and what shape the growth has:

* every non-linear transformer appends fresh symbols with
  ``np.concatenate``, copying the whole block each time (O(E^2) total
  allocation over a propagation), and
* the appended rows are *one-hot per variable* (each fresh symbol touches
  exactly one variable), so almost all of the copied memory is zeros.

This module provides the two structures that remove both costs:

:class:`EpsBuffer`
    Capacity-doubling dense row storage.  Appends and zero-padding reuse
    spare capacity in amortized O(rows-written) instead of copying the
    block; rows beyond the high-water mark are kept zero so padding is a
    bookkeeping change.

:class:`EpsTail`
    A trailing block of symbols each of which touches exactly **one**
    variable, stored as parallel ``(index, magnitude)`` arrays over the
    flattened variable tensor.  This is the closure of what
    ``append_fresh_eps`` produces under the elementwise transformers
    (per-variable rescaling), variable-axis sums, transposes and reshapes —
    exactly the ops between one mixing operation and the next.  Mixing ops
    (matrix products, concatenation, symbol reduction, refinement)
    materialize the tail into dense rows.

The global fast-path switch exists so the dense execution mode stays
available: :func:`dense_engine` forces the pre-optimization representation
(immediate dense appends, no tails, no spare capacity), which the
equivalence tests and ``benchmarks/bench_engine_speed.py`` use as the
old-engine baseline.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..perf import PERF

__all__ = ["EpsBuffer", "EpsTail", "EpsCapacityPool", "capacity_pool",
           "reset_capacity_pool", "fast_path_enabled", "set_fast_path",
           "dense_engine"]

_MIN_CAPACITY = 16


class _EngineState:
    __slots__ = ("fast",)

    def __init__(self):
        self.fast = True


_STATE = _EngineState()


def fast_path_enabled():
    """Whether the structured fast path (buffers + tails) is active."""
    return _STATE.fast


def set_fast_path(enabled):
    """Globally enable/disable the structured fast path."""
    _STATE.fast = bool(enabled)


@contextmanager
def dense_engine():
    """Run a scope with the dense (pre-optimization) engine semantics."""
    previous = _STATE.fast
    _STATE.fast = False
    try:
        yield
    finally:
        _STATE.fast = previous


def _grow_capacity(needed):
    """Smallest power of two >= max(needed, minimum capacity)."""
    if needed <= _MIN_CAPACITY:
        return _MIN_CAPACITY
    return 1 << (int(needed) - 1).bit_length()


class EpsCapacityPool:
    """Capacity hints for eps-row buffers, keyed by variable shape.

    A propagation's symbol count grows along a trajectory that is identical
    from one radius probe to the next (same network, same region shape), so
    the capacity-doubling reallocations the perf counters record
    (``eps_buffer_reallocations`` / ``eps_rows_materialized``) repeat the
    same growth ladder for every query.  The pool remembers the high-water
    capacity observed per row shape; the *next* allocation for that shape
    starts at the peak, collapsing the ladder to (at most) one reallocation
    per shape.  Purely an allocation-size hint: buffer contents and row
    counts are untouched, so results are bitwise identical with the pool on
    or off.
    """

    __slots__ = ("enabled", "_hints")

    _MAX_SHAPES = 64  # hints are a few ints each; bound the dict anyway

    def __init__(self):
        self.enabled = True
        self._hints = {}

    def suggest(self, extra_shape, needed):
        """Capacity to allocate for ``needed`` rows of shape ``extra_shape``."""
        grown = _grow_capacity(needed)
        if not self.enabled:
            return grown
        hint = self._hints.get(extra_shape, 0)
        if hint > grown:
            PERF.count("eps_pool_hits")
            return hint
        return grown

    def observe(self, extra_shape, capacity):
        """Record the capacity a shape actually reached."""
        if not self.enabled:
            return
        if capacity > self._hints.get(extra_shape, 0):
            if len(self._hints) >= self._MAX_SHAPES:
                self._hints.clear()
            self._hints[extra_shape] = capacity

    def clear(self):
        self._hints.clear()


_POOL = EpsCapacityPool()


def capacity_pool():
    """The process-global eps capacity pool."""
    return _POOL


def reset_capacity_pool():
    """Drop all capacity hints (fork hooks, tests)."""
    _POOL.clear()


class EpsBuffer:
    """Growable dense eps-row storage shared between derived zonotopes.

    Invariants:

    * ``data[used:]`` is all zeros (so zero-padding can hand out rows
      without writing them);
    * rows ``[0, used)`` are immutable once exposed — in-place appends are
      taken only by the zonotope whose logical row count equals ``used``
      (the tip owner); everyone else copies into a fresh buffer.
    """

    __slots__ = ("data", "used")

    def __init__(self, data, used):
        self.data = data
        self.used = used

    @classmethod
    def from_rows(cls, rows):
        """Wrap an exactly-sized dense block (no spare capacity)."""
        rows = np.asarray(rows, dtype=np.float64)
        return cls(rows, rows.shape[0])

    @property
    def capacity(self):
        return self.data.shape[0]

    def rows(self, count):
        """Read-only view of the first ``count`` rows."""
        return self.data[:count]

    def _reallocate(self, count, extra_shape, needed):
        PERF.count("eps_buffer_reallocations")
        capacity = _POOL.suggest(extra_shape, needed)
        fresh = np.zeros((capacity,) + extra_shape)
        fresh[:count] = self.data[:count]
        _POOL.observe(extra_shape, capacity)
        return EpsBuffer(fresh, count)

    def append(self, count, block):
        """Append ``block`` after row ``count``; returns (buffer, count').

        Appends in place when this zonotope owns the buffer tip and spare
        capacity suffices; otherwise copies into a doubled buffer.
        """
        k = block.shape[0]
        if k == 0:
            return self, count
        target = self
        if self.used != count or count + k > self.capacity:
            target = self._reallocate(count, block.shape[1:], count + k)
        target.data[count:count + k] = block
        target.used = count + k
        PERF.count("eps_rows_appended", k)
        return target, count + k

    def pad(self, count, n_total, extra_shape):
        """Logically extend to ``n_total`` zero rows; returns (buffer, n).

        Free when this zonotope owns the buffer tip and capacity suffices:
        rows beyond ``used`` are zero by invariant, so claiming them is a
        bookkeeping change.  Claiming them also bumps ``used``, which makes
        any later append from a *shorter* holder copy out instead of
        writing into rows handed out here as padding.
        """
        if n_total <= count:
            return self, count
        if self.used == count and n_total <= self.capacity:
            self.used = n_total
            return self, n_total
        fresh = self._reallocate(count, extra_shape, n_total)
        fresh.used = n_total
        return fresh, n_total


class EpsTail:
    """A block of eps symbols each touching exactly one variable.

    ``idx[s]`` is the flattened variable index symbol ``s`` touches and
    ``mag[s]`` its coefficient.  Symbol order equals dense row order, so
    materializing reproduces bit-for-bit the rows the dense engine builds.
    Zero-magnitude entries represent padded (all-zero) rows.  Instances are
    immutable; every transformation returns a new tail.
    """

    __slots__ = ("idx", "mag")

    def __init__(self, idx, mag):
        self.idx = idx
        self.mag = mag

    def __len__(self):
        return self.idx.shape[0]

    @classmethod
    def from_magnitudes(cls, magnitudes, tol=0.0):
        """Tail for one fresh symbol per variable with ``|mag| > tol``."""
        flat = np.asarray(magnitudes, dtype=np.float64).reshape(-1)
        idx = np.flatnonzero(np.abs(flat) > tol)
        return cls(idx, flat[idx])

    @classmethod
    def zeros(cls, n):
        """``n`` all-zero rows (fresh symbols this zonotope never uses)."""
        return cls(np.zeros(n, dtype=np.intp), np.zeros(n))

    @staticmethod
    def concatenated(first, second):
        if first is None:
            return second
        if second is None:
            return first
        return EpsTail(np.concatenate([first.idx, second.idx]),
                       np.concatenate([first.mag, second.mag]))

    # -------------------------------------------------------------- queries
    def l1_per_variable(self, n_flat):
        """Per-variable ℓ1 mass of the tail (flattened)."""
        return np.bincount(self.idx, weights=np.abs(self.mag),
                           minlength=n_flat)

    def materialize(self, shape):
        """The dense ``(len, *shape)`` block this tail represents."""
        n = len(self)
        block = np.zeros((n, int(np.prod(shape, dtype=np.intp))))
        self.scatter_rows(block)
        return block.reshape((n,) + tuple(shape))

    def scatter_rows(self, flat_block):
        """Write each symbol's nonzero into preallocated ``(len, M)`` rows."""
        flat_block[np.arange(len(self)), self.idx] = self.mag

    def scatter_matmul(self, eps, row_offset, var_shape, weight):
        """Exact ``x @ W`` rows for tail symbols, scattered in O(T·m).

        A tail symbol at variable (..., t) of magnitude b contributes
        ``b * W[t, :]`` to output row (..., :); the rows land at
        ``eps[row_offset + s]``.
        """
        *lead, t_idx = np.unravel_index(self.idx, var_shape)
        rows = row_offset + np.arange(len(self))
        eps[(rows, *lead)] += self.mag[:, None] * weight[t_idx]

    def scatter_cross(self, out, row_offset, var_shape, other_center, side):
        """Exact affine cross rows for lazy-tail symbols, in O(T·m) total.

        A tail symbol touches exactly one operand variable, so its
        cross-term row is a scaled slice of the other operand's center: for
        ``side="x"`` a symbol at (..., i, t) of magnitude b contributes
        ``b * y.center[..., t, :]`` to output row (..., i, :); for
        ``side="y"`` a symbol at (..., t, j) contributes
        ``b * x.center[..., :, t]`` to (..., :, j). Scattering these rows
        directly skips the dense cross matmul over the (usually huge) tail
        block.
        """
        multi = np.unravel_index(self.idx, var_shape)
        rows = row_offset + np.arange(len(self))
        if side == "x":
            *batch, i_idx, t_idx = multi
            vals = self.mag[:, None] * other_center[(*batch, t_idx)]
            out[(rows, *batch, i_idx)] += vals
        else:
            *batch, t_idx, j_idx = multi
            center_t = np.swapaxes(other_center, -1, -2)
            vals = self.mag[:, None] * center_t[(*batch, t_idx)]
            out[(rows, *batch, slice(None), j_idx)] += vals

    # ------------------------------------------------------ transformations
    def scale_flat(self, factor_flat):
        """Per-variable rescale (elementwise transformers): mag *= f[idx]."""
        return EpsTail(self.idx, self.mag * factor_flat[self.idx])

    def scale_scalar(self, factor):
        return EpsTail(self.idx, self.mag * factor)

    def negated(self):
        return EpsTail(self.idx, -self.mag)

    def remap(self, old_shape, new_index_of):
        """Reindex through ``new_index_of``: a callable mapping the tuple of
        per-axis coordinate arrays (from ``old_shape``) to new flat
        indices."""
        coords = np.unravel_index(self.idx, old_shape)
        return EpsTail(new_index_of(coords), self.mag)

    def transposed(self, old_shape, axes, new_shape):
        """Tail after a variable-axis transpose."""
        def new_index_of(coords):
            return np.ravel_multi_index(
                tuple(coords[a] for a in axes), new_shape)
        return self.remap(old_shape, new_index_of)

    def summed(self, old_shape, axis, keepdims, new_shape):
        """Tail after summing a variable axis: the summed coordinate is
        dropped (each row has a single nonzero, so the row sum is exact)."""
        def new_index_of(coords):
            coords = list(coords)
            if keepdims:
                coords[axis] = np.zeros_like(coords[axis])
            else:
                del coords[axis]
            if not coords:  # all axes summed away -> scalar variable
                return np.zeros(len(self), dtype=np.intp)
            return np.ravel_multi_index(tuple(coords), new_shape)
        return self.remap(old_shape, new_index_of)
