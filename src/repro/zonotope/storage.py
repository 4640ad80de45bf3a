"""Structured storage for eps-coefficient blocks.

Profiling a DeepT propagation shows the dense ``(E, *S)`` eps block is the
engine's cost centre — not because of the math done *on* it, but because of
the shape its growth has: every non-linear transformer appends fresh
symbols that are *one-hot per variable* (each fresh symbol touches exactly
one variable), so a dense append copies the whole block to add rows that
are almost all zeros.

:class:`EpsTail` removes that cost. It holds a trailing block of symbols
each of which touches exactly **one** variable, as parallel ``(index,
magnitude)`` arrays over the flattened variable tensor. This is the
closure of what ``append_fresh_eps`` produces under the elementwise
transformers (per-variable rescaling), variable-axis sums, transposes and
reshapes — exactly the ops between one mixing operation and the next.
Mixing ops (sums of two zonotopes, slicing, concatenation, symbol
reduction, refinement, the Precise eps-eps bound) materialize the tail
into dense rows; the dot product's exact part and ``matmul_const``
consume it by scatter. The dense rows before the tail are one
exactly-sized array: fresh symbols always join the tail and mixing ops
rebuild the rows, so a spare capacity would be allocated but never
claimed (DESIGN §8 has the census).
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = ["EpsTail"]

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Serve the engine's transient blocks from a heap that is not trimmed.

    Every probe allocates and frees eps blocks and kernel workspaces of up
    to a few MB. Under glibc's self-adjusting default thresholds, whether
    the next probe finds that memory still mapped or faults it in afresh
    depends on where unrelated small allocations happen to sit: the same
    ``table4-precise`` benchmark pass took 9 or 88k minor page faults
    (about 25% more CPU time) from one build to the next. Fixed
    thresholds make every probe reuse the heap. A no-op where the C
    library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 512 << 20)


_keep_freed_memory()


class EpsTail:
    """A block of eps symbols each touching exactly one variable.

    ``idx[s]`` is the flattened variable index symbol ``s`` touches and
    ``mag[s]`` its coefficient.  Symbol order equals dense row order, so
    materializing reproduces bit-for-bit the rows a dense append builds.
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
    def from_magnitudes(cls, magnitudes):
        """Tail for one fresh symbol per variable with a nonzero magnitude."""
        flat = np.asarray(magnitudes, dtype=np.float64).reshape(-1)
        idx = np.flatnonzero(np.abs(flat) > 0)
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
