"""Configuration of the DeepT verifier: the paper's five knobs.

The dot-product variant (§4.8, and App. A.6's combined verifier), the
dual-norm order (Table 6), the DecorrelateMin_k symbol cap of §5.1 and its
last-layer override (App. A.6), and the softmax-sum refinement (§5.3,
Table 13). Nothing else is configurable: the propagation guard and the
degradation ladder always run (``verify/guards.py``,
``verify/verifier.py``), and reduction always scores symbols by mass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

__all__ = ["VerifierConfig", "FAST", "PRECISE", "COMBINED"]


@dataclass
class VerifierConfig:
    """Knobs controlling the precision/performance trade-off.

    Attributes
    ----------
    dot_product_variant:
        ``"fast"`` (DeepT-Fast), ``"precise"`` (DeepT-Precise) or
        ``"combined"`` (App. A.6: precise dot products in the last layer
        only, fast elsewhere).
    dual_norm_order:
        Which norm the Eq. (5) dual-norm cascade collapses first in the
        mixed phi/eps cases; ``"linf_first"`` is the paper's default
        (Section 6.5 / Table 6).
    noise_symbol_cap:
        DecorrelateMin_k target applied to the embeddings at every layer
        input (paper: 14 000 for Fast, 10 000 for Precise; scaled down here
        — see DESIGN §5). ``None`` disables reduction.
    last_layer_cap:
        Optional different cap for the last layer (App. A.6 uses a smaller
        cap there for the combined verifier).
    softmax_sum_refinement:
        Enable the Section 5.3 sum-constraint refinement (Table 13
        ablation).
    """

    dot_product_variant: str = "fast"
    dual_norm_order: str = "linf_first"
    noise_symbol_cap: int = 256
    last_layer_cap: int = None
    softmax_sum_refinement: bool = True

    def __post_init__(self):
        if self.dot_product_variant not in ("fast", "precise", "combined"):
            raise ValueError(
                f"unknown dot_product_variant {self.dot_product_variant!r}")
        if self.dual_norm_order not in ("linf_first", "lp_first"):
            raise ValueError(
                f"unknown dual_norm_order {self.dual_norm_order!r}")
        for name in ("noise_symbol_cap", "last_layer_cap"):
            cap = getattr(self, name)
            integral = (isinstance(cap, numbers.Integral)
                        and not isinstance(cap, bool))
            if cap is not None and not (integral and cap >= 0):
                raise ValueError(
                    f"{name} must be a non-negative integer or None, "
                    f"got {cap!r}")

    def variant_for_layer(self, layer_index, n_layers):
        """Dot-product variant to use in a given layer."""
        if self.dot_product_variant != "combined":
            return self.dot_product_variant
        return "precise" if layer_index == n_layers - 1 else "fast"

    def cap_for_layer(self, layer_index, n_layers):
        """Noise-symbol cap to apply at a given layer's input."""
        if (self.last_layer_cap is not None
                and layer_index == n_layers - 1):
            return self.last_layer_cap
        return self.noise_symbol_cap


def FAST(**overrides):
    """DeepT-Fast preset."""
    return VerifierConfig(dot_product_variant="fast", **overrides)


def PRECISE(**overrides):
    """DeepT-Precise preset (paper uses a smaller symbol cap here)."""
    overrides.setdefault("noise_symbol_cap", 192)
    return VerifierConfig(dot_product_variant="precise", **overrides)


def COMBINED(**overrides):
    """Combined Fast+Precise preset (App. A.6)."""
    overrides.setdefault("last_layer_cap", 128)
    return VerifierConfig(dot_product_variant="combined", **overrides)
