"""Configuration of the DeepT verifier (Section 6.1 knobs)."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["VerifierConfig", "FAST", "PRECISE", "COMBINED",
           "normalize_plan"]

_PLAN_KINDS = ("precise", "cap", "softmax")


def normalize_plan(plan):
    """Canonicalize a refinement plan to a sorted tuple of tuples.

    Accepts any iterable of ``("precise", layer)`` / ``("cap", layer, k)``
    / ``("softmax", layer)`` entries (lists after a JSON round-trip are
    fine), deduplicates — keeping only the largest cap per layer — and
    sorts, so equal plans always compare (and hash, and sha256) equal.
    """
    if plan is None:
        return ()
    precise, softmax, caps = set(), set(), {}
    for raw in plan:
        entry = tuple(raw)
        if not entry or entry[0] not in _PLAN_KINDS:
            raise ValueError(f"unknown refinement-plan entry {raw!r}")
        kind = entry[0]
        if kind == "cap":
            if len(entry) != 3:
                raise ValueError(f"cap entries are ('cap', layer, k), "
                                 f"got {raw!r}")
            layer, cap = int(entry[1]), int(entry[2])
            if layer < 0 or cap < 1:
                raise ValueError(f"bad cap entry {raw!r}")
            caps[layer] = max(caps.get(layer, 0), cap)
            continue
        if len(entry) != 2:
            raise ValueError(f"{kind} entries are ({kind!r}, layer), "
                             f"got {raw!r}")
        layer = int(entry[1])
        if layer < 0:
            raise ValueError(f"bad layer in plan entry {raw!r}")
        (precise if kind == "precise" else softmax).add(layer)
    return tuple(sorted(
        [("precise", layer) for layer in precise]
        + [("softmax", layer) for layer in softmax]
        + [("cap", layer, cap) for layer, cap in caps.items()]))


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
    propagate_rewrites:
        Apply refinement symbol tightenings to all live zonotopes of the
        propagation (preserving correlations), not only the softmax output.
    coeff_tol:
        Fresh-symbol magnitudes at or below this are dropped (pure zeros by
        default).
    guards:
        Check zonotope invariants (finite center/coefficients, symbol
        budget) after every propagation stage; violations raise typed
        errors instead of letting NaN/Inf flow downstream. Guards only
        observe — results are bitwise identical to an unguarded run.
    symbol_budget:
        Hard backstop on the eps-symbol count of any intermediate zonotope
        (``SymbolBudgetExceeded`` on violation); ``None`` disables. Unlike
        ``noise_symbol_cap`` this never reduces — it aborts runaway growth.
    degradation_ladder:
        On a guard trip, retry the query down the sound-but-looser ladder
        (precise dot-product -> fast dot-product -> pure interval
        propagation) instead of raising; the result is flagged
        ``degraded`` with its ``fallback_chain``.
    refinement_plan:
        Per-layer precision upgrades applied on top of the base variant —
        the op-variant switch the trace-guided adaptive loop
        (:mod:`repro.verify.refine`) escalates. A tuple of entries, each
        one of ``("precise", layer)`` (upgrade that layer's dot products
        to the Precise transformer), ``("cap", layer, k)`` (raise that
        layer's DecorrelateMin_k budget to at least ``k``) or
        ``("softmax", layer)`` (force the Section 5.3 softmax-sum
        refinement on in that layer). Entries only ever *tighten*: a cap
        entry below the base cap is ignored, and an empty plan — the
        default — leaves the propagation bitwise identical to the plain
        config. JSON round-trips (lists for tuples) are normalized.
    adaptive_max_rounds:
        Adaptive mode: bounded number of selective-escalation rounds
        between the DeepT-Fast floor and the full-precise ceiling.
    adaptive_top_k:
        Adaptive mode: how many trace-ranked width-dominant layers the
        first escalation round upgrades (round ``r`` upgrades
        ``r * adaptive_top_k``).
    adaptive_cap_boost:
        Adaptive mode: multiplier on ``noise_symbol_cap`` for upgraded
        layers from the second round on (1 disables the budget axis).
    """

    dot_product_variant: str = "fast"
    dual_norm_order: str = "linf_first"
    noise_symbol_cap: int = 256
    last_layer_cap: int = None
    softmax_sum_refinement: bool = True
    propagate_rewrites: bool = True
    coeff_tol: float = 0.0
    reduction_strategy: str = "mass"
    guards: bool = True
    symbol_budget: int = None
    degradation_ladder: bool = True
    refinement_plan: tuple = ()
    adaptive_max_rounds: int = 2
    adaptive_top_k: int = 1
    adaptive_cap_boost: int = 2

    def __post_init__(self):
        self.refinement_plan = normalize_plan(self.refinement_plan)
        if self.adaptive_max_rounds < 0:
            raise ValueError("adaptive_max_rounds must be >= 0")
        if self.adaptive_top_k < 1:
            raise ValueError("adaptive_top_k must be >= 1")
        if self.adaptive_cap_boost < 1:
            raise ValueError("adaptive_cap_boost must be >= 1")
        if self.dot_product_variant not in ("fast", "precise", "combined"):
            raise ValueError(
                f"unknown dot_product_variant {self.dot_product_variant!r}")
        if self.dual_norm_order not in ("linf_first", "lp_first"):
            raise ValueError(
                f"unknown dual_norm_order {self.dual_norm_order!r}")
        from ..zonotope.reduction import REDUCTION_STRATEGIES
        if self.reduction_strategy not in REDUCTION_STRATEGIES:
            raise ValueError(
                f"unknown reduction_strategy {self.reduction_strategy!r}")

    def variant_for_layer(self, layer_index, n_layers):
        """Dot-product variant to use in a given layer (plan-aware)."""
        if ("precise", layer_index) in self.refinement_plan:
            return "precise"
        if self.dot_product_variant != "combined":
            return self.dot_product_variant
        return "precise" if layer_index == n_layers - 1 else "fast"

    def cap_for_layer(self, layer_index, n_layers):
        """Noise-symbol cap to apply at a given layer's input.

        A plan ``("cap", layer, k)`` entry raises (never lowers) the
        budget of its layer: a larger DecorrelateMin_k keeps more symbols,
        so the override can only tighten."""
        if (self.last_layer_cap is not None
                and layer_index == n_layers - 1):
            cap = self.last_layer_cap
        else:
            cap = self.noise_symbol_cap
        for entry in self.refinement_plan:
            if entry[0] == "cap" and entry[1] == layer_index:
                cap = entry[2] if cap is None else max(cap, entry[2])
        return cap

    def softmax_refine_for_layer(self, layer_index):
        """Whether the softmax-sum refinement runs in a given layer."""
        return (self.softmax_sum_refinement
                or ("softmax", layer_index) in self.refinement_plan)


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
