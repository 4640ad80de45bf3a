"""Trace-guided adaptive precision: selective abstraction refinement.

The Precise dot-product and softmax-sum refinements buy larger certified
radii at a steep cost, and the tracer already records exactly where
zonotope width blows up per (layer, op). This module closes that loop, in
the spirit of ReLU-catalyzed abstraction refinement (PAPERS.md, arxiv
2605.14294): refine only where the abstraction is loose, instead of
globally.

:class:`AdaptiveVerifier` extends the certification ladder *downward*
into a fast -> selectively-precise escalation:

1. run plain DeepT-Fast first (bitwise identical to
   :class:`~repro.verify.verifier.DeepTVerifier` on the base config —
   healthy fast-certified queries never pay for refinement);
2. if uncertified, rank the encoder layers by trace-recorded width growth
   (:func:`rank_layers` over the fast pass's ``width_mean`` /
   ``width_max`` / ``eps_mass`` deltas);
3. re-run with a :class:`RefinementPlan` upgrading only the top-k
   dominant layers — Precise dot products, forced softmax-sum
   refinement, higher DecorrelateMin_k budgets — escalating k and the
   budgets across a bounded number of rounds;
4. fall back to the full-precise ceiling (every layer upgraded) before
   answering "uncertified".

Every rung of the escalation is itself a sound verifier (each plan only
*tightens* the abstraction per layer), so certifying at any rung is a
true certification; escalation can only gain certified radius over
DeepT-Fast, never lose soundness. The verifier caches the plan that most
recently certified, so a binary radius search reuses it on the next probe
instead of re-deriving the whole escalation — early (small-radius) probes
stay fast, mid-range probes pay one fast pass plus one planned pass.

The certification *decision* is independent of the cached-plan state:
every escalation path ends at the same ceiling plan, so a probe sequence
answers exactly as fresh per-probe verifiers would (the regression suite
pins this on non-monotone probe sequences).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

from ..perf import PERF
from ..trace import TRACER
from .config import FAST, normalize_plan
from .verifier import _RECOVERABLE, DeepTVerifier

__all__ = ["RefinementPlan", "rank_layers", "escalation_plan",
           "ceiling_plan", "AdaptiveVerifier"]


@dataclass(frozen=True)
class RefinementPlan:
    """A per-layer precision upgrade: which layers run Precise dot
    products, which get the softmax-sum refinement forced on, and which
    get a raised DecorrelateMin_k budget.

    The canonical currency is :attr:`entries` — the sorted tuple a
    :class:`~repro.verify.config.VerifierConfig.refinement_plan` carries —
    so a plan round-trips losslessly through query serialization.
    """

    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", normalize_plan(self.entries))

    @classmethod
    def build(cls, precise_layers=(), cap_layers=(), softmax_layers=()):
        """Assemble a plan from per-axis layer lists.

        ``cap_layers`` is an iterable of ``(layer, cap)`` pairs.
        """
        entries = [("precise", int(layer)) for layer in precise_layers]
        entries += [("cap", int(layer), int(cap))
                    for layer, cap in cap_layers]
        entries += [("softmax", int(layer)) for layer in softmax_layers]
        return cls(tuple(entries))

    @property
    def is_empty(self):
        return not self.entries

    @property
    def precise_layers(self):
        return tuple(e[1] for e in self.entries if e[0] == "precise")

    @property
    def cap_layers(self):
        return tuple((e[1], e[2]) for e in self.entries if e[0] == "cap")

    @property
    def softmax_layers(self):
        return tuple(e[1] for e in self.entries if e[0] == "softmax")

    def covers(self, other):
        """True when this plan is at least as tight as ``other``
        everywhere: a superset of precise/softmax layers and per-layer
        caps at least as large."""
        if not set(other.precise_layers) <= set(self.precise_layers):
            return False
        if not set(other.softmax_layers) <= set(self.softmax_layers):
            return False
        caps = dict(self.cap_layers)
        return all(caps.get(layer, 0) >= cap
                   for layer, cap in other.cap_layers)

    def apply(self, config):
        """``config`` with this plan installed (a new VerifierConfig)."""
        return replace(config, refinement_plan=self.entries)


# --------------------------------------------------------------- ranking
def _safe_log(value, floor=1e-30):
    if value is None or not math.isfinite(value):
        return math.inf if value else -math.inf
    return math.log(max(float(value), floor))


def layer_growth_scores(spans, n_layers):
    """Per-encoder-layer width-growth score from one propagation's spans.

    For each layer the score sums the log-growth of ``width_mean`` and
    ``eps_mass`` across the layer (last op span vs first) plus the
    largest single-span log-jump of ``width_max`` — the three signals the
    tracer records per abstract-transformer application. Layers whose
    spans report non-finite widths (overflow) score ``inf``: they are the
    loosest possible and rank first. Returns ``{layer: score}`` for the
    layers that have op spans; purely a function of the spans, so the
    ranking is deterministic for a fixed trace.
    """
    scores = {}
    for layer in range(n_layers):
        layer_spans = [s for s in spans
                       if s.get("layer") == layer and "width_mean" in s]
        if not layer_spans:
            continue
        if any(not math.isfinite(s["width_mean"]) for s in layer_spans):
            scores[layer] = math.inf
            continue
        first, last = layer_spans[0], layer_spans[-1]
        growth = _safe_log(last["width_mean"]) - _safe_log(
            first["width_mean"])
        eps_growth = _safe_log(last.get("eps_mass", 0.0)) - _safe_log(
            first.get("eps_mass", 0.0))
        jump = max(
            (_safe_log(b.get("width_max", 0.0))
             - _safe_log(a.get("width_max", 0.0))
             for a, b in zip(layer_spans, layer_spans[1:])),
            default=0.0)
        if not math.isfinite(eps_growth):
            eps_growth = 0.0  # eps-free layers carry no eps signal
        scores[layer] = growth + eps_growth + max(jump, 0.0)
    return scores


def rank_layers(spans, n_layers):
    """Encoder layers ordered most-width-dominant first.

    Ties (and layers without spans, scored ``-inf``) break toward the
    *later* layer: width accumulated there compounds through fewer
    downstream transformers, so refining it is the cheaper bet — and the
    fixed rule keeps the escalation deterministic for a fixed trace.
    """
    scores = layer_growth_scores(spans, n_layers)
    return sorted(range(n_layers),
                  key=lambda layer: (-scores.get(layer, -math.inf),
                                     -layer))


# ------------------------------------------------------------ escalation
def escalation_plan(ranked, config, round_index, n_layers):
    """The plan for escalation round ``round_index`` (1-based).

    Round ``r`` upgrades the top ``r * adaptive_top_k`` trace-ranked
    layers to Precise dot products; from round 2 on, those layers' noise
    budgets are also raised by ``adaptive_cap_boost``; and when the base
    config has the softmax-sum refinement off, it is forced on in the
    upgraded layers.
    """
    k = min(round_index * config.adaptive_top_k, n_layers)
    layers = ranked[:k]
    cap_layers = ()
    if (round_index >= 2 and config.adaptive_cap_boost > 1
            and config.noise_symbol_cap is not None):
        boosted = config.noise_symbol_cap * config.adaptive_cap_boost
        cap_layers = tuple((layer, boosted) for layer in layers)
    softmax_layers = () if config.softmax_sum_refinement else tuple(layers)
    return RefinementPlan.build(precise_layers=layers,
                                cap_layers=cap_layers,
                                softmax_layers=softmax_layers)


def ceiling_plan(config, n_layers):
    """The escalation's maximal plan: every layer fully upgraded.

    Every plan any escalation round can produce is covered by this one,
    which is what makes the adaptive decision independent of the
    cached-plan state: all paths end here before answering
    "uncertified".
    """
    layers = tuple(range(n_layers))
    cap_layers = ()
    if config.adaptive_cap_boost > 1 and config.noise_symbol_cap is not None:
        boosted = config.noise_symbol_cap * config.adaptive_cap_boost
        cap_layers = tuple((layer, boosted) for layer in layers)
    softmax_layers = () if config.softmax_sum_refinement else layers
    return RefinementPlan.build(precise_layers=layers,
                                cap_layers=cap_layers,
                                softmax_layers=softmax_layers)


# -------------------------------------------------------------- verifier
class AdaptiveVerifier(DeepTVerifier):
    """DeepT-Fast first; trace-guided selective refinement on failure.

    The base config's dot-product variant is coerced to ``"fast"`` (the
    escalation floor) and any pre-installed refinement plan is cleared —
    the adaptive loop owns the plan axis. All the T1/T2/vision entry
    points of :class:`DeepTVerifier` work unchanged; only
    :meth:`certify_region` differs.

    ``certify_region`` results carry the :class:`RefinementPlan` entries
    that certified (empty for fast-certified queries, which are bitwise
    identical to a plain DeepT-Fast run) and the number of refinement
    passes attempted.
    """

    def __init__(self, model, config=None):
        config = config or FAST()
        base = replace(config, dot_product_variant="fast",
                       refinement_plan=())
        super().__init__(model, base)
        self._certified_plan = None

    # The plan that most recently certified (None before any refinement).
    @property
    def certified_plan(self):
        return self._certified_plan

    def reset_plan(self):
        """Drop the cached plan (a fresh verifier's state)."""
        self._certified_plan = None

    def ceiling_config(self):
        """The full-precise ceiling as a plain VerifierConfig."""
        n_layers = len(self.model.layers)
        return ceiling_plan(self.config, n_layers).apply(self.config)

    # ------------------------------------------------------------- core
    def certify_region(self, region, true_label):
        """Certify with the fast -> selectively-precise escalation."""
        spans = []
        with _capture_spans(spans):
            fast = super().certify_region(region, true_label)
        if fast.certified:
            PERF.count("adaptive_fast_certified")
            return fast
        if fast.degraded:
            # The fast pass already fell down the resilience ladder: the
            # input is numerically broken, and tighter transformers only
            # amplify blowups — escalation cannot help.
            PERF.count("adaptive_degraded_skips")
            return fast

        n_layers = len(self.model.layers)
        config = self.config
        ceiling = ceiling_plan(config, n_layers)
        tried = []
        ceiling_result = None
        rounds = 0

        def attempt(plan, **event):
            nonlocal ceiling_result, rounds
            rounds += 1
            if event:
                TRACER.record_event("refinement-round", **event,
                                    plan=[list(e) for e in plan.entries])
            result = self._try_plan(region, true_label, plan, rounds)
            tried.append(plan)
            if result is not None and plan.covers(ceiling):
                # This attempt already ran the maximal plan, so its
                # margin *is* the ceiling margin — remembered so an
                # uncertified answer reports it regardless of which
                # escalation path computed it.
                ceiling_result = result
            return result

        # Probe-to-probe reuse: the plan that certified the previous
        # binary-search probe usually certifies the next one too,
        # skipping the whole escalation below.
        cached = self._certified_plan
        if cached is not None and not cached.is_empty:
            result = attempt(cached)
            if result is not None and result.certified:
                PERF.count("adaptive_plan_reuse_certified")
                return result

        ranked = rank_layers(spans, n_layers)
        for round_index in range(1, config.adaptive_max_rounds + 1):
            plan = escalation_plan(ranked, config, round_index, n_layers)
            if plan.is_empty or any(t.covers(plan) for t in tried):
                continue
            result = attempt(plan, round=round_index)
            if result is not None and result.certified:
                PERF.count("adaptive_plan_certified")
                self._certified_plan = plan
                return result

        # The bounded escalation failed: full precise pass (the ceiling),
        # unless an attempted plan already covered it.
        if not any(t.covers(ceiling) for t in tried):
            result = attempt(ceiling, round="ceiling")
            if result is not None and result.certified:
                PERF.count("adaptive_ceiling_certified")
                self._certified_plan = ceiling
                return result

        PERF.count("adaptive_uncertified")
        if ceiling_result is not None:
            # Uncertified, but the ceiling's margin is the tightest
            # honest answer computed.
            return ceiling_result
        return replace(fast, plan=ceiling.entries, refinement_rounds=rounds)

    def _try_plan(self, region, true_label, plan, rounds):
        """One planned pass; ``None`` when the pass trips a guard."""
        planned = plan.apply(self.config)
        try:
            result = self._certify_region_once(region, true_label, planned)
        except _RECOVERABLE:
            PERF.count("adaptive_plan_trips")
            return None
        return replace(result, plan=plan.entries, refinement_rounds=rounds)


@contextmanager
def _capture_spans(out):
    """Record the scope's trace spans into ``out`` for ranking.

    When the process tracer is disabled, it is enabled only inside the
    scope and the captured spans are removed again — ranking needs the
    signal even in untraced runs, without leaking spans into anyone's
    trace. When the tracer is already recording (``--trace-dir``, the
    golden suite), the spans stay in place *and* feed the ranking.
    Recording reads bounds through pure queries, so the captured pass
    stays bitwise identical either way.
    """
    previous = TRACER.enabled
    TRACER.enabled = True
    start = len(TRACER.spans)
    try:
        yield
    finally:
        out.extend(TRACER.spans[start:])
        if not previous:
            del TRACER.spans[start:]
        TRACER.enabled = previous
