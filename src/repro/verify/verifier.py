"""The DeepT verifier: certification of Transformer classifiers.

Certification (Section 3.2): propagate the input region through the network
and check that the lower bound of ``y_true - y_false`` is positive. Binary
classification compares the two logits; the multi-class case (the vision
transformer) requires the margin against *every* other class.

Resilience: every stage of the propagation is checked by the
:mod:`~repro.verify.guards` finiteness guard, and a guard trip (a
numerical blowup) does not crash the query — the verifier retries down a
*sound-but-looser* degradation ladder:

    precise dot-product  ->  fast dot-product  ->  pure interval (IBP)

Every rung is itself a sound verifier, so a degraded answer can never flip
an uncertifiable query to ``certified=True``; looser rungs only lose
precision. Degradation is reported honestly: the result carries
``degraded`` / ``fallback_chain`` / ``fault`` and
:data:`repro.trace.TRACER` counts ``degradations``. On healthy inputs the
ladder is invisible — the primary rung runs exactly as before, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..trace import TRACER
from .config import VerifierConfig
from .guards import CertificationFault, certified_from_margin
from .propagation import propagate_classifier
from .regions import (word_perturbation_region, synonym_attack_region,
                      image_perturbation_region)

__all__ = ["CertificationResult", "DeepTVerifier", "IBPVerifier",
           "ibp_certify_region"]

# Failures the degradation ladder recovers from: typed guard trips plus the
# numerical-precondition errors a corrupted zonotope can surface before a
# guard checkpoint sees it (e.g. the reciprocal's positivity check).
_RECOVERABLE = (CertificationFault, FloatingPointError, ZeroDivisionError,
                OverflowError, ValueError)


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of one certification query.

    ``margin_lower`` is the certified lower bound of the worst
    ``y_true - y_other`` margin; certification succeeds iff it is positive
    (non-finite bounds — overflow in extreme regions — count as failure).

    ``degraded`` is True when the answer came from a looser rung of the
    fallback ladder after a guard trip; ``fallback_chain`` lists every rung
    attempted in order (ending with the one that answered, or with the last
    failed rung when all failed) and ``fault`` describes the first trip.
    Sound either way: looser rungs over-approximate more, so a degraded run
    can lose certifications but never invent one.
    """

    certified: bool
    margin_lower: float
    true_label: int
    degraded: bool = False
    fallback_chain: tuple = ()
    fault: str = None

    def __bool__(self):
        return self.certified


class DeepTVerifier:
    """Certifies a Transformer classifier with Multi-norm Zonotopes.

    Parameters
    ----------
    model:
        :class:`TransformerClassifier` or
        :class:`VisionTransformerClassifier`.
    config:
        :class:`VerifierConfig` (DeepT-Fast defaults).
    """

    def __init__(self, model, config=None):
        self.model = model
        self.config = config or VerifierConfig()

    # ------------------------------------------------------------ primitives
    def certify_region(self, region, true_label):
        """Certify that every point of ``region`` classifies as
        ``true_label``.

        Peak symbol counts and materialization counters are reported into
        :data:`repro.trace.TRACER`'s counters and gauges. On a guard trip
        the query is retried down the degradation ladder (see the module
        docstring) and the result is flagged ``degraded``.
        """
        chain = []
        fault = None
        for rung_name, rung_config in self._ladder(self.config):
            chain.append(rung_name)
            try:
                if rung_config is None:
                    result = self._certify_region_ibp(region, true_label)
                else:
                    result = self._certify_region_once(region, true_label,
                                                       rung_config)
            except _RECOVERABLE as error:
                if fault is None:
                    fault = f"{type(error).__name__}: {error}"
                TRACER.record_event(
                    "degradation-hop", rung=rung_name,
                    fault=f"{type(error).__name__}")
                continue
            if len(chain) == 1:
                return result
            TRACER.count("degradations")
            TRACER.count(f"degraded_to_{rung_name}")
            return replace(result, degraded=True,
                           fallback_chain=tuple(chain), fault=fault)
        # Every rung failed: sound, honest "could not certify".
        TRACER.count("degradations")
        TRACER.count("degraded_to_none")
        return CertificationResult(certified=False, margin_lower=-np.inf,
                                   true_label=true_label, degraded=True,
                                   fallback_chain=tuple(chain), fault=fault)

    @staticmethod
    def _ladder(config):
        """(name, config) rungs: primary first, then strictly looser ones."""
        rungs = [(config.dot_product_variant, config)]
        if config.dot_product_variant in ("precise", "combined"):
            rungs.append(("fast", replace(config, dot_product_variant="fast")))
        rungs.append(("ibp", None))
        return rungs

    def _certify_region_once(self, region, true_label, config):
        """One guarded zonotope propagation + margin check (no retry)."""
        logits = propagate_classifier(self.model, region, config)
        margins = []
        for other in range(logits.shape[0]):
            if other == true_label:
                continue
            margin = (logits[true_label] - logits[other]).bounds()[0]
            margins.append(float(margin))
        worst = min(margins)
        return CertificationResult(
            certified=certified_from_margin(worst), margin_lower=worst,
            true_label=true_label)

    def _certify_region_ibp(self, region, true_label):
        """The ladder's floor: pure interval propagation of the region."""
        return ibp_certify_region(self.model, region, true_label)

    # -------------------------------------------------------------- T1 / T2
    def certify_word_perturbation(self, token_ids, position, radius, p,
                                  true_label=None):
        """T1: certify an ℓp ball around one word's embedding."""
        if true_label is None:
            true_label = self.model.predict(token_ids)
        region = word_perturbation_region(self.model, token_ids, position,
                                          radius, p)
        return self.certify_region(region, true_label)

    def certify_synonym_attack(self, attack, true_label=None):
        """T2: certify the embedding box covering all synonym choices."""
        if true_label is None:
            true_label = self.model.predict(attack.token_ids)
        region = synonym_attack_region(attack)
        return self.certify_region(region, true_label)

    def certify_image_perturbation(self, image, radius, p, true_label=None):
        """Vision (A.3): certify an ℓp pixel ball around an image."""
        if true_label is None:
            true_label = self.model.predict(image)
        region = image_perturbation_region(self.model, image, radius, p)
        return self.certify_region(region, true_label)


def ibp_certify_region(model, region, true_label):
    """Certify a region by pure interval propagation (the ladder's floor).

    Interval arithmetic has no noise symbols to blow up and sanitizes
    inf/NaN per node, so this rung answers even where the zonotope engine
    cannot. It is the loosest sound verifier for the same region, reusing
    the region's concrete interval bounds as the graph input box.
    """
    from ..baselines.graph import (build_transformer_graph,
                                   interval_propagate)
    graph, _, logits = build_transformer_graph(model, region.shape[0])
    interval_propagate(graph, *region.bounds())
    lower = logits.lower.reshape(-1)
    upper = logits.upper.reshape(-1)
    worst = min(float(lower[true_label] - upper[other])
                for other in range(len(lower)) if other != true_label)
    return CertificationResult(
        certified=certified_from_margin(worst), margin_lower=worst,
        true_label=true_label)


class IBPVerifier:
    """The degradation ladder's IBP floor as a standalone verifier.

    The certification service uses this rung as its deepest
    quality-of-service level: under heavy load, admitted queries are
    rewritten to ``verifier="ibp"`` and answered with pure interval
    propagation — still sound (IBP over-approximates every rung above it,
    so it can lose certifications but never invent one), just looser.
    """

    def __init__(self, model):
        self.model = model

    def certify_region(self, region, true_label):
        return ibp_certify_region(self.model, region, true_label)

    def certify_word_perturbation(self, token_ids, position, radius, p,
                                  true_label=None):
        """T1 on the IBP floor: ℓp ball around one word's embedding."""
        if true_label is None:
            true_label = self.model.predict(token_ids)
        region = word_perturbation_region(self.model, token_ids, position,
                                          radius, p)
        return self.certify_region(region, true_label)
