"""Degenerate-input coverage: inputs at the edge of the domain (single
token, zero radius, point intervals, empty synonym sets) must flow through
the full pipeline and produce a *sound* answer — never an exception."""

import numpy as np
import pytest

from repro.nlp import build_synonym_attack
from repro.verify import (DeepTVerifier, FAST, synonym_attack_region,
                          word_perturbation_region)
from repro.zonotope import (MultiNormZonotope, exp, reciprocal, relu, rsqrt,
                            tanh)

CONFIG = FAST(noise_symbol_cap=64)


class TestSingleTokenSentence:
    def test_certifies_cls_only_sentence(self, tiny_model):
        """A sentence holding nothing but [CLS]: attention softmaxes over
        one position, reduction sees one row — still a sound result."""
        sentence = [0]
        label = tiny_model.predict(sentence)
        verifier = DeepTVerifier(tiny_model, CONFIG)
        result = verifier.certify_word_perturbation(sentence, 0, 0.001,
                                                    2.0)
        assert result.true_label == label
        assert np.isfinite(result.margin_lower)
        assert not result.degraded

    def test_two_token_sentence(self, tiny_model):
        sentence = [0, 3]
        verifier = DeepTVerifier(tiny_model, CONFIG)
        result = verifier.certify_word_perturbation(sentence, 1, 0.001,
                                                    2.0)
        assert np.isfinite(result.margin_lower)


class TestZeroRadiusRegion:
    def test_point_region_certifies_the_prediction(self, tiny_model,
                                                   tiny_sentence):
        """Radius 0 collapses the region to the concrete input; every
        abstract transformer is exact on points, so the margin equals the
        concrete logit margin and the prediction certifies."""
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          0.0, 2.0)
        label = tiny_model.predict(tiny_sentence)
        result = DeepTVerifier(tiny_model, CONFIG).certify_region(region,
                                                                  label)
        assert result.certified
        assert not result.degraded
        logits = np.asarray(tiny_model.forward(tiny_sentence).data)
        concrete_margin = float(
            logits[label] - max(logits[o] for o in range(len(logits))
                                if o != label))
        assert result.margin_lower == pytest.approx(concrete_margin,
                                                    abs=1e-6)

    def test_zero_radius_wrong_label_not_certified(self, tiny_model,
                                                   tiny_sentence):
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          0.0, 2.0)
        wrong = 1 - tiny_model.predict(tiny_sentence)
        result = DeepTVerifier(tiny_model, CONFIG).certify_region(region,
                                                                  wrong)
        assert not result.certified


class TestPointIntervalTransformers:
    """Zero-width inputs through every elementwise transformer: the output
    must be the exact function value, not NaN and not an exception."""

    CASES = [
        (relu, lambda x: np.maximum(x, 0.0), [-1.5, -0.0, 0.0, 2.0]),
        (tanh, np.tanh, [-3.0, 0.0, 0.5]),
        (exp, np.exp, [-2.0, 0.0, 1.5]),
        (reciprocal, lambda x: 1.0 / x, [0.25, 1.0, 8.0]),
        (rsqrt, lambda x: 1.0 / np.sqrt(x), [0.25, 1.0, 8.0]),
    ]

    @pytest.mark.parametrize(
        "transformer,reference,points",
        CASES, ids=[c[0].__name__ for c in CASES])
    def test_point_interval_is_exact(self, transformer, reference, points):
        center = np.array(points)
        z = MultiNormZonotope(center)  # no symbols: a point
        assert z.n_phi == 0 and z.n_eps == 0
        out = transformer(z)
        lower, upper = out.bounds()
        expected = reference(center)
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower <= upper + 1e-12)
        assert lower == pytest.approx(expected, abs=1e-9)
        assert upper == pytest.approx(expected, abs=1e-9)


class TestEmptySynonymSet:
    class _NoSynonyms:
        """Vocabulary stub whose every synonym set is empty."""

        def synonym_ids(self, tid):
            return []

    def test_empty_substitutions_give_point_box(self, tiny_model,
                                                tiny_sentence):
        attack = build_synonym_attack(tiny_model, self._NoSynonyms(),
                                      tiny_sentence)
        assert attack.n_combinations == 1
        assert attack.perturbed_positions() == []
        assert np.all(attack.radius == 0.0)

    def test_empty_attack_certifies_soundly(self, tiny_model,
                                            tiny_sentence):
        """An attack with no substitutions is the concrete sentence; the
        verifier must certify the model's own prediction on it."""
        attack = build_synonym_attack(tiny_model, self._NoSynonyms(),
                                      tiny_sentence)
        region = synonym_attack_region(attack)
        label = tiny_model.predict(tiny_sentence)
        result = DeepTVerifier(tiny_model, CONFIG).certify_region(region,
                                                                  label)
        assert result.certified
        assert not result.degraded
