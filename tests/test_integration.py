"""Integration tests: full pipelines and cross-verifier consistency.

These are the repository's "Theorem 0" checks: every verifier is sound on
the same trained model, the abstract domains are ordered as theory predicts
(IBP ⊆ CROWN-with-intersection ⊆ reality; DeepT tighter than IBP), and
certified claims agree with enumeration ground truth.
"""

import numpy as np
import pytest

from repro.baselines import (CrownVerifier, LpBallInputRegion,
                             enumerate_synonym_attack)
from repro.nlp import build_synonym_attack
from repro.verify import (DeepTVerifier, FAST, PRECISE, ibp_certify_region,
                          max_certified_radius, word_perturbation_region,
                          propagate_classifier)

from tests.conftest import sample_lp_ball


class TestCrossVerifierConsistency:
    def test_all_verifiers_sound_same_query(self, tiny_model, tiny_sentence,
                                            rng):
        """DeepT, CROWN and IBP margins all lower-bound sampled margins."""
        radius, p = 0.03, 2
        emb = tiny_model.embed_array(tiny_sentence)
        mask = np.zeros(emb.shape, dtype=bool)
        mask[1] = True
        true = tiny_model.predict(tiny_sentence)

        deept = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        margin_deept = deept.certify_word_perturbation(
            tiny_sentence, 1, radius, p, true_label=true).margin_lower
        region = LpBallInputRegion(emb, radius, p, mask)
        margin_crown = CrownVerifier(tiny_model, backsub_depth=30) \
            .margin_lower_bound(region, true)
        margin_ibp = ibp_certify_region(
            tiny_model,
            word_perturbation_region(tiny_model, tiny_sentence, 1, radius, p),
            true).margin_lower

        sampled_worst = np.inf
        for _ in range(300):
            delta = sample_lp_ball(rng, emb.shape[1], p, radius)
            perturbed = emb.copy()
            perturbed[1] += delta
            out = tiny_model.logits_from_embedding_array(perturbed)
            sampled_worst = min(sampled_worst, out[true] - out[1 - true])

        for margin in (margin_deept, margin_crown, margin_ibp):
            assert margin <= sampled_worst + 1e-7
        # Domain ordering: DeepT and CROWN are at least as tight as IBP.
        assert margin_deept >= margin_ibp - 1e-9
        assert margin_crown >= margin_ibp - 1e-9

    def test_precise_at_least_fast(self, tiny_model, tiny_sentence):
        """DeepT-Precise never certifies less than DeepT-Fast (same caps,
        no reduction randomness at this scale)."""
        fast = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        precise = DeepTVerifier(tiny_model, PRECISE(noise_symbol_cap=64))
        m_fast = fast.certify_word_perturbation(
            tiny_sentence, 1, 0.05, np.inf).margin_lower
        m_precise = precise.certify_word_perturbation(
            tiny_sentence, 1, 0.05, np.inf).margin_lower
        assert m_precise >= m_fast - 1e-9


class TestCertificationVsGroundTruth:
    def test_certified_synonym_attack_has_no_counterexample(
            self, tiny_model, tiny_corpus, tiny_sentence):
        attack = build_synonym_attack(tiny_model, tiny_corpus.vocab,
                                      tiny_sentence, max_substitutions=2)
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        result = verifier.certify_synonym_attack(attack)
        enumerated = enumerate_synonym_attack(tiny_model, attack,
                                              budget=200)
        if result.certified:
            assert enumerated.robust is not False
        # (non-certified says nothing: incompleteness)

    def test_certified_radius_survives_random_attack(self, tiny_model,
                                                     tiny_sentence, rng):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        true = tiny_model.predict(tiny_sentence)
        radius = max_certified_radius(verifier, tiny_sentence, 1, 2,
                                      n_iterations=6)
        emb = tiny_model.embed_array(tiny_sentence)
        for _ in range(300):
            delta = sample_lp_ball(rng, emb.shape[1], 2, radius * 0.999)
            perturbed = emb.copy()
            perturbed[1] += delta
            out = tiny_model.logits_from_embedding_array(perturbed)
            assert np.argmax(out) == true


class TestNoiseSymbolCapTradeoff:
    def test_larger_cap_not_looser(self, tiny_model, tiny_sentence):
        """A larger symbol cap keeps more correlations: margins improve
        (or tie)."""
        margins = []
        for cap in (16, 64, 256):
            verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=cap))
            margins.append(verifier.certify_word_perturbation(
                tiny_sentence, 1, 0.05, 2).margin_lower)
        assert margins[2] >= margins[0] - 1e-6

    def test_refinement_not_harmful(self, tiny_model, tiny_sentence):
        with_ref = DeepTVerifier(
            tiny_model, FAST(noise_symbol_cap=64,
                             softmax_sum_refinement=True))
        without = DeepTVerifier(
            tiny_model, FAST(noise_symbol_cap=64,
                             softmax_sum_refinement=False))
        m_with = with_ref.certify_word_perturbation(
            tiny_sentence, 1, 0.05, 2).margin_lower
        m_without = without.certify_word_perturbation(
            tiny_sentence, 1, 0.05, 2).margin_lower
        assert m_with >= m_without - 1e-6


class TestDualNormOrders:
    @pytest.mark.parametrize("order", ["linf_first", "lp_first"])
    def test_both_orders_verify_soundly(self, tiny_model, tiny_sentence,
                                        rng, order):
        config = FAST(noise_symbol_cap=64, dual_norm_order=order)
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          0.04, 1)
        logits = propagate_classifier(tiny_model, region, config)
        lower, upper = logits.bounds()
        emb = tiny_model.embed_array(tiny_sentence)
        for _ in range(80):
            delta = sample_lp_ball(rng, emb.shape[1], 1, 0.04)
            perturbed = emb.copy()
            perturbed[1] += delta
            out = tiny_model.logits_from_embedding_array(perturbed)
            assert np.all(out >= lower - 1e-7)
            assert np.all(out <= upper + 1e-7)


class TestVisionPipeline:
    def test_vit_certification_end_to_end(self, rng):
        from repro.data import make_digit_dataset
        from repro.nn import (VisionTransformerClassifier,
                              train_vision_transformer)
        from repro.verify import max_certified_image_radius

        images, labels = make_digit_dataset(n_per_class=10, size=8,
                                            classes=(1, 7), seed=0)
        model = VisionTransformerClassifier(image_size=8, patch_size=4,
                                            embed_dim=8, n_heads=2,
                                            hidden_dim=16, n_layers=1,
                                            n_classes=10, seed=0)
        train_vision_transformer(model, images, labels, epochs=6, lr=2e-3)
        index = next(i for i in range(len(images))
                     if model.predict(images[i]) == labels[i])
        verifier = DeepTVerifier(model, FAST(noise_symbol_cap=64))
        radius = max_certified_image_radius(verifier, images[index],
                                            np.inf, n_iterations=5)
        assert radius > 0
        # Sampled pixel perturbations within the radius keep the class.
        for _ in range(60):
            noise = rng.uniform(-radius * 0.999, radius * 0.999,
                                images[index].shape)
            assert model.predict(images[index] + noise) == \
                model.predict(images[index])
