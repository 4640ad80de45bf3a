"""Tests for the CROWN, IBP, enumeration and complete-verifier baselines."""

import numpy as np
import pytest

from repro.baselines import (CrownVerifier, LpBallInputRegion,
                             BoxInputRegion, BACKWARD_UNLIMITED,
                             enumerate_synonym_attack,
                             estimate_enumeration_seconds,
                             BranchAndBoundVerifier)
from repro.baselines.crown import _BacksubEngine
from repro.baselines.graph import build_transformer_graph, \
    interval_propagate
from repro.nlp import build_synonym_attack
from repro.verify import (DeepTVerifier, FAST, IBPVerifier,
                          ibp_certify_region, word_perturbation_region)

from tests.conftest import sample_lp_ball


class TestInputRegions:
    def test_lp_ball_interval(self, rng):
        center = rng.normal(size=(2, 3))
        region = LpBallInputRegion(center, 0.5, 2)
        lower, upper = region.interval()
        np.testing.assert_allclose(upper - lower, 1.0)

    def test_lp_ball_concretize_dual_norm(self, rng):
        center = rng.normal(size=(1, 4))
        region = LpBallInputRegion(center, 0.3, 2)
        coeffs = rng.normal(size=(2, 1, 4))
        lower, upper = region.concretize(coeffs)
        for row in range(2):
            flat = coeffs[row].reshape(-1)
            expected_spread = 0.3 * np.linalg.norm(flat)
            base = flat @ center.reshape(-1)
            assert lower[row] == pytest.approx(base - expected_spread)
            assert upper[row] == pytest.approx(base + expected_spread)

    def test_box_region_concretize(self, rng):
        center = rng.normal(size=(2, 2))
        radii = np.abs(rng.normal(size=(2, 2)))
        region = BoxInputRegion(center, radii)
        coeffs = rng.normal(size=(1, 2, 2))
        lower, upper = region.concretize(coeffs)
        spread = (np.abs(coeffs[0]) * radii).sum()
        assert upper[0] - lower[0] == pytest.approx(2 * spread)

    def test_mask_restricts_perturbation(self, rng):
        center = rng.normal(size=(2, 3))
        mask = np.zeros((2, 3), dtype=bool)
        mask[0] = True
        region = LpBallInputRegion(center, 1.0, np.inf, mask)
        coeffs = np.zeros((1, 2, 3))
        coeffs[0, 1, :] = 5.0  # only touches unperturbed coordinates
        lower, upper = region.concretize(coeffs)
        assert lower[0] == pytest.approx(upper[0])


class TestCrownVerifier:
    def test_exact_at_zero_radius_unlimited_depth(self, tiny_model,
                                                  tiny_sentence):
        emb = tiny_model.embed_array(tiny_sentence)
        region = LpBallInputRegion(emb, 0.0, 2)
        verifier = CrownVerifier(tiny_model,
                                 backsub_depth=BACKWARD_UNLIMITED)
        true = tiny_model.predict(tiny_sentence)
        margin = verifier.margin_lower_bound(region, true)
        logits = tiny_model.logits_from_embedding_array(emb)
        assert margin == pytest.approx(logits[true] - logits[1 - true],
                                       abs=1e-6)

    @pytest.mark.parametrize("depth", [5, 30, BACKWARD_UNLIMITED])
    def test_sound_margins(self, tiny_model, tiny_sentence, rng, depth):
        emb = tiny_model.embed_array(tiny_sentence)
        mask = np.zeros(emb.shape, dtype=bool)
        mask[1] = True
        region = LpBallInputRegion(emb, 0.03, 2, mask)
        true = tiny_model.predict(tiny_sentence)
        margin = CrownVerifier(tiny_model, backsub_depth=depth) \
            .margin_lower_bound(region, true)
        for _ in range(150):
            delta = sample_lp_ball(rng, emb.shape[1], 2, 0.03)
            perturbed = emb.copy()
            perturbed[1] += delta
            out = tiny_model.logits_from_embedding_array(perturbed)
            assert margin <= out[true] - out[1 - true] + 1e-7

    def test_margin_at_least_ibp(self, tiny_model, tiny_sentence):
        emb = tiny_model.embed_array(tiny_sentence)
        mask = np.zeros(emb.shape, dtype=bool)
        mask[1] = True
        region = LpBallInputRegion(emb, 0.02, 2, mask)
        true = tiny_model.predict(tiny_sentence)
        crown = CrownVerifier(tiny_model, backsub_depth=30) \
            .margin_lower_bound(region, true)
        ibp = ibp_certify_region(
            tiny_model,
            word_perturbation_region(tiny_model, tiny_sentence, 1, 0.02, 2),
            true).margin_lower
        assert crown >= ibp - 1e-9

    def test_certify_word_perturbation(self, tiny_model, tiny_sentence):
        verifier = CrownVerifier(tiny_model, backsub_depth=30)
        assert verifier.certify_word_perturbation(tiny_sentence, 1, 1e-6, 2)
        assert not verifier.certify_word_perturbation(tiny_sentence, 1,
                                                      50.0, 2)

    def test_certify_synonym_attack_runs(self, tiny_model, tiny_corpus,
                                         tiny_sentence):
        attack = build_synonym_attack(tiny_model, tiny_corpus.vocab,
                                      tiny_sentence)
        verifier = CrownVerifier(tiny_model, backsub_depth=30)
        assert isinstance(verifier.certify_synonym_attack(attack), bool)

    def test_intermediate_backsub_bounds_node_exactly_at_point(
            self, tiny_model, tiny_sentence):
        """Every node's backsubstituted bound is exact on a point region
        with unlimited depth — the radius-0 consistency property."""
        emb = tiny_model.embed_array(tiny_sentence)
        region = LpBallInputRegion(emb, 0.0, 2)
        graph, _, _ = build_transformer_graph(tiny_model,
                                              len(tiny_sentence))
        interval_propagate(graph, *region.interval())
        engine = _BacksubEngine(graph, region, BACKWARD_UNLIMITED)
        for node in graph.nodes[1:: max(len(graph.nodes) // 8, 1)]:
            if node.op == "input":
                continue
            identity = np.eye(node.size)
            lower = engine.lower_bounds(node, identity)
            np.testing.assert_allclose(lower.reshape(node.shape),
                                       node.lower, atol=1e-6)

    def test_std_layer_norm_model_sound(self, tiny_model_std_norm,
                                        tiny_sentence, rng):
        emb = tiny_model_std_norm.embed_array(tiny_sentence)
        mask = np.zeros(emb.shape, dtype=bool)
        mask[1] = True
        region = LpBallInputRegion(emb, 0.02, 2, mask)
        true = tiny_model_std_norm.predict(tiny_sentence)
        margin = CrownVerifier(tiny_model_std_norm, backsub_depth=30) \
            .margin_lower_bound(region, true)
        for _ in range(100):
            delta = sample_lp_ball(rng, emb.shape[1], 2, 0.02)
            perturbed = emb.copy()
            perturbed[1] += delta
            out = tiny_model_std_norm.logits_from_embedding_array(perturbed)
            assert margin <= out[true] - out[1 - true] + 1e-7


class TestIntervalVerifier:
    def test_weaker_than_deept(self, tiny_model, tiny_sentence):
        true = tiny_model.predict(tiny_sentence)
        ibp_margin = IBPVerifier(tiny_model).certify_word_perturbation(
            tiny_sentence, 1, 0.03, np.inf, true_label=true).margin_lower
        deept = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        deept_margin = deept.certify_word_perturbation(
            tiny_sentence, 1, 0.03, np.inf, true_label=true).margin_lower
        assert deept_margin >= ibp_margin - 1e-9

    def test_certify_interface(self, tiny_model, tiny_sentence):
        verifier = IBPVerifier(tiny_model)
        assert verifier.certify_word_perturbation(tiny_sentence, 1, 1e-8, 2)
        assert not verifier.certify_word_perturbation(tiny_sentence, 1,
                                                      50.0, 2)


class TestWordPosition:
    """Every T1 front end refuses a position outside the sentence.

    CROWN used to index its mask unchecked: -1 certified the last word
    and ``len(sentence)`` raised ``IndexError``.
    """

    @pytest.mark.parametrize("make_verifier", [
        lambda model: DeepTVerifier(model, FAST(noise_symbol_cap=64)),
        IBPVerifier,
        lambda model: CrownVerifier(model, backsub_depth=BACKWARD_UNLIMITED),
    ], ids=["deept", "ibp", "crown"])
    def test_position_outside_sentence_raises(self, tiny_model,
                                              tiny_sentence, make_verifier):
        verifier = make_verifier(tiny_model)
        for position in (-1, len(tiny_sentence)):
            with pytest.raises(ValueError, match="out of range"):
                verifier.certify_word_perturbation(tiny_sentence, position,
                                                   1e-3, np.inf)


class TestEnumeration:
    def test_exhaustive_robust(self, tiny_model, tiny_corpus,
                               tiny_sentence):
        attack = build_synonym_attack(tiny_model, tiny_corpus.vocab,
                                      tiny_sentence, max_substitutions=1)
        result = enumerate_synonym_attack(tiny_model, attack)
        assert result.exhaustive
        assert result.robust in (True, False)
        assert result.checked == attack.n_combinations

    def test_budget_returns_unknown(self, tiny_model, tiny_corpus,
                                    tiny_sentence):
        attack = build_synonym_attack(tiny_model, tiny_corpus.vocab,
                                      tiny_sentence)
        if attack.n_combinations < 3:
            pytest.skip("sentence has too few synonyms")
        result = enumerate_synonym_attack(tiny_model, attack, budget=2)
        assert result.robust is None
        assert result.checked == 2

    def test_counterexample_detected(self, tiny_model, tiny_corpus):
        """A substitution set spanning opposite-polarity words must flip
        some prediction for a decent classifier."""
        vocab = tiny_corpus.vocab
        pos_word = vocab.positive_groups[0][0]
        neg_word = vocab.negative_groups[0][0]
        seq = vocab.encode([pos_word, pos_word, pos_word])
        attack = build_synonym_attack(tiny_model, vocab, seq)
        # Manually offer the opposite-polarity word as a "synonym".
        attack.substitutions[1] = [vocab.id_of(neg_word)]
        flipped = vocab.encode([neg_word, pos_word, pos_word])
        if tiny_model.predict(seq) == tiny_model.predict(flipped):
            pytest.skip("model does not separate these words")
        result = enumerate_synonym_attack(tiny_model, attack)
        assert result.robust is False
        assert result.counterexample is not None

    def test_estimate_scales_linearly(self):
        from repro.baselines.enumeration import EnumerationResult
        partial = EnumerationResult(robust=None, checked=10, total=1000,
                                    seconds=1.0)
        assert estimate_enumeration_seconds(partial) == \
            pytest.approx(100.0)


class TestCompleteVerifier:
    def test_agrees_with_handcrafted_net(self):
        """1-D net f(x) = [x, -x]: class 0 iff x > 0; the true robust
        radius around x0 > 0 is exactly x0."""
        from repro.nn import MLPClassifier
        model = MLPClassifier(1, [2], n_classes=2, seed=0)
        # h = relu([x, -x]); logits = [h0, h1].
        model.linears[0].weight.data[...] = np.array([[1.0, -1.0]])
        model.linears[0].bias.data[...] = 0.0
        model.linears[1].weight.data[...] = np.array([[1.0, 0.0],
                                                      [0.0, 1.0]])
        model.linears[1].bias.data[...] = 0.0
        verifier = BranchAndBoundVerifier(model, node_limit=100)
        x0 = np.array([0.8])
        assert verifier.certify(x0, 0.5, np.inf) is True
        assert verifier.certify(x0, 1.2, np.inf) is False
        radius = verifier.max_certified_radius(x0, np.inf, n_iterations=12)
        assert radius == pytest.approx(0.8, abs=0.02)

    def test_l2_radius_on_handcrafted_net(self):
        from repro.nn import MLPClassifier
        model = MLPClassifier(2, [2], n_classes=2, seed=0)
        model.linears[0].weight.data[...] = np.array([[1.0, -1.0],
                                                      [0.0, 0.0]])
        model.linears[0].bias.data[...] = 0.0
        model.linears[1].weight.data[...] = np.array([[1.0, 0.0],
                                                      [0.0, 1.0]])
        model.linears[1].bias.data[...] = 0.0
        verifier = BranchAndBoundVerifier(model, node_limit=100)
        x0 = np.array([0.6, 0.0])  # distance to the boundary x=0 is 0.6
        radius = verifier.max_certified_radius(x0, 2, n_iterations=10)
        assert radius == pytest.approx(0.6, abs=0.05)

    def test_at_least_zonotope_radius(self, tiny_mlp, digit_data):
        from repro.verify.mlp import MlpZonotopeVerifier
        features, _ = digit_data
        x = features[0]
        z_radius = MlpZonotopeVerifier(tiny_mlp).max_certified_radius(
            x, 2, n_iterations=6)
        bb = BranchAndBoundVerifier(tiny_mlp, node_limit=300)
        bb_radius = bb.max_certified_radius(x, 2, n_iterations=6)
        assert bb_radius >= z_radius * 0.95

    def test_unsupported_norm_rejected(self, tiny_mlp, digit_data):
        features, _ = digit_data
        with pytest.raises(ValueError):
            BranchAndBoundVerifier(tiny_mlp).certify(features[0], 0.1, 1)

    def test_node_limit_gives_unknown(self, tiny_mlp, digit_data):
        features, _ = digit_data
        verifier = BranchAndBoundVerifier(tiny_mlp, node_limit=1)
        verdict = verifier.certify(features[0], 1.0, np.inf)
        assert verdict in (None, False)
