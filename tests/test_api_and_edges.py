"""API surface checks and assorted edge cases across modules."""

import numpy as np
import pytest

import repro
from repro.zonotope import (MultiNormZonotope, zonotope_matmul,
                            DotProductConfig, relu, softmax)
from repro.verify import VerifierConfig, FAST, propagate_classifier
from repro.verify.propagation import propagate_attention


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        assert repro.MultiNormZonotope is MultiNormZonotope
        assert callable(repro.FAST)

    def test_all_submodules_importable(self):
        import repro.autograd
        import repro.nn
        import repro.nlp
        import repro.data
        import repro.zonotope
        import repro.verify
        import repro.baselines
        import repro.experiments

    def test_cli_rejects_unknown_experiment(self):
        from repro.experiments.__main__ import main
        assert main(["999"]) == 1


class TestZonotopeEdges:
    def test_empty_symbol_blocks_everywhere(self, rng):
        z = MultiNormZonotope(rng.normal(size=(3, 4)))
        assert z.n_phi == 0 and z.n_eps == 0
        lower, upper = z.bounds()
        np.testing.assert_allclose(lower, upper)
        out = relu(z)
        np.testing.assert_allclose(out.center, np.maximum(z.center, 0))

    def test_matmul_point_times_point(self, rng):
        a = MultiNormZonotope(rng.normal(size=(2, 3)))
        b = MultiNormZonotope(rng.normal(size=(3, 2)))
        out = zonotope_matmul(a, b, DotProductConfig())
        np.testing.assert_allclose(out.center, a.center @ b.center)
        assert out.n_eps == 0

    def test_softmax_single_column(self, rng):
        """m = 1: softmax of one element is identically 1."""
        scores = MultiNormZonotope(rng.normal(size=(3, 1)),
                                   eps=rng.normal(size=(2, 3, 1)))
        out = softmax(scores)
        lower, upper = out.bounds()
        np.testing.assert_allclose(lower, 1.0, atol=1e-9)
        np.testing.assert_allclose(upper, 1.0, atol=1e-9)

    def test_repr(self, rng):
        z = MultiNormZonotope(rng.normal(size=(3,)),
                              phi=rng.normal(size=(2, 3)), p=2.0)
        text = repr(z)
        assert "n_phi=2" in text and "p=2.0" in text


class TestPropagationOptions:
    def test_no_reduction_config(self, tiny_model, tiny_sentence):
        from repro.verify import word_perturbation_region
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          0.01, 2)
        config = VerifierConfig(noise_symbol_cap=None)
        logits = propagate_classifier(tiny_model, region, config)
        assert np.all(np.isfinite(logits.bounds()[0]))

    def test_attention_returns_possibly_rewritten_input(self, tiny_model,
                                                        tiny_sentence):
        from repro.verify import word_perturbation_region
        from repro.zonotope import DotProductConfig
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          0.05, 2)
        config = FAST(noise_symbol_cap=48)
        out, x_after = propagate_attention(
            region, tiny_model.layers[0].attention, config,
            DotProductConfig())
        assert out.shape == region.shape
        assert x_after.shape == region.shape


class TestCrownStatsAndRepr:
    def test_stats_accumulate(self, tiny_model, tiny_sentence):
        from repro.baselines import CrownVerifier
        verifier = CrownVerifier(tiny_model, backsub_depth=10)
        verifier.certify_word_perturbation(tiny_sentence, 1, 1e-4, 2)
        assert verifier.stats.seconds > 0
        assert verifier.stats.backsub_nodes > 0

    def test_graph_node_repr(self, tiny_model, tiny_sentence):
        from repro.baselines import build_transformer_graph
        graph, x, _ = build_transformer_graph(tiny_model,
                                              len(tiny_sentence))
        assert "input" in repr(x)
