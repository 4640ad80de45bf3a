"""API surface checks and assorted edge cases across modules."""

import os
import subprocess
import sys

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

    def test_certification_path_loads_no_scipy(self):
        """Only Table 10's LP solver needs scipy, and it imports it on
        use: the packages and every query verifier run without it (its
        import would add to every start-up)."""
        script = (
            "import sys\n"
            "import repro.experiments, repro.service\n"
            "from repro.nn import TransformerClassifier\n"
            "from repro.scheduler.queries import (CertQuery,\n"
            "    verifier_config_items)\n"
            "from repro.scheduler.worker import execute_query\n"
            "from repro.verify import FAST, PRECISE\n"
            "model = TransformerClassifier(20, embed_dim=8, n_heads=2,\n"
            "    hidden_dim=8, n_layers=1, max_len=8, seed=0)\n"
            "deept_fast = verifier_config_items(FAST(noise_symbol_cap=16))\n"
            "deept_precise = verifier_config_items(\n"
            "    PRECISE(noise_symbol_cap=16))\n"
            "for verifier, config in (('deept', deept_fast),\n"
            "                         ('deept', deept_precise),\n"
            "                         ('crown', (('backsub_depth', 2),)),\n"
            "                         ('ibp', deept_fast)):\n"
            "    query = CertQuery(verifier=verifier, model_hash='m',\n"
            "        corpus_fingerprint='c', sentence=(0, 3, 5), position=1,\n"
            "        p=2.0, config=config, n_iterations=2)\n"
            "    radius = execute_query(model, query)[0]\n"
            "    assert radius >= 0.0, (verifier, radius)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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
    def test_graph_node_repr(self, tiny_model, tiny_sentence):
        from repro.baselines import build_transformer_graph
        graph, x, _ = build_transformer_graph(tiny_model,
                                              len(tiny_sentence))
        assert "input" in repr(x)
