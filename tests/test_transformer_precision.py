"""Quantitative precision checks of the minimal-area abstract transformers."""

import numpy as np
import pytest

from repro.zonotope import MultiNormZonotope, relu, tanh


class TestQuantitativePrecision:
    """Area-optimality spot checks of the minimal-area transformers."""

    def test_relu_band_width_matches_theory(self):
        """Crossing ReLU: the band height is exactly
        max(-lam*l, (1-lam)*u) (Eq. 2)."""
        lower, upper = -1.0, 3.0
        z = MultiNormZonotope(np.array([(lower + upper) / 2]),
                              eps=np.array([[(upper - lower) / 2]]))
        out = relu(z)
        lam = upper / (upper - lower)
        expected_beta = 0.5 * max(-lam * lower, (1 - lam) * upper)
        fresh = out.eps[-1, 0]
        assert fresh == pytest.approx(expected_beta)

    def test_tanh_band_tighter_than_interval(self, rng):
        """The relational transformer beats the best constant box."""
        z = MultiNormZonotope(np.array([0.3]), eps=np.array([[0.8]]))
        out = tanh(z)
        lower, upper = out.bounds()
        box_width = np.tanh(1.1) - np.tanh(-0.5)
        # The zonotope output width can exceed the box slightly, but after
        # subtracting the relational part (lam * input) the fresh-symbol
        # width must be smaller than the box.
        fresh_width = 2 * abs(out.eps[-1, 0])
        assert fresh_width < box_width

    def test_precise_dot_product_strictly_better_sometimes(self, rng):
        """There exist inputs where Eq. 6 is strictly tighter than Eq. 5
        (the epsilon^2 >= 0 information)."""
        from repro.zonotope import zonotope_matmul, DotProductConfig
        a = MultiNormZonotope(np.zeros((1, 2)),
                              eps=np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
        b = MultiNormZonotope(np.zeros((2, 1)),
                              eps=np.array([[[1.0], [0.0]],
                                            [[0.0], [1.0]]]))
        fast = zonotope_matmul(a, b, DotProductConfig(variant="fast"))
        precise = zonotope_matmul(a, b, DotProductConfig(variant="precise"))
        w_fast = float(np.subtract(*fast.bounds()[::-1]).sum())
        w_precise = float(np.subtract(*precise.bounds()[::-1]).sum())
        assert w_precise < w_fast

    def test_refinement_gain_positive_on_spread_softmax(self, rng):
        from repro.zonotope import softmax
        scores = MultiNormZonotope(
            rng.normal(size=(2, 4)),
            eps=rng.normal(size=(3, 2, 4)) * 0.4, p=np.inf)
        plain = softmax(scores)
        refined, _ = softmax(scores, refine_sum=True)
        w_plain = np.subtract(*plain.bounds()[::-1]).sum()
        w_refined = np.subtract(*refined.bounds()[::-1]).sum()
        assert w_refined <= w_plain + 1e-12
