"""Property-based tests of *composed* operations.

Individual transformers are verified in their own test files; these
hypothesis suites check that soundness survives composition — the property
the verifier actually relies on — and that the autograd engine's gradients
stay correct through randomly composed expressions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, softmax as autograd_softmax
from repro.zonotope import (MultiNormZonotope, relu, tanh, exp,
                            reduce_noise_symbols, zonotope_matmul,
                            DotProductConfig, softmax)

from tests.conftest import sample_lp_ball
from tests.gradcheck import numerical_grad

_UNARY_ZONO = {
    "relu": (relu, lambda v: np.maximum(v, 0)),
    "tanh": (tanh, np.tanh),
    "exp": (exp, np.exp),
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31),
       ops=st.lists(st.sampled_from(sorted(_UNARY_ZONO)), min_size=1,
                    max_size=4),
       reduce_at=st.integers(0, 3),
       p=st.sampled_from([1.0, 2.0, np.inf]))
def test_chained_transformers_remain_sound(seed, ops, reduce_at, p):
    """Arbitrary chains of elementwise transformers with a reduction
    inserted somewhere stay sound end to end."""
    rng = np.random.default_rng(seed)
    z = MultiNormZonotope(rng.normal(size=(4,)),
                          phi=rng.normal(size=(2, 4)) * 0.5,
                          eps=rng.normal(size=(3, 4)) * 0.5, p=p)
    out = z
    concrete_ops = []
    for index, name in enumerate(ops):
        transformer, concrete = _UNARY_ZONO[name]
        out = transformer(out)
        concrete_ops.append(concrete)
        if index == reduce_at:
            out = reduce_noise_symbols(out, 4)
    lower, upper = out.bounds()

    phi = sample_lp_ball(rng, 2, p)
    eps = rng.uniform(-1, 1, size=3)
    value = z.concretize(phi, eps)
    for concrete in concrete_ops:
        value = concrete(value)
    assert np.all(value >= lower - 1e-7)
    assert np.all(value <= upper + 1e-7)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31),
       variant=st.sampled_from(["fast", "precise"]))
def test_attention_like_composition_sound(seed, variant):
    """scores = A Bᵀ -> softmax -> @ C : the self-attention skeleton."""
    rng = np.random.default_rng(seed)
    base = MultiNormZonotope(rng.normal(size=(3, 4)),
                             eps=rng.normal(size=(3, 3, 4)) * 0.1)
    w_q = rng.normal(size=(4, 2))
    w_k = rng.normal(size=(4, 2))
    w_v = rng.normal(size=(4, 2))
    config = DotProductConfig(variant=variant)
    queries = base.matmul_const(w_q)
    keys = base.matmul_const(w_k)
    values = base.matmul_const(w_v)
    scores = zonotope_matmul(queries, keys.transpose_vars(), config)
    weights = softmax(scores)
    out = zonotope_matmul(weights, values, config)
    lower, upper = out.bounds()

    eps = rng.uniform(-1, 1, size=3)
    x = base.concretize(np.zeros(0), eps)
    s = (x @ w_q) @ (x @ w_k).T
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    y = w @ (x @ w_v)
    assert np.all(y >= lower - 1e-7)
    assert np.all(y <= upper + 1e-7)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31),
       depth=st.integers(1, 3))
def test_random_autograd_expressions_gradcheck(seed, depth):
    """Random compositions of autograd ops match finite differences."""
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=(4, 4)) for _ in range(depth)]
    choices = rng.integers(0, 3, size=depth)

    def build(x):
        out = x
        for w, choice in zip(weights, choices):
            out = out @ Tensor(w)
            if choice == 0:
                out = out.tanh()
            elif choice == 1:
                out = out.relu() + out * 0.1
            else:
                out = autograd_softmax(out, axis=-1)
        return (out ** 2).sum()

    x0 = rng.normal(size=(2, 4))
    # Keep clear of ReLU kinks for the finite-difference check.
    x = Tensor(x0, requires_grad=True)
    build(x).backward()
    numeric = numerical_grad(lambda v: build(Tensor(v)).data.sum(),
                             x0.copy())
    np.testing.assert_allclose(x.grad, numeric, atol=3e-4, rtol=3e-4)
