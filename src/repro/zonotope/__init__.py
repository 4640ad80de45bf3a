"""The Multi-norm Zonotope abstract domain (the paper's contribution)."""

from .multinorm import MultiNormZonotope, dual_exponent, norm_along_axis0
from .numeric import (PROPAGATION_ERRSTATE, propagation_errstate,
                      under_propagation_errstate)
from .storage import EpsTail
from . import elementwise
from .elementwise import relu, tanh, exp, reciprocal, rsqrt, sigmoid, gelu
from .fused import fused_layer_norm
from .dotproduct import zonotope_matmul, zonotope_multiply, DotProductConfig
from .softmax import softmax
from .refinement import (
    EpsRewrite, apply_eps_rewrites, refine_softmax_rows,
    minimize_coefficient_mass,
)
from .reduction import (reduce_noise_symbols, symbol_scores,
                        REDUCTION_STRATEGIES)

__all__ = [
    "MultiNormZonotope", "dual_exponent", "norm_along_axis0",
    "PROPAGATION_ERRSTATE", "propagation_errstate",
    "under_propagation_errstate",
    "EpsTail", "elementwise", "relu", "tanh", "exp", "reciprocal", "rsqrt",
    "sigmoid", "gelu", "fused_layer_norm",
    "zonotope_matmul", "zonotope_multiply", "DotProductConfig",
    "softmax", "EpsRewrite", "apply_eps_rewrites", "refine_softmax_rows",
    "minimize_coefficient_mass",
    "reduce_noise_symbols", "symbol_scores", "REDUCTION_STRATEGIES",
]
