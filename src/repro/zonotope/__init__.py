"""The Multi-norm Zonotope abstract domain (the paper's contribution)."""

from .multinorm import MultiNormZonotope, dual_exponent, norm_along_axis0
from .numeric import (PROPAGATION_ERRSTATE, propagation_errstate,
                      under_propagation_errstate)
from .storage import (EpsBuffer, EpsCapacityPool, EpsTail, capacity_pool,
                      dense_engine, fast_path_enabled, reset_capacity_pool,
                      set_fast_path)
from . import elementwise
from .elementwise import relu, tanh, exp, reciprocal, rsqrt, sigmoid, gelu
from .fused import fused_affine_response, fused_layer_norm
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
    "EpsBuffer", "EpsTail", "EpsCapacityPool",
    "capacity_pool", "reset_capacity_pool", "dense_engine",
    "fast_path_enabled", "set_fast_path",
    "elementwise", "relu", "tanh", "exp", "reciprocal", "rsqrt",
    "sigmoid", "gelu", "fused_affine_response", "fused_layer_norm",
    "zonotope_matmul", "zonotope_multiply", "DotProductConfig",
    "softmax", "EpsRewrite", "apply_eps_rewrites", "refine_softmax_rows",
    "minimize_coefficient_mass",
    "reduce_noise_symbols", "symbol_scores", "REDUCTION_STRATEGIES",
]
