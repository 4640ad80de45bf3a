"""The DeepT verifier (core of the reproduction)."""

from .config import VerifierConfig, FAST, PRECISE, COMBINED
from .guards import (CertificationFault, NumericalBlowupError,
                     check_zonotope, certified_from_margin)
from .propagation import propagate_classifier
from .regions import (
    lp_ball_region, word_perturbation_region, synonym_attack_region,
    image_perturbation_region,
)
from .verifier import (DeepTVerifier, CertificationResult, IBPVerifier,
                       ibp_certify_region)
from .radius import (
    binary_search_radius, max_certified_radius, max_certified_image_radius,
)
from .mlp import MlpZonotopeVerifier, propagate_mlp

__all__ = [
    "VerifierConfig", "FAST", "PRECISE", "COMBINED",
    "CertificationFault", "NumericalBlowupError", "check_zonotope",
    "certified_from_margin",
    "propagate_classifier",
    "lp_ball_region", "word_perturbation_region", "synonym_attack_region",
    "image_perturbation_region",
    "DeepTVerifier", "CertificationResult", "IBPVerifier",
    "ibp_certify_region",
    "binary_search_radius", "max_certified_radius",
    "max_certified_image_radius",
    "MlpZonotopeVerifier", "propagate_mlp",
]
