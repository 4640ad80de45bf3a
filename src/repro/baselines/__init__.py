"""Baseline verifiers the paper compares DeepT against."""

from .graph import Graph, Node, build_transformer_graph, interval_propagate
from .crown import (
    CrownVerifier, LpBallInputRegion, BoxInputRegion, BACKWARD_UNLIMITED,
)
from .enumeration import (
    EnumerationResult, enumerate_synonym_attack,
    estimate_enumeration_seconds,
)
from .complete import BranchAndBoundVerifier

__all__ = [
    "Graph", "Node", "build_transformer_graph", "interval_propagate",
    "CrownVerifier", "LpBallInputRegion", "BoxInputRegion",
    "BACKWARD_UNLIMITED",
    "EnumerationResult", "enumerate_synonym_attack",
    "estimate_enumeration_seconds",
    "BranchAndBoundVerifier",
]
