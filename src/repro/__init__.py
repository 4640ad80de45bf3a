"""DeepT: Multi-norm Zonotope certification of Transformer networks.

Reproduction of Bonaert, Dimitrov, Baader and Vechev, *Fast and Precise
Certification of Transformers*, PLDI 2021.

Top-level layout:

* :mod:`repro.zonotope`   — the Multi-norm Zonotope abstract domain (the
  paper's contribution) with all abstract transformers;
* :mod:`repro.verify`     — the DeepT verifier built on the domain;
* :mod:`repro.nn`         — the Transformer networks being certified
  (plus the A.2 MLP and A.3 Vision Transformer);
* :mod:`repro.autograd`   — the reverse-mode AD training substrate;
* :mod:`repro.nlp` / :mod:`repro.data` — synthetic corpora, synonym
  attacks, digit images (offline dataset substitutes, see DESIGN.md);
* :mod:`repro.baselines`  — CROWN-BaF / CROWN-Backward, IBP, synonym
  enumeration, and the complete branch-and-bound verifier;
* :mod:`repro.trace`      — the one recorder: engine counters and gauges,
  span-based certification tracing (one record per abstract-transformer
  application) and the trace-diff regression tool (``python -m
  repro.trace diff``);
* :mod:`repro.scheduler`  — parallel certification-query scheduler with a
  persistent result cache (the harness submits through it);
* :mod:`repro.experiments` — runners regenerating every paper table.
"""

from .trace import TRACER, CertTracer
from .zonotope import MultiNormZonotope, dense_engine
from .verify import DeepTVerifier, VerifierConfig, FAST, PRECISE, COMBINED
from .nn import TransformerClassifier

__version__ = "1.0.0"

__all__ = [
    "MultiNormZonotope", "dense_engine", "DeepTVerifier", "VerifierConfig",
    "FAST", "PRECISE", "COMBINED", "TransformerClassifier",
    "TRACER", "CertTracer",
    "__version__",
]
