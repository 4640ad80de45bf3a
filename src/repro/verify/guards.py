"""Propagation guard: zonotope invariant checking and typed failures.

Soundness of the certification pipeline rests on one invariant that holds
for every healthy Multi-norm Zonotope but silently breaks under numerical
blowup: finite center and coefficient blocks (exp overflow, reciprocal
near zero and NaN-poisoned dot-product cascades all violate it). Every
abstract transformer stage of a propagation passes its output through
:func:`check_zonotope`, which raises the *typed*
:class:`NumericalBlowupError` the moment the invariant breaks instead of
letting NaN/Inf flow downstream and corrupt a result silently.

The check is a plain function with no state: it never *modifies* a
zonotope, so a checked propagation is bitwise identical to an unchecked
one, and two propagations on different threads cannot interfere. A trip
is what :class:`~repro.verify.verifier.DeepTVerifier` turns into a sound
degradation ladder instead of a crash or a lie.

The module also hosts :func:`certified_from_margin`, the single shared
definition of "this margin lower bound certifies" (finite and strictly
positive) that every verifier — DeepT, the MLP verifier, IBP and CROWN —
uses for its final decision.
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER

__all__ = ["CertificationFault", "NumericalBlowupError", "check_zonotope",
           "certified_from_margin"]


class CertificationFault(RuntimeError):
    """Base class of recoverable certification-pipeline failures.

    Carries the pipeline ``stage`` where the fault was detected and a short
    ``detail`` string; both are reported in degraded
    :class:`~repro.verify.verifier.CertificationResult` records.
    """

    def __init__(self, stage, detail):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


class NumericalBlowupError(CertificationFault):
    """A zonotope carries non-finite values (overflow / NaN poisoning)."""


def certified_from_margin(lower):
    """True iff a margin lower bound certifies: finite and positive.

    The shared decision rule of every verifier. Non-finite bounds (overflow
    in extreme regions, vacuous -inf margins) count as *failure to certify*
    — never as certified — so a numerical blowup can only ever lose
    precision, not soundness.
    """
    lower = float(lower)
    return bool(np.isfinite(lower) and lower > 0.0)


def _finite(a):
    # min and max are both finite iff the block holds no NaN (the
    # reductions propagate it) and no ±inf — two scalar reductions, no
    # intermediate bool array and no abs/sum materialization.
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _blowup(z):
    """What is non-finite in ``z``, or None when every block is finite."""
    if not _finite(z.center):
        return "non-finite zonotope center"
    if z.n_phi and not _finite(z.phi):
        return "non-finite phi coefficients"
    if z.n_eps:
        if not _finite(z._eps_rows):
            return "non-finite eps coefficients"
        tail = z._eps_tail
        if tail is not None and len(tail) and not _finite(tail.mag):
            return "non-finite eps tail magnitudes"
    return None


def check_zonotope(z, stage):
    """Validate one propagation stage's output zonotope; returns ``z``.

    Finiteness is checked on the center, the phi block, the dense eps rows
    and the lazy tail's magnitudes — each via a min/max scalar reduction,
    so a lazy eps tail is never densified just to be checked. A violation
    increments the ``guard_trips`` counter, records a ``guard-trip`` event
    and raises :class:`NumericalBlowupError` naming ``stage``.
    """
    detail = _blowup(z)
    if detail is not None:
        TRACER.count("guard_trips")
        TRACER.record_event("guard-trip", stage=stage, detail=detail)
        raise NumericalBlowupError(stage, detail)
    return z
