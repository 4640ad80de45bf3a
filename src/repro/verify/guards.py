"""Propagation guards: zonotope invariant checking and typed failures.

Soundness of the certification pipeline rests on invariants that hold for
every healthy Multi-norm Zonotope but silently break under numerical
blowup: finite center and coefficient blocks (exp overflow, reciprocal
near zero and NaN-poisoned dot-product cascades all violate this), interval
bounds with ``lower <= upper``, and a noise-symbol count that stays inside
a configurable budget. Before this module those properties were enforced by
scattered per-call-site ``np.isfinite`` patches; now every abstract
transformer stage reports into one :class:`PropagationGuard`, which raises
*typed* errors (:class:`NumericalBlowupError`,
:class:`SymbolBudgetExceeded`) the moment an invariant breaks instead of
letting NaN/Inf flow downstream and corrupt a result silently.

A guard is installed for the dynamic extent of one propagation with
:func:`guard_scope`; instrumented code calls the module-level
:func:`check_zonotope` hook, which is a cheap no-op when no guard is
active. The guard never *modifies* a zonotope — with guards enabled the
propagation is bitwise identical to an unguarded run; the only difference
is that invariant violations surface as typed exceptions that
:class:`~repro.verify.verifier.DeepTVerifier` turns into a sound
degradation ladder instead of a crash or a lie.

The module also hosts :func:`certified_from_margin`, the single shared
definition of "this margin lower bound certifies" (finite and strictly
positive) that every verifier — DeepT, the MLP verifier, IBP and CROWN —
uses for its final decision.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..trace import TRACER

__all__ = [
    "CertificationFault", "NumericalBlowupError", "SymbolBudgetExceeded",
    "PropagationGuard", "guard_scope", "active_guard", "check_zonotope",
    "certified_from_margin",
]


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


class SymbolBudgetExceeded(CertificationFault):
    """Noise-symbol growth exceeded the configured hard budget."""


def certified_from_margin(lower):
    """True iff a margin lower bound certifies: finite and positive.

    The shared decision rule of every verifier. Non-finite bounds (overflow
    in extreme regions, vacuous -inf margins) count as *failure to certify*
    — never as certified — so a numerical blowup can only ever lose
    precision, not soundness.
    """
    lower = float(lower)
    return bool(np.isfinite(lower) and lower > 0.0)


class PropagationGuard:
    """Checks zonotope invariants after every abstract transformer stage.

    Parameters
    ----------
    symbol_budget:
        Hard upper bound on the eps-symbol count of any intermediate
        zonotope; ``None`` disables the budget check. (This is a runaway
        backstop, not the per-layer reduction cap — see
        ``VerifierConfig.noise_symbol_cap`` for the latter.)

    ``checks`` and ``trips`` count invocations and violations; a tripped
    guard raises, so ``trips`` is 0 or 1 per propagation unless the caller
    swallows the error.
    """

    def __init__(self, symbol_budget=None):
        self.symbol_budget = symbol_budget
        self.checks = 0
        self.trips = 0

    @staticmethod
    def _finite(a):
        # min and max are both finite iff the block holds no NaN (the
        # reductions propagate it) and no ±inf — two scalar reductions,
        # no intermediate bool array and no abs/sum materialization.
        return a.size == 0 or bool(np.isfinite(a.min())
                                   and np.isfinite(a.max()))

    def check(self, z, stage):
        """Validate one zonotope; raises a typed error on violation.

        Finiteness is checked on the center, the phi block, the dense eps
        rows and the lazy tail's magnitudes — each via a min/max scalar
        reduction, so a lazy eps tail is never densified just to be
        checked and no per-variable mass vector is allocated.
        """
        self.checks += 1
        if not self._finite(z.center):
            self._trip(NumericalBlowupError, stage,
                       "non-finite zonotope center")
        if z.n_phi and not self._finite(z.phi):
            self._trip(NumericalBlowupError, stage,
                       "non-finite phi coefficients")
        if z.n_eps:
            if not self._finite(z._dense_rows()):
                self._trip(NumericalBlowupError, stage,
                           "non-finite eps coefficients")
            tail = z._eps_tail
            if tail is not None and len(tail) \
                    and not self._finite(tail.mag):
                self._trip(NumericalBlowupError, stage,
                           "non-finite eps tail magnitudes")
        if self.symbol_budget is not None and z.n_eps > self.symbol_budget:
            self._trip(SymbolBudgetExceeded, stage,
                       f"{z.n_eps} eps symbols exceed the budget of "
                       f"{self.symbol_budget}")
        return z

    def _trip(self, error, stage, detail):
        self.trips += 1
        TRACER.count("guard_trips")
        TRACER.record_event("guard-trip", stage=stage, detail=detail)
        raise error(stage, detail)


_ACTIVE = None


def active_guard():
    """The guard installed for the current propagation, or None."""
    return _ACTIVE


@contextmanager
def guard_scope(guard):
    """Install ``guard`` for the dynamic extent of one propagation.

    Scopes nest (an inner propagation may run with its own guard or with
    ``None`` to disable checking); the previous guard is restored on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = guard
    try:
        yield guard
    finally:
        _ACTIVE = previous


def check_zonotope(z, stage):
    """Hook called by instrumented propagation stages (cheap when idle)."""
    if _ACTIVE is not None:
        _ACTIVE.check(z, stage)
    return z
