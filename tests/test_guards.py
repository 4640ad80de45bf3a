"""Tests for the propagation guard layer and the degradation ladder:
typed invariant errors, the shared margin predicate, bitwise invisibility
on healthy inputs, and the sound precise -> fast -> interval fallback."""

import numpy as np
import pytest

from repro.trace import TRACER
from repro.verify import (CertificationResult, DeepTVerifier, FAST, PRECISE,
                          NumericalBlowupError, PropagationGuard,
                          SymbolBudgetExceeded, VerifierConfig,
                          certified_from_margin, guard_scope,
                          word_perturbation_region)
from repro.verify.guards import check_zonotope
from repro.zonotope import MultiNormZonotope


@pytest.fixture(scope="module")
def region(tiny_model, tiny_sentence):
    return word_perturbation_region(tiny_model, tiny_sentence, 1, 0.01, 2.0)


@pytest.fixture(scope="module")
def true_label(tiny_model, tiny_sentence):
    return tiny_model.predict(tiny_sentence)


class TestCertifiedFromMargin:
    def test_positive_finite_certifies(self):
        assert certified_from_margin(0.5)
        assert certified_from_margin(1e-12)

    @pytest.mark.parametrize("margin", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_everything_else_fails(self, margin):
        assert not certified_from_margin(margin)

    def test_returns_plain_bool(self):
        assert certified_from_margin(np.float64(1.0)) is True
        assert certified_from_margin(np.float64(-1.0)) is False


class TestPropagationGuard:
    def _zonotope(self, center=None):
        center = np.array([[1.0, 2.0]]) if center is None else center
        z = MultiNormZonotope(center, p=2.0)
        return z.append_fresh_eps(np.abs(center) * 0.1)

    def test_healthy_zonotope_passes(self):
        guard = PropagationGuard()
        guard.check(self._zonotope(), "stage")
        assert guard.checks == 1 and guard.trips == 0

    def test_nan_center_trips_blowup(self):
        guard = PropagationGuard()
        with pytest.raises(NumericalBlowupError, match="attention"):
            guard.check(self._zonotope(np.array([[np.nan, 1.0]])),
                        "attention")
        assert guard.trips == 1

    def test_inf_coefficient_trips_blowup(self):
        z = self._zonotope().append_fresh_eps(np.array([[np.inf, 0.0]]))
        with pytest.raises(NumericalBlowupError):
            PropagationGuard().check(z, "ffn")

    def test_symbol_budget_trips_typed_error(self):
        z = self._zonotope()
        assert z.n_eps > 1
        with pytest.raises(SymbolBudgetExceeded) as excinfo:
            PropagationGuard(symbol_budget=1).check(z, "reduction")
        assert excinfo.value.stage == "reduction"

    def test_scope_activates_and_restores(self):
        guard = PropagationGuard()
        z = self._zonotope()
        check_zonotope(z, "outside")  # no active guard: free no-op
        assert guard.checks == 0
        with guard_scope(guard):
            check_zonotope(z, "inside")
        assert guard.checks == 1
        check_zonotope(z, "outside-again")
        assert guard.checks == 1


class TestDegradationLadder:
    def test_rung_sequences(self):
        names = [n for n, _ in DeepTVerifier._ladder(PRECISE())]
        assert names == ["precise", "fast", "ibp"]
        names = [n for n, _ in DeepTVerifier._ladder(FAST())]
        assert names == ["fast", "ibp"]
        solo = DeepTVerifier._ladder(FAST(degradation_ladder=False))
        assert [n for n, _ in solo] == ["fast"]

    def test_healthy_run_is_bitwise_invisible(self, tiny_model, region,
                                              true_label):
        """Guards + ladder on must reproduce the unguarded result exactly,
        with zero degradation events recorded."""
        plain = DeepTVerifier(tiny_model, FAST(
            noise_symbol_cap=64, guards=False, degradation_ladder=False))
        guarded = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        with TRACER.query_scope(None) as record:
            a = plain.certify_region(region, true_label)
            b = guarded.certify_region(region, true_label)
        snapshot = record["perf"]
        assert b.margin_lower == a.margin_lower  # bitwise, not approx
        assert b.certified == a.certified
        assert not b.degraded and b.fallback_chain == ()
        assert snapshot["counters"].get("degradations", 0) == 0

    def test_budget_trip_degrades_to_interval_floor(self, tiny_model,
                                                    region, true_label):
        verifier = DeepTVerifier(tiny_model, FAST(
            noise_symbol_cap=64, symbol_budget=1))
        with TRACER.query_scope(None) as record:
            result = verifier.certify_region(region, true_label)
        snapshot = record["perf"]
        assert result.degraded
        assert result.fallback_chain == ("fast", "ibp")
        assert "SymbolBudgetExceeded" in result.fault
        assert np.isfinite(result.margin_lower)
        assert snapshot["counters"]["degradations"] == 1
        assert snapshot["counters"]["degraded_to_ibp"] == 1

    def test_degradation_never_invents_certification(self, tiny_model,
                                                     region, true_label):
        healthy = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        degraded = DeepTVerifier(tiny_model, FAST(
            noise_symbol_cap=64, symbol_budget=1))
        clean = healthy.certify_region(region, true_label)
        fallen = degraded.certify_region(region, true_label)
        assert not (fallen.certified and not clean.certified)
        # The interval floor is strictly looser than the zonotope engine.
        assert fallen.margin_lower <= clean.margin_lower

    def test_ladder_disabled_raises_typed_error(self, tiny_model, region,
                                                true_label):
        verifier = DeepTVerifier(tiny_model, FAST(
            noise_symbol_cap=64, symbol_budget=1,
            degradation_ladder=False))
        with pytest.raises(SymbolBudgetExceeded):
            verifier.certify_region(region, true_label)

    def test_interval_floor_is_sound(self, tiny_model, region, true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        floor = verifier._certify_region_ibp(region, true_label)
        assert isinstance(floor, CertificationResult)
        zono = verifier.certify_region(region, true_label)
        assert floor.margin_lower <= zono.margin_lower

    def test_result_truthiness_tracks_certified(self):
        assert CertificationResult(certified=True, margin_lower=0.5,
                                   true_label=0)
        assert not CertificationResult(certified=False, margin_lower=-0.5,
                                       true_label=0)


class TestConfigKnobs:
    def test_new_fields_default_on(self):
        config = VerifierConfig()
        assert config.guards and config.degradation_ladder
        assert config.symbol_budget is None

    def test_fields_flow_into_query_keys(self, tiny_model, tiny_sentence):
        from repro.scheduler import expand_word_queries
        base = expand_word_queries(tiny_model, [tiny_sentence], 2.0,
                                   verifier="deept", config=FAST(),
                                   n_positions=1)
        budgeted = expand_word_queries(
            tiny_model, [tiny_sentence], 2.0, verifier="deept",
            config=FAST(symbol_budget=7), n_positions=1)
        assert base[0].key() != budgeted[0].key()
