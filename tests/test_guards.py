"""Tests for the propagation guard and the degradation ladder: typed
invariant errors, the shared margin predicate, bitwise invisibility on
healthy inputs, and the sound precise -> fast -> interval fallback."""

import dataclasses

import numpy as np
import pytest

from repro.faults import FaultPlan, install_fault_plan
from repro.trace import TRACER
from repro.verify import (CertificationResult, DeepTVerifier, FAST, PRECISE,
                          NumericalBlowupError, VerifierConfig,
                          certified_from_margin, propagation,
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
        z = self._zonotope()
        with TRACER.query_scope(None) as record:
            assert check_zonotope(z, "stage") is z
        assert "guard_trips" not in record["perf"]["counters"]

    def test_nan_center_trips_blowup(self):
        z = self._zonotope(np.array([[np.nan, 1.0]]))
        with TRACER.query_scope(None) as record:
            with pytest.raises(NumericalBlowupError,
                               match="attention") as excinfo:
                check_zonotope(z, "attention")
        assert excinfo.value.stage == "attention"
        assert record["perf"]["counters"]["guard_trips"] == 1

    def test_inf_coefficient_trips_blowup(self):
        z = self._zonotope().append_fresh_eps(np.array([[np.inf, 0.0]]))
        with pytest.raises(NumericalBlowupError):
            check_zonotope(z, "ffn")


class TestDegradationLadder:
    def test_rung_sequences(self):
        names = [n for n, _ in DeepTVerifier._ladder(PRECISE())]
        assert names == ["precise", "fast", "ibp"]
        names = [n for n, _ in DeepTVerifier._ladder(FAST())]
        assert names == ["fast", "ibp"]

    def test_healthy_run_is_bitwise_invisible(self, tiny_model, region,
                                              true_label, monkeypatch):
        """The guarded ladder must reproduce one propagation with the guard
        patched out exactly, with zero degradation events recorded."""
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        with TRACER.query_scope(None) as record:
            b = verifier.certify_region(region, true_label)
        snapshot = record["perf"]
        with monkeypatch.context() as patch:
            patch.setattr(propagation, "check_zonotope", lambda z, stage: z)
            a = verifier._certify_region_once(region, true_label,
                                              verifier.config)
        assert b.margin_lower == a.margin_lower  # bitwise, not approx
        assert b.certified == a.certified
        assert not b.degraded and b.fallback_chain == ()
        assert snapshot["counters"].get("degradations", 0) == 0

    def test_guard_trip_degrades_to_interval_floor(self, tiny_model,
                                                   region, true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        with install_fault_plan(FaultPlan(kind="nan", layer=0)), \
                TRACER.query_scope(None) as record:
            result = verifier.certify_region(region, true_label)
        snapshot = record["perf"]
        assert result.degraded
        assert result.fallback_chain == ("fast", "ibp")
        assert "NumericalBlowupError" in result.fault
        assert np.isfinite(result.margin_lower)
        assert snapshot["counters"]["degradations"] == 1
        assert snapshot["counters"]["degraded_to_ibp"] == 1

    def test_degradation_never_invents_certification(self, tiny_model,
                                                     region, true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        clean = verifier.certify_region(region, true_label)
        with install_fault_plan(FaultPlan(kind="nan", layer=0)):
            fallen = verifier.certify_region(region, true_label)
        assert fallen.degraded
        assert not (fallen.certified and not clean.certified)
        # The interval floor is strictly looser than the zonotope engine.
        assert fallen.margin_lower <= clean.margin_lower

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
    def test_holds_exactly_the_papers_five_knobs(self):
        names = [f.name for f in dataclasses.fields(VerifierConfig)]
        assert names == ["dot_product_variant", "dual_norm_order",
                         "noise_symbol_cap", "last_layer_cap",
                         "softmax_sum_refinement"]

    @pytest.mark.parametrize("field", ["noise_symbol_cap",
                                       "last_layer_cap"])
    @pytest.mark.parametrize("cap", [-1, 12.5, True, "64"])
    def test_symbol_caps_must_be_counts(self, field, cap):
        with pytest.raises(ValueError, match=field):
            VerifierConfig(**{field: cap})

    def test_fields_flow_into_query_keys(self, tiny_model, tiny_sentence):
        from repro.scheduler import expand_word_queries
        base = expand_word_queries(tiny_model, [tiny_sentence], 2.0,
                                   verifier="deept", config=FAST(),
                                   n_positions=1)
        capped = expand_word_queries(
            tiny_model, [tiny_sentence], 2.0, verifier="deept",
            config=FAST(noise_symbol_cap=7), n_positions=1)
        assert base[0].key() != capped[0].key()
