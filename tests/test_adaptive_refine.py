"""Soundness and equivalence battery for the trace-guided adaptive loop.

Pins the contracts of :mod:`repro.verify.refine`:

* the adaptive radius is bracketed fast-below / precise-above on the
  shared trained model (the ceiling is the escalation's own maximal
  plan, run as a plain DeepT configuration);
* an adaptive run never flips a query the full-precise pass leaves
  uncertified to ``certified=True``;
* plan escalation is a deterministic function of the fast pass's trace;
* the certified-plan cache makes binary-search probes reuse refinement
  work without changing any certification decision — pinned on a
  non-monotone probe sequence against fresh per-probe verifiers
  (the regression for stale probe state in ``binary_search_radius``);
* ``verifier="adaptive"`` round-trips through CertQuery, the service
  protocol and the admission ladder, and the scheduler path produces the
  same radius as a direct verifier call.

Uses the session-scoped ``tiny_model`` fixtures from ``conftest``.
"""

import pytest

from repro.perf import PERF
from repro.verify import (AdaptiveVerifier, DeepTVerifier, FAST,
                          max_certified_radius, word_perturbation_region)
from repro.verify.config import normalize_plan
from repro.verify.refine import (RefinementPlan, ceiling_plan,
                                 escalation_plan, rank_layers)

# The escalation floor used throughout: softmax refinement off and a small
# symbol cap leave the ceiling plenty of headroom, so the fast-vs-precise
# gap the adaptive loop closes actually exists on the tiny model.
def _base():
    return FAST(noise_symbol_cap=24, softmax_sum_refinement=False)


@pytest.fixture(scope="module")
def verifiers(tiny_model):
    base = _base()
    adaptive = AdaptiveVerifier(tiny_model, base)
    return {
        "fast": DeepTVerifier(tiny_model, base),
        "adaptive": adaptive,
        "ceiling": DeepTVerifier(tiny_model, adaptive.ceiling_config()),
    }


def _search(verifier, sentence, label, n_iterations=6):
    return max_certified_radius(verifier, sentence, 1, 2.0,
                                true_label=label,
                                n_iterations=n_iterations)


class TestAdaptiveSoundness:
    def test_radius_bracketed_fast_below_precise_above(self, tiny_model,
                                                       tiny_sentence,
                                                       verifiers):
        label = tiny_model.predict(tiny_sentence)
        r_fast = _search(verifiers["fast"], tiny_sentence, label)
        verifiers["adaptive"].reset_plan()
        r_adaptive = _search(verifiers["adaptive"], tiny_sentence, label)
        r_ceiling = _search(verifiers["ceiling"], tiny_sentence, label)
        assert r_fast <= r_adaptive <= r_ceiling
        # The workload is chosen so the escalation has something to win:
        # wherever the search resolves a Fast-vs-Precise gap, the
        # adaptive search must close it completely.
        assert r_ceiling > r_fast, \
            "no Fast-vs-Precise gap at this resolution — test gates nothing"
        assert r_adaptive == r_ceiling

    def test_never_flips_uncertified_vs_precise(self, tiny_model,
                                                tiny_sentence, verifiers):
        """Certifying at any escalation rung implies the ceiling certifies:
        a radius the full-precise pass rejects stays rejected."""
        label = tiny_model.predict(tiny_sentence)
        for radius in (0.5, 1.5, 2.5):
            region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                              radius, 2.0)
            verifiers["adaptive"].reset_plan()
            adaptive = verifiers["adaptive"].certify_region(region, label)
            ceiling = verifiers["ceiling"].certify_region(region, label)
            if not ceiling.certified:
                assert not adaptive.certified, f"flip at radius {radius}"

    def test_fast_certified_bitwise_identical(self, tiny_model,
                                              tiny_sentence, verifiers):
        """A healthy fast-certified query must not pay for (or be changed
        by) the adaptive machinery at all."""
        label = tiny_model.predict(tiny_sentence)
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          0.05, 2.0)
        plain = verifiers["fast"].certify_region(region, label)
        assert plain.certified
        verifiers["adaptive"].reset_plan()
        refined = verifiers["adaptive"].certify_region(region, label)
        assert refined.certified
        assert refined.margin_lower == plain.margin_lower
        assert refined.plan == ()
        assert refined.refinement_rounds == 0


class TestPlanEscalationDeterminism:
    def test_same_region_same_plan(self, tiny_model, tiny_sentence):
        """Two fresh verifiers on the same uncertified region derive the
        same plan and the same margins — escalation is a pure function of
        the fast pass's trace."""
        label = tiny_model.predict(tiny_sentence)
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          1.4, 2.0)
        results = [AdaptiveVerifier(tiny_model, _base())
                   .certify_region(region, label) for _ in range(2)]
        assert results[0].certified == results[1].certified
        assert results[0].plan == results[1].plan
        assert results[0].margin_lower == results[1].margin_lower
        assert results[0].refinement_rounds == results[1].refinement_rounds

    def test_rank_layers_orders_by_growth(self):
        def span(layer, width):
            return {"layer": layer, "op": "affine", "width_mean": width,
                    "width_max": width, "eps_mass": width}

        spans = ([span(0, 1.0), span(0, 2.0)]        # growth log 2
                 + [span(1, 1.0), span(1, 8.0)]      # growth log 8
                 + [span(2, 1.0), span(2, 2.0)])     # growth log 2 (tie)
        assert rank_layers(spans, 3) == [1, 2, 0]    # tie -> later layer

    def test_rank_layers_nonfinite_first_spanless_last(self):
        spans = [{"layer": 1, "op": "exp", "width_mean": float("inf"),
                  "width_max": float("inf"), "eps_mass": 1.0},
                 {"layer": 0, "op": "exp", "width_mean": 1.0,
                  "width_max": 1.0, "eps_mass": 1.0},
                 {"layer": 0, "op": "relu", "width_mean": 3.0,
                  "width_max": 3.0, "eps_mass": 2.0}]
        # Layer 2 recorded nothing: it ranks last. Overflowing layer 1
        # is the loosest possible and ranks first.
        assert rank_layers(spans, 3) == [1, 0, 2]

    def test_escalation_plan_grows_with_rounds(self):
        config = _base()
        ranked = [2, 0, 1]
        round1 = escalation_plan(ranked, config, 1, 3)
        round2 = escalation_plan(ranked, config, 2, 3)
        assert round1.precise_layers == (2,)
        assert set(round2.precise_layers) == {0, 2}
        assert round2.covers(round1) and not round1.covers(round2)
        # Cap boost enters from round 2; softmax is forced on because the
        # base config has the refinement off.
        assert round1.cap_layers == () and round2.cap_layers
        assert round1.softmax_layers == (2,)
        ceiling = ceiling_plan(config, 3)
        assert ceiling.covers(round2)

    def test_plan_normalization_and_validation(self):
        plan = normalize_plan([["cap", 1, 32], ("cap", 1, 64),
                               ("precise", 0), ("precise", 0)])
        assert plan == (("cap", 1, 64), ("precise", 0))
        with pytest.raises(ValueError):
            normalize_plan([("sharpen", 0)])
        with pytest.raises(ValueError):
            normalize_plan([("cap", 0)])
        with pytest.raises(ValueError):
            normalize_plan([("precise", -1)])

    def test_refinement_plan_covers(self):
        small = RefinementPlan.build(precise_layers=(0,),
                                     cap_layers=((1, 32),))
        big = RefinementPlan.build(precise_layers=(0, 1),
                                   cap_layers=((1, 64),),
                                   softmax_layers=(0,))
        assert big.covers(small) and not small.covers(big)
        assert big.covers(big)


class TestPlanCacheProbeReuse:
    """The satellite-5 regression: probe state cached across a radius
    search must never change a certification decision."""

    def test_non_monotone_probe_sequence_matches_fresh(self, tiny_model,
                                                       tiny_sentence):
        label = tiny_model.predict(tiny_sentence)
        shared = AdaptiveVerifier(tiny_model, _base())
        # Down-up-down sequence: certified-by-plan, uncertified, fast-
        # certified, certified-by-plan again — the shapes a non-monotone
        # bracketing phase produces.
        for radius in (1.4, 2.6, 0.3, 1.5, 1.3):
            region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                              radius, 2.0)
            stateful = shared.certify_region(region, label)
            fresh = AdaptiveVerifier(tiny_model, _base()) \
                .certify_region(region, label)
            assert stateful.certified == fresh.certified, \
                f"plan cache changed the decision at radius {radius}"

    def test_search_reuses_certified_plan(self, tiny_model, tiny_sentence):
        label = tiny_model.predict(tiny_sentence)
        verifier = AdaptiveVerifier(tiny_model, _base())
        radius = _search(verifier, tiny_sentence, label)
        # The search ended above the fast radius, so its final certified
        # probe took (and cached) a refinement plan ...
        assert verifier.certified_plan is not None
        region = word_perturbation_region(tiny_model, tiny_sentence, 1,
                                          radius, 2.0)
        with PERF.collecting() as recorder:
            result = verifier.certify_region(region, label)
        # ... and the next probe at that radius certifies straight off the
        # cached plan: one fast pass plus one planned pass, no escalation.
        assert result.certified
        counters = recorder.snapshot()["counters"]
        assert counters.get("adaptive_plan_reuse_certified", 0) == 1, \
            "in-gap probe did not reuse the previously certified plan"
        verifier.reset_plan()
        assert verifier.certified_plan is None


class TestAdaptiveQueryIntegration:
    def test_certquery_accepts_adaptive_and_keys_differ(self, tiny_model,
                                                        tiny_sentence):
        from repro.scheduler import expand_word_queries

        base = _base()
        adaptive, = expand_word_queries(tiny_model, [tiny_sentence], 2.0,
                                        verifier="adaptive", config=base,
                                        n_iterations=3)
        deept, = expand_word_queries(tiny_model, [tiny_sentence], 2.0,
                                     verifier="deept", config=base,
                                     n_iterations=3)
        assert adaptive.key() != deept.key()
        with pytest.raises(ValueError):
            expand_word_queries(tiny_model, [tiny_sentence], 2.0,
                                verifier="adaptive", config=None)

    def test_scheduler_radius_matches_direct(self, tiny_model,
                                             tiny_sentence):
        from repro.scheduler import CertScheduler, expand_word_queries

        base = _base()
        queries = expand_word_queries(tiny_model, [tiny_sentence], 2.0,
                                      verifier="adaptive", config=base,
                                      n_iterations=3)
        outcome, = CertScheduler().run(tiny_model, queries)
        direct = max_certified_radius(
            AdaptiveVerifier(tiny_model, base), tiny_sentence,
            queries[0].position, 2.0, n_iterations=3)
        assert outcome.radius == direct

    def test_protocol_parse_and_qos_ladder(self, tiny_sentence):
        from repro.service.admission import degrade_query, rung_for_query
        from repro.service.protocol import parse_submission

        payload = {"tenant": "t", "sentence": [int(t) for t in
                                               tiny_sentence],
                   "position": 1, "p": 2.0, "verifier": "adaptive",
                   "config": {"noise_symbol_cap": 24,
                              "softmax_sum_refinement": False,
                              "refinement_plan": [["precise", 0],
                                                  ["cap", 1, 48]]}}
        query, _ = parse_submission(payload, model_hash="abc")
        assert query.verifier == "adaptive"
        assert dict(query.config)["refinement_plan"] == \
            (("cap", 1, 48), ("precise", 0))
        assert rung_for_query(query) == "full"

        fast = degrade_query(query, "fast")
        assert fast.verifier == "deept"
        config = dict(fast.config)
        assert config["dot_product_variant"] == "fast"
        assert config["refinement_plan"] == ()
        assert fast.key() != query.key()
        assert rung_for_query(fast) == "fast"
        assert degrade_query(query, "ibp").verifier == "ibp"
