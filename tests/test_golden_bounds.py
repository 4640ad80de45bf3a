"""Golden per-layer bound snapshot of a cached reference checkpoint.

Certifies the cached ``sst-small`` 2-layer checkpoint (trained once,
committed in ``.model_cache/``) at fixed radii for p in {1, 2, inf} with
the tracer enabled, aggregates the trace per (layer, op), and compares the
resulting margins and interval widths against the committed snapshot
``tests/golden_bounds.json``. The ``cases`` section runs DeepT-Fast; the
``precise`` section has the same layout and runs DeepT-Precise (the
Eq. (6) dot product) on the same checkpoint at p in {2, inf}.

The engine is deterministic for fixed weights, so the tolerance is tight
(``RTOL = 1e-6``, covering BLAS summation-order differences across
platforms, not algorithmic drift): any abstract-transformer change that
moves a bound beyond it fails this suite and must either be fixed or be
acknowledged by regenerating the snapshot.

Regenerate (only after an *intended* precision change, and say so in the
commit message)::

    PYTHONPATH=src python tests/test_golden_bounds.py --regen
"""

import json
import os

import numpy as np
import pytest

from repro.trace import TRACER, aggregate_spans
from repro.verify import (DeepTVerifier, FAST, PRECISE,
                          word_perturbation_region)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_bounds.json")
RTOL = 1e-6

# Fixed certification workload: (label, p, radius). Small radii certify,
# the large one exercises the loose end; both directions are pinned.
CASES = [
    ("p1", 1.0, 0.05),
    ("p2", 2.0, 0.05),
    ("pinf", float("inf"), 0.01),
]
N_LAYERS = 2
POSITION = 1

# DeepT-Precise snapshot: the Eq. (6) dot product on the same checkpoint,
# at the Table 4 symbol cap.
PRECISE_CASES = [
    ("p2", 2.0, 0.05),
    ("pinf", float("inf"), 0.01),
]
PRECISE_CAP = 96


def _reference_setup():
    from repro.experiments.harness import (evaluation_sentences,
                                          get_transformer)
    model, dataset, _ = get_transformer("sst-small", n_layers=N_LAYERS)
    sentence = evaluation_sentences(model, dataset, 1, seed=0)[0]
    return model, sentence


def _case_snapshot(verifier, model, sentence, true_label, p, radius):
    """Margin plus per-(layer, op) widths of one traced certification."""
    region = word_perturbation_region(model, list(sentence), POSITION,
                                      radius, p)
    with TRACER.collecting() as tracer:
        result = verifier.certify_region(region, true_label)
    groups = {}
    for (layer, op), stats in aggregate_spans(tracer.spans).items():
        groups[f"{layer}|{op}"] = {
            "count": stats["count"],
            "width_max": stats["width_max"],
            "width_mean": stats["width_mean"],
        }
    return {
        "p": p if np.isfinite(p) else "inf",
        "radius": radius,
        "certified": bool(result.certified),
        "margin_lower": float(result.margin_lower),
        "groups": groups,
    }


def compute_golden():
    """The snapshot payload: per-case margin + per-(layer, op) widths."""
    model, sentence = _reference_setup()
    true_label = model.predict(list(sentence))
    payload = {"sentence": [int(t) for t in sentence],
               "true_label": int(true_label), "cases": {}, "precise": {}}
    fast = DeepTVerifier(model, FAST(noise_symbol_cap=128))
    for label, p, radius in CASES:
        payload["cases"][label] = _case_snapshot(
            fast, model, sentence, true_label, p, radius)
    precise = DeepTVerifier(model, PRECISE(noise_symbol_cap=PRECISE_CAP))
    for label, p, radius in PRECISE_CASES:
        payload["precise"][label] = _case_snapshot(
            precise, model, sentence, true_label, p, radius)
    return payload


def _assert_margin_matches(old, new):
    assert old["certified"] == new["certified"]
    assert new["margin_lower"] == pytest.approx(old["margin_lower"],
                                                rel=RTOL, abs=1e-12)


def _assert_widths_match(old, new):
    assert sorted(old) == sorted(new), "pipeline shape changed"
    for key, stats in old.items():
        got = new[key]
        assert got["count"] == stats["count"], key
        for field in ("width_max", "width_mean"):
            assert got[field] == pytest.approx(
                stats[field], rel=RTOL, abs=1e-12), (key, field)


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(f"missing {GOLDEN_PATH}; regenerate with "
                    f"`PYTHONPATH=src python tests/test_golden_bounds.py "
                    f"--regen`")
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def current():
    return compute_golden()


class TestGoldenBounds:
    def test_same_workload(self, golden, current):
        """The snapshot matches this suite's pinned queries (else it is
        stale and must be regenerated, not tolerated)."""
        assert golden["sentence"] == current["sentence"]
        assert golden["true_label"] == current["true_label"]
        assert sorted(golden["cases"]) == sorted(current["cases"])

    @pytest.mark.parametrize("label", [c[0] for c in CASES])
    def test_margin_matches(self, golden, current, label):
        _assert_margin_matches(golden["cases"][label],
                               current["cases"][label])

    @pytest.mark.parametrize("label", [c[0] for c in CASES])
    def test_per_layer_widths_match(self, golden, current, label):
        _assert_widths_match(golden["cases"][label]["groups"],
                             current["cases"][label]["groups"])

    def test_covers_every_layer(self, current):
        layers = {int(key.split("|")[0])
                  for case in current["cases"].values()
                  for key in case["groups"]}
        assert layers == set(range(N_LAYERS + 1))


class TestGoldenPrecise:
    """DeepT-Precise snapshot: the same checks as ``cases``, through the
    Eq. (6) dot product."""

    def test_same_workload(self, golden, current):
        assert sorted(golden["precise"]) == sorted(current["precise"])

    @pytest.mark.parametrize("label", [c[0] for c in PRECISE_CASES])
    def test_margin_matches(self, golden, current, label):
        _assert_margin_matches(golden["precise"][label],
                               current["precise"][label])

    @pytest.mark.parametrize("label", [c[0] for c in PRECISE_CASES])
    def test_per_layer_widths_match(self, golden, current, label):
        _assert_widths_match(golden["precise"][label]["groups"],
                             current["precise"][label]["groups"])

    def test_runs_the_precise_dot_product(self, current):
        for case in current["precise"].values():
            assert any(key.endswith("|dot-precise")
                       for key in case["groups"])


def main():
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate tests/golden_bounds.json")
    parser.add_argument("--regen", action="store_true",
                        help="recompute and overwrite the snapshot")
    args = parser.parse_args()
    if not args.regen:
        parser.error("nothing to do; pass --regen to rewrite the snapshot")
    payload = compute_golden()
    with open(GOLDEN_PATH, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    n_groups = sum(len(c["groups"]) for c in payload["cases"].values())
    print(f"wrote {GOLDEN_PATH}: {len(payload['cases'])} cases, "
          f"{n_groups} (layer, op) groups, "
          f"{len(payload['precise'])} precise cases")


if __name__ == "__main__":
    main()
