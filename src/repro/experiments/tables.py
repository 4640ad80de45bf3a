"""Runners regenerating every table of the paper's evaluation.

Each ``run_tableN`` function executes the experiment at the repro scale
(DESIGN §5), prints rows in the paper's layout, and returns a structured
dict so tests and benchmarks can assert on the reproduced *shape* (who
wins, how trends move with depth) rather than absolute numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from ..baselines import (CrownVerifier, BACKWARD_UNLIMITED,
                         enumerate_synonym_attack,
                         estimate_enumeration_seconds,
                         BranchAndBoundVerifier)
from ..nlp import build_synonym_attack, make_synonym_challenge
from ..verify import DeepTVerifier, VerifierConfig, FAST, PRECISE, COMBINED
from .harness import (SCALE, get_transformer, evaluation_sentences,
                      load_or_train, radius_report_deept,
                      radius_report_crown, format_radius_row)

__all__ = [
    "run_table1", "run_table2", "run_table3", "run_table4", "run_table5",
    "run_table6", "run_table7", "run_table8", "run_table9", "run_table10",
    "run_table11", "run_table12", "run_table13", "run_table14",
    "run_figure4",
]


_RESULTS_DIR = None


def results_dir():
    """benchmarks/results at the repository root (created on demand)."""
    import os
    global _RESULTS_DIR
    if _RESULTS_DIR is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        _RESULTS_DIR = os.path.join(root, "benchmarks", "results")
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    return _RESULTS_DIR


def _record(name):
    """Decorator: tee a runner's printed rows into benchmarks/results/."""
    import functools

    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            import contextlib
            import io
            import os
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                result = fn(*args, **kwargs)
            text = buffer.getvalue()
            print(text, end="")
            if not os.environ.get("REPRO_NO_RECORD"):
                with open(os.path.join(results_dir(), f"{name}.txt"),
                          "w") as f:
                    f.write(text)
            return result

        return runner

    return wrap


_NORMS = {"l1": 1.0, "l2": 2.0, "linf": np.inf}


def ratio_column(numerator, denominator, change=False):
    """Value and table cell of the ratio ``numerator / denominator``.

    With ``change=True`` the value is the percent change
    ``(numerator / denominator - 1) * 100``. A zero denominator has no
    finite ratio: the value is ``inf`` and the cell ``∞`` when only the
    denominator is 0, and ``nan`` and ``—`` when both are.
    """
    if denominator == 0:
        if numerator == 0:
            return math.nan, f"{'—':>8}"
        return math.inf, f"{'∞':>8}"
    value = numerator / denominator
    if change:
        value = (value - 1.0) * 100.0
        return value, f"{value:+6.2f} %"
    return value, f"{value:8.2f}"


def _fast(**knobs):
    """A DeepT-Fast column's verifier at the scale's symbol cap."""
    return lambda scale: FAST(noise_symbol_cap=scale.noise_symbol_cap,
                              **knobs)


# A radius-table column is (row key, report name, verifier), where the
# verifier maps the scale to a DeepT configuration or a CROWN depth.
_DEEPT_FAST = ("deept", "DeepT-Fast", _fast())
_CROWN_BAF = ("crown", "CROWN-BaF", lambda scale: scale.baf_depth)
_DEEPT_PRECISE = ("precise", "DeepT-Precise",
                  lambda scale: PRECISE(
                      noise_symbol_cap=scale.precise_symbol_cap))
_CROWN_BACKWARD = ("backward", "CROWN-Backward",
                   lambda scale: BACKWARD_UNLIMITED)
_FAST_VS_BAF = (_DEEPT_FAST, _CROWN_BAF)


def _radius_table(title, scale, layers, norms, columns, cell=None,
                  preset="sst-small", divide_by_std=False):
    """The paper's radius protocol, shared by Tables 1, 2, 4-7 and 12-14.

    For each depth the model is loaded and ``scale.n_sentences``
    evaluation sentences are taken; for each norm every column runs one
    radius report over them. ``cell`` (``"ratio"`` or
    ``"change_percent"``) adds the first two columns' average-radius
    ratio to the row; a ratio table also prints a column header. The
    norm shows in a row label only when the table has several. Each row
    holds its reports under their column keys and, in column order,
    under ``reports``.
    """
    scale = scale or SCALE
    rows = []
    print(f"\n=== {title} ===")
    if cell == "ratio":
        print(" | ".join([f"{'M/lp':<10}"]
                         + [f"{name + '  Min/Avg/Time':>28}"
                            for _, name, _ in columns] + ["Ratio"]))
    for n_layers in layers:
        model, dataset, accuracy = get_transformer(
            preset, n_layers=n_layers, scale=scale,
            divide_by_std=divide_by_std)
        sentences = evaluation_sentences(model, dataset, scale.n_sentences)
        for norm_name in norms:
            p = _NORMS[norm_name]
            row = dict(n_layers=n_layers, p=norm_name, accuracy=accuracy,
                       reports=[])
            for key, name, verifier in columns:
                setting = verifier(scale)
                if isinstance(setting, VerifierConfig):
                    report = radius_report_deept(model, sentences, p,
                                                 setting, scale=scale,
                                                 name=name)
                else:
                    report = radius_report_crown(model, sentences, p,
                                                 setting, scale=scale,
                                                 name=name)
                row[key] = report
                row["reports"].append(report)
            label = f"M={n_layers}"
            if len(norms) > 1:
                label += f" {norm_name}"
            line = format_radius_row(label, row["reports"])
            if cell:
                first, second = row["reports"][:2]
                row[cell], text = ratio_column(
                    first.avg_radius, second.avg_radius,
                    change=cell == "change_percent")
                line += f" | {text}"
            print(line)
            rows.append(row)
    return {"rows": rows}


@_record("table1")
def run_table1(scale=None):
    """Table 1: DeepT-Fast vs CROWN-BaF on the SST-scale corpus."""
    return _radius_table("Table 1: SST, certified radius (min/avg) and time",
                         scale, (3, 6, 12), tuple(_NORMS), _FAST_VS_BAF,
                         cell="ratio")


@_record("table2")
def run_table2(scale=None):
    """Table 2: same comparison on the Yelp-scale corpus."""
    return _radius_table("Table 2: Yelp, certified radius (min/avg) and "
                         "time", scale, (3, 6, 12), tuple(_NORMS),
                         _FAST_VS_BAF, cell="ratio", preset="yelp-large")


@_record("table3")
def run_table3(scale=None, crown_budget_seconds=60.0):
    """Table 3: wider networks (2x embedding, 4x hidden).

    At paper scale CROWN-BaF runs out of GPU memory for the wide 12-layer
    network; the repro analogue of that resource wall is a per-query time
    budget — exceeding it marks the verifier as failed ("-").
    """
    scale = scale or SCALE
    # Deep-and-wide models need a gentler learning rate to train at all
    # (the default 2e-3 leaves the 12-layer wide model at chance accuracy).
    wide_scale = replace(scale, lr=1e-3, epochs=12)
    wide_embed = scale.embed_dim * 2
    wide_hidden = scale.hidden_dim * 4
    rows = []
    print("\n=== Table 3: wide networks "
          f"(E={wide_embed}, H={wide_hidden}) ===")
    for n_layers in (3, 6, 12):
        model, dataset, accuracy = get_transformer(
            "sst-small", n_layers=n_layers, scale=wide_scale,
            embed_dim=wide_embed, hidden_dim=wide_hidden)
        sentences = evaluation_sentences(model, dataset, scale.n_sentences)
        for norm_name in ("l2",):
            p = _NORMS[norm_name]
            deept = radius_report_deept(
                model, sentences, p,
                FAST(noise_symbol_cap=scale.noise_symbol_cap), scale=scale,
                name="DeepT-Fast")
            # Budgeted CROWN run: a single certification probe first.
            crown = None
            verifier = CrownVerifier(model, backsub_depth=scale.baf_depth)
            sequence = sentences[0]
            start = time.perf_counter()
            verifier.certify_word_perturbation(sequence, 1, 1e-3, p)
            probe_seconds = time.perf_counter() - start
            estimated = probe_seconds * 2 * scale.search_iterations
            if estimated <= crown_budget_seconds:
                crown = radius_report_crown(model, sentences, p,
                                            scale.baf_depth, scale=scale,
                                            name="CROWN-BaF")
            if crown is None:
                print(f"M={n_layers} {norm_name:<4}: DeepT "
                      f"{deept.min_radius:.4f}/{deept.avg_radius:.4f} "
                      f"({deept.seconds:.1f}s) | CROWN-BaF - (budget "
                      f"exceeded, est {estimated:.0f}s)")
            else:
                _, cell = ratio_column(deept.avg_radius, crown.avg_radius)
                print(format_radius_row(f"M={n_layers} {norm_name}",
                                        [deept, crown]) + f" | {cell}")
            rows.append(dict(n_layers=n_layers, p=norm_name,
                             accuracy=accuracy, deept=deept, crown=crown))
    return {"rows": rows}


@_record("table4")
def run_table4(scale=None, layers=(3, 6, 12)):
    """Table 4: the precision-performance trade-off for ℓ∞ perturbations."""
    return _radius_table("Table 4: precision/performance trade-off (ℓ∞)",
                         scale, layers, ("linf",),
                         (_DEEPT_FAST, _DEEPT_PRECISE, _CROWN_BACKWARD))


@_record("table5")
def run_table5(scale=None, layers=(3, 6, 12)):
    """Table 5: ℓ1/ℓ2 comparison incl. CROWN-Backward."""
    return _radius_table("Table 5: ℓ1/ℓ2 perturbations", scale, layers,
                         ("l1", "l2"),
                         (_DEEPT_FAST, _CROWN_BAF, _CROWN_BACKWARD))


@_record("table6")
def run_table6(scale=None, layers=(3, 6, 12)):
    """Table 6: dual-norm application order (ℓ∞-first vs ℓp-first)."""
    columns = (("first", "linf-first", _fast(dual_norm_order="linf_first")),
               ("second", "lp-first", _fast(dual_norm_order="lp_first")))
    return _radius_table("Table 6: dual-norm order in the Fast dot product",
                         scale, layers, ("l1", "l2"), columns,
                         cell="change_percent")


@_record("table7")
def run_table7(scale=None, layers=(3, 6)):
    """Table 7: standard layer normalization (division by sigma).

    Depth 12 is omitted at the repro scale: training the division-norm
    12-layer model dominates single-core wall time and the paper's trend
    (division slashing radii, DeepT leading BaF, gap growing with depth)
    is already established by M=6.
    """
    return _radius_table("Table 7: standard layer normalization", scale,
                         layers, tuple(_NORMS), _FAST_VS_BAF, cell="ratio",
                         divide_by_std=True)


def _challenge_attacks(model, dataset, n_sentences, n_polar, seed=0):
    sequences, labels = make_synonym_challenge(
        dataset.vocab, n_sentences=n_sentences, n_polar=n_polar, seed=seed)
    attacks = []
    for sequence, label in zip(sequences, labels):
        if model.predict(sequence) != int(label):
            continue  # the paper certifies correctly classified sentences
        attacks.append(build_synonym_attack(model, dataset.vocab, sequence))
    return attacks, len(sequences)


@_record("table8")
def run_table8(scale=None, n_sentences=16, n_polar=8):
    """Table 8: synonym-attack certification rates, DeepT vs CROWN-BaF.

    The model is produced by IBP certified training against each training
    sentence's synonym box (the substitute for Xu et al.'s certified
    training; DESIGN §2).
    """
    scale = scale or SCALE
    model, dataset, accuracy = get_transformer(
        "sst-small", n_layers=3, scale=scale, certified_training=True)
    attacks, total = _challenge_attacks(model, dataset, n_sentences, n_polar)
    verifier = DeepTVerifier(model,
                             FAST(noise_symbol_cap=scale.noise_symbol_cap))
    crown = CrownVerifier(model, backsub_depth=scale.baf_depth)

    start = time.perf_counter()
    deept_certified = sum(
        bool(verifier.certify_synonym_attack(a)) for a in attacks)
    deept_seconds = (time.perf_counter() - start) / max(len(attacks), 1)
    start = time.perf_counter()
    crown_certified = sum(
        bool(crown.certify_synonym_attack(a)) for a in attacks)
    crown_seconds = (time.perf_counter() - start) / max(len(attacks), 1)

    combos = [a.n_combinations for a in attacks]
    print("\n=== Table 8: synonym attack certification ===")
    print(f"accuracy={accuracy:.3f}; {len(attacks)}/{total} sentences "
          f"correctly classified; combinations per sentence: "
          f"min={min(combos)}, max={max(combos)}")
    for name, certified, seconds in (
            ("CROWN-BaF", crown_certified, crown_seconds),
            ("DeepT-Fast", deept_certified, deept_seconds)):
        pct = 100.0 * certified / max(len(attacks), 1)
        print(f"{name:<12} certified {certified}/{len(attacks)} "
              f"({pct:.0f}%)  avg time {seconds:.2f}s/sentence")
    return dict(accuracy=accuracy, n_attacks=len(attacks),
                deept_certified=deept_certified,
                crown_certified=crown_certified,
                deept_seconds=deept_seconds, crown_seconds=crown_seconds,
                combinations=combos)


@_record("table9")
def run_table9(scale=None, n_polar=8, enumeration_budget=3000):
    """Table 9: one certified sentence in detail + enumeration gap."""
    scale = scale or SCALE
    model, dataset, _ = get_transformer("sst-small", n_layers=3,
                                        scale=scale,
                                        certified_training=True)
    attacks, _ = _challenge_attacks(model, dataset, 12, n_polar)
    verifier = DeepTVerifier(model,
                             FAST(noise_symbol_cap=scale.noise_symbol_cap))
    chosen = None
    for attack in attacks:
        start = time.perf_counter()
        if verifier.certify_synonym_attack(attack):
            chosen = (attack, time.perf_counter() - start)
            break
    if chosen is None:
        print("\n=== Table 9: no certifiable sentence found ===")
        return dict(certified=False)
    attack, deept_seconds = chosen

    partial = enumerate_synonym_attack(model, attack,
                                       budget=enumeration_budget)
    estimated = estimate_enumeration_seconds(partial)
    print("\n=== Table 9: example certified sentence ===")
    print(f"{'token':<12} {'#synonyms':>9}   synonyms")
    for tid, subs in zip(attack.token_ids, attack.substitutions):
        token = dataset.vocab.token_of(tid)
        names = ", ".join(dataset.vocab.token_of(s) for s in subs)
        print(f"{token:<12} {len(subs):>9}   {names}")
    orders = np.log10(max(estimated / max(deept_seconds, 1e-9), 1.0))
    print(f"combinations: {attack.n_combinations}")
    print(f"DeepT-Fast certification: {deept_seconds:.2f}s")
    print(f"enumeration: {partial.checked} sentences in "
          f"{partial.seconds:.2f}s -> full enumeration est. "
          f"{estimated:.1f}s ({orders:.1f} orders of magnitude slower)")
    return dict(certified=True, combinations=attack.n_combinations,
                deept_seconds=deept_seconds,
                enumeration_estimate=estimated,
                orders_of_magnitude=float(orders))


@_record("table10")
def run_table10(scale=None, n_images=4, node_limit=400):
    """Table 10 (A.2): Multi-norm Zonotope vs the complete verifier."""
    from ..data import make_binary_digit_dataset
    from ..nn import MLPClassifier, train_mlp, evaluate_mlp
    from ..verify.mlp import MlpZonotopeVerifier

    images, labels = make_binary_digit_dataset(n_per_class=60, size=14,
                                               seed=0)
    features = images.reshape(len(images), -1)
    model = MLPClassifier(features.shape[1], [10, 50, 10], n_classes=2,
                          seed=0)
    train_mlp(model, features[:80], labels[:80], epochs=30, lr=2e-3)
    accuracy = evaluate_mlp(model, features[80:], labels[80:])

    zonotope = MlpZonotopeVerifier(model)
    complete = BranchAndBoundVerifier(model, node_limit=node_limit)
    rows = []
    for index in range(80, 80 + n_images):
        x = features[index]
        start = time.perf_counter()
        r_zonotope = zonotope.max_certified_radius(x, 2, n_iterations=8)
        t_zonotope = time.perf_counter() - start
        start = time.perf_counter()
        r_complete = complete.max_certified_radius(x, 2, n_iterations=6)
        t_complete = time.perf_counter() - start
        rows.append(dict(zonotope_radius=r_zonotope,
                         complete_radius=r_complete,
                         zonotope_seconds=t_zonotope,
                         complete_seconds=t_complete))
    z_radii = [r["zonotope_radius"] for r in rows]
    c_radii = [r["complete_radius"] for r in rows]
    print("\n=== Table 10 (A.2): FC net, ℓ2, complete vs zonotope ===")
    print(f"accuracy={accuracy:.3f}")
    print(f"{'verifier':<22} {'Min':>8} {'Avg':>8} {'Time[s]':>9}")
    print(f"{'Complete (BnB)':<22} {min(c_radii):>8.3f} "
          f"{np.mean(c_radii):>8.3f} "
          f"{sum(r['complete_seconds'] for r in rows):>9.2f}")
    print(f"{'DeepT (zonotope)':<22} {min(z_radii):>8.3f} "
          f"{np.mean(z_radii):>8.3f} "
          f"{sum(r['zonotope_seconds'] for r in rows):>9.2f}")
    return dict(accuracy=accuracy, rows=rows)


@_record("table11")
def run_table11(scale=None, n_images=3):
    """Table 11 (A.3): DeepT-Fast on a Vision Transformer."""
    from ..data import make_digit_dataset
    from ..nn import (VisionTransformerClassifier, train_vision_transformer,
                      evaluate_vision_transformer)
    from ..verify import max_certified_image_radius

    scale = scale or SCALE
    images, labels = make_digit_dataset(n_per_class=60, size=14, seed=0)
    split = int(0.85 * len(images))

    def build_model():
        return VisionTransformerClassifier(image_size=14, patch_size=7,
                                           embed_dim=24, n_heads=2,
                                           hidden_dim=48, n_layers=1,
                                           n_classes=10, seed=0)

    model = load_or_train(
        "vit_table11.npz", build_model,
        lambda model: train_vision_transformer(
            model, images[:split], labels[:split], epochs=20, lr=2e-3))
    accuracy = evaluate_vision_transformer(model, images[split:],
                                           labels[split:])
    verifier = DeepTVerifier(model,
                             FAST(noise_symbol_cap=scale.noise_symbol_cap))
    chosen = [i for i in range(split, len(images))
              if model.predict(images[i]) == labels[i]][:n_images]
    results = {}
    print("\n=== Table 11 (A.3): Vision Transformer, certified radii ===")
    print(f"accuracy={accuracy:.3f}")
    for norm_name, p in _NORMS.items():
        radii, start = [], time.perf_counter()
        for index in chosen:
            radii.append(max_certified_image_radius(
                verifier, images[index], p,
                n_iterations=scale.search_iterations))
        seconds = time.perf_counter() - start
        results[norm_name] = dict(min=min(radii),
                                  avg=float(np.mean(radii)),
                                  seconds=seconds)
        print(f"{norm_name:<5} Min={min(radii):.4f} "
              f"Avg={np.mean(radii):.4f} Time={seconds:.1f}s")
    return dict(accuracy=accuracy, results=results)


@_record("table12")
def run_table12(scale=None, layers=(3, 6, 12)):
    """Table 12 (A.4): Table 4 plus the CROWN-BaF column."""
    return _radius_table("Table 12 (A.4): precision/performance trade-off "
                         "(ℓ∞)", scale, layers, ("linf",),
                         (_DEEPT_FAST, _CROWN_BAF, _DEEPT_PRECISE,
                          _CROWN_BACKWARD))


@_record("table13")
def run_table13(scale=None, layers=(3, 6, 12)):
    """Table 13 (A.5): softmax-sum refinement ablation."""
    columns = (("with_refinement", "with",
                _fast(softmax_sum_refinement=True)),
               ("without_refinement", "without",
                _fast(softmax_sum_refinement=False)))
    return _radius_table("Table 13 (A.5): softmax-sum refinement", scale,
                         layers, tuple(_NORMS), columns,
                         cell="change_percent")


@_record("table14")
def run_table14(scale=None, layers=(6, 12)):
    """Table 14 (A.6): combined Fast+Precise vs CROWN-Backward (ℓ∞)."""
    combined = ("combined", "Combined DeepT",
                lambda scale: COMBINED(
                    noise_symbol_cap=scale.noise_symbol_cap,
                    last_layer_cap=scale.precise_symbol_cap))
    return _radius_table("Table 14 (A.6): combined DeepT verifier", scale,
                         layers, ("linf",), (combined, _CROWN_BACKWARD))


@_record("figure4")
def run_figure4(n_samples=4000, seed=0):
    """Figure 4: geometry of a 2-variable Multi-norm Zonotope.

    Reconstructs the paper's example — x = 4 + phi1 + phi2 - eps1 + 2 eps2,
    y = 3 + phi1 + phi2 + eps1 + eps2 with ||phi||_2 <= 1 — and reports the
    interval bounds, sampled area, and the classical sub-zonotope obtained
    by dropping the phi symbols.
    """
    from ..zonotope import MultiNormZonotope

    center = np.array([4.0, 3.0])
    phi = np.array([[1.0, 1.0], [1.0, 1.0]])
    eps = np.array([[-1.0, 1.0], [2.0, 1.0]])
    zonotope = MultiNormZonotope(center, phi=phi, eps=eps, p=2.0)
    classical = MultiNormZonotope(center, eps=eps, p=2.0)

    rng = np.random.default_rng(seed)
    points = zonotope.sample(rng, n=n_samples)
    lower, upper = zonotope.bounds()
    c_lower, c_upper = classical.bounds()
    print("\n=== Figure 4: Multi-norm Zonotope geometry ===")
    print(f"multi-norm bounds: x in [{lower[0]:.2f}, {upper[0]:.2f}], "
          f"y in [{lower[1]:.2f}, {upper[1]:.2f}]")
    print(f"classical (phi dropped): x in [{c_lower[0]:.2f}, "
          f"{c_upper[0]:.2f}], y in [{c_lower[1]:.2f}, {c_upper[1]:.2f}]")
    hull = (points.min(axis=0), points.max(axis=0))
    print(f"sampled hull: x in [{hull[0][0]:.2f}, {hull[1][0]:.2f}], "
          f"y in [{hull[0][1]:.2f}, {hull[1][1]:.2f}]")
    return dict(bounds=(lower, upper), classical_bounds=(c_lower, c_upper),
                points=points)
