"""One program process of a benchmark run; ``run.py`` starts it.

Usage::

    python3 perfbench/child.py MODE --workload W --seed N --seconds S

Modes:

``setup``
    Import the program, load the workload's models from ``.model_cache``
    and certify one untimed warm-up probe per model, then exit.
``run``
    ``setup``, then the timed pass of an offline workload — queries with
    the ``repro.experiments.harness`` Table settings, submitted to a
    serial ``CertScheduler`` — then the correctness checks
    (``--check``). ``--trace`` wraps the layers first and reports
    per-layer metrics.
``inputs``
    Print the ``service-mixed`` submissions for the seed.
``check``
    Recompute sampled service answers in-process with ``execute_query``
    and attack each at its certified radius (``--answers FILE``).

Each event is one stdout line: ``@perfbench`` and a JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time

from tracing import SpanRecorder, install, layer_metrics

NORMS = {"l1": 1.0, "l2": 2.0, "linf": math.inf}
TENANTS = ("alpha", "beta", "gamma")

# Offline workloads certify 5-token test sentences: cost per query then
# depends on depth and norm, not on sentence length. table1-fast gives
# each (depth, norm) row its own seeded (sentence, position) pairs, dealt
# round-robin over all such sentences. A Precise query costs ~10 s, so
# table4-precise fits only a few queries; it takes a fixed set of
# sentences (the harness's default evaluation seed) and the seed picks
# the positions, because radii differ by sentence far more than by
# position.
OFFLINE = {
    "table1-fast": {"depths": (3, 6, 12), "norms": ("l1", "l2", "linf"),
                    "variant": "fast", "fixed_sentences": False,
                    "seconds_per_query": 0.5},
    "table4-precise": {"depths": (3,), "norms": ("linf",),
                       "variant": "precise", "fixed_sentences": True,
                       "seconds_per_query": 8.5},
}
OFFLINE_TOKENS = 5
# service-mixed: user 0 sends 5-token, user 1 6-token sentences, so the
# two users' queries never share a batch key and never coalesce.
SERVICE_TOKENS = (5, 6)
SERVICE_SUBMISSIONS_PER_SECOND = 4.0
SERVICE_REPEAT_SHARE = 0.25
PGD_SAMPLES = 3


def emit(event, **fields):
    print("@perfbench " + json.dumps(dict(event=event, **fields)),
          flush=True)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def offline_pairs_per_row(workload, seconds):
    spec = OFFLINE[workload]
    rows = len(spec["depths"]) * len(spec["norms"])
    return max(1, round(seconds / spec["seconds_per_query"] / rows))


def service_submissions(seconds):
    """Both users' submissions: a whole number of norm blocks each."""
    block = 2 * len(NORMS)
    return block * max(1, round(seconds * SERVICE_SUBMISSIONS_PER_SECOND
                                / block))


def refuse_training(*args, **kwargs):
    raise RuntimeError("model missing from .model_cache; the benchmark "
                       "never trains one")


class Program:
    """The program under test, imported and loaded (the set-up phase)."""

    def __init__(self, workload, recorder):
        span = recorder.open("setup.import")
        from repro.experiments import harness
        from repro.scheduler import CertScheduler
        from repro.verify import FAST, PRECISE, DeepTVerifier
        recorder.close(span)
        self.harness = harness
        self.CertScheduler = CertScheduler
        self.fast = FAST(noise_symbol_cap=harness.SCALE.noise_symbol_cap)
        self.precise = PRECISE(
            noise_symbol_cap=harness.SCALE.precise_symbol_cap)
        depths = OFFLINE[workload]["depths"] if workload in OFFLINE \
            else (3,)
        span = recorder.open("setup.model_load")
        harness.train_transformer = refuse_training
        self.models = {}
        for depth in depths:
            model, dataset, _ = harness.get_transformer("sst-small",
                                                        n_layers=depth)
            self.models[depth] = model
            self.dataset = dataset
        recorder.close(span)
        warmup = list(self.dataset.train_sequences[0])
        for model in self.models.values():
            DeepTVerifier(model, self.fast).certify_word_perturbation(
                warmup, 1, 1e-3, math.inf)

    def pairs(self, tokens, rng, count=None):
        """Seeded (sentence, position) pairs, round-robin over sentences.

        Sentences are ``tokens``-token test sentences that every loaded
        model classifies correctly: all of them in seeded order, or, with
        ``count``, the first ``count`` the harness's default evaluation
        seed picks (the same sentences for every seed).
        """
        dataset = self.dataset
        sentences = [tuple(int(t) for t in sentence)
                     for sentence, label in zip(dataset.test_sequences,
                                                dataset.test_labels)
                     if len(sentence) == tokens
                     and all(model.predict(list(sentence)) == int(label)
                             for model in self.models.values())]
        if count is None:
            rng.shuffle(sentences)
        else:
            eligible = set(sentences)
            preferred = self.harness.evaluation_sentences(
                self.models[min(self.models)], dataset, len(sentences),
                max_tokens=tokens)
            sentences = [s for s in (tuple(int(t) for t in s)
                                     for s in preferred)
                         if s in eligible][:count]
        positions = [rng.sample(range(1, tokens), tokens - 1)
                     for _ in sentences]
        return [(sentence, order[turn]) for turn in range(tokens - 1)
                for sentence, order in zip(sentences, positions)]


def offline_queries(program, workload, seed, per_row):
    """Each row's queries, with the Table 1/4 search settings.

    Rows take consecutive pairs of the round-robin order; a run larger
    than the pool starts over from its first pair.
    """
    from repro.scheduler import (CertQuery, corpus_fingerprint,
                                 model_weight_hash, verifier_config_items)

    spec = OFFLINE[workload]
    scale = program.harness.SCALE
    config = verifier_config_items(
        program.fast if spec["variant"] == "fast" else program.precise)
    count = per_row if spec["fixed_sentences"] else None
    pairs = program.pairs(OFFLINE_TOKENS, random.Random(seed), count)
    work = []
    for depth in spec["depths"]:
        model_hash = model_weight_hash(program.models[depth])
        for norm in spec["norms"]:
            for _ in range(per_row):
                sentence, position = pairs[len(work) % len(pairs)]
                work.append((depth, CertQuery(
                    verifier="deept", model_hash=model_hash,
                    corpus_fingerprint=corpus_fingerprint([sentence]),
                    sentence=sentence, position=position, p=NORMS[norm],
                    config=config, n_iterations=scale.search_iterations)))
    return work


def run_offline(program, work):
    """The timed pass: one serial ``CertScheduler`` call per query.

    The scheduler has no cache or journal, so each query runs in full.
    The pass is timed in CPU seconds of this process: the pass is serial,
    single-threaded and does no I/O, so on a dedicated core that equals
    wall clock, while on a shared virtual machine it leaves out the time
    the host takes the CPU away, which varies by several percent from
    one minute to the next.
    """
    scheduler = program.CertScheduler(workers=0)
    answers = []
    start = time.process_time()
    for depth, query in work:
        [outcome] = scheduler.run(program.models[depth], [query])
        answers.append({"depth": depth, "query": query,
                        "radius": outcome.radius,
                        "degraded": outcome.degraded})
    return answers, time.process_time() - start


def offline_checks(program, answers, seed):
    """Finite, undegraded radii; no PGD label flip at sampled radii."""
    violations = []
    for answer in answers:
        query = answer["query"]
        where = f"M={answer['depth']} p={query.p} pos={query.position}"
        if answer["degraded"]:
            violations.append(f"{where}: degraded answer")
        if not (math.isfinite(answer["radius"]) and answer["radius"] > 0):
            violations.append(f"{where}: radius {answer['radius']!r}")
    sample = random.Random(seed).sample(answers,
                                        min(PGD_SAMPLES, len(answers)))
    for answer in sample:
        query = answer["query"]
        violations += attack(program.models[answer["depth"]],
                             query.sentence, query.position, query.p,
                             answer["radius"])
    return violations


def attack(model, sentence, position, p, radius):
    from repro.attacks import pgd_attack
    flipped, _ = pgd_attack(model, list(sentence), position, radius, p,
                            true_label=model.predict(list(sentence)))
    if flipped:
        return [f"PGD flips the label inside the certified radius "
                f"{radius!r} (position {position}, p={p})"]
    return []


def service_inputs(program, seed, count):
    """Two users' submission lists; a quarter repeat earlier keys.

    Each user's norms come in seeded blocks of one l1, one l2 and one
    linf, repeats included (a repeat copies an earlier fresh query of its
    norm under another tenant), so every run has the same norm mix.
    """
    rng = random.Random(seed)
    per_user = count // 2
    users = []
    for tokens in SERVICE_TOKENS:
        pairs = program.pairs(tokens, rng)
        later = range(len(NORMS), per_user)
        repeats = set(rng.sample(later, min(
            len(later), round(SERVICE_REPEAT_SHARE * per_user))))
        if per_user - len(repeats) > len(pairs):
            raise RuntimeError(f"{per_user - len(repeats)} fresh queries "
                               f"need more than the {len(pairs)} "
                               f"{tokens}-token pairs")
        norms = []
        while len(norms) < per_user:
            norms += rng.sample(sorted(NORMS), len(NORMS))
        fresh = {norm: [] for norm in NORMS}
        items = []
        for slot, norm in enumerate(norms[:per_user]):
            if slot in repeats:
                original = rng.choice(fresh[norm])
                tenant = rng.choice([t for t in TENANTS
                                     if t != original["tenant"]])
                items.append({"payload": dict(original, tenant=tenant),
                              "repeat": True})
                continue
            sentence, position = pairs[sum(map(len, fresh.values()))]
            payload = submission(rng.choice(TENANTS), sentence, position,
                                 norm, program)
            fresh[norm].append(payload)
            items.append({"payload": payload, "repeat": False})
        users.append(items)
    warmup = submission("warmup", program.dataset.train_sequences[0], 1,
                        "linf", program, n_iterations=1)
    return users, warmup


def submission(tenant, sentence, position, norm, program, n_iterations=None):
    scale = program.harness.SCALE
    return {"tenant": tenant, "sentence": [int(t) for t in sentence],
            "position": int(position),
            "p": "inf" if norm == "linf" else NORMS[norm],
            "verifier": "deept",
            "config": {"dot_product_variant": "fast",
                       "noise_symbol_cap": scale.noise_symbol_cap},
            "initial": 0.01,
            "n_iterations": n_iterations or scale.search_iterations}


def service_checks(program, answers):
    """Served radii equal an in-process ``execute_query``, bitwise."""
    from repro.scheduler import execute_query, model_weight_hash
    from repro.service.protocol import parse_submission

    model = program.models[3]
    model_hash = model_weight_hash(model)
    violations = []
    for answer in answers:
        query, _ = parse_submission(answer["payload"], model_hash)
        if query.key() != answer["key"]:
            violations.append(f"served key {answer['key'][:12]} is not "
                              f"the submission's key {query.key()[:12]}")
        radius = execute_query(model, query)[0]
        if radius != answer["radius"]:
            violations.append(f"served radius {answer['radius']!r} != "
                              f"recomputed {radius!r}")
        violations += attack(model, query.sentence, query.position,
                             query.p, answer["radius"])
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("mode", choices=("setup", "run", "inputs", "check"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--answers")
    args = parser.parse_args(argv)

    recorder = SpanRecorder()
    program = Program(args.workload, recorder)
    emit("ready", peak_rss_mb=peak_rss_mb())
    if args.mode == "setup":
        return 0
    if args.mode == "inputs":
        users, warmup = service_inputs(
            program, args.seed, service_submissions(args.seconds))
        emit("inputs", users=users, warmup=warmup)
        return 0
    if args.mode == "check":
        with open(args.answers) as handle:
            answers = json.load(handle)
        emit("check", violations=service_checks(program, answers))
        return 0

    work = offline_queries(program, args.workload, args.seed,
                           offline_pairs_per_row(args.workload,
                                                 args.seconds))
    if args.trace:
        install(recorder)
    answers, cpu_seconds = run_offline(program, work)
    result = {"answers": [{key: answer[key] for key in
                           ("depth", "radius", "degraded")}
                          for answer in answers],
              "cpu_seconds": cpu_seconds, "peak_rss_mb": peak_rss_mb()}
    if args.trace:
        result["layers"] = layer_metrics(recorder.spans)
    emit("result", **result)
    if args.check:
        emit("check", violations=offline_checks(program, answers,
                                                args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
