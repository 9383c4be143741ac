"""Acceptance suite: one test per release criterion, each printing a
PASS/SKIP line (run with ``pytest tests/test_acceptance.py -s`` to see them).

The dataset-statistics, round-trip and self-evaluation criteria run against
the published review datasets when they are on disk (``ACOS_DATA_DIR`` or
``<repo>/data``, laid out as ``<dir>/{rest,laptop,laptop_l1}/{train,dev,test}.tsv``);
round-trip and self-evaluation otherwise fall back to the 500-example
synthetic corpus, and the statistics criterion is skipped with an
explanation while its machinery is exercised on a fixture with known counts.
"""

import inspect
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from acosgen import evaluate, parse
from acosgen.core import QuadType, load_dataset, parse_dataset_text
from acosgen.demo import toy_demo
from acosgen.evaluate import dataset_stats, score
from acosgen.linearize import FormatStyle, linearize_example
from acosgen.parse import parse_output
from acosgen.scl import ReprBatch, extend_batch, scl_loss
from acosgen.synth import make_synthetic_corpus
from acosgen.verify import grad_check, random_batch, reference_scl_loss
from acosgen.configs import SclConfig, default_category_map

from test_evaluate import (
    brute_force_prf, gold_example_for_keys, random_key, random_key_set, score_keys,
)

DATA_DIR = Path(os.environ.get("ACOS_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))

DATASET_DIRS = {"rest": "rest", "laptop": "laptop", "laptop-l1": "laptop_l1"}

# Published corpus statistics: counts are exact, percentages and
# quads-per-sentence carry the 0.05 comparison tolerance.
EXPECTED_STATS = {
    "rest": {
        "categories": 13,
        "sentences": 2286,
        "counts": {QuadType.EAEO: 2429, QuadType.IAEO: 530, QuadType.EAIO: 350, QuadType.IAIO: 349},
        "percent": {QuadType.EAEO: 66.4, QuadType.IAEO: 14.5, QuadType.EAIO: 9.57, QuadType.IAIO: 9.54},
        "quads_per_sentence": 1.60,
    },
    "laptop": {
        "categories": 121,
        "sentences": 4076,
        "counts": {QuadType.EAEO: 3269, QuadType.IAEO: 910, QuadType.EAIO: 1237, QuadType.IAIO: 342},
        "percent": {QuadType.EAEO: 56.8, QuadType.IAEO: 15.8, QuadType.EAIO: 21.5, QuadType.IAIO: 5.94},
        "quads_per_sentence": 1.42,
    },
    "laptop-l1": {
        "categories": 21,
        "sentences": 4076,
        "counts": {QuadType.EAEO: 3269, QuadType.IAEO: 910, QuadType.EAIO: 1237, QuadType.IAIO: 342},
        "percent": {QuadType.EAEO: 56.8, QuadType.IAEO: 15.8, QuadType.EAIO: 21.5, QuadType.IAIO: 5.94},
        "quads_per_sentence": 1.42,
    },
}

PCT_TOL = 0.05


def published_examples(dataset: str):
    """All splits of a published dataset, or None when not on disk."""
    root = DATA_DIR / DATASET_DIRS[dataset]
    paths = [root / f"{split}.tsv" for split in ("train", "dev", "test")]
    if not all(p.exists() for p in paths):
        return None
    examples = []
    for path in paths:
        examples.extend(load_dataset(path)[0])
    return examples


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_dataset_statistics_machinery():
    """Always-run fixture check of the statistics pipeline at the criterion's
    tolerance discipline (exact counts, percentages within 0.05)."""
    text = (
        "a b c d\t0,1 C0 2 1,2\t2,3 C1 0 3,4\n"
        "e f\t-1,-1 C0 1 0,1\n"
        "g h\t0,1 C2 2 -1,-1\n"
        "i j\t-1,-1 C0 0 -1,-1\n"
    )
    examples, _ = parse_dataset_text(text)
    stats = dataset_stats(examples)
    assert stats.num_sentences == 4
    assert stats.num_categories == 3
    assert stats.quad_counts == {
        QuadType.EAEO: 2,
        QuadType.IAEO: 1,
        QuadType.EAIO: 1,
        QuadType.IAIO: 1,
    }
    assert abs(stats.quad_percentages[QuadType.EAEO] - 40.0) < PCT_TOL
    assert abs(stats.quads_per_sentence - 1.25) < PCT_TOL
    _report("PASS: dataset-statistics machinery (fixture with known counts)")


@pytest.mark.parametrize("dataset", ["rest", "laptop", "laptop-l1"])
def test_dataset_statistics_published(dataset):
    """Criterion: published corpus statistics reproduce exactly, < 5 s."""
    examples = published_examples(dataset)
    if examples is None:
        _report(
            f"SKIP: dataset-statistics [{dataset}] -- published files not found under "
            f"{DATA_DIR} (set ACOS_DATA_DIR)"
        )
        pytest.skip(f"published {dataset} dataset not available offline")
    expected = EXPECTED_STATS[dataset]
    start = time.perf_counter()
    stats = dataset_stats(examples)
    elapsed = time.perf_counter() - start
    assert stats.num_sentences == expected["sentences"]
    assert stats.num_categories == expected["categories"]
    for t in QuadType:
        assert stats.quad_counts[t] == expected["counts"][t], t
        assert abs(stats.quad_percentages[t] - expected["percent"][t]) < PCT_TOL, t
    assert abs(stats.quads_per_sentence - expected["quads_per_sentence"]) < PCT_TOL
    assert elapsed < 5.0
    _report(f"PASS: dataset-statistics [{dataset}] ({elapsed:.2f}s)")


def _assert_round_trip(examples, category_map):
    for style in FormatStyle:
        for x in examples:
            target = linearize_example(x, style, category_map)
            outcome = parse_output(target, style, category_map)
            assert outcome.dropped == 0, (x.id, style, target)
            parsed = {q.match_key() for q in outcome.quads}
            gold = {q.match_key() for q in x.quads}
            assert parsed == gold, (x.id, style, target)


def test_round_trip():
    """Criterion: parse(linearize(x)) recovers every gold quad set, < 10 s."""
    start = time.perf_counter()
    corpora = [("synthetic-500", make_synthetic_corpus(500, seed=0), default_category_map("rest"))]
    for dataset in ("rest", "laptop", "laptop-l1"):
        examples = published_examples(dataset)
        if examples is not None:
            corpora.append((dataset, examples, default_category_map(dataset)))
    for name, examples, category_map in corpora:
        _assert_round_trip(examples, category_map)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        f"PASS: round-trip [{', '.join(name for name, _, _ in corpora)}] ({elapsed:.2f}s)"
    )


def test_self_evaluation():
    """Criterion: scoring linearized-then-parsed gold against gold is exactly 1.0."""
    corpora = [("synthetic-500", make_synthetic_corpus(500, seed=1), default_category_map("rest"))]
    for dataset in ("rest", "laptop", "laptop-l1"):
        examples = published_examples(dataset)
        if examples is not None:
            corpora.append((dataset, examples, default_category_map(dataset)))
    for name, examples, category_map in corpora:
        for style in FormatStyle:
            preds = [
                parse_output(linearize_example(x, style, category_map), style, category_map).quads
                for x in examples
            ]
            report = score(preds, examples)
            assert report.precision == 1.0
            assert report.recall == 1.0
            assert report.f1 == 1.0
            for split in report.per_split.values():
                if split.num_examples:
                    assert split.precision == split.recall == split.f1 == 1.0
    _report(f"PASS: self-evaluation [{', '.join(name for name, _, _ in corpora)}]")


def test_evaluator_oracle():
    """Criterion: micro-F1 equals the brute-force set-intersection oracle on
    1000 randomized instances, exact equality. Some predictions repeat a key,
    which counts once (set semantics)."""
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        golds, preds = [], []
        for i in range(n):
            gold_keys = random_key_set(rng, 6) or [random_key(rng)]
            golds.append(gold_example_for_keys(gold_keys, i))
            pred = random_key_set(rng, 6)
            if pred and rng.integers(4) == 0:
                pred.append(pred[int(rng.integers(len(pred)))])
            preds.append(pred)
        report = score_keys(preds, golds)
        p, r, f1, matched = brute_force_prf(
            [list(dict.fromkeys(pred)) for pred in preds],
            [[q.match_key() for q in g.quads] for g in golds],
        )
        assert report.counts.num_matched == matched
        assert report.precision == p
        assert report.recall == r
        assert report.f1 == f1
    _report("PASS: evaluator-oracle (1000/1000 exact)")


def test_scl_loss_oracle():
    """Criterion: vectorized loss matches direct double-summation on 1000
    random batches within 1e-9 relative, plus the closed-form cases."""
    rng = np.random.default_rng(7)
    max_err = 0.0
    for _ in range(1000):
        batch = random_batch(rng)
        vectorized, _ = scl_loss(batch, 0.25)
        reference = reference_scl_loss(batch, 0.25)
        max_err = max(max_err, abs(vectorized - reference) / max(abs(reference), 1e-12))
    assert max_err < 1e-9

    pair = extend_batch(np.array([[1.0, 2.0]]), ["a"], SclConfig(dropout_p=0.0))
    assert scl_loss(pair, 0.25)[0] == 0.0

    for n in (2, 5):
        reps = np.tile(np.array([0.4, -0.3, 1.1]), (2 * n, 1))
        identical = ReprBatch(reps=reps, labels=["x"] * (2 * n))
        assert scl_loss(identical, 0.25)[0] == pytest.approx(math.log(2 * n - 1), rel=1e-12)

    orthogonal = extend_batch(
        np.array([[1.0, 0.0], [0.0, 1.0]]), ["s", "s"], SclConfig(dropout_p=0.0)
    )
    assert scl_loss(orthogonal, 0.25)[0] == pytest.approx(2.7027, abs=1e-4)
    _report(f"PASS: scl-loss-oracle (1000 batches, max rel err {max_err:.3g})")


def test_gradient_check():
    """Criterion: analytic gradient vs central differences (h=1e-5), max
    relative error < 1e-4 over 100 random batches, < 30 s.

    grad_check judges coordinates below its central-difference roundoff
    floor on an absolute scale, so any stream qualifies; the default stream
    (seed 0) measures the implementation error itself, ~1.5e-6.
    """
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        batch = random_batch(rng)
        worst = max(worst, grad_check(batch, 0.25))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    _report(f"PASS: gradient-check (100 batches, max rel err {worst:.3g}, {elapsed:.2f}s)")


def test_toy_separation_demo():
    """Criterion: post-training intra minus inter label cosine >= 0.2 per
    characteristic on the separable synthetic corpus; deterministic; < 60 s."""
    corpus = make_synthetic_corpus(200, seed=0)
    cfg = SclConfig(tau=0.25, alpha=0.05, dropout_p=0.1, rng_seed=0)
    start = time.perf_counter()
    first = toy_demo(corpus, cfg, steps=150)
    second = toy_demo(corpus, cfg, steps=150)
    elapsed = time.perf_counter() - start
    assert not first.skipped
    gaps = {}
    for name, head in first.heads.items():
        gaps[name] = head.gap_after
        assert head.gap_after >= 0.2, name
    assert first.to_dict() == second.to_dict()
    assert elapsed < 60.0
    gap_text = ", ".join(f"{k}={v:.2f}" for k, v in gaps.items())
    _report(f"PASS: toy-separation-demo (gaps {gap_text}, {elapsed:.2f}s)")


# Parser and scorer mutants: (function, fragment of its source, replacement, the
# criteria above that must fail under it). The mutant's code replaces the
# function's own, so every module that imported the function runs the mutant.
TEXT_MUTANTS = {
    "unmutated": (parse._split_aspect_opinion, "", "", set()),
    "gen-nat splits at the first ' is '": (
        parse._split_aspect_opinion, 'text.rpartition(" is ")', 'text.partition(" is ")',
        {"round trip", "self-evaluation"},
    ),
    "paraphrase splits at the first ' is '": (
        parse._parse_paraphrase_segment, 'tail.strip().rpartition(" is ")',
        'tail.strip().partition(" is ")', {"round trip", "self-evaluation"},
    ),
    # A multiset: the same quad predicted twice counts twice. Only the evaluator
    # oracle sees it, because parse_output drops duplicate quads.
    "score counts duplicate predictions": (
        evaluate.score, "counts = (len(pred_keys),", "counts = (len(pred),",
        {"evaluator oracle"},
    ),
}

TEXT_GATES = {
    "round trip": test_round_trip,
    "self-evaluation": test_self_evaluation,
    "evaluator oracle": test_evaluator_oracle,
}


@pytest.mark.parametrize("name", TEXT_MUTANTS)
def test_gates_catch_text_mutants(name, monkeypatch):
    fn, fragment, replacement, catchers = TEXT_MUTANTS[name]
    source = inspect.getsource(fn)
    assert not fragment or source.count(fragment) == 1
    namespace = dict(fn.__globals__)
    exec(source.replace(fragment, replacement), namespace)
    monkeypatch.setattr(fn, "__code__", namespace[fn.__name__].__code__)
    failed = set()
    for gate, check in TEXT_GATES.items():
        try:
            check()
        except AssertionError:
            failed.add(gate)
    assert failed == catchers
