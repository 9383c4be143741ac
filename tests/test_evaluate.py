import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acosgen.core import IMPLICIT, QuadType, SentimentPolarity, quad_type
from acosgen.evaluate import dataset_stats, score
from acosgen.parse import PredictedQuad

from conftest import example_from_line


def brute_force_prf(pred_lists, gold_lists):
    """Independent oracle: O(n*m) pairwise intersection with used-flags."""
    matched = 0
    num_pred = 0
    num_gold = 0
    for preds, golds in zip(pred_lists, gold_lists):
        num_pred += len(preds)
        num_gold += len(golds)
        used = [False] * len(golds)
        for p in preds:
            for idx, g in enumerate(golds):
                if not used[idx] and p == g:
                    used[idx] = True
                    matched += 1
                    break
    precision = matched / num_pred if num_pred > 0 else 0.0
    recall = matched / num_gold if num_gold > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1, matched


def score_keys(pred_keys, golds):
    """``score`` of predictions given as match-key tuples, each wrapped as the parsed quad
    that carries it."""
    return score([[PredictedQuad(*key) for key in keys] for keys in pred_keys], golds)


def random_key(rng):
    aspects = [IMPLICIT, "a0", "a1", "a2", "a3"]
    opinions = [IMPLICIT, "o0", "o1", "o2"]
    categories = ["C0", "C1", "C2"]
    return (
        aspects[int(rng.integers(len(aspects)))],
        categories[int(rng.integers(len(categories)))],
        opinions[int(rng.integers(len(opinions)))],
        SentimentPolarity(int(rng.integers(3))),
    )


def gold_example_for_keys(keys, idx):
    """Build a gold Example whose quads carry the given match keys."""
    fields = []
    tokens = []
    for aspect, category, opinion, sentiment in keys:
        if aspect is IMPLICIT:
            a_span = "-1,-1"
        else:
            tokens.append(aspect)
            a_span = f"{len(tokens) - 1},{len(tokens)}"
        if opinion is IMPLICIT:
            o_span = "-1,-1"
        else:
            tokens.append(opinion)
            o_span = f"{len(tokens) - 1},{len(tokens)}"
        fields.append(f"{a_span} {category} {int(sentiment)} {o_span}")
    if not tokens:
        tokens = ["x"]
    line = " ".join(tokens) + "\t" + "\t".join(fields)
    return example_from_line(line, id_prefix=f"g{idx}")


def random_key_set(rng, max_quads):
    n = int(rng.integers(0, max_quads + 1))
    seen = []
    for _ in range(n):
        k = random_key(rng)
        if k not in seen:
            seen.append(k)
    return seen


_key = st.tuples(
    st.sampled_from([IMPLICIT, "a0", "a1"]),
    st.sampled_from(["C0", "C1"]),
    st.sampled_from([IMPLICIT, "o0", "o1"]),
    st.sampled_from(list(SentimentPolarity)),
)


@st.composite
def _scored_corpus(draw):
    """Gold examples of 1-4 quads of any type, and predictions that keep some gold
    quads and add others."""
    preds, golds = [], []
    for i in range(draw(st.integers(4, 12))):
        keys = draw(st.lists(_key, min_size=1, max_size=4, unique=True))
        kept = [k for k in keys if draw(st.booleans())]
        preds.append(list(dict.fromkeys(kept + draw(st.lists(_key, max_size=3)))))
        golds.append(gold_example_for_keys(keys, i))
    return preds, golds


class TestScore:
    def test_half_overlap(self):
        gold = gold_example_for_keys(
            [
                ("a0", "C0", "o0", SentimentPolarity.POSITIVE),
                ("a1", "C1", "o1", SentimentPolarity.NEGATIVE),
            ],
            0,
        )
        preds = [
            [
                ("a0", "C0", "o0", SentimentPolarity.POSITIVE),
                ("a9", "C0", "o0", SentimentPolarity.POSITIVE),
            ]
        ]
        report = score_keys(preds, [gold])
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_identity_is_perfect(self, synth_corpus):
        preds = [list(x.quads) for x in synth_corpus]
        report = score(preds, synth_corpus)
        assert report.precision == report.recall == report.f1 == 1.0
        for split in report.per_split.values():
            if split.num_examples:
                assert split.f1 == 1.0

    def test_empty_predictions(self, synth_corpus):
        report = score([[] for _ in synth_corpus], synth_corpus)
        assert report.precision == report.recall == report.f1 == 0.0
        assert report.counts.num_predicted == 0

    def test_length_mismatch(self, synth_corpus):
        with pytest.raises(ValueError, match="predictions"):
            score([], synth_corpus)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        golds_a = [gold_example_for_keys(random_key_set(rng, 4) or [random_key(rng)], i) for i in range(30)]
        golds_b = [gold_example_for_keys(random_key_set(rng, 4) or [random_key(rng)], i + 100) for i in range(30)]
        ab = score([list(x.quads) for x in golds_a], golds_b)
        ba = score([list(x.quads) for x in golds_b], golds_a)
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert ab.f1 == ba.f1

    def test_nonmatching_pred_decreases_precision_only(self):
        gold = gold_example_for_keys([("a0", "C0", "o0", SentimentPolarity.POSITIVE)], 0)
        base = score_keys([[("a0", "C0", "o0", SentimentPolarity.POSITIVE)]], [gold])
        extra = score_keys(
            [
                [
                    ("a0", "C0", "o0", SentimentPolarity.POSITIVE),
                    ("zz", "C0", "o0", SentimentPolarity.POSITIVE),
                ]
            ],
            [gold],
        )
        assert extra.precision < base.precision
        assert extra.recall == base.recall

    def test_duplicate_prediction_counts_once(self):
        k = ("a0", "C0", "o0", SentimentPolarity.POSITIVE)
        report = score_keys([[k, k]], [gold_example_for_keys([k], 0)])
        assert report.precision == 1.0
        assert report.counts.num_predicted == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            golds, preds = [], []
            for i in range(n):
                gold_keys = random_key_set(rng, 6) or [random_key(rng)]
                golds.append(gold_example_for_keys(gold_keys, i))
                preds.append(random_key_set(rng, 6))
            report = score_keys(preds, golds)
            p, r, f1, matched = brute_force_prf(
                preds, [[q.match_key() for q in g.quads] for g in golds]
            )
            assert report.counts.num_matched == matched
            assert report.precision == p
            assert report.recall == r
            assert report.f1 == f1

    def test_per_split_membership_counts(self):
        # one EAEO-only example, one IAIO-only, one with both types
        examples = [
            example_from_line("a b c d\t0,1 C0 2 1,2", "s0"),
            example_from_line("a b\t-1,-1 C0 2 -1,-1", "s1"),
            example_from_line("a b c d\t0,1 C0 2 1,2\t-1,-1 C1 0 -1,-1", "s2"),
        ]
        report = score([list(x.quads) for x in examples], examples)
        assert report.per_split[QuadType.EAEO].num_examples == 2
        assert report.per_split[QuadType.IAIO].num_examples == 2
        assert report.per_split[QuadType.IAEO].num_examples == 0
        # splits overlap: totals exceed the number of examples
        assert sum(s.num_examples for s in report.per_split.values()) == 4

    @settings(max_examples=100)
    @given(_scored_corpus())
    def test_per_split_equals_naive_membership(self, corpus):
        preds, golds = corpus
        types = [{quad_type(q) for q in x.quads} for x in golds]
        assume(set().union(*types) == set(QuadType))
        report = score_keys(preds, golds)
        for t in QuadType:
            members = [i for i, ts in enumerate(types) if t in ts]
            p, r, f1, _ = brute_force_prf(
                [preds[i] for i in members],
                [[q.match_key() for q in golds[i].quads] for i in members],
            )
            s = report.per_split[t]
            assert (s.precision, s.recall, s.f1, s.num_examples) == (p, r, f1, len(members))

    def test_split_restriction_counts_all_member_quads(self):
        examples = [example_from_line("a b c d\t0,1 C0 2 1,2\t-1,-1 C1 0 -1,-1", "s")]
        report = score_keys([[("a0", "C9", "o0", SentimentPolarity.POSITIVE)]], examples)
        eaeo = report.per_split[QuadType.EAEO]
        # both gold quads of the member example count toward the EAEO split
        assert eaeo.recall == 0.0
        assert report.counts.num_gold == 2


class TestDatasetStats:
    def test_known_counts(self, mini_examples):
        stats = dataset_stats(mini_examples)
        assert stats.num_sentences == 3
        assert stats.total_quads == 4
        assert stats.quad_counts[QuadType.EAEO] == 3
        assert stats.quad_counts[QuadType.IAIO] == 1
        assert stats.quad_percentages[QuadType.EAEO] == 75.0
        assert stats.num_categories == 3
        assert stats.quads_per_sentence == pytest.approx(4 / 3)

    def test_empty_dataset(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the table's "sentences 0" says it
            stats = dataset_stats([])
        assert stats.num_sentences == 0
        assert stats.quads_per_sentence == 0.0
        assert all(c == 0 for c in stats.quad_counts.values())

    def test_percentages_sum_to_100(self, synth_corpus):
        stats = dataset_stats(synth_corpus)
        assert sum(stats.quad_percentages.values()) == pytest.approx(100.0)

    def test_json_and_text_forms(self, mini_examples):
        stats = dataset_stats(mini_examples)
        payload = stats.to_dict()
        assert payload["quads"]["EAEO"]["count"] == 3
        assert "quads/sentence" in stats.to_text()
