import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acosgen.configs import DATASETS, default_category_map
from acosgen.core import IMPLICIT, SentimentPolarity
from acosgen.evaluate import score
from acosgen.linearize import FormatStyle, linearize_example
from acosgen.parse import ParseOutcome, parse_output, read_predictions
from acosgen.synth import make_synthetic_corpus

from conftest import example_from_line


def keys(quads):
    return {q.match_key() for q in quads}


class TestGenNatParsing:
    def test_simple_inverse(self, rest_map):
        out = parse_output(
            "the food quality | the pizza is delicious | positive", FormatStyle.GEN_NAT, rest_map
        )
        assert out.dropped == 0
        (q,) = out.quads
        assert q.match_key() == ("pizza", "FOOD#QUALITY", "delicious", SentimentPolarity.POSITIVE)

    def test_garbage_segment_dropped(self, rest_map):
        out = parse_output(
            "the location | it is null | negative [SSEP] garbage", FormatStyle.GEN_NAT, rest_map
        )
        assert out.dropped == 1
        (q,) = out.quads
        assert q.match_key() == (IMPLICIT, "LOCATION#GENERAL", IMPLICIT, SentimentPolarity.NEGATIVE)

    def test_last_is_boundary(self, rest_map):
        out = parse_output(
            "the food quality | the fish and chips is tasty | positive",
            FormatStyle.GEN_NAT,
            rest_map,
        )
        (q,) = out.quads
        assert q.aspect == "fish and chips"
        assert q.opinion == "tasty"

    def test_literal_template_the_it_accepted(self, rest_map):
        for text in ("the location | it is far | negative", "the location | the it is far | negative"):
            (q,) = parse_output(text, FormatStyle.GEN_NAT, rest_map).quads
            assert q.aspect == IMPLICIT
            assert q.opinion == "far"

    def test_whitespace_insensitive(self, rest_map):
        messy = "  the food quality |  the pizza is great  |  positive  [SSEP]   the location | it is far | negative "
        out = parse_output(messy, FormatStyle.GEN_NAT, rest_map)
        assert out.dropped == 0
        assert len(out.quads) == 2

    def test_sentiment_case_insensitive(self, rest_map):
        (q,) = parse_output(
            "the food quality | the pizza is great | Positive", FormatStyle.GEN_NAT, rest_map
        ).quads
        assert q.sentiment is SentimentPolarity.POSITIVE

    def test_aspect_is_case_sensitive(self, rest_map):
        out = parse_output(
            "The Food Quality | the pizza is great | positive", FormatStyle.GEN_NAT, rest_map
        )
        assert out.dropped == 1

    def test_duplicates_collapsed(self, rest_map):
        seg = "the food quality | the pizza is great | positive"
        out = parse_output(f"{seg} [SSEP] {seg}", FormatStyle.GEN_NAT, rest_map)
        assert len(out.quads) == 1
        assert out.dropped == 0

    def test_wrong_field_count_dropped(self, rest_map):
        out = parse_output("the food quality | the pizza is great", FormatStyle.GEN_NAT, rest_map)
        assert out.dropped == 1
        out = parse_output("a | b | c | d", FormatStyle.GEN_NAT, rest_map)
        assert out.dropped == 1

    def test_unknown_description_dropped(self, rest_map):
        out = parse_output("the weather | it is nice | positive", FormatStyle.GEN_NAT, rest_map)
        assert out.dropped == 1
        assert out.quads == []

    def test_missing_article_dropped(self, rest_map):
        out = parse_output("the food quality | pizza is great | positive", FormatStyle.GEN_NAT, rest_map)
        assert out.dropped == 1


class TestParaphraseParsing:
    def test_simple_inverse(self, rest_map):
        (q,) = parse_output(
            "FOOD#QUALITY is great because pizza is delicious", FormatStyle.PARAPHRASE, rest_map
        ).quads
        assert q.match_key() == ("pizza", "FOOD#QUALITY", "delicious", SentimentPolarity.POSITIVE)

    def test_implicit_words(self, rest_map):
        (q,) = parse_output(
            "SERVICE#GENERAL is bad because it is null", FormatStyle.PARAPHRASE, rest_map
        ).quads
        assert q.aspect == IMPLICIT
        assert q.opinion == IMPLICIT
        assert q.sentiment is SentimentPolarity.NEGATIVE

    def test_unknown_raw_category_dropped(self, rest_map):
        out = parse_output("NOT#REAL is great because a is b", FormatStyle.PARAPHRASE, rest_map)
        assert out.dropped == 1

    def test_unknown_sentiment_word_dropped(self, rest_map):
        out = parse_output("FOOD#QUALITY is fine because a is b", FormatStyle.PARAPHRASE, rest_map)
        assert out.dropped == 1


class TestRobustness:
    def test_empty_and_blank_inputs(self, rest_map):
        for s in ("", "   ", "\t"):
            out = parse_output(s, FormatStyle.GEN_NAT, rest_map)
            assert out.quads == [] and out.dropped == 0

    def test_never_raises_on_random_bytes(self, rest_map):
        rng = np.random.default_rng(5)
        for _ in range(200):
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(1, 120)), dtype=np.uint8))
            s = blob.decode("utf-8", errors="replace")
            for style in FormatStyle:
                out = parse_output(s, style, rest_map)
                if s.strip():
                    assert out.quads == []
                    assert out.dropped == len(s.split("[SSEP]"))

    def test_outcome_is_slotted_and_pickles(self, rest_map):
        out = parse_output("the food | the pizza is good | positive [SSEP] x", FormatStyle.GEN_NAT,
                           rest_map)
        assert not hasattr(out, "__dict__")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(out, protocol))
            assert type(back) is ParseOutcome and back == out
        out.dropped += 1  # slotted, but still mutable
        assert out.dropped == 2

    def test_read_predictions(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("one\n\nthree\n", encoding="utf-8")
        assert read_predictions(path) == ["one", "", "three"]
        path.write_text("", encoding="utf-8")
        assert read_predictions(path) == []
        path.write_text("\n", encoding="utf-8")
        assert read_predictions(path) == [""]

    def test_read_predictions_lone_cr_stays_in_its_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"x\ry\nz\n")
        assert read_predictions(path) == ["x\ry", "z"]

    def test_read_predictions_ending_in_cr_without_lf(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"x\r\r\ny\r")
        assert read_predictions(path) == ["x\r", "y\r"]


_MAPS = {name: default_category_map(name) for name in DATASETS}
_SENTIMENT_WORDS = [
    f(w)
    for w in ("positive", "neutral", "negative", "great", "okay", "bad")
    for f in (str.lower, str.title, str.upper)
]
_TERMS = ["pizza", "it", "null", "the", "the it", "is", "pizza is good", "because", "IT", "Null"]
_GRAMMAR = ["[SSEP]", "|", " is ", " IS ", " because ", "the ", "The ", " ", "  ", "\t", "\n"]


@st.composite
def _output(draw):
    """A shipped map and up to four segments for it, joined by [SSEP]: either
    template with adversarial slots, or any run of grammar tokens, terms,
    sentiment words and the map's raw labels and descriptions."""
    category_map = _MAPS[draw(st.sampled_from(DATASETS))]
    categories = [t for raw in category_map.labels for t in (raw, category_map.natural(raw))]
    category = st.sampled_from(categories).map(draw(st.sampled_from([str, str.upper])))
    term, word = st.sampled_from(_TERMS + _GRAMMAR), st.sampled_from(_SENTIMENT_WORDS)
    piece = st.sampled_from(categories + _TERMS + _GRAMMAR + _SENTIMENT_WORDS)
    segment = st.one_of(
        st.tuples(category, term, term, word).map(lambda t: "{} | the {} is {} | {}".format(*t)),
        st.tuples(category, word, term, term).map(lambda t: "{} is {} because {} is {}".format(*t)),
        st.lists(piece, max_size=12).map("".join),
    )
    return category_map, " [SSEP] ".join(draw(st.lists(segment, max_size=4)))


class TestParseOutputProperties:
    @settings(max_examples=300)
    @given(_output(), st.sampled_from(list(FormatStyle)))
    def test_never_raises_and_accounts_for_segments(self, case, style):
        category_map, s = case
        out = parse_output(s, style, category_map)
        segments = len(s.split("[SSEP]")) if s.strip() else 0
        assert out.dropped + len(out.quads) <= segments
        assert all(q.category in category_map for q in out.quads)


class TestRoundTrip:
    @pytest.mark.parametrize("style", list(FormatStyle))
    def test_corpus_round_trip(self, style, rest_map, synth_corpus):
        for x in synth_corpus:
            target = linearize_example(x, style, rest_map)
            out = parse_output(target, style, rest_map)
            assert out.dropped == 0, (x.id, target)
            assert keys(out.quads) == {q.match_key() for q in x.quads}, (x.id, target)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_vocab_fuzz_round_trip(self, seed, rest_map):
        corpus = make_synthetic_corpus(150, seed=seed)
        for style in FormatStyle:
            for x in corpus:
                target = linearize_example(x, style, rest_map)
                out = parse_output(target, style, rest_map)
                assert out.dropped == 0
                assert keys(out.quads) == {q.match_key() for q in x.quads}


# Targets the parser cannot invert today: each parses back, with no
# segment dropped, to one quad that matches nothing.
LOSSY = {
    "explicit-aspect-it": "it was good\t0,1 FOOD#QUALITY 2 2,3",
    "explicit-opinion-null": "pizza null\t0,1 FOOD#QUALITY 2 1,2",
    "opinion-is-then-more-words": "pizza what it is today\t0,1 FOOD#QUALITY 2 1,5",
}


class TestLossyTargets:
    @pytest.mark.parametrize("style", list(FormatStyle))
    @pytest.mark.parametrize("case", LOSSY)
    def test_round_trips_to_f1_zero_without_drops(self, case, style, rest_map):
        x = example_from_line(LOSSY[case])
        out = parse_output(linearize_example(x, style, rest_map), style, rest_map)
        assert (out.dropped, len(out.quads)) == (0, 1), out
        assert score([out.quads], [x]).f1 == 0.0
