import codecs
import copy
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields as dataclass_fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acosgen.core import (
    IMPLICIT,
    DatasetError,
    Example,
    QuadType,
    Quadruple,
    SentimentPolarity,
    Span,
    characteristic_labels,
    load_dataset,
    parse_dataset_text,
    quad_type,
    serialize_dataset,
    split_lines,
)
from acosgen.configs import default_category_map
from acosgen.linearize import CategoryMap
from acosgen.parse import PredictedQuad, read_predictions
from acosgen.synth import _LABEL_SCHEDULE, _MARKERS, make_synthetic_corpus

from conftest import MINI_DATASET, example_from_line


class TestLoading:
    def test_basic_line(self):
        x = example_from_line("the pizza was great\t1,2 FOOD#QUALITY 2 3,4")
        assert x.tokens == ("the", "pizza", "was", "great")
        (q,) = x.quads
        assert q.aspect_text == "pizza"
        assert q.category == "FOOD#QUALITY"
        assert q.opinion_text == "great"
        assert q.sentiment is SentimentPolarity.POSITIVE
        assert q.aspect_span == Span(1, 2)
        assert q.opinion_span == Span(3, 4)

    def test_implicit_line(self):
        x = example_from_line("it took an hour to be seated\t-1,-1 SERVICE#GENERAL 0 -1,-1")
        (q,) = x.quads
        assert q.aspect_span == IMPLICIT
        assert q.aspect_text == ""
        assert q.opinion_span == IMPLICIT
        assert q.sentiment is SentimentPolarity.NEGATIVE
        assert quad_type(q) is QuadType.IAIO

    def test_no_quads_is_error(self):
        with pytest.raises(DatasetError, match=r"1: no quadruples"):
            parse_dataset_text("just a sentence\n")

    def test_error_carries_line_number(self):
        text = "good line\t0,1 C 2 -1,-1\nbad line\t0,1 C 9 -1,-1\n"
        with pytest.raises(DatasetError, match=r"2: unknown sentiment code"):
            parse_dataset_text(text)

    def test_span_out_of_bounds(self):
        with pytest.raises(DatasetError, match="out of bounds"):
            parse_dataset_text("one two\t0,5 C 2 -1,-1\n")

    def test_zero_zero_span_rejected(self):
        with pytest.raises(DatasetError, match="out of bounds"):
            parse_dataset_text("one two\t0,0 C 2 -1,-1\n")

    def test_negative_partial_span_rejected(self):
        with pytest.raises(DatasetError, match="negative index"):
            parse_dataset_text("one two\t-1,1 C 2 -1,-1\n")

    def test_malformed_quad_field(self):
        with pytest.raises(DatasetError, match="malformed quadruple field"):
            parse_dataset_text("one two\t0,1 C 2\n")

    def test_blank_line_rejected(self):
        with pytest.raises(DatasetError, match="blank line"):
            parse_dataset_text("a b\t0,1 C 2 -1,-1\n\n")

    def test_duplicate_quads_warn_and_dedup(self, tmp_path):
        line = "a b\t0,1 C 2 1,2\t0,1 C 2 1,2\n"
        path = tmp_path / "dup.tsv"
        path.write_text(line, encoding="utf-8")
        for (x,), duplicates in (parse_dataset_text(line), load_dataset(path)):
            assert (len(x.quads), duplicates) == (1, 1)

    def test_term_with_separator_rejected(self):
        with pytest.raises(DatasetError, match="reserved separator"):
            parse_dataset_text("a | b\t1,2 C 2 -1,-1\n")

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "test.tsv"
        path.write_bytes(MINI_DATASET.replace("\n", "\r\n").encode("utf-8"))
        examples, _ = load_dataset(path)
        assert len(examples) == 3
        assert examples[0].id == "test-0001"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_dataset(tmp_path / "nope.tsv")

    def test_lone_cr_in_file_stays_in_its_line(self, tmp_path):
        path = tmp_path / "cr.tsv"
        path.write_bytes(b"a\rb c\t0,1 FOOD#QUALITY 2 -1,-1\n")
        (x,), _ = load_dataset(path)
        assert (x.text, x.tokens) == ("a\rb c", ("a", "b", "c"))

    def test_non_utf8_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"a b\t0,1 C 2 -1,-1\ncaf\xe9 b\t0,1 C 2 -1,-1\n")
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}:2: not valid UTF-8 (byte 0xe9)"
        assert exc.value.line == 2
        assert str(DatasetError("m", path="p")) == "p: m"  # a path without a line

    def test_unreadable_path_raises_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match=f"^cannot read {re.escape(str(tmp_path))}: "):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "read", [read_predictions, CategoryMap.from_tsv], ids=["predictions", "category-map"]
    )
    def test_other_readers_word_file_failures_as_the_loader(self, tmp_path, read):
        missing, bad = tmp_path / "nope", tmp_path / "bad"
        bad.write_bytes(b"A\tok\ncaf\xe9\n")
        for path, message in [
            (missing, f"no such file: {missing}"),
            (tmp_path, f"cannot read {tmp_path}: "),
            (bad, f"{bad}:2: not valid UTF-8 (byte 0xe9)"),
        ]:
            with pytest.raises(DatasetError, match="^" + re.escape(message)):
                read(path)

    @pytest.mark.parametrize(
        "read, content",
        [
            (load_dataset, MINI_DATASET),
            (read_predictions, "the pizza is great\n"),
            (CategoryMap.from_tsv, "FOOD#QUALITY\tthe food quality\n"),
        ],
        ids=["dataset", "predictions", "category-map"],
    )
    def test_byte_order_mark_is_rejected_at_line_one(self, tmp_path, read, content):
        path = tmp_path / "bom.tsv"
        path.write_bytes(content.encode("utf-8"))
        read(path)  # the same content without the mark reads
        path.write_bytes(codecs.BOM_UTF8 + content.encode("utf-8"))
        with pytest.raises(DatasetError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:1: starts with a UTF-8 byte-order mark"
        assert exc.value.line == 1

    def test_loaded_examples_share_spans(self):
        (a, b), _ = parse_dataset_text("a b c\t0,1 C 2 -1,-1\nd e\t0,1 D 1 -1,-1\n")
        assert a.quads[0].aspect_span is b.quads[0].aspect_span
        assert (a.quads[0].aspect_text, b.quads[0].aspect_text) == ("a", "d")

    def test_loaded_corpus_holds_under_six_times_its_text(self):
        # About 4x on CPython 3.10-3.13; an example that also stored its token tuple
        # would hold 8.5-9.6x.
        text = serialize_dataset(make_synthetic_corpus(800, 0))
        parse_dataset_text(text)  # fills the span and sentiment memos
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            examples, _ = parse_dataset_text(text)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(examples) == 800
        assert held < 6 * len(text.encode("utf-8"))


class TestLoaderMemo:
    """Memoized span and sentiment parsing must not change any error."""

    GOOD = "a b c\t0,1 C 2 -1,-1\n"

    @pytest.mark.parametrize("bad_line", [2, 5])
    def test_malformed_span_raises_on_its_own_line(self, bad_line):
        for _ in range(2):
            lines = [self.GOOD] * 5
            lines[bad_line - 1] = "a b c\t0;1 C 2 -1,-1\n"
            with pytest.raises(DatasetError, match=rf"^{bad_line}: malformed span '0;1'$") as exc:
                parse_dataset_text("".join(lines[:bad_line]))
            assert exc.value.line == bad_line

    def test_span_bounds_checked_per_sentence(self):
        text = "a b c d e f\t0,5 C 2 -1,-1\nx y z\t-1,-1 C 2 0,5\n"
        assert parse_dataset_text(text.splitlines()[0])[0][0].quads[0].aspect_text == "a b c d e"
        with pytest.raises(
            DatasetError, match=r"^2: opinion span \(0,5\) out of bounds for 3 tokens$"
        ):
            parse_dataset_text(text)

    @pytest.mark.parametrize(
        "code,message",
        [
            ("7", "unknown sentiment code 7 (expected 0, 1 or 2)"),
            ("x", "unknown sentiment code 'x' (expected 0, 1 or 2)"),
        ],
    )
    def test_bad_sentiment_same_message_every_time(self, code, message):
        for line_no in (1, 3, 3):
            lines = [self.GOOD] * line_no
            lines[-1] = f"a b c\t0,1 C {code} -1,-1\n"
            with pytest.raises(DatasetError) as exc:
                parse_dataset_text("".join(lines))
            assert str(exc.value) == f"{line_no}: {message}"


class TestCanonicalInput:
    """Lines end at LF or CRLF only, and integers are accepted only as written back."""

    def test_unicode_line_break_stays_in_its_line(self):
        (x,), _ = parse_dataset_text("x\x85y\t0,1 C 2 -1,-1")
        assert (x.id, x.text, x.tokens) == ("ex-0001", "x\x85y", ("x", "y"))

    def test_unicode_line_break_keeps_line_numbers(self):
        text = "a b\t0,1 C 2 -1,-1\nq\x1cr\t0,1 C 2 -1,-1\nz\t0,9 C 2 -1,-1\n"
        with pytest.raises(DatasetError, match=r"^3: aspect span \(0,9\) out of bounds"):
            parse_dataset_text(text)

    def test_lone_cr_does_not_split(self):
        (x,), _ = parse_dataset_text("a\rb\t0,1 C 2 -1,-1\n")
        assert x.tokens == ("a", "b")

    def test_only_the_cr_of_a_crlf_is_removed(self):
        assert split_lines("a\r\r\nb\r") == ["a\r", "b\r"]
        assert split_lines("a\r\nb\n") == ["a", "b"]
        assert split_lines("\r") == ["\r"]

    def test_dataset_ending_in_cr_without_lf(self, tmp_path):
        path = tmp_path / "cr_end.tsv"
        path.write_bytes(b"a b\t0,1 C 2 -1,-1\r\r\nc d\t1,2 C 0 -1,-1\r")
        examples, _ = load_dataset(path)
        assert serialize_dataset(examples) == "a b\t0,1 C 2 -1,-1\nc d\t1,2 C 0 -1,-1\n"

    @pytest.mark.parametrize(
        "field,message",
        [
            ("\u0660,\u0661 C 2 -1,-1", "malformed span '\u0660,\u0661'"),
            ("0_1,2 C 2 -1,-1", "malformed span '0_1,2'"),
            ("+0,1 C 2 -1,-1", "malformed span '+0,1'"),
            ("00,1 C 2 -1,-1", "malformed span '00,1'"),
            ("-0,1 C 2 -1,-1", "malformed span '-0,1'"),
            ("-2,1 C 2 -1,-1", "malformed span '-2,1': negative index (implicit is -1,-1)"),
            ("0,1 C \u0662 -1,-1", "unknown sentiment code '\u0662' (expected 0, 1 or 2)"),
            ("0,1 C +2 -1,-1", "unknown sentiment code '+2' (expected 0, 1 or 2)"),
            ("0,1 C 02 -1,-1", "unknown sentiment code '02' (expected 0, 1 or 2)"),
            ("0,1 C -1 -1,-1", "unknown sentiment code -1 (expected 0, 1 or 2)"),
        ],
    )
    def test_non_canonical_integers_rejected(self, field, message):
        with pytest.raises(DatasetError) as exc:
            parse_dataset_text(f"a b c\t{field}\n")
        assert str(exc.value) == f"1: {message}"


# Fragments that hit every branch of the loader: span sentinels, the output
# grammar's reserved separators, digits (one of them non-ASCII), plain words,
# and, rarely, a tab or carriage return inside a field.
_PIECES = [
    ",", "-", "-1", "-1,-1", "0,1", "1,3", "|", "[SSEP]", "0", "1", "2", "9", "C", "a", "b",
    "\u0663", "_", "\t", "\r",
]
# Line breaks, and the Unicode ones (which str.splitlines honours) that the
# loader keeps inside their line.
_BREAKS = ["\n", "\r\n", "\n\n", "\u2028", "\x85", "\x0b", "\x1c"]

_piece = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=3).map("".join)
# Lines shaped like the layout (a sentence, then four-part fields with a
# plausible sentiment code) so that fuzzed text reaches the span parser.
_code = st.sampled_from(["0", "1", "2", "7", "-1", "x", "\u0662", "02"])
_field = st.tuples(_piece, _piece, _code, _piece).map(" ".join)
_line = st.tuples(
    st.lists(_piece, min_size=1, max_size=4).map(" ".join),
    st.lists(_field, min_size=1, max_size=3),
).map(lambda t: "\t".join([t[0], *t[1]]))
_fuzz_text = st.one_of(
    st.tuples(st.lists(_line, min_size=1, max_size=4), st.sampled_from(_BREAKS)).map(
        lambda t: t[1].join(t[0])
    ),
    st.lists(st.sampled_from(_PIECES + _BREAKS + [" "]), max_size=40).map("".join),
)


@st.composite
def _valid_line(draw):
    """A well-formed dataset line over a tiny vocabulary, duplicates included."""
    n = draw(st.integers(1, 6))
    words = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))

    def span():
        if draw(st.booleans()):
            return "-1,-1"
        start = draw(st.integers(0, n - 1))
        return f"{start},{draw(st.integers(start + 1, n))}"

    fields = [
        f"{span()} {draw(st.sampled_from('CD'))} {draw(st.integers(0, 2))} {span()}"
        for _ in range(draw(st.integers(1, 4)))
    ]
    return "\t".join([" ".join(words), *fields])


@st.composite
def _fields_line(draw):
    """A line of distinct single-space quad fields over a 1-4 token sentence.

    Spans are in bounds and codes valid, but about one integer in twenty is
    spelled another way int() reads (a leading zero or sign, a non-ASCII digit).
    """
    n = draw(st.integers(1, 4))

    def spelled(value: int) -> str:
        if draw(st.integers(0, 19)):
            return str(value)
        odd = [f"0{value}", f"+{value}", chr(0x660 + value)] if value >= 0 else ["-01", "-0_1"]
        return draw(st.sampled_from(odd))

    def span() -> str:
        if draw(st.booleans()):
            return f"{spelled(-1)},{spelled(-1)}"
        start = draw(st.integers(0, n - 1))
        return f"{spelled(start)},{spelled(draw(st.integers(start + 1, n)))}"

    words = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    fields = [
        f"{span()} {draw(st.sampled_from('CD'))} {spelled(draw(st.integers(0, 2)))} {span()}"
        for _ in range(draw(st.integers(1, 3)))
    ]
    return "\t".join([" ".join(words), *dict.fromkeys(fields)])


@st.composite
def _repeating_line(draw):
    """A line whose quad fields repeat a few canonical ones, some copies with extra
    spaces around or between their parts."""
    n = draw(st.integers(1, 5))
    words = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))

    def span():
        if draw(st.booleans()):
            return "-1,-1"
        start = draw(st.integers(0, n - 1))
        return f"{start},{draw(st.integers(start + 1, n))}"

    canonical = [
        (span(), draw(st.sampled_from("CD")), str(draw(st.integers(0, 2))), span())
        for _ in range(draw(st.integers(1, 3)))
    ]
    space = st.sampled_from([" ", " ", "  ", "   "])
    fields = [
        draw(st.sampled_from(["", " "])) + "".join(part + draw(space) for part in parts).rstrip()
        for parts in draw(st.lists(st.sampled_from(canonical), min_size=1, max_size=8))
    ]
    return "\t".join([" ".join(words), *fields])


class TestLoaderProperties:
    @settings(max_examples=400)
    @given(_fuzz_text)
    def test_raises_only_dataset_error(self, text):
        try:
            parse_dataset_text(text)
        except DatasetError:
            pass

    @settings(max_examples=200)
    @given(st.lists(_valid_line(), min_size=1, max_size=6).map("\n".join))
    def test_loaded_examples_pass_example_checks(self, text):
        examples, _ = parse_dataset_text(text)
        for x in examples:
            assert x.tokens == tuple(x.text.split())
            assert Example(x.id, x.text, x.quads) == x

    @settings(max_examples=200)
    @given(_fields_line())
    @example("a a\t0,1 C 2 -1,-1\t1,2 C 2 -1,-1")
    def test_accepted_line_serializes_back_byte_for_byte(self, line):
        # Less the fields the loader drops: a quad whose text an earlier field already gave.
        sentence, *fields = line.split("\t")
        try:
            loaded, _ = parse_dataset_text(line)
        except DatasetError:
            return
        kept: dict[tuple, str] = {}
        for field in fields:
            (single,), _ = parse_dataset_text(f"{sentence}\t{field}")
            kept.setdefault(single.quads[0].match_key(), field)
        assert serialize_dataset(loaded) == "\t".join([sentence, *kept.values()]) + "\n"

    @settings(max_examples=200)
    @given(_repeating_line())
    @example("a b a\t0,1 C 2 1,2\t2,3  C 2 1,2\t 0,1 C 2 1,2\t2,3 C 1 1,2")
    def test_dedup_under_match_key(self, line):
        sentence, *fields = line.split("\t")
        expected: dict[tuple, Quadruple] = {}
        for field in fields:
            (single,), _ = parse_dataset_text(f"{sentence}\t{field}")
            expected.setdefault(single.quads[0].match_key(), single.quads[0])
        (x,), duplicates = parse_dataset_text(line)
        assert x.quads == tuple(expected.values())
        assert duplicates == len(fields) - len(expected)

    @settings(max_examples=200)
    @given(st.lists(st.one_of(_valid_line(), _repeating_line()), min_size=1, max_size=6))
    @example(["a b\t0,1 C 2 1,2\t \t0,1 C 2 1,2", "c\t-1,-1 D 0 -1,-1\t\t-1,-1 D 0 -1,-1"])
    def test_every_quad_field_is_kept_or_counted(self, lines):
        examples, duplicates = parse_dataset_text("\n".join(lines))
        fields = sum(bool(f.strip()) for line in lines for f in line.split("\t")[1:])
        assert sum(len(x.quads) for x in examples) + duplicates == fields

    @pytest.mark.parametrize("term, reserved", [("a|b", "|"), ("[SSEP]", "[SSEP]")])
    def test_reserved_separator_in_term_keeps_error_and_line(self, term, reserved):
        text = (
            "x y\t0,1 C 2 1,2\t0,1  C 2 1,2\n"
            f"x {term} y\t0,1 C 2 -1,-1\t0,1  C 2 -1,-1\t1,2 C 0 -1,-1\t1,2 C 2 2,3\n"
        )
        with pytest.raises(DatasetError) as exc:
            parse_dataset_text(text, path="d.tsv")
        assert str(exc.value) == (
            f"d.tsv:2: aspect term {term!r} contains reserved separator {reserved!r}"
        )
        assert exc.value.line == 2

    def test_synthetic_categories_are_rest_map_labels(self, synth_corpus):
        labels = set(default_category_map("rest").labels)
        assert {q.category for x in synth_corpus for q in x.quads} <= labels

    def test_synthetic_corpus_round_trips(self, synth_corpus):
        loaded, _ = parse_dataset_text(serialize_dataset(synth_corpus))
        assert [(x.text, x.tokens, x.quads) for x in loaded] == [
            (x.text, x.tokens, x.quads) for x in synth_corpus
        ]


class TestSyntheticCorpus:
    @pytest.mark.parametrize("n", [6, 50, 200])
    def test_each_example_ends_with_two_markers_per_label(self, n):
        for seed in range(10):
            for x in make_synthetic_corpus(n, seed):
                labels = characteristic_labels(x)
                tail = x.tokens[-2 * len(_MARKERS):]
                expected = [
                    _MARKERS[c][getattr(labels, c)] for c in _MARKERS for _ in range(2)
                ]
                assert [t for t, pool in zip(tail, expected) if t not in pool] == [], x.id

    def test_first_examples_walk_the_label_schedule(self):
        corpus = make_synthetic_corpus(len(_LABEL_SCHEDULE), seed=3)
        labels = [tuple(getattr(characteristic_labels(x), c) for c in _MARKERS) for x in corpus]
        assert labels == list(_LABEL_SCHEDULE)

    def test_too_few_examples_for_the_schedule_raise(self):
        with pytest.raises(ValueError, match="need at least 6 examples"):
            make_synthetic_corpus(len(_LABEL_SCHEDULE) - 1, seed=0)


class TestSerialization:
    def test_load_serialize_load_identity(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(MINI_DATASET, encoding="utf-8")
        first, _ = load_dataset(path)
        text = serialize_dataset(first)
        second, _ = parse_dataset_text(text, id_prefix="t")
        assert first == second

    def test_serialize_byte_identical(self):
        examples, _ = parse_dataset_text(MINI_DATASET)
        assert serialize_dataset(examples) == MINI_DATASET


class TestQuadType:
    @pytest.mark.parametrize(
        "aspect,opinion,expected",
        [
            ("0,1", "1,2", QuadType.EAEO),
            ("-1,-1", "1,2", QuadType.IAEO),
            ("0,1", "-1,-1", QuadType.EAIO),
            ("-1,-1", "-1,-1", QuadType.IAIO),
        ],
        # Each id ends in the type's value, e.g. 0,1-1,2-EAEO.
        ids=lambda v: v.value if isinstance(v, QuadType) else None,
    )
    def test_all_combinations(self, aspect, opinion, expected):
        x = example_from_line(f"a b\t{aspect} C 1 {opinion}")
        assert quad_type(x.quads[0]) is expected

    def test_types_partition_quad_set(self, synth_corpus):
        for x in synth_corpus:
            counts = {t: 0 for t in QuadType}
            for q in x.quads:
                counts[quad_type(q)] += 1
            assert sum(counts.values()) == len(x.quads)


class TestCharacteristicLabels:
    def test_unanimous(self):
        x = example_from_line("a b c d\t0,1 C1 2 1,2\t2,3 C2 2 3,4")
        labels = characteristic_labels(x)
        assert labels.sentiment == "positive"
        assert labels.aspect == "all-explicit"
        assert labels.opinion == "all-explicit"

    def test_mixed_sentiment(self):
        x = example_from_line("a b c d\t0,1 C1 2 1,2\t2,3 C2 0 3,4")
        assert characteristic_labels(x).sentiment == "mixed"

    def test_mixed_aspect(self):
        x = example_from_line("a b c d\t0,1 C1 2 1,2\t-1,-1 C2 2 3,4")
        labels = characteristic_labels(x)
        assert labels.aspect == "mixed"
        assert labels.opinion == "all-explicit"

    def test_all_implicit(self):
        x = example_from_line("a b\t-1,-1 C1 1 -1,-1")
        labels = characteristic_labels(x)
        assert labels == type(labels)(sentiment="neutral", aspect="all-implicit", opinion="all-implicit")

    def test_empty_quads_error(self):
        # Example itself refuses an empty quad set, so no empty example reaches the labeller.
        with pytest.raises(ValueError, match="no quadruples"):
            x = Example(id="e", text="a", quads=())
            characteristic_labels(x)

    def test_permutation_invariant(self, synth_corpus):
        for x in synth_corpus[:40]:
            reordered = Example(id=x.id, text=x.text, quads=tuple(reversed(x.quads)))
            assert characteristic_labels(reordered) == characteristic_labels(x)


# Quadruple arguments that pass or fail each of its checks: implicit or spanned terms,
# empty or non-empty texts, the output grammar's separators inside a term, an empty
# category. Combinations with several faults pin which one is reported.
_TERM_TEXTS = ["", "a", "pizza crust", "|", "a|b", "[SSEP]", "x [SSEP] y", "[SSEP]|", "SSEP"]
_term_span = st.sampled_from([IMPLICIT, Span(0, 1), Span(2, 5)])
_quad_args = st.tuples(
    _term_span,
    st.sampled_from(_TERM_TEXTS),
    st.sampled_from(["", "C", "FOOD#QUALITY"]),
    _term_span,
    st.sampled_from(_TERM_TEXTS),
    st.sampled_from(list(SentimentPolarity)),
)


def _quadruple_error(aspect_span, aspect_text, category, opinion_span, opinion_text):
    """The message of the first check a Quadruple with these fields fails, or None."""
    if not category:
        return "category must be non-empty"
    if (aspect_span is IMPLICIT) != (aspect_text == ""):
        return "aspect text must be empty iff the aspect is implicit"
    if (opinion_span is IMPLICIT) != (opinion_text == ""):
        return "opinion text must be empty iff the opinion is implicit"
    for text, what in ((aspect_text, "aspect term"), (opinion_text, "opinion term")):
        for reserved in ("|", "[SSEP]"):
            if reserved in text:
                return f"{what} {text!r} contains reserved separator {reserved!r}"
    return None


class TestTypes:
    def test_span_validation(self):
        with pytest.raises(ValueError):
            Span(2, 2)
        with pytest.raises(ValueError):
            Span(-1, 3)

    def test_implicit_sentinel(self):
        assert IMPLICIT == IMPLICIT
        assert repr(IMPLICIT) == "IMPLICIT"
        assert hash(IMPLICIT) == hash(IMPLICIT)

    def test_implicit_is_a_singleton(self):
        assert type(IMPLICIT)() is IMPLICIT
        assert copy.copy(IMPLICIT) is IMPLICIT
        assert copy.deepcopy(IMPLICIT) is IMPLICIT
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(IMPLICIT, protocol)) is IMPLICIT

    def test_implicit_quad_survives_pickle(self):
        q = Quadruple(IMPLICIT, "", "C", Span(0, 1), "a", SentimentPolarity.NEUTRAL)
        back = pickle.loads(pickle.dumps(q))
        assert back == q and hash(back) == hash(q)
        assert back.aspect_span is IMPLICIT and back.opinion_span is not IMPLICIT
        assert quad_type(back) is QuadType.IAEO

    @pytest.mark.parametrize(
        "value, field, other",
        [
            (Span(0, 2), "end", 3),
            (Quadruple(Span(0, 1), "a", "C", IMPLICIT, "", SentimentPolarity.POSITIVE),
             "category", "D"),
            (PredictedQuad("a", "C", IMPLICIT, SentimentPolarity.NEGATIVE), "opinion", "b"),
            # Another text with the same whitespace split is still another example.
            (example_from_line("b  a\t0,1 C 2 -1,-1"), "text", "b a"),
        ],
    )
    def test_value_types_are_slotted_frozen_values(self, value, field, other):
        assert not hasattr(value, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, other)
        with pytest.raises(FrozenInstanceError):
            value.not_a_field = other
        twin = replace(value)
        assert twin is not value and twin == value and hash(twin) == hash(value)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        assert replace(value, **{field: other}) != value

    @settings(max_examples=300)
    @given(_quad_args)
    # Two faults at once: the first check in order is the one reported.
    @example((IMPLICIT, "a", "", Span(0, 1), "", SentimentPolarity.POSITIVE))
    @example((Span(0, 1), "", "C", Span(0, 1), "b|c", SentimentPolarity.NEUTRAL))
    @example((Span(0, 1), "a|b", "C", IMPLICIT, "o", SentimentPolarity.NEGATIVE))
    @example((Span(0, 1), "a [SSEP] b|", "C", Span(1, 2), "[SSEP]", SentimentPolarity.POSITIVE))
    def test_quadruple_init_checks_then_stores(self, args):
        names = [f.name for f in dataclass_fields(Quadruple)]
        error = _quadruple_error(*args[:5])
        if error is not None:
            with pytest.raises(ValueError) as exc:
                Quadruple(*args)
            assert type(exc.value) is ValueError and str(exc.value) == error
            return
        q = Quadruple(*args)
        assert all(getattr(q, name) is value for name, value in zip(names, args))
        assert q == Quadruple(**dict(zip(names, args))) and hash(q) == hash(args)
        assert repr(q) == f"Quadruple({', '.join(f'{n}={v!r}' for n, v in zip(names, args))})"
        twins = [replace(q), copy.copy(q), copy.deepcopy(q)]
        twins += [pickle.loads(pickle.dumps(q, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is Quadruple and twin == q
            assert hash(twin) == hash(q) and repr(twin) == repr(q)

    def test_quadruple_text_span_consistency(self):
        with pytest.raises(ValueError, match="empty iff"):
            Quadruple(
                aspect_span=IMPLICIT,
                aspect_text="oops",
                category="C",
                opinion_span=Span(0, 1),
                opinion_text="x",
                sentiment=SentimentPolarity.POSITIVE,
            )

    @pytest.mark.parametrize("term", ["a | b", "a [SSEP] b", "|"])
    @pytest.mark.parametrize("field", ["aspect", "opinion"])
    def test_quadruple_rejects_reserved_separator(self, field, term):
        kwargs = dict(
            aspect_span=Span(0, 1),
            aspect_text="a",
            category="C",
            opinion_span=Span(1, 2),
            opinion_text="b",
            sentiment=SentimentPolarity.POSITIVE,
        )
        kwargs[f"{field}_text"] = term
        with pytest.raises(ValueError, match=f"{field} term .* reserved separator"):
            Quadruple(**kwargs)

    def test_example_rejects_bad_span(self):
        q = Quadruple(
            aspect_span=Span(0, 9),
            aspect_text="a",
            category="C",
            opinion_span=IMPLICIT,
            opinion_text="",
            sentiment=SentimentPolarity.POSITIVE,
        )
        with pytest.raises(
            ValueError, match=r"^aspect span \(0,9\) out of bounds for 2 tokens in example 'e'$"
        ):
            Example(id="e", text="a b", quads=(q,))

    def test_example_rejects_duplicate_and_mismatched_text(self):
        q = Quadruple(
            aspect_span=Span(0, 1),
            aspect_text="a",
            category="C",
            opinion_span=IMPLICIT,
            opinion_text="",
            sentiment=SentimentPolarity.POSITIVE,
        )
        with pytest.raises(ValueError, match="duplicate quadruple"):
            Example(id="e", text="a b", quads=(q, q))
        # One quad under the scorer's identity, match_key(), whatever its spans.
        same_text = replace(q, aspect_span=Span(2, 3))
        with pytest.raises(ValueError, match="^duplicate quadruple in example 'e'$"):
            Example(id="e", text="a b a", quads=(q, same_text))
        with pytest.raises(
            ValueError, match=r"^aspect text 'a' does not match span tokens 'b' in example 'e'$"
        ):
            Example(id="e", text="b a", quads=(q,))

    def test_example_tokens_are_its_text_split(self):
        q = Quadruple(Span(2, 3), "z", "C", IMPLICIT, "", SentimentPolarity.POSITIVE)
        assert [f.name for f in dataclass_fields(Example)] == ["id", "text", "quads"]
        x = Example(id="e", text=" x\ty  z ", quads=(q,))  # any whitespace run
        assert x.tokens == ("x", "y", "z")
        synthetic = make_synthetic_corpus(20, 0)
        unpickled = pickle.loads(pickle.dumps(synthetic))
        for y in [x, *synthetic, *unpickled]:
            assert y.tokens == tuple(y.text.split())
            assert Example(y.id, y.text, y.quads) == y

    def test_example_rejects_empty_quads(self):
        with pytest.raises(ValueError, match="^example 'e' has no quadruples$"):
            Example(id="e", text="a", quads=())
        x = example_from_line("a b\t0,1 C 2 -1,-1")
        with pytest.raises(ValueError, match="^example 't-0001' has no quadruples$"):
            replace(x, quads=())

    def test_sentiment_order(self):
        assert SentimentPolarity.NEGATIVE < SentimentPolarity.NEUTRAL < SentimentPolarity.POSITIVE
