import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acosgen.configs import DATASETS, default_category_map
from acosgen.linearize import (
    CategoryMap,
    CategoryMapError,
    FormatStyle,
    linearize_example,
    linearize_quad,
    order_quads,
)

from conftest import example_from_line

SHIPPED_MAPS = {name: default_category_map(name) for name in DATASETS}


@st.composite
def _decoded_head(draw):
    """A shipped map and a category head a decoder might write for one of its
    descriptions: cut short, recased, trailed by tokens, padded with whitespace."""
    name = draw(st.sampled_from(sorted(SHIPPED_MAPS)))
    cmap = SHIPPED_MAPS[name]
    descriptions = [cmap.natural(raw) for raw in cmap.labels]
    text = draw(st.sampled_from(descriptions))
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    text = draw(st.sampled_from([str] * 3 + [str.upper, str.capitalize, str.swapcase]))(text)
    trailing = st.sampled_from(["", " ", "s", " today", " quality", " overall", " and"])
    text += "".join(draw(st.lists(st.one_of(trailing, st.sampled_from(descriptions)),
                                  max_size=3)))
    whitespace = st.sampled_from(["", " ", "  ", "\t", "\n "])
    return cmap, draw(whitespace) + text + draw(whitespace)


def _longest_prefix_scan(cmap, text):
    """Raw label of the longest description that prefixes ``text``, by a linear scan."""
    text = text.strip()
    best = None
    for raw in cmap.labels:
        description = cmap.natural(raw)
        if text.startswith(description) and (best is None or len(description) > len(best[0])):
            best = (description, raw)
    return best and best[1]


class TestCategoryMap:
    def test_reference_descriptions(self, rest_map, laptop_map):
        assert rest_map.natural("FOOD#QUALITY") == "the food quality"
        assert rest_map.natural("FOOD#PRICES") == "the food prices"
        assert rest_map.natural("LOCATION#GENERAL") == "the location"
        assert laptop_map.natural("OS#GENERAL") == "the operating system overall"
        assert laptop_map.natural("OS#DESIGN_FEATURES") == "the operating system features"
        assert laptop_map.natural("HARD_DISC#PRICE") == "the hard drive price"
        l1 = default_category_map("laptop-l1")
        assert l1.natural("OS") == "the operating system"
        assert l1.natural("HARD_DISC") == "the hard drive"

    def test_shipped_map_sizes(self, rest_map, laptop_map):
        assert len(rest_map) == 13
        assert len(laptop_map) >= 121
        assert len(default_category_map("laptop_l1")) >= 21
        with pytest.raises(KeyError, match=r"unknown dataset 'hotel'; expected one of \('rest', "):
            default_category_map("hotel")

    def test_unknown_label_names_nearest(self, rest_map):
        with pytest.raises(CategoryMapError, match="FOOD#QUALITY"):
            rest_map.natural("FOOD#QUALTY")

    def test_duplicate_raw_label(self):
        with pytest.raises(CategoryMapError, match="duplicate raw label"):
            CategoryMap.from_text("A\tone\nA\ttwo\n")
        with pytest.raises(CategoryMapError, match="^maps/m.tsv: duplicate raw label 'A'"):
            CategoryMap.from_text("A\tone\n A \ttwo\n", source="maps/m.tsv")

    def test_duplicate_description(self):
        with pytest.raises(CategoryMapError, match="duplicate description"):
            CategoryMap.from_text("A\tone\nB\tone\n")
        clash = r"^maps/m.tsv: duplicate description 'one' \(for 'B' and 'A'\)"
        with pytest.raises(CategoryMapError, match=clash):
            CategoryMap.from_text("A\tone\nB\tone \n", source="maps/m.tsv")

    def test_pairs_and_mapping_agree(self):
        pairs = [("A#B", "the a b"), ("C", "the c")]
        from_pairs, from_dict = CategoryMap(pairs), CategoryMap(dict(pairs))
        assert from_pairs.labels == from_dict.labels == ("A#B", "C")
        assert [from_pairs.natural(r) for r in ("A#B", "C")] == ["the a b", "the c"]
        with pytest.raises(CategoryMapError, match="duplicate raw label"):
            CategoryMap([("A", "one"), ("A", "two")])

    def test_description_with_separator(self):
        with pytest.raises(CategoryMapError, match="reserved separator"):
            CategoryMap({"A": "one | two"})
        with pytest.raises(CategoryMapError, match="reserved separator"):
            CategoryMap({"A": "one [SSEP] two"})

    def test_label_with_separator(self, tmp_path):
        # A paraphrase target carries the raw label verbatim, so a separator in it would
        # split every such target into segments that parse to nothing.
        path = tmp_path / "m.tsv"
        path.write_text("FOOD[SSEP]X\tthe food x\n", encoding="utf-8")
        clash = f"{path}: label 'FOOD[SSEP]X' contains reserved separator '[SSEP]'"
        with pytest.raises(CategoryMapError, match=f"^{re.escape(clash)}$"):
            CategoryMap.from_tsv(path)
        with pytest.raises(CategoryMapError, match="reserved separator"):
            CategoryMap({"A|B": "the a b"})

    @pytest.mark.parametrize("text, message", [
        ("# only a comment\n\n \n", "maps/m.tsv: no entries"),
        ("A\tthe a\n \tthe b\n", "maps/m.tsv: empty label or description in entry '' -> 'the b'"),
        ("A\tthe a\nB\t \n", "maps/m.tsv: empty label or description in entry 'B' -> ''"),
    ], ids=["no entries", "empty label", "empty description"])
    def test_empty_map_or_entry(self, text, message):
        with pytest.raises(CategoryMapError, match=f"^{re.escape(message)}$"):
            CategoryMap.from_text(text, source="maps/m.tsv")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# comment\nA#B\tthe a b\n\nC\tthe c\n", encoding="utf-8")
        cmap = CategoryMap.from_tsv(path)
        assert cmap.natural("A#B") == "the a b"
        assert len(cmap) == 2

    def test_lines_end_at_lf_or_crlf_only(self):
        cmap = CategoryMap.from_text("A\tthe a\x85b\r\nC\tthe c\u2028d\n")
        assert (cmap.natural("A"), cmap.natural("C")) == ("the a\x85b", "the c\u2028d")
        with pytest.raises(CategoryMapError, match=r"^<string>:2: expected"):
            CategoryMap.from_text("A\tthe a\x1cb\nC\n")

    def test_prefix_inverse_lookup(self, rest_map):
        assert rest_map.raw_for_description("the food quality") == "FOOD#QUALITY"
        # longest match wins over the FOOD#GENERAL prefix
        assert rest_map.raw_for_description("the food") == "FOOD#GENERAL"
        assert rest_map.raw_for_description("the food quality today") == "FOOD#QUALITY"
        assert rest_map.raw_for_description("the fooq") is None

    @settings(max_examples=500)
    @given(_decoded_head())
    def test_prefix_lookup_equals_linear_scan(self, case):
        cmap, text = case
        assert cmap.raw_for_description(text) == _longest_prefix_scan(cmap, text)


class TestLinearizeQuad:
    def test_gen_nat_explicit(self, rest_map):
        x = example_from_line("the pizza was delicious\t1,2 FOOD#QUALITY 2 3,4")
        out = linearize_quad(x.quads[0], FormatStyle.GEN_NAT, rest_map)
        assert out == "the food quality | the pizza is delicious | positive"

    def test_gen_nat_implicit_aspect_drops_article(self, rest_map):
        x = example_from_line("it is far\t-1,-1 LOCATION#GENERAL 0 2,3")
        out = linearize_quad(x.quads[0], FormatStyle.GEN_NAT, rest_map)
        assert out == "the location | it is far | negative"

    def test_gen_nat_implicit_opinion(self, rest_map):
        x = example_from_line("the pizza was ok\t1,2 FOOD#QUALITY 1 -1,-1")
        out = linearize_quad(x.quads[0], FormatStyle.GEN_NAT, rest_map)
        assert out == "the food quality | the pizza is null | neutral"

    def test_paraphrase(self, rest_map):
        x = example_from_line("the pizza was delicious\t1,2 FOOD#QUALITY 2 3,4")
        out = linearize_quad(x.quads[0], FormatStyle.PARAPHRASE, rest_map)
        assert out == "FOOD#QUALITY is great because pizza is delicious"

    def test_paraphrase_sentiment_words(self, rest_map):
        neutral = example_from_line("a b\t-1,-1 FOOD#QUALITY 1 -1,-1").quads[0]
        negative = example_from_line("a b\t-1,-1 FOOD#QUALITY 0 -1,-1").quads[0]
        assert "is okay because it is null" in linearize_quad(neutral, FormatStyle.PARAPHRASE, rest_map)
        assert "is bad because it is null" in linearize_quad(negative, FormatStyle.PARAPHRASE, rest_map)

    def test_style_must_be_a_format_style(self, rest_map):
        x = example_from_line("the pizza was delicious\t1,2 FOOD#QUALITY 2 3,4")
        with pytest.raises(ValueError, match="^style must be a FormatStyle, got 'gen-nat'$"):
            linearize_quad(x.quads[0], "gen-nat", rest_map)

    def test_unknown_category_raises(self, rest_map):
        x = example_from_line("a b\t0,1 NOT#REAL 2 -1,-1")
        for style in FormatStyle:
            with pytest.raises(CategoryMapError, match="NOT#REAL"):
                linearize_quad(x.quads[0], style, rest_map)


class TestOrderQuads:
    def test_scan_order_by_last_explicit_end(self):
        # quad A: explicit aspect span (5,7); quad B: explicit opinion span (2,4)
        line = "t0 t1 t2 t3 t4 t5 t6 t7\t5,7 CA 2 -1,-1\t-1,-1 CB 2 2,4"
        x = example_from_line(line)
        ordered = order_quads(x)
        assert [q.category for q in ordered] == ["CB", "CA"]

    def test_implicit_only_last(self):
        line = "t0 t1 t2 t3 t4 t5 t6\t2,3 CA 2 5,6\t-1,-1 CB 2 -1,-1"
        x = example_from_line(line)
        ordered = order_quads(x)
        assert [q.category for q in ordered] == ["CA", "CB"]

    def test_iaio_tiebreak_lexicographic(self):
        line = "a b\t-1,-1 FOOD#QUALITY 2 -1,-1\t-1,-1 FOOD#PRICES 2 -1,-1"
        x = example_from_line(line)
        ordered = order_quads(x)
        assert [q.category for q in ordered] == ["FOOD#PRICES", "FOOD#QUALITY"]
        assert order_quads(x) == ordered  # deterministic on re-invocation

    def test_permutation_invariant(self, synth_corpus):
        from acosgen.core import Example

        for x in synth_corpus[:60]:
            reordered = Example(id=x.id, text=x.text, quads=tuple(reversed(x.quads)))
            assert order_quads(reordered) == order_quads(x)


class TestLinearizeExample:
    def test_single_quad_no_separator(self, rest_map):
        x = example_from_line("the pizza was great\t1,2 FOOD#QUALITY 2 3,4")
        out = linearize_example(x, FormatStyle.GEN_NAT, rest_map)
        assert "[SSEP]" not in out

    def test_two_quads_joined_in_scan_order(self, rest_map):
        line = (
            "the pizza was great but the wine list was poor\t"
            "6,8 DRINKS#STYLE_OPTIONS 0 9,10\t1,2 FOOD#QUALITY 2 3,4"
        )
        x = example_from_line(line)
        out = linearize_example(x, FormatStyle.GEN_NAT, rest_map)
        assert out == (
            "the food quality | the pizza is great | positive [SSEP] "
            "the drinks style options | the wine list is poor | negative"
        )

    def test_output_permutation_invariant(self, rest_map, synth_corpus):
        from acosgen.core import Example

        for x in synth_corpus[:40]:
            reordered = Example(id=x.id, text=x.text, quads=tuple(reversed(x.quads)))
            for style in FormatStyle:
                assert linearize_example(reordered, style, rest_map) == linearize_example(
                    x, style, rest_map
                )

    def test_empty_quads_error(self, rest_map):
        from acosgen.core import Example

        # Example itself refuses an empty quad set, so no empty example reaches the linearizer.
        with pytest.raises(ValueError, match="no quadruples"):
            x = Example(id="e", text="a", quads=())
            linearize_example(x, FormatStyle.GEN_NAT, rest_map)

    def test_gen_nat_segment_shape(self, rest_map, synth_corpus):
        # each segment has exactly two field separators, and [SSEP] appears
        # only between segments
        for x in synth_corpus[:60]:
            out = linearize_example(x, FormatStyle.GEN_NAT, rest_map)
            segments = out.split(" [SSEP] ")
            assert len(segments) == len(x.quads)
            for segment in segments:
                assert segment.count("|") == 2
                assert "[SSEP]" not in segment

    def test_eaeo_contains_terms_verbatim(self, rest_map, synth_corpus):
        from acosgen.core import quad_type, QuadType

        for x in synth_corpus[:60]:
            out = linearize_example(x, FormatStyle.GEN_NAT, rest_map)
            for q in x.quads:
                if quad_type(q) is QuadType.EAEO:
                    assert q.aspect_text in out
                    assert q.opinion_text in out
