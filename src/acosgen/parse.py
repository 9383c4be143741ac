"""Recover quadruples from generated output strings.

Model output is untrusted: segments that do not match the target grammar are
dropped and counted rather than raised, so that an evaluator can score
partial or garbled predictions. Parsing is the inverse of
:mod:`acosgen.linearize` on well-formed input.

Disambiguation rules (validated corpus-wide by the round-trip tests):

* the aspect/opinion boundary inside ``the <aspect> is <opinion>`` is the
  LAST occurrence of ``" is "`` -- opinions are overwhelmingly short
  adjectival phrases, aspects are the multi-word side;
* category inverse lookup accepts the longest known description that
  prefixes the first field;
* matching is case-sensitive except sentiment words, which decoders may
  capitalize sentence-initially.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import (
    IMPLICIT,
    QUAD_SEPARATOR,
    SentimentPolarity,
    _Implicit,
    _reduce_to_fields,
    _slot_setters,
    read_utf8,
    split_lines,
)
from .linearize import (
    CategoryMap,
    FormatStyle,
    GEN_NAT_SENTIMENT,
    IMPLICIT_ASPECT_WORD,
    IMPLICIT_OPINION_WORD,
    PARAPHRASE_SENTIMENT,
)

__all__ = ["PredictedQuad", "ParseOutcome", "parse_output", "read_predictions"]

_SENTIMENT_BY_WORD = {w: p for p, w in GEN_NAT_SENTIMENT.items()}
_SENTIMENT_BY_PARAPHRASE = {w: p for p, w in PARAPHRASE_SENTIMENT.items()}


@dataclass(frozen=True, init=False)
class PredictedQuad:
    """A quadruple recovered from generated text (no token spans)."""

    __slots__ = ("aspect", "category", "opinion", "sentiment")
    __reduce__ = _reduce_to_fields

    aspect: str | _Implicit
    category: str
    opinion: str | _Implicit
    sentiment: SentimentPolarity

    def __init__(self, aspect: str | _Implicit, category: str, opinion: str | _Implicit,
                 sentiment: SentimentPolarity) -> None:
        set_aspect, set_category, set_opinion, set_sentiment = _PREDICTED_QUAD_SETTERS
        set_aspect(self, aspect)
        set_category(self, category)
        set_opinion(self, opinion)
        set_sentiment(self, sentiment)

    def match_key(self) -> tuple:
        return (self.aspect, self.category, self.opinion, self.sentiment)


_PREDICTED_QUAD_SETTERS = _slot_setters(PredictedQuad)


@dataclass(slots=True)
class ParseOutcome:
    """Parsed quads plus a count of malformed, dropped segments."""

    __reduce__ = _reduce_to_fields

    quads: list[PredictedQuad]
    dropped: int


class _SegmentError(ValueError):
    pass


def _split_aspect_opinion(text: str) -> tuple[str | _Implicit, str | _Implicit]:
    """Invert ``the <aspect> is <opinion>`` / ``it is <opinion>``."""
    head, sep, tail = text.rpartition(" is ")
    if not sep:
        raise _SegmentError(f"no ' is ' in {text!r}")
    head = head.strip()
    tail = tail.strip()
    # Accept both "it is ..." and the literal-template "the it is ...".
    if head in (IMPLICIT_ASPECT_WORD, f"the {IMPLICIT_ASPECT_WORD}"):
        aspect: str | _Implicit = IMPLICIT
    elif head.startswith("the ") and head[4:].strip():
        aspect = head[4:]
    else:
        raise _SegmentError(f"aspect part {head!r} matches neither 'the <term>' nor 'it'")
    if not tail:
        raise _SegmentError("empty opinion")
    opinion: str | _Implicit = IMPLICIT if tail == IMPLICIT_OPINION_WORD else tail
    return aspect, opinion


def _parse_gen_nat_segment(segment: str, category_map: CategoryMap) -> PredictedQuad:
    fields = [f.strip() for f in segment.split("|")]
    if len(fields) != 3:
        raise _SegmentError(f"expected 3 '|'-separated fields, got {len(fields)}")
    category = category_map.raw_for_description(fields[0])
    if category is None:
        raise _SegmentError(f"unknown category description {fields[0]!r}")
    aspect, opinion = _split_aspect_opinion(fields[1])
    sentiment = _SENTIMENT_BY_WORD.get(fields[2].lower())
    if sentiment is None:
        raise _SegmentError(f"unknown sentiment word {fields[2]!r}")
    return PredictedQuad(aspect, category, opinion, sentiment)


def _parse_paraphrase_segment(segment: str, category_map: CategoryMap) -> PredictedQuad:
    head, sep, tail = segment.partition(" because ")
    if not sep:
        raise _SegmentError(f"no ' because ' in {segment!r}")
    category_part, sep, sentiment_word = head.strip().rpartition(" is ")
    if not sep:
        raise _SegmentError(f"no ' is ' before 'because' in {segment!r}")
    sentiment = _SENTIMENT_BY_PARAPHRASE.get(sentiment_word.strip().lower())
    if sentiment is None:
        raise _SegmentError(f"unknown sentiment word {sentiment_word!r}")
    category = category_part.strip()
    if category not in category_map:
        raise _SegmentError(f"unknown category label {category!r}")
    aspect_part, sep, opinion_part = tail.strip().rpartition(" is ")
    if not sep:
        raise _SegmentError(f"no ' is ' after 'because' in {segment!r}")
    aspect_part = aspect_part.strip()
    opinion_part = opinion_part.strip()
    if not aspect_part or not opinion_part:
        raise _SegmentError(f"empty aspect or opinion in {segment!r}")
    aspect: str | _Implicit = IMPLICIT if aspect_part == IMPLICIT_ASPECT_WORD else aspect_part
    opinion: str | _Implicit = IMPLICIT if opinion_part == IMPLICIT_OPINION_WORD else opinion_part
    return PredictedQuad(aspect, category, opinion, sentiment)


def parse_output(s: str, style: FormatStyle, category_map: CategoryMap) -> ParseOutcome:
    """Parse one generated output string into a duplicate-free quad list.

    Never raises on malformed input: each ``[SSEP]``-delimited segment either
    yields a quad or is dropped and counted. A quad whose match key an earlier
    segment gave is not kept again, nor counted as dropped. A blank/whitespace
    string is an empty prediction (zero segments).
    """
    if not s.strip():
        return ParseOutcome([], 0)
    if style is FormatStyle.GEN_NAT:
        parse_segment = _parse_gen_nat_segment
    elif style is FormatStyle.PARAPHRASE:
        parse_segment = _parse_paraphrase_segment
    else:
        raise ValueError(f"unknown format style {style!r}")
    quads: dict[tuple, PredictedQuad] = {}  # by match key: the first of each kept
    dropped = 0
    for raw_segment in s.split(QUAD_SEPARATOR):
        segment = raw_segment.strip()
        try:
            if not segment:
                raise _SegmentError("empty segment")
            quad = parse_segment(segment, category_map)
        except _SegmentError:
            dropped += 1
            continue
        quads.setdefault(quad.match_key(), quad)
    return ParseOutcome(list(quads.values()), dropped)


def read_predictions(path: str | Path) -> list[str]:
    """Read a predictions file: one output string per line, blank = empty."""
    return split_lines(read_utf8(Path(path)))
