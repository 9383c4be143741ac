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


def _split_terms(text: str, article: bool) -> tuple[str | _Implicit, str | _Implicit] | None:
    """Invert ``<aspect> is <opinion>`` at the last ``" is "``; ``None`` if a side is empty.

    ``it`` and ``null`` are the implicit terms. With ``article`` (gen-nat) the aspect is
    ``the <aspect>`` or ``it``. ``text`` is already stripped.
    """
    head, _, tail = text.rpartition(" is ")
    head = head.strip()
    tail = tail.strip()
    # Accept both "it is ..." and the literal-template "the it is ...". Any whitespace run
    # may follow the article, but "theory" and a lone "the" are no article.
    if article:
        if head.startswith("the") and head[3:4].isspace():
            head = head[4:].lstrip()
        elif head != IMPLICIT_ASPECT_WORD:
            return None
    if not (head and tail):  # also when there is no " is ": head is then ""
        return None
    aspect: str | _Implicit = IMPLICIT if head == IMPLICIT_ASPECT_WORD else head
    opinion: str | _Implicit = IMPLICIT if tail == IMPLICIT_OPINION_WORD else tail
    return aspect, opinion


def _parse_gen_nat_segment(segment: str, category_map: CategoryMap) -> PredictedQuad | None:
    fields = [f.strip() for f in segment.split("|")]
    if len(fields) != 3:
        return None
    category = category_map.raw_for_description(fields[0])
    terms = _split_terms(fields[1], True)
    sentiment = _SENTIMENT_BY_WORD.get(fields[2].lower())
    if category is None or terms is None or sentiment is None:
        return None
    return PredictedQuad(terms[0], category, terms[1], sentiment)


def _parse_paraphrase_segment(segment: str, category_map: CategoryMap) -> PredictedQuad | None:
    head, _, tail = segment.partition(" because ")
    category, _, sentiment_word = head.strip().rpartition(" is ")
    category = category.strip()
    sentiment = _SENTIMENT_BY_PARAPHRASE.get(sentiment_word.strip().lower())
    terms = _split_terms(tail.strip(), False)
    # A missing " because " or " is " leaves a part empty: no label is empty, nor a term.
    if terms is None or sentiment is None or category not in category_map:
        return None
    return PredictedQuad(terms[0], category, terms[1], sentiment)


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
        raise ValueError(f"style must be a FormatStyle, got {style!r}")
    quads: dict[tuple, PredictedQuad] = {}  # by match key: the first of each kept
    dropped = 0
    for raw_segment in s.split(QUAD_SEPARATOR):
        segment = raw_segment.strip()
        quad = parse_segment(segment, category_map) if segment else None
        if quad is None:
            dropped += 1
        else:
            quads.setdefault(quad.match_key(), quad)
    return ParseOutcome(list(quads.values()), dropped)


def read_predictions(path: str | Path) -> list[str]:
    """Read a predictions file: one output string per line, blank = empty."""
    return split_lines(read_utf8(Path(path)))
