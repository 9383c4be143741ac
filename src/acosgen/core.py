"""Domain types for ACOS quadruple extraction and dataset ingestion.

An ACOS example is a review sentence annotated with an unordered set of
(aspect term, aspect category, opinion term, sentiment polarity) quadruples.
Aspect and opinion terms may be *implicit*: they carry no supporting span in
the sentence. This module defines the immutable domain types, the TSV dataset
loader/serializer, and the derivation of example-level characteristic labels
(sentiment / aspect type / opinion type) used by the contrastive objective.

Dataset file layout (one example per line, UTF-8, LF or CRLF):

    <sentence text> TAB <quad> [TAB <quad> ...]

where each quad is four space-separated fields:

    <aspect start,end> <CATEGORY> <sentiment code> <opinion start,end>

Spans index into the whitespace-tokenized sentence, end-exclusive; the
sentinel "-1,-1" marks an implicit term; sentiment codes are
0=negative, 1=neutral, 2=positive.

A quad's identity is its :meth:`Quadruple.match_key`, the text the scorer compares:
two quads with the same aspect text, category, opinion text and sentiment are one
quad, whatever their spans. An :class:`Example` stores its id, text and quads only;
its tokens are derived from the text, so the two cannot disagree. It holds at least
one quad and no two with one key; the loader keeps the first of such quads and
returns the number of the rest beside its examples. Every quad is built by the one
checked :class:`Quadruple` constructor, in one pass: its ``__init__`` checks the
arguments, then stores each through the class's slot descriptor (past the frozen
``__setattr__``). Distinct span strings and sentiment codes are parsed once (a
bounded memo). The loader enforces every :class:`Example` check itself, so it builds
each example unchecked; directly constructed examples are checked in full.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "IMPLICIT",
    "SentimentPolarity",
    "Span",
    "Quadruple",
    "QuadType",
    "Example",
    "CharacteristicLabels",
    "DatasetError",
    "load_dataset",
    "parse_dataset_text",
    "serialize_dataset",
    "quad_type",
    "characteristic_labels",
    "check_reserved",
    "read_utf8",
    "split_lines",
]

# Reserved tokens of the linearized output grammar. Terms containing them
# cannot be serialized unambiguously, so Quadruple rejects them.
FIELD_SEPARATOR = "|"
QUAD_SEPARATOR = "[SSEP]"


def check_reserved(text: str, what: str) -> None:
    """Raise ValueError if ``text`` contains a separator of the output grammar."""
    for reserved in (FIELD_SEPARATOR, QUAD_SEPARATOR):
        if reserved in text:
            raise ValueError(f"{what} {text!r} contains reserved separator {reserved!r}")


class _Implicit:
    """Marker for an implicit aspect/opinion (no text span). Calling, pickling and copying
    return the one instance ``IMPLICIT``, so ``is IMPLICIT`` tests explicitness."""

    __slots__ = ()

    def __new__(cls) -> "_Implicit":
        return IMPLICIT

    def __reduce__(self) -> str:
        return "IMPLICIT"

    def __repr__(self) -> str:
        return "IMPLICIT"


IMPLICIT = object.__new__(_Implicit)


def _reduce_to_fields(value) -> tuple:
    """``__reduce__`` of a slotted dataclass: call the class with its fields. (Plain slots
    cannot be pickled at protocols 0 and 1, nor unpickled through a frozen ``__setattr__``.
    Frozen ones declare class-body ``__slots__``: ``slots=True`` would make assigning a
    non-field attribute raise ``TypeError`` instead of ``FrozenInstanceError``.)"""
    return type(value), tuple(getattr(value, name) for name in value.__slots__)


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each of ``cls.__slots__``, in order. An ``__init__`` that calls
    them stores its fields directly, where a frozen dataclass's own goes through
    ``object.__setattr__`` field by field."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class SentimentPolarity(IntEnum):
    """Sentiment polarity with the dataset's integer codes as values.

    The integer order (negative < neutral < positive) doubles as the
    canonical tie-breaking order.
    """

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def word(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Span:
    """Token span [start, end) into the owning sentence's token list."""

    __slots__ = ("start", "end")
    __reduce__ = _reduce_to_fields

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span ({self.start},{self.end}): need 0 <= start < end")


class QuadType(Enum):
    """Quadruple class by explicit/implicit aspect (first) and opinion (second).

    A class's index in member order is 1·(aspect implicit) + 2·(opinion implicit).
    """

    EAEO = "EAEO"
    IAEO = "IAEO"
    EAIO = "EAIO"
    IAIO = "IAIO"


_QUAD_TYPES = tuple(QuadType)


@dataclass(frozen=True, init=False)
class Quadruple:
    """One (aspect, category, opinion, sentiment) annotation.

    ``aspect_span``/``opinion_span`` are either a :class:`Span` or the
    ``IMPLICIT`` marker; the matching ``*_text`` is the whitespace-joined
    span tokens, and empty exactly when the term is implicit. Neither term
    may contain a reserved separator (see :func:`check_reserved`).
    """

    __slots__ = ("aspect_span", "aspect_text", "category", "opinion_span", "opinion_text",
                 "sentiment")
    __reduce__ = _reduce_to_fields

    aspect_span: Span | _Implicit
    aspect_text: str
    category: str
    opinion_span: Span | _Implicit
    opinion_text: str
    sentiment: SentimentPolarity

    def __init__(self, aspect_span: Span | _Implicit, aspect_text: str, category: str,
                 opinion_span: Span | _Implicit, opinion_text: str,
                 sentiment: SentimentPolarity) -> None:
        if not category:
            raise ValueError("category must be non-empty")
        if (aspect_span is IMPLICIT) != (aspect_text == ""):
            raise ValueError("aspect text must be empty iff the aspect is implicit")
        if (opinion_span is IMPLICIT) != (opinion_text == ""):
            raise ValueError("opinion text must be empty iff the opinion is implicit")
        # check_reserved on a hit only
        if FIELD_SEPARATOR in aspect_text or QUAD_SEPARATOR in aspect_text:
            check_reserved(aspect_text, "aspect term")
        if FIELD_SEPARATOR in opinion_text or QUAD_SEPARATOR in opinion_text:
            check_reserved(opinion_text, "opinion term")
        (set_aspect_span, set_aspect_text, set_category, set_opinion_span, set_opinion_text,
         set_sentiment) = _QUADRUPLE_SETTERS
        set_aspect_span(self, aspect_span)
        set_aspect_text(self, aspect_text)
        set_category(self, category)
        set_opinion_span(self, opinion_span)
        set_opinion_text(self, opinion_text)
        set_sentiment(self, sentiment)

    def match_key(self) -> tuple:
        """Surface-level identity used for exact-match evaluation.

        Spans are deliberately excluded: parsed predictions carry no token
        indices, so gold and predicted quads compare on resolved text.
        """
        # A term's text is empty exactly when it is implicit.
        return (self.aspect_text or IMPLICIT, self.category, self.opinion_text or IMPLICIT,
                self.sentiment)


_QUADRUPLE_SETTERS = _slot_setters(Quadruple)


def _quad_type_index(q: Quadruple) -> int:
    """Index of the quadruple's QuadType in member order (see QuadType)."""
    return (q.aspect_span is IMPLICIT) + 2 * (q.opinion_span is IMPLICIT)


def quad_type(q: Quadruple) -> QuadType:
    """Classify a quadruple by aspect/opinion explicitness."""
    return _QUAD_TYPES[_quad_type_index(q)]


@dataclass(frozen=True)
class Example:
    """A sentence with its non-empty, duplicate-free quadruple set, built as
    ``Example(id, text, quads)``.

    ``quads`` is stored in file order but is semantically an unordered set.
    Spans index :attr:`tokens`, which is derived from ``text``, not stored.
    Direct construction checks that there is at least one quad, that no two
    share a :meth:`Quadruple.match_key`, that every span lies within the
    tokens and that each term text is its span's tokens joined by spaces.
    Examples from the loader were checked there, and may share :class:`Span`
    instances.
    """

    __slots__ = ("id", "text", "quads")
    __reduce__ = _reduce_to_fields

    id: str
    text: str
    quads: tuple[Quadruple, ...]

    @property
    def tokens(self) -> tuple[str, ...]:
        """The whitespace tokens of ``text``: the one statement of the tokenization rule."""
        return tuple(self.text.split())

    @classmethod
    def _unchecked(cls, id: str, text: str, quads: tuple[Quadruple, ...]) -> "Example":
        """Build an Example without running ``__post_init__``: the fields go straight
        into the slots, as :class:`Quadruple` stores its own.

        Only for quads the caller has already validated against ``text.split()`` exactly
        as ``__post_init__`` would: at least one, no two with one
        :meth:`Quadruple.match_key`, every span within the token count, every explicit
        term text equal to its span's tokens joined by spaces. Copies and unpickled
        examples are built by the checked constructor.
        """
        x = object.__new__(cls)
        set_id, set_text, set_quads = _EXAMPLE_SETTERS
        set_id(x, id)
        set_text(x, text)
        set_quads(x, quads)
        return x

    def __post_init__(self) -> None:
        if not self.quads:
            raise ValueError(f"example {self.id!r} has no quadruples")
        tokens = self.text.split()
        seen = set()
        for q in self.quads:
            key = q.match_key()
            if key in seen:
                raise ValueError(f"duplicate quadruple in example {self.id!r}")
            seen.add(key)
            for span, text, what in (
                (q.aspect_span, q.aspect_text, "aspect"),
                (q.opinion_span, q.opinion_text, "opinion"),
            ):
                try:
                    resolved = _span_text(span, tokens, what)
                except ValueError as exc:
                    raise ValueError(f"{exc} in example {self.id!r}") from None
                if text != resolved:
                    raise ValueError(
                        f"{what} text {text!r} does not match span tokens {resolved!r} "
                        f"in example {self.id!r}"
                    )


_EXAMPLE_SETTERS = _slot_setters(Example)


@dataclass(frozen=True)
class CharacteristicLabels:
    """Example-level labels for the three trained characteristics.

    sentiment: shared polarity word if all quads agree, else "mixed".
    aspect/opinion: "all-explicit" / "all-implicit", or "mixed" when the
    example contains both explicit and implicit instances of that element.
    """

    sentiment: str
    aspect: str
    opinion: str


def characteristic_labels(x: Example) -> CharacteristicLabels:
    """Derive the per-example characteristic labels from its quad set."""
    polarities = {q.sentiment for q in x.quads}
    sentiment = polarities.pop().word if len(polarities) == 1 else "mixed"

    def span_label(implicit: set[bool]) -> str:
        if implicit == {False}:
            return "all-explicit"
        if implicit == {True}:
            return "all-implicit"
        return "mixed"

    aspect = span_label({q.aspect_span is IMPLICIT for q in x.quads})
    opinion = span_label({q.opinion_span is IMPLICIT for q in x.quads})
    return CharacteristicLabels(sentiment=sentiment, aspect=aspect, opinion=opinion)


class DatasetError(ValueError):
    """Raised for malformed dataset files and by :func:`read_utf8`; carries the line number."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}: "
        elif path is not None:
            where += " "
        super().__init__(where + message)


def read_utf8(path: Path) -> str:
    """The file decoded as UTF-8 with line ends as stored (``Path.read_text`` would turn a
    lone CR into LF), so that :func:`split_lines` alone decides where a line ends. Every
    reader's file comes through here: each failure has one :class:`DatasetError` wording.
    A leading byte-order mark is rejected, not skipped, so a file round-trips byte for byte."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise DatasetError(f"no such file: {path}") from None
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror}") from None
    if data.startswith(codecs.BOM_UTF8):
        raise DatasetError("starts with a UTF-8 byte-order mark", path=str(path), line=1)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(
            f"not valid UTF-8 (byte 0x{data[exc.start]:02x})", path=str(path), line=line
        ) from None


def split_lines(text: str) -> list[str]:
    """File content split into lines at LF or CRLF only: U+0085, U+2028,
    U+001C-U+001E, VT, FF and a lone CR stay inside their line. Only the
    one CR of a CRLF goes: a CR before it, or ending a last line with no LF, stays."""
    lines = text.split("\n")
    last = lines.pop()  # what follows the final LF, or the whole of a text without one
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if last:
        lines.append(last)
    return lines


# Distinct span strings and sentiment codes memoized by the loader. Spans are
# bounded by sentence length, so real corpora repeat a few dozen strings;
# the bound only caps memory on adversarial input.
_MEMO_SIZE = 4096


def _parse_int(text: str) -> int:
    """``int(text)`` if :func:`serialize_dataset` would write the result back as ``text``
    (ASCII digits, no ``+``, ``_`` or leading zero), else ValueError."""
    value = int(text)
    if str(value) != text:
        raise ValueError(text)
    return value


@lru_cache(maxsize=_MEMO_SIZE)
def _parse_span(field: str) -> Span | _Implicit:
    """Parse a ``start,end`` field; the sentence bounds check is the caller's."""
    try:
        start, end = map(_parse_int, field.split(","))  # not two fields: ValueError too
    except ValueError:
        raise ValueError(f"malformed span {field!r}") from None
    if (start, end) == (-1, -1):
        return IMPLICIT
    if start < 0 or end < 0:
        raise ValueError(f"malformed span {field!r}: negative index (implicit is -1,-1)")
    if start >= end:
        raise ValueError(f"span ({start},{end}) out of bounds: need start < end")
    return Span(start, end)


@lru_cache(maxsize=_MEMO_SIZE)
def _parse_sentiment(code_raw: str) -> SentimentPolarity:
    try:
        code: int | str = _parse_int(code_raw)
    except ValueError:
        code = code_raw  # matches no member, and is reported quoted
    try:
        return SentimentPolarity(code)
    except ValueError:
        raise ValueError(f"unknown sentiment code {code!r} (expected 0, 1 or 2)") from None


def _span_text(span: Span | _Implicit, tokens: Sequence[str], what: str) -> str:
    """The tokens ``span`` covers joined by spaces, "" if implicit; ValueError past the end."""
    if span is IMPLICIT:
        return ""
    if span.end > len(tokens):
        raise ValueError(
            f"{what} span ({span.start},{span.end}) out of bounds for {len(tokens)} tokens"
        )
    return " ".join(tokens[span.start : span.end])


def _parse_quad_field(parts: tuple[str, ...], field: str, tokens: Sequence[str]) -> Quadruple:
    """The quad of a field split into ``parts``; errors in field order, as ValueError."""
    if len(parts) != 4:
        raise ValueError(f"malformed quadruple field {field!r} (expected 4 space-separated parts)")
    aspect_raw, category, code_raw, opinion_raw = parts
    sentiment = _parse_sentiment(code_raw)
    aspect_span = _parse_span(aspect_raw)
    aspect_text = _span_text(aspect_span, tokens, "aspect")
    opinion_span = _parse_span(opinion_raw)
    opinion_text = _span_text(opinion_span, tokens, "opinion")
    return Quadruple(aspect_span, aspect_text, category, opinion_span, opinion_text, sentiment)


def parse_dataset_text(
    text: str, *, id_prefix: str = "ex", path: str | None = None
) -> tuple[list[Example], int]:
    """The examples of dataset TSV ``text`` and the number of duplicate quads dropped.
    See the module docstring for the layout."""
    examples: list[Example] = []
    duplicates = 0
    for line_no, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            raise DatasetError("blank line", path=path, line=line_no)
        sentence, *quad_fields = line.split("\t")
        tokens = sentence.split()
        quads: dict[tuple, Quadruple] = {}  # by match key: the first of each kept
        for field in quad_fields:
            parts = tuple(field.split())
            if not parts:  # a blank field
                continue
            try:
                quad = _parse_quad_field(parts, field, tokens)
            except ValueError as exc:
                raise DatasetError(str(exc), path=path, line=line_no) from None
            if quads.setdefault(quad.match_key(), quad) is not quad:
                duplicates += 1
        if not quads:
            raise DatasetError("no quadruples", path=path, line=line_no)
        # Every Example check was made above: quads present, keys distinct, spans resolved.
        examples.append(Example._unchecked(f"{id_prefix}-{line_no:04d}", sentence,
                                           tuple(quads.values())))
    return examples, duplicates


def load_dataset(path: str | Path) -> tuple[list[Example], int]:
    """Load a dataset TSV file as :func:`parse_dataset_text` does; example ids are
    ``<file stem>-<line number>``."""
    path = Path(path)
    return parse_dataset_text(read_utf8(path), id_prefix=path.stem, path=str(path))


def _format_span(span: Span | _Implicit) -> str:
    if span is IMPLICIT:
        return "-1,-1"
    return f"{span.start},{span.end}"


def serialize_dataset(examples: Iterable[Example]) -> str:
    """Serialize examples back to the TSV layout accepted by the loader."""
    lines = []
    for x in examples:
        quad_fields = [
            f"{_format_span(q.aspect_span)} {q.category} {int(q.sentiment)} "
            f"{_format_span(q.opinion_span)}"
            for q in x.quads
        ]
        lines.append("\t".join([x.text, *quad_fields]))
    return "\n".join(lines) + "\n"
