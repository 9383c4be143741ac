"""Linearize quadruple sets into generation target strings.

Two target formats are supported:

* ``gen-nat`` -- a natural-language template per quad,
  ``<category description> | the <aspect> is <opinion> | <sentiment>``,
  using human-readable category descriptions and the literal sentiment
  words positive/neutral/negative. Implicit aspects render as ``it``
  (article dropped), implicit opinions as ``null``.
* ``paraphrase`` -- the older baseline template,
  ``<RAW_CATEGORY> is <great|okay|bad> because <aspect> is <opinion>``.

Multi-quad examples are emitted in scan order: ascending by the last token
position of each quad's explicit aspect/opinion spans, quads with neither
span last. Quads are joined with the ``[SSEP]`` separator token.
"""

from __future__ import annotations

import difflib
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .core import (
    IMPLICIT, QUAD_SEPARATOR, Example, Quadruple, SentimentPolarity, check_reserved, read_utf8,
    split_lines,
)

__all__ = [
    "CategoryMap",
    "CategoryMapError",
    "FormatStyle",
    "linearize_quad",
    "order_quads",
    "linearize_example",
    "SSEP_JOINER",
]

SSEP_JOINER = f" {QUAD_SEPARATOR} "

GEN_NAT_SENTIMENT = {p: p.word for p in SentimentPolarity}
PARAPHRASE_SENTIMENT = {
    SentimentPolarity.POSITIVE: "great",
    SentimentPolarity.NEUTRAL: "okay",
    SentimentPolarity.NEGATIVE: "bad",
}

IMPLICIT_ASPECT_WORD = "it"
IMPLICIT_OPINION_WORD = "null"


class FormatStyle(str, Enum):
    GEN_NAT = "gen-nat"
    PARAPHRASE = "paraphrase"


class CategoryMapError(ValueError):
    pass


class CategoryMap:
    """Invertible mapping from raw category labels to natural descriptions.

    Descriptions must be unique (the inverse lookup drives parsing) and must
    not contain the output grammar's separator tokens. ``entries`` is a
    mapping or an iterable of ``(raw, description)`` pairs.
    """

    def __init__(self, entries: Mapping[str, str] | Iterable[tuple[str, str]]):
        self._by_raw: dict[str, str] = {}
        self._by_description: dict[str, str] = {}
        for raw, description in entries.items() if isinstance(entries, Mapping) else entries:
            raw = raw.strip()
            description = description.strip()
            if not raw or not description:
                raise CategoryMapError(f"empty label or description in entry {raw!r} -> {description!r}")
            try:
                check_reserved(description, "description")
            except ValueError as exc:
                raise CategoryMapError(str(exc)) from None
            if raw in self._by_raw:
                raise CategoryMapError(f"duplicate raw label {raw!r}")
            if description in self._by_description:
                raise CategoryMapError(
                    f"duplicate description {description!r} "
                    f"(for {raw!r} and {self._by_description[description]!r})"
                )
            self._by_raw[raw] = description
            self._by_description[description] = raw
        # Prefix lookup probes these lengths longest first, so it resolves to the
        # most specific description ("the food quality" before "the food").
        self._description_lengths = sorted({len(d) for d in self._by_description}, reverse=True)

    def __len__(self) -> int:
        return len(self._by_raw)

    def __contains__(self, raw: str) -> bool:
        return raw in self._by_raw

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._by_raw)

    def natural(self, raw: str) -> str:
        try:
            return self._by_raw[raw]
        except KeyError:
            near = difflib.get_close_matches(raw, self._by_raw, n=1)
            hint = f" (nearest known label: {near[0]!r})" if near else ""
            raise CategoryMapError(f"unknown category label {raw!r}{hint}") from None

    def raw_for_description(self, text: str) -> str | None:
        """Inverse lookup: longest known description that prefixes ``text``.

        Returns None when no description matches. The prefix rule recovers
        categories from decoder output that trails extra tokens. Descriptions
        are unique, so at most one of each length prefixes ``text``: one dict
        probe per distinct description length finds it.
        """
        text = text.strip()
        if text in self._by_description:
            return self._by_description[text]
        for n in self._description_lengths:
            if n < len(text) and text[:n] in self._by_description:
                return self._by_description[text[:n]]
        return None

    @classmethod
    def from_text(cls, text: str, *, source: str = "<string>") -> "CategoryMap":
        pairs: list[list[str]] = []
        for line_no, line in enumerate(split_lines(text), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CategoryMapError(
                    f"{source}:{line_no}: expected 'RAW_LABEL<TAB>description', got {line!r}"
                )
            pairs.append(parts)
        if not pairs:
            raise CategoryMapError(f"{source}: no entries")
        try:
            return cls(pairs)
        except CategoryMapError as exc:
            raise CategoryMapError(f"{source}: {exc}") from None

    @classmethod
    def from_tsv(cls, path: str | Path) -> "CategoryMap":
        path = Path(path)
        return cls.from_text(read_utf8(path), source=str(path))


def linearize_quad(q: Quadruple, style: FormatStyle, category_map: CategoryMap) -> str:
    """Render one quadruple in the requested target format.

    Both styles reject a category label the map does not know.
    """
    description = category_map.natural(q.category)
    # A term's text is empty exactly when it is implicit.
    aspect = q.aspect_text or IMPLICIT_ASPECT_WORD
    opinion = q.opinion_text or IMPLICIT_OPINION_WORD
    if style is FormatStyle.GEN_NAT:
        aspect_part = f"the {aspect}" if q.aspect_text else aspect
        return f"{description} | {aspect_part} is {opinion} | {GEN_NAT_SENTIMENT[q.sentiment]}"
    if style is FormatStyle.PARAPHRASE:
        return f"{q.category} is {PARAPHRASE_SENTIMENT[q.sentiment]} because {aspect} is {opinion}"
    raise ValueError(f"unknown format style {style!r}")


def _scan_key(q: Quadruple) -> tuple:
    """Scan-order sort key.

    Primary key: last token position over the quad's explicit spans; quads
    with neither span explicit sort after all others, ordered by category
    then sentiment. Remaining components make the key total so the order is
    independent of input permutation.
    """
    a, o = q.aspect_span, q.opinion_span
    a_start, a_end = (-1, -1) if a is IMPLICIT else (a.start, a.end)
    o_start, o_end = (-1, -1) if o is IMPLICIT else (o.start, o.end)
    if a_end < 0 and o_end < 0:
        return (1, 0, -1, -1, -1, -1, q.category, int(q.sentiment))
    return (0, max(a_end, o_end), a_start, o_start, a_end, o_end, q.category, int(q.sentiment))


def order_quads(x: Example) -> list[Quadruple]:
    """Order an example's quads for generation (scan order, implicit-only last)."""
    return sorted(x.quads, key=_scan_key)


def linearize_example(x: Example, style: FormatStyle, category_map: CategoryMap) -> str:
    """Linearize an example's full quad set into one target string."""
    return SSEP_JOINER.join(linearize_quad(q, style, category_map) for q in order_quads(x))
