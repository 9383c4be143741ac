"""Deterministic synthetic ACOS corpora.

Used by the representation-learning demo and by tests that need a corpus
when the published review datasets are not on disk. Two properties matter:

* every example is a valid, loadable ACOS example (real spans over real
  tokens) whose quad set exercises the linearize/parse round trip, including
  multi-word terms, terms containing " and "/" is ", and "the"-initial terms;
* each characteristic label (sentiment, aspect type, opinion type) gets its
  own small marker vocabulary appended to the sentence, so mean-pooled
  token-hash embeddings are separable by label -- the property the
  contrastive demo is supposed to surface.
"""

from __future__ import annotations

import numpy as np

from .configs import default_category_map
from .core import IMPLICIT, Example, Quadruple, SentimentPolarity, Span

__all__ = ["make_synthetic_corpus"]

_ASPECT_TERMS = (
    "pizza",
    "wait staff",
    "fish and chips",
    "the works",
    "lemon chicken",
    "wine list",
    "soup of the day",
    "dessert menu",
    "garlic bread",
    "what it is",
    "sushi rolls",
    "back patio",
)

_OPINION_TERMS = (
    "great",
    "delicious",
    "too salty",
    "worth every penny",
    "out of this world",
    "not worth it",
    "surprisingly good",
    "cold and stale",
    "bland",
    "friendly",
    "slow",
    "overpriced",
)

_FILLERS = ("we", "went", "there", "last", "night", "and", "ordered", "for", "dinner", "again")

# Disjoint marker vocabularies, one pool per characteristic label.
_MARKERS = {
    "sentiment": {
        "positive": ("wonderful", "glad", "smiling"),
        "negative": ("ugh", "regret", "frowning"),
        "neutral": ("plain", "unremarkable", "shrug"),
        "mixed": ("however", "although", "conflicted"),
    },
    "aspect": {
        "all-explicit": ("specifically", "namely", "pointing"),
        "all-implicit": ("vaguely", "unspoken", "overall"),
        "mixed": ("partly", "somewhat", "halfway"),
    },
    "opinion": {
        "all-explicit": ("clearly", "stated", "outright"),
        "all-implicit": ("implied", "between", "lines"),
        "mixed": ("blend", "assorted", "varied"),
    },
}

# First examples walk a fixed schedule so every label of every
# characteristic is present even in small corpora.
_LABEL_SCHEDULE = (
    ("positive", "all-explicit", "all-explicit"),
    ("negative", "all-implicit", "all-implicit"),
    ("neutral", "mixed", "mixed"),
    ("mixed", "all-explicit", "all-implicit"),
    ("positive", "all-implicit", "mixed"),
    ("mixed", "mixed", "all-explicit"),
)


def _choose(rng: np.random.Generator, items: tuple) -> str:
    return items[int(rng.integers(len(items)))]


def _quad_flags(label: str, n: int, rng: np.random.Generator) -> list[bool]:
    """Explicitness flags for n quads honoring an all-/mixed label."""
    if label == "all-explicit":
        return [True] * n
    if label == "all-implicit":
        return [False] * n
    flags = [True, False] + [bool(rng.integers(2)) for _ in range(n - 2)]
    rng.shuffle(flags)
    return flags


def _quad_sentiments(label: str, n: int, rng: np.random.Generator) -> list[SentimentPolarity]:
    if label != "mixed":
        return [SentimentPolarity[label.upper()]] * n
    pool = list(SentimentPolarity)
    first, second = rng.choice(3, size=2, replace=False)
    sentiments = [pool[int(first)], pool[int(second)]]
    sentiments += [pool[int(rng.integers(3))] for _ in range(n - 2)]
    rng.shuffle(sentiments)
    return sentiments


def make_synthetic_corpus(n: int, seed: int) -> list[Example]:
    """Generate ``n`` examples with 1-3 quads each, deterministic given ``seed``."""
    if n < len(_LABEL_SCHEDULE):
        raise ValueError(f"need at least {len(_LABEL_SCHEDULE)} examples to cover all labels")
    categories = default_category_map("rest").labels  # in file order: the draws index it
    rng = np.random.default_rng(seed)
    examples: list[Example] = []
    for i in range(n):
        if i < len(_LABEL_SCHEDULE):
            sent_label, aspect_label, opinion_label = _LABEL_SCHEDULE[i]
        else:
            sent_label = _choose(rng, ("positive", "negative", "neutral", "mixed"))
            aspect_label = _choose(rng, ("all-explicit", "all-implicit", "mixed"))
            opinion_label = _choose(rng, ("all-explicit", "all-implicit", "mixed"))

        needs_two = "mixed" in (sent_label, aspect_label, opinion_label)
        n_quads = int(rng.integers(2, 4)) if needs_two else int(rng.integers(1, 4))

        aspect_flags = _quad_flags(aspect_label, n_quads, rng)
        opinion_flags = _quad_flags(opinion_label, n_quads, rng)
        sentiments = _quad_sentiments(sent_label, n_quads, rng)
        # Distinct categories per quad keep match keys unique within the example.
        picks = rng.choice(len(categories), size=n_quads, replace=False)
        quad_categories = [categories[int(k)] for k in picks]

        tokens: list[str] = [_choose(rng, _FILLERS) for _ in range(int(rng.integers(1, 3)))]
        quads: list[Quadruple] = []
        for j in range(n_quads):
            if aspect_flags[j]:
                term = _choose(rng, _ASPECT_TERMS)
                start = len(tokens)
                tokens.extend(term.split())
                aspect_span: Span | object = Span(start, len(tokens))
                aspect_text = term
            else:
                aspect_span, aspect_text = IMPLICIT, ""
            tokens.append(_choose(rng, _FILLERS))
            if opinion_flags[j]:
                term = _choose(rng, _OPINION_TERMS)
                start = len(tokens)
                tokens.extend(term.split())
                opinion_span: Span | object = Span(start, len(tokens))
                opinion_text = term
            else:
                opinion_span, opinion_text = IMPLICIT, ""
            tokens.append(_choose(rng, _FILLERS))
            quads.append(
                Quadruple(
                    aspect_span=aspect_span,
                    aspect_text=aspect_text,
                    category=quad_categories[j],
                    opinion_span=opinion_span,
                    opinion_text=opinion_text,
                    sentiment=sentiments[j],
                )
            )

        for characteristic, label in (
            ("sentiment", sent_label),
            ("aspect", aspect_label),
            ("opinion", opinion_label),
        ):
            pool = _MARKERS[characteristic][label]
            tokens.extend(_choose(rng, pool) for _ in range(2))

        examples.append(Example(id=f"synth-{i:04d}", text=" ".join(tokens), quads=tuple(quads)))
    return examples
