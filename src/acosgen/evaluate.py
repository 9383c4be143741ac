"""Exact-match evaluation of predicted quadruple sets and dataset statistics.

A predicted quad matches a gold quad only when aspect term (or implicit),
raw category, opinion term (or implicit) and sentiment are all exactly
equal. Scores are micro-averaged over the corpus (corpus-level TP/FP/FN).
Per-type splits follow the example-level convention: the EAEO/IAEO/EAIO/IAIO
split contains every example with at least one gold quad of that type, with
all quads of member examples counted, so splits overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

from .core import Example, QuadType, _quad_type_index, quad_type

__all__ = ["MatchCounts", "EvalReport", "DatasetStats", "score", "dataset_stats"]


@dataclass(frozen=True)
class MatchCounts:
    """Predicted, gold and matched quads of ``num_examples`` examples, and their P/R/F1."""

    num_predicted: int
    num_gold: int
    num_matched: int
    num_examples: int

    @property
    def precision(self) -> float:
        return self.num_matched / self.num_predicted if self.num_predicted > 0 else 0.0

    @property
    def recall(self) -> float:
        return self.num_matched / self.num_gold if self.num_gold > 0 else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0


@dataclass(frozen=True)
class EvalReport:
    """Corpus-wide and per-split counts; the corpus P/R/F1 forward to ``counts``."""

    counts: MatchCounts
    per_split: dict[QuadType, MatchCounts]

    @property
    def precision(self) -> float:
        return self.counts.precision

    @property
    def recall(self) -> float:
        return self.counts.recall

    @property
    def f1(self) -> float:
        return self.counts.f1

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "counts": {
                "predicted": self.counts.num_predicted,
                "gold": self.counts.num_gold,
                "matched": self.counts.num_matched,
            },
            "per_split": {
                t.value: {
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "num_examples": s.num_examples,
                }
                for t, s in self.per_split.items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"{'split':<8} {'P':>8} {'R':>8} {'F1':>8} {'examples':>9}",
            f"{'overall':<8} {self.precision:>8.4f} {self.recall:>8.4f} {self.f1:>8.4f} {'':>9}",
        ]
        for t in QuadType:
            s = self.per_split[t]
            lines.append(
                f"{t.value:<8} {s.precision:>8.4f} {s.recall:>8.4f} {s.f1:>8.4f} "
                f"{s.num_examples:>9d}"
            )
        c = self.counts
        lines.append(f"predicted={c.num_predicted} gold={c.num_gold} matched={c.num_matched}")
        return "\n".join(lines)


def score(preds: Sequence[Iterable], golds: Sequence[Example]) -> EvalReport:
    """Micro-averaged exact-match P/R/F1 of predictions against gold examples.

    ``preds[i]`` is the predicted quad collection for ``golds[i]``: any iterable
    of parsed or gold quads, compared on their ``match_key()``. Duplicate
    predictions collapse (set semantics).
    """
    if len(preds) != len(golds):
        raise ValueError(f"got {len(preds)} predictions for {len(golds)} gold examples")

    # Predicted, gold and matched quads and examples: overall, and per split in QuadType
    # order, where a gold quad's split is its QuadType index (see QuadType).
    totals = [0, 0, 0, 0]
    splits = [[0, 0, 0, 0] for _ in QuadType]
    for pred, gold in zip(preds, golds):
        pred_keys = {q.match_key() for q in pred}
        gold_keys = {q.match_key() for q in gold.quads}
        counts = (len(pred_keys), len(gold_keys), len(pred_keys & gold_keys), 1)
        types = {_quad_type_index(q) for q in gold.quads}
        for row in (totals, *(splits[t] for t in types)):
            row[:] = map(add, row, counts)

    return EvalReport(
        counts=MatchCounts(*totals),
        per_split={t: MatchCounts(*row) for t, row in zip(QuadType, splits)},
    )


@dataclass(frozen=True)
class DatasetStats:
    """A corpus's category, sentence and per-QuadType quad counts; totals and ratios
    are derived from them."""

    num_categories: int
    num_sentences: int
    quad_counts: dict[QuadType, int]

    @property
    def total_quads(self) -> int:
        return sum(self.quad_counts.values())

    @property
    def quad_percentages(self) -> dict[QuadType, float]:
        total = self.total_quads
        return {t: (100.0 * self.quad_counts[t] / total if total else 0.0) for t in QuadType}

    @property
    def quads_per_sentence(self) -> float:
        return self.total_quads / self.num_sentences if self.num_sentences else 0.0

    def to_dict(self) -> dict:
        percentages = self.quad_percentages
        return {
            "num_categories": self.num_categories,
            "num_sentences": self.num_sentences,
            "total_quads": self.total_quads,
            "quads_per_sentence": round(self.quads_per_sentence, 2),
            "quads": {
                t.value: {"count": self.quad_counts[t], "percent": round(percentages[t], 2)}
                for t in QuadType
            },
        }

    def to_text(self) -> str:
        lines = [
            f"{'categories':<16} {self.num_categories}",
            f"{'sentences':<16} {self.num_sentences}",
        ]
        percentages = self.quad_percentages
        for t in QuadType:
            lines.append(f"{t.value + ' quads':<16} {self.quad_counts[t]} ({percentages[t]:.2f}%)")
        lines.append(f"{'quads/sentence':<16} {self.quads_per_sentence:.2f}")
        return "\n".join(lines)


def dataset_stats(xs: Sequence[Example]) -> DatasetStats:
    """Per-type quad counts/percentages, sentence count and quads per sentence."""
    counts = {t: 0 for t in QuadType}
    categories: set[str] = set()
    for x in xs:
        for q in x.quads:
            counts[quad_type(q)] += 1
            categories.add(q.category)
    return DatasetStats(num_categories=len(categories), num_sentences=len(xs), quad_counts=counts)
