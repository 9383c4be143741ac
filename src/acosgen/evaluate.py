"""Exact-match evaluation of predicted quadruple sets and dataset statistics.

A predicted quad matches a gold quad only when aspect term (or implicit),
raw category, opinion term (or implicit) and sentiment are all exactly
equal. Scores are micro-averaged over the corpus (corpus-level TP/FP/FN).
Per-type splits follow the example-level convention: the EAEO/IAEO/EAIO/IAIO
split contains every example with at least one gold quad of that type, with
all quads of member examples counted, so splits overlap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

from .core import Example, QuadType, _quad_type_index, quad_type

__all__ = ["SplitScore", "MatchCounts", "EvalReport", "DatasetStats", "score", "dataset_stats"]


@dataclass(frozen=True)
class SplitScore:
    precision: float
    recall: float
    f1: float
    num_examples: int


@dataclass(frozen=True)
class MatchCounts:
    num_predicted: int
    num_gold: int
    num_matched: int


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    per_split: dict[QuadType, SplitScore]
    counts: MatchCounts

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


def _prf(matched: int, num_pred: int, num_gold: int) -> tuple[float, float, float]:
    precision = matched / num_pred if num_pred > 0 else 0.0
    recall = matched / num_gold if num_gold > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _key(quad) -> tuple:
    if hasattr(quad, "match_key"):
        return quad.match_key()
    return tuple(quad)


def score(preds: Sequence[Iterable], golds: Sequence[Example]) -> EvalReport:
    """Micro-averaged exact-match P/R/F1 of predictions against gold examples.

    ``preds[i]`` is the predicted quad collection for ``golds[i]`` -- any
    iterable of objects exposing ``match_key()`` (parsed or gold quads) or of
    plain key tuples. Duplicate predictions collapse (set semantics).
    """
    if len(preds) != len(golds):
        raise ValueError(f"got {len(preds)} predictions for {len(golds)} gold examples")

    # Predicted, gold and matched quads and examples: overall, and per split in QuadType
    # order, where a gold quad's split is its QuadType index (see QuadType).
    totals = [0, 0, 0, 0]
    splits = [[0, 0, 0, 0] for _ in QuadType]
    for pred, gold in zip(preds, golds):
        pred_keys = {_key(q) for q in pred}
        gold_keys = {q.match_key() for q in gold.quads}
        counts = (len(pred_keys), len(gold_keys), len(pred_keys & gold_keys), 1)
        types = {_quad_type_index(q) for q in gold.quads}
        for row in (totals, *(splits[t] for t in types)):
            row[:] = map(add, row, counts)

    num_pred, num_gold, matched, _ = totals
    precision, recall, f1 = _prf(matched, num_pred, num_gold)
    per_split = {}
    for t, (sp, sg, sm, examples) in zip(QuadType, splits):
        p, r, f = _prf(sm, sp, sg)
        per_split[t] = SplitScore(precision=p, recall=r, f1=f, num_examples=examples)

    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        per_split=per_split,
        counts=MatchCounts(num_predicted=num_pred, num_gold=num_gold, num_matched=matched),
    )


@dataclass(frozen=True)
class DatasetStats:
    num_categories: int
    num_sentences: int
    quad_counts: dict[QuadType, int]
    quad_percentages: dict[QuadType, float]
    total_quads: int
    quads_per_sentence: float

    def to_dict(self) -> dict:
        return {
            "num_categories": self.num_categories,
            "num_sentences": self.num_sentences,
            "total_quads": self.total_quads,
            "quads_per_sentence": round(self.quads_per_sentence, 2),
            "quads": {
                t.value: {
                    "count": self.quad_counts[t],
                    "percent": round(self.quad_percentages[t], 2),
                }
                for t in QuadType
            },
        }

    def to_text(self) -> str:
        lines = [
            f"{'categories':<16} {self.num_categories}",
            f"{'sentences':<16} {self.num_sentences}",
        ]
        for t in QuadType:
            lines.append(
                f"{t.value + ' quads':<16} {self.quad_counts[t]} ({self.quad_percentages[t]:.2f}%)"
            )
        lines.append(f"{'quads/sentence':<16} {self.quads_per_sentence:.2f}")
        return "\n".join(lines)


def dataset_stats(
    xs: Sequence[Example], num_categories_expected: int | None = None
) -> DatasetStats:
    """Per-type quad counts/percentages, sentence count and quads per sentence."""
    counts = {t: 0 for t in QuadType}
    categories: set[str] = set()
    for x in xs:
        for q in x.quads:
            counts[quad_type(q)] += 1
            categories.add(q.category)
    total = sum(counts.values())
    if not xs:
        warnings.warn("dataset is empty; quads/sentence reported as 0", stacklevel=2)
    percentages = {t: (100.0 * counts[t] / total if total else 0.0) for t in QuadType}
    quads_per_sentence = total / len(xs) if xs else 0.0
    if num_categories_expected is not None and num_categories_expected != len(categories):
        warnings.warn(
            f"dataset has {len(categories)} categories, expected {num_categories_expected}",
            stacklevel=2,
        )
    return DatasetStats(
        num_categories=len(categories),
        num_sentences=len(xs),
        quad_counts=counts,
        quad_percentages=percentages,
        total_quads=total,
        quads_per_sentence=quads_per_sentence,
    )
