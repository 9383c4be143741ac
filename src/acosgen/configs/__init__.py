"""Shipped settings: the per-dataset category maps and the SCL hyperparameters.

Category descriptions follow a mechanical rule reviewed by hand: lowercase
the raw label, turn ``#`` and ``_`` into spaces, prefix "the"; the attribute
GENERAL becomes an "overall" suffix in the laptop domain and is dropped in
the restaurant domain; OS reads "operating system", HARD_DISC "hard drive",
DESIGN_FEATURES "features". The laptop maps cover every entity#attribute
combination of the domain taxonomy (a superset of what any one data release
uses), which is harmless: unused entries never collide, and stats count
categories from data, not from the map.

``SclConfig`` holds the contrastive objective's settings. It lives here, not
in ``scl``, so that the CLI parser reads its defaults without importing numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from ..linearize import CategoryMap

__all__ = ["DATASETS", "SclConfig", "default_category_map", "resolve_category_map"]

_FILES = {
    "rest": "categories_rest.tsv",
    "laptop": "categories_laptop.tsv",
    "laptop-l1": "categories_laptop_l1.tsv",
}
DATASETS = tuple(_FILES)


def _shipped(name: str) -> Path | None:
    """The shipped map file a dataset name denotes, or ``None`` for any other name."""
    file = _FILES.get(name.strip().lower().replace("_", "-"))
    return Path(__file__).with_name(file) if file else None


def default_category_map(dataset: str) -> CategoryMap:
    path = _shipped(dataset)
    if path is None:
        raise KeyError(f"unknown dataset {dataset!r}; expected one of {DATASETS}")
    return CategoryMap.from_tsv(path)


def resolve_category_map(spec: str) -> CategoryMap:
    """Resolve a CLI/category-map argument: shipped dataset name or TSV path."""
    return CategoryMap.from_tsv(_shipped(spec) or spec)


@dataclass(frozen=True)
class SclConfig:
    """Hyperparameters of the contrastive objective.

    ``alpha`` weights each of the three characteristic losses (sentiment,
    aspect, opinion) against the seq2seq cross-entropy. ``toy_demo``, which
    has no cross-entropy term, scales each head's gradient step by it.
    """

    tau: float = 0.25
    alpha: float = 0.05
    dropout_p: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p!r}")
        # Zero switches SCL off; a negative weight would train the heads to shrink the very
        # gaps SCL exists to widen.
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
