"""Shipped per-dataset category maps.

Category descriptions follow a mechanical rule reviewed by hand: lowercase
the raw label, turn ``#`` and ``_`` into spaces, prefix "the"; the attribute
GENERAL becomes an "overall" suffix in the laptop domain and is dropped in
the restaurant domain; OS reads "operating system", HARD_DISC "hard drive",
DESIGN_FEATURES "features". The laptop maps cover every entity#attribute
combination of the domain taxonomy (a superset of what any one data release
uses), which is harmless: unused entries never collide, and stats count
categories from data, not from the map.
"""

from __future__ import annotations

from pathlib import Path

from ..linearize import CategoryMap

__all__ = ["DATASETS", "default_category_map", "resolve_category_map"]

_FILES = {
    "rest": "categories_rest.tsv",
    "laptop": "categories_laptop.tsv",
    "laptop-l1": "categories_laptop_l1.tsv",
}
DATASETS = tuple(_FILES)


def _canonical(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key not in _FILES:
        raise KeyError(f"unknown dataset {name!r}; expected one of {DATASETS}")
    return key


def default_category_map(dataset: str) -> CategoryMap:
    return CategoryMap.from_tsv(Path(__file__).with_name(_FILES[_canonical(dataset)]))


def resolve_category_map(spec: str) -> CategoryMap:
    """Resolve a CLI/category-map argument: shipped dataset name or TSV path."""
    try:
        return default_category_map(spec)
    except KeyError:
        pass
    return CategoryMap.from_tsv(spec)
