"""Shipped per-dataset defaults: category maps and contrastive hyperparameters.

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

from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from ..linearize import CategoryMap

if TYPE_CHECKING:
    from ..scl import SclConfig

__all__ = [
    "DATASETS",
    "default_category_map",
    "default_scl_config",
    "resolve_category_map",
    "resolve_scl_config",
]

_FILES = {
    "rest": ("categories_rest.tsv", "scl_rest.cfg"),
    "laptop": ("categories_laptop.tsv", "scl_laptop.cfg"),
    "laptop-l1": ("categories_laptop_l1.tsv", "scl_laptop_l1.cfg"),
}
DATASETS = tuple(_FILES)


def _canonical(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key not in _FILES:
        raise KeyError(f"unknown dataset {name!r}; expected one of {DATASETS}")
    return key


def _shipped(dataset: str, kind: int) -> Path:
    return resources.files(__package__) / _FILES[_canonical(dataset)][kind]


def default_category_map(dataset: str) -> CategoryMap:
    return CategoryMap.from_tsv(_shipped(dataset, 0))


def default_scl_config(dataset: str) -> SclConfig:
    from ..scl import load_scl_config  # imports numpy, which the category maps do not need

    return load_scl_config(_shipped(dataset, 1))


def _resolve(spec: str, shipped, from_file, what: str):
    try:
        return shipped(spec)
    except KeyError:
        pass
    path = Path(spec)
    if path.exists():
        return from_file(path)
    raise FileNotFoundError(f"{what} {spec!r}: not a shipped dataset name or existing file")


def resolve_category_map(spec: str) -> CategoryMap:
    """Resolve a CLI/category-map argument: shipped dataset name or TSV path."""
    return _resolve(spec, default_category_map, CategoryMap.from_tsv, "category map")


def resolve_scl_config(spec: str) -> SclConfig:
    """Resolve an SclConfig argument: shipped dataset name or key=value file."""
    from ..scl import load_scl_config

    return _resolve(spec, default_scl_config, load_scl_config, "scl config")
