"""Toolkit for ACOS quadruple extraction as structured generation.

Provides the domain types and dataset IO, bidirectional target formats
(linearization and robust inverse parsing), an exact-match evaluator with
implicit/explicit splits, and a numerically verified supervised contrastive
objective with a toy training demo.

Only the contrastive half (``scl``, ``demo``, ``verify``, ``synth``) needs
numpy. Nothing of it is exported here; each of those submodules is imported
on first use as ``acosgen.<name>``, so the text pipeline (load, linearize,
parse, score), ``SclConfig`` and ``from acosgen import *`` load without numpy.
"""

from importlib import import_module

from .configs import SclConfig
from .core import (
    IMPLICIT,
    CharacteristicLabels,
    DatasetError,
    Example,
    QuadType,
    Quadruple,
    SentimentPolarity,
    Span,
    characteristic_labels,
    load_dataset,
    quad_type,
    serialize_dataset,
)
from .evaluate import DatasetStats, EvalReport, dataset_stats, score
from .linearize import (
    CategoryMap,
    CategoryMapError,
    FormatStyle,
    linearize_example,
    linearize_quad,
    order_quads,
)
from .parse import ParseOutcome, PredictedQuad, parse_output, read_predictions

# Served by __getattr__ below.
_NUMPY_SUBMODULES = frozenset({"scl", "demo", "verify", "synth"})

__all__ = [
    "IMPLICIT",
    "CharacteristicLabels",
    "DatasetError",
    "Example",
    "QuadType",
    "Quadruple",
    "SentimentPolarity",
    "Span",
    "characteristic_labels",
    "load_dataset",
    "quad_type",
    "serialize_dataset",
    "DatasetStats",
    "EvalReport",
    "dataset_stats",
    "score",
    "CategoryMap",
    "CategoryMapError",
    "FormatStyle",
    "linearize_example",
    "linearize_quad",
    "order_quads",
    "ParseOutcome",
    "PredictedQuad",
    "parse_output",
    "read_predictions",
    "SclConfig",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule of the contrastive half on first use (PEP 562)."""
    if name in _NUMPY_SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
