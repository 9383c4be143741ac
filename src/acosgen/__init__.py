"""Toolkit for ACOS quadruple extraction as structured generation.

Provides the domain types and dataset IO, bidirectional target formats
(linearization and robust inverse parsing), an exact-match evaluator with
implicit/explicit splits, and a numerically verified supervised contrastive
objective with a toy training demo.

Only the contrastive half (``scl``, ``demo``, ``verify``, ``synth``) needs
numpy. It is imported on first use of one of its names here, so the text
pipeline (load, linearize, parse, score) and ``SclConfig`` load without it.
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
_SCL_EXPORTS = (
    "ReprBatch",
    "extend_batch",
    "grad_check",
    "reference_scl_loss",
    "scl_loss",
)

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
    *_SCL_EXPORTS,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the contrastive half on first use of one of its names (PEP 562)."""
    if name in _NUMPY_SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _SCL_EXPORTS:
        globals()[name] = value = getattr(import_module(".scl", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
