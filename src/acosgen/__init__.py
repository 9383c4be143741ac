"""Toolkit for ACOS quadruple extraction as structured generation.

Provides the domain types and dataset IO, bidirectional target formats
(linearization and robust inverse parsing), an exact-match evaluator with
implicit/explicit splits, and a numerically verified supervised contrastive
objective with a toy training demo.
"""

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
from .scl import (
    ProjectionHead,
    ReprBatch,
    SclConfig,
    extend_batch,
    grad_check,
    load_scl_config,
    pool,
    project,
    reference_scl_loss,
    scl_loss,
    total_loss,
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
    "ProjectionHead",
    "ReprBatch",
    "SclConfig",
    "extend_batch",
    "grad_check",
    "load_scl_config",
    "pool",
    "project",
    "reference_scl_loss",
    "scl_loss",
    "total_loss",
]

__version__ = "0.1.0"
