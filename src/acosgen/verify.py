"""Randomized verification suites for the contrastive loss implementation.

Two independent routes guard the loss kernel: the vectorized implementation
is compared against the naive double-summation oracle on random batches, and
its analytic gradient against central finite differences through
``scl.grad_check``, which owns the step, the tolerance and the roundoff
floor. Both suites are deterministic for a given seed; the first offending
batch is serialized so a failure can be replayed. Run size, temperature and
seed have no defaults here: ``acosgen scl-check``'s flags are the one place
they are set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .scl import (
    GRADIENT_TOLERANCE,
    ReprBatch,
    SclConfig,
    extend_batch,
    grad_check,
    reference_scl_loss,
    scl_loss,
)

__all__ = ["VerificationResult", "random_batch", "oracle_suite", "gradient_suite", "save_failure"]

ORACLE_TOLERANCE = 1e-9


@dataclass
class VerificationResult:
    name: str
    cases: int
    failures: int
    max_error: float
    tolerance: float
    first_failure: dict | None = field(default=None)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return (
            f"{self.name}: {self.cases - self.failures}/{self.cases} within "
            f"{self.tolerance:g} (max err {self.max_error:.3g}) {status}"
        )


def random_batch(rng: np.random.Generator) -> ReprBatch:
    """Random extended batch: 1-8 sources of dim 2-16 plus their p = 0.1 dropout views.

    At these tiny dimensions dropout can zero out a whole view row, which is
    outside the cosine loss's domain; such draws are redrawn with a fresh
    dropout seed (deterministic given ``rng``).
    """
    n = int(rng.integers(1, 9))
    dim = int(rng.integers(2, 17))
    reps = rng.standard_normal((n, dim))
    labels = rng.integers(0, int(rng.integers(1, 4)), size=n)
    for _ in range(100):
        cfg = SclConfig(dropout_p=0.1, rng_seed=int(rng.integers(2**32)))
        batch = extend_batch(reps, labels, cfg)
        if (batch.reps * batch.reps).sum(axis=1).min() > 0.0:  # no zero-norm row
            return batch
    raise RuntimeError("could not draw a batch without zero-norm rows")


def _run_suite(
    name: str,
    tolerance: float,
    batches: int,
    seed: int,
    error_fn: Callable[[ReprBatch], float],
    tau: float,
) -> VerificationResult:
    """Score ``batches`` random batches with ``error_fn`` against ``tolerance``."""
    if batches < 0:
        raise ValueError(f"batches must be >= 0, got {batches}")
    SclConfig(tau=tau)  # rejects a tau that is not positive and finite, even for no batch
    rng = np.random.default_rng(seed)
    max_err = 0.0
    failures = 0
    first = None
    for _ in range(batches):
        batch = random_batch(rng)
        err = error_fn(batch)
        # A NaN error compares false both ways: it must still fail, and stay the max.
        if err > max_err or math.isnan(err):
            max_err = err
        if not err < tolerance:
            failures += 1
            if first is None:
                labels = [str(label) for label in batch.labels]
                first = {"tau": tau, "error": err, "reps": batch.reps.tolist(), "labels": labels}
    return VerificationResult(
        name=name,
        cases=batches,
        failures=failures,
        max_error=max_err,
        tolerance=tolerance,
        first_failure=first,
    )


def oracle_suite(
    batches: int,
    tau: float,
    seed: int,
    loss_fn: Callable[[ReprBatch, float], tuple[float, np.ndarray]] = scl_loss,
) -> VerificationResult:
    """Compare the vectorized loss against the double-summation oracle on ``batches``
    random batches of the stream ``seed`` at temperature ``tau``."""

    def error(batch: ReprBatch) -> float:
        vectorized, _ = loss_fn(batch, tau)
        reference = reference_scl_loss(batch, tau)
        # Scale-aware relative error: floored at 1 so near-zero losses at
        # sharp temperatures compare on an absolute scale instead of
        # amplifying cancellation noise.
        return abs(vectorized - reference) / max(abs(reference), abs(vectorized), 1.0)

    return _run_suite("loss oracle", ORACLE_TOLERANCE, batches, seed, error, tau)


def gradient_suite(
    batches: int,
    tau: float,
    seed: int,
    loss_fn: Callable[[ReprBatch, float], tuple[float, np.ndarray]] = scl_loss,
) -> VerificationResult:
    """Check analytic gradients against central finite differences on ``batches``
    random batches of the stream ``seed`` at temperature ``tau``.

    Each batch's error is :func:`acosgen.scl.grad_check`, judged against its
    ``GRADIENT_TOLERANCE``; step and roundoff floor are grad_check's own.
    """

    def error(batch: ReprBatch) -> float:
        return grad_check(batch, tau, loss_fn=loss_fn)

    return _run_suite("gradient check", GRADIENT_TOLERANCE, batches, seed, error, tau)


def save_failure(result: VerificationResult, path: str | Path) -> Path:
    """Serialize the first offending batch of a failed suite for replay."""
    if result.first_failure is None:
        raise ValueError("suite has no recorded failure")
    payload = {"suite": result.name, **result.first_failure}
    if not math.isfinite(payload["error"]):
        payload["error"] = None  # JSON has no NaN or infinity
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path
