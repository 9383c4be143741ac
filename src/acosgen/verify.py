"""Verification of the contrastive loss kernel: its oracles and randomized suites.

Two independent routes guard ``scl.scl_loss``, and both live here. The
vectorized kernel is compared against ``reference_scl_loss``, a deliberately
naive, unstabilized double summation of the same quantity. It takes each
row's norm and each unordered pair's exp(sim/tau) once, so a batch costs
rows + rows(rows-1)/2 dot products and rows(rows-1)/2 exponentials, and it
accepts only temperatures at which those terms stay inside float64 (in
practice tau above about 0.0027). The kernel's analytic gradient is compared
against central finite differences through ``grad_check``, which alone owns
their step, tolerance and roundoff floor. Both suites are deterministic for a
given seed; the first offending batch is serialized so a failure can be
replayed. Run size, temperature and seed have no defaults here: ``acosgen
scl-check``'s flags are the one place they are set.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .configs import SclConfig
from .scl import ReprBatch, extend_batch, scl_loss

__all__ = [
    "VerificationResult", "random_batch", "oracle_suite", "gradient_suite", "save_failure",
    "reference_scl_loss", "grad_check",
]

ORACLE_TOLERANCE = 1e-9


def _check_oracle_tau(tau: float, rows: int) -> None:
    """Reject a temperature at which the oracle's terms leave float64.

    Each denominator is below rows * exp(1/tau) and each ratio under the log
    above exp(-2/tau) / rows; the bounds are the largest float and the
    smallest subnormal.
    """
    if not (tau > 0 and math.isfinite(tau)):
        reason = "not positive and finite"
    elif 1.0 / tau + math.log(rows) > math.log(sys.float_info.max):
        reason = "rows * exp(1/tau) overflows"
    elif 2.0 / tau + math.log(rows) > -math.log(sys.float_info.min * sys.float_info.epsilon):
        reason = "exp(-2/tau) / rows underflows to 0"
    else:
        return
    raise ValueError(f"tau {tau!r} at {rows} rows is outside the oracle's domain: {reason}")


def reference_scl_loss(batch: ReprBatch, tau: float) -> float:
    """Direct double-summation of the per-row loss (independent oracle).

    Plain Python loops, unstabilized exponentials: intentionally shares no
    code path with :func:`scl_loss`. Each row's norm is taken once, and each
    unordered pair's ``exp(cos/tau)`` once, so a batch costs rows +
    rows(rows-1)/2 dot products and rows(rows-1)/2 exponentials. The values
    are those of evaluating every term afresh: a dot product and a product
    of norms do not depend on their order.

    Every cosine lies in [-1, 1], so ``tau`` must be positive and finite,
    rows * exp(1/tau) must not overflow and exp(-2/tau) / rows must not
    underflow to 0, which in practice means tau above about 0.0027.
    Otherwise one ``ValueError`` names tau and the row count.
    """
    reps = list(batch.reps)
    labels = batch.labels.tolist()
    rows = len(reps)
    _check_oracle_tau(tau, rows)
    norms = [math.sqrt(float(np.dot(a, a))) for a in reps]
    # exps[i][b] = exp(cos(h_i, h_b) / tau). Row i fills its pairs with later
    # rows, so a zero-norm row is reported while row 0 fills: after row 0's
    # partner check, before any later row's.
    exps = [[0.0] * rows for _ in range(rows)]
    losses = []
    for i in range(rows):
        label, row, norm, row_exps = labels[i], reps[i], norms[i], exps[i]
        positives = [p for p in range(rows) if p != i and labels[p] == label]
        if not positives:
            raise ValueError(f"row {i} has no same-label partner in the batch")
        for b in range(i + 1, rows):
            if norm == 0.0 or norms[b] == 0.0:
                raise ValueError("zero-norm representation row")
            cos = float(np.dot(row, reps[b])) / (norm * norms[b])
            row_exps[b] = exps[b][i] = math.exp(cos / tau)
        # B(i) is every row but i; row i's own entry is 0.0, which adds nothing.
        denominator = sum(row_exps)
        total = 0.0
        for p in positives:
            total += math.log(row_exps[p] / denominator)
        losses.append(-total / len(positives))
    return sum(losses) / rows


GRADIENT_STEP = 1e-5  # central-difference step
GRADIENT_TOLERANCE = 1e-4  # largest relative error a correct gradient may show


def grad_check(
    batch: ReprBatch,
    tau: float,
    *,
    loss_fn: Callable[[ReprBatch, float], tuple[float, np.ndarray]] = scl_loss,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Every coordinate is stepped by ``GRADIENT_STEP`` both ways. The error's
    denominator is max(|analytic|, |numeric|, floor), the floor being where
    the differences' roundoff, about eps * max(1, |loss|, 1/tau) / h, would
    read as a tenth of ``GRADIENT_TOLERANCE`` (never below 1e-8): a smaller
    derivative cannot be told from zero at this step. A NaN error on any
    coordinate makes the result NaN. ``loss_fn`` is the kernel under test,
    :func:`scl_loss` by default.
    """
    loss, grad = loss_fn(batch, tau)
    roundoff = sys.float_info.epsilon * max(1.0, abs(loss), 1.0 / tau) / GRADIENT_STEP
    floor = max(1e-8, 10.0 * roundoff / GRADIENT_TOLERANCE)

    # Validated once, then bumped in place and restored, so the probes skip
    # ReprBatch's per-construction checks and results match fresh copies.
    probe = replace(batch, reps=batch.reps.copy())
    max_err = 0.0
    for i, j in np.ndindex(*probe.reps.shape):
        original = probe.reps[i, j]
        probe.reps[i, j] += GRADIENT_STEP
        plus, _ = loss_fn(probe, tau)
        probe.reps[i, j] -= 2 * GRADIENT_STEP
        minus, _ = loss_fn(probe, tau)
        probe.reps[i, j] = original
        numeric = (plus - minus) / (2 * GRADIENT_STEP)
        analytic = grad[i, j]
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), floor)
        if err > max_err or math.isnan(err):  # plain max() would drop a NaN
            max_err = err
    return max_err


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

    Each batch's error is :func:`grad_check`, judged against its
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
