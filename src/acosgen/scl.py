"""Supervised contrastive objective over characteristic representations.

In GEN-SCL, mean-pooled encoder states pass through one head per
characteristic (sentiment, aspect, opinion), and training adds each
characteristic's loss, weighted by ``SclConfig.alpha``, to the seq2seq
cross-entropy. This module holds that loss and its oracles. ``SclConfig``
lives in the numpy-free ``configs`` and is re-exported here; ``demo.toy_demo``
owns its toy encoder and heads. A mini-batch of N representations is extended
with one dropout-altered view per element (labels preserved) so every row has
at least one same-label partner; the per-row loss is then

    L_i = -1/|P(i)| * sum_{p in P(i)} log( exp(sim(h_i,h_p)/tau)
                                           / sum_{b in B(i)} exp(sim(h_i,h_b)/tau) )

with B(i) all other rows, P(i) its same-label subset, and sim = cosine
similarity. The batch loss is the mean of L_i over the extended batch.

Everything here is float64. ``scl_loss`` is numerically stabilized
(max-subtraction inside the log-sum-exp) and returns the analytic gradient
with respect to every representation row; its cost is memory traffic over
rows x rows arrays, so it keeps a single float buffer of that size and takes
the positive logits and the positive-pair gradient from per-class sums.
``reference_scl_loss`` is a deliberately naive, unstabilized double
summation of the same quantity, kept as an independent oracle. It takes each
row's norm and each unordered pair's exp(sim/tau) once, so a batch costs
rows + rows(rows-1)/2 dot products and rows(rows-1)/2 exponentials, and it
accepts only temperatures at which those terms stay inside float64 (in
practice tau above about 0.0027). ``grad_check`` verifies the gradient
against central finite differences; it alone owns their step, tolerance and
roundoff floor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .configs import SclConfig

__all__ = [
    "SclConfig",
    "ReprBatch",
    "extend_batch",
    "scl_loss",
    "reference_scl_loss",
    "grad_check",
]


@dataclass(frozen=True)
class ReprBatch:
    """Extended batch: representation rows and their labels; rows sharing a label are positives."""

    reps: np.ndarray  # (rows, dim)
    labels: np.ndarray  # (rows,)

    def __post_init__(self) -> None:
        reps = np.asarray(self.reps, dtype=np.float64)
        labels = np.asarray(self.labels)
        if reps.ndim != 2 or reps.shape[0] < 2:
            raise ValueError(f"reps must be a (rows >= 2, dim) matrix, got shape {reps.shape}")
        if labels.shape != (reps.shape[0],):
            raise ValueError("labels must have one entry per representation row")
        if not np.isfinite(reps).all():
            raise ValueError("representations must be finite")
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "labels", labels)

    @property
    def num_rows(self) -> int:
        return self.reps.shape[0]


def _extend_with_mask(
    reps: np.ndarray, labels: Sequence, dropout_p: float, seed: int
) -> tuple[ReprBatch, np.ndarray]:
    """extend_batch plus the keep-mask it drew (needed for backprop)."""
    reps = np.asarray(reps, dtype=np.float64)
    keep = np.random.default_rng(seed).random(reps.shape) >= dropout_p
    views = reps * keep / (1.0 - dropout_p)
    return ReprBatch(np.concatenate([reps, views]), np.concatenate([labels, labels])), keep


def extend_batch(reps: np.ndarray, labels: Sequence, cfg: SclConfig) -> ReprBatch:
    """Extend N representations with one inverted-dropout view per element.

    Kept coordinates are rescaled by 1/(1-p) so views are unbiased; the view
    of row i lands at row N+i with the label copied. Deterministic for a
    fixed ``cfg.rng_seed``.
    """
    batch, _ = _extend_with_mask(reps, labels, cfg.dropout_p, cfg.rng_seed)
    return batch


def scl_loss(batch: ReprBatch, tau: float) -> tuple[float, np.ndarray]:
    """Batch-mean contrastive loss and its analytic gradient.

    Returns ``(loss, grad)`` with ``grad`` of shape ``batch.reps.shape``:
    the derivative of the mean per-row loss with respect to every
    representation row (cosine similarity, temperature ``tau``).

    Rows are scaled to ``w_i = h_i / (sqrt(tau) |h_i|)``, so the Gram matrix
    ``w w^T`` is the logit matrix ``sim / tau``. One rows x rows buffer then
    takes, in place: the Gram GEMM, a zeroed diagonal, the K-column GEMM
    with the one-hot class matrix that sums each row's positive logits, a
    ``-inf`` diagonal, one row max, one subtract, one exp, one row sum and
    one scale by the reciprocal sums, which leaves the softmax ``S`` over
    B(i), and the two gradient GEMMs read it. No rows x rows mask or
    division is made.

    The positive sums cost rows^2 * K flops, K being the number of classes.
    Every caller has K <= 4 (``characteristic_labels`` yields at most four
    sentiment and three span labels, ``verify.random_batch`` at most three),
    so that GEMM costs less than one rows x rows pass.

    The positive logits are sums of the very buffer entries the log-sum-exp
    reads; the diagonal adds 0.0. In a two-row batch of one label each sum is
    ``0 + s = s``, so it cancels the log-sum-exp bit for bit and the loss is
    0.0. With ``C_y`` the sum of the ``w`` rows of row ``i``'s label and

        g_i = ((S w)_i + (S^T w)_i - 2 C_y / |P(i)|) / rows,

    the loss being invariant to each row's scale, the gradient with respect
    to ``h_i`` is the tangent projection
    ``(g_i - tau (w_i . g_i) w_i) / (sqrt(tau) |h_i|)``. (The gradient with
    respect to ``w_i`` has ``C_y - w_i``; the projection removes the ``w_i``.)
    Integer labels 0..K-1, each present, serve as class codes as they are;
    other labels, sparse integer codes included, are ranked with
    ``np.unique`` on every call. So K is always the number of distinct labels,
    and every encoding of one partition gives GEMMs of the same shapes.
    Both paths stay: at <= 32 rows ``np.unique`` takes 15-19 us against
    3-5 us for the code check, a tenth of the kernel's 100-140 us (2-core
    x86, OpenBLAS).
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    rows = batch.num_rows
    norms = np.sqrt((batch.reps * batch.reps).sum(axis=1))
    if np.count_nonzero(norms) < rows:
        raise ValueError("zero-norm representation row: cosine similarity undefined")
    root_tau = math.sqrt(tau)
    w = batch.reps * (1.0 / (root_tau * norms))[:, None]

    labels = batch.labels
    codes = labels
    dense = labels.dtype.kind in "iu" and labels.min() >= 0 and labels.max() < rows
    if dense:
        class_sizes = np.bincount(codes)
        dense = np.count_nonzero(class_sizes) == class_sizes.size
    if not dense:
        codes = np.unique(labels, return_inverse=True)[1]
        class_sizes = np.bincount(codes)
    pos_counts = class_sizes[codes] - 1
    if np.count_nonzero(pos_counts) < rows:
        bad = int(np.argmin(pos_counts))
        raise ValueError(f"row {bad} has no same-label partner in the batch")
    onehot = (codes == np.arange(class_sizes.size)[:, None]).astype(np.float64)

    buf = w @ w.T
    diagonal = buf.reshape(-1)[:: rows + 1]  # a view: buf is C-contiguous
    diagonal[...] = 0.0
    pos_logits = (buf @ onehot.T)[np.arange(rows), codes]
    # Stabilized log-sum-exp over each row's B(i) = all other rows.
    diagonal[...] = -np.inf
    row_max = buf.max(axis=1)
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    denom = buf.sum(axis=1)
    lse = row_max + np.log(denom)
    loss = float((lse - pos_logits / pos_counts).sum()) / rows  # .mean()'s bits, cheaper

    buf *= (1.0 / denom)[:, None]
    # No class has one member here (rejected above), so no division by zero.
    class_terms = (onehot @ w) * (2.0 / (class_sizes - 1))[:, None]
    g = buf @ w
    g += buf.T @ w
    g -= class_terms[codes]
    g -= (tau * (w * g).sum(axis=1))[:, None] * w
    g *= (1.0 / (rows * root_tau * norms))[:, None]
    return loss, g


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
