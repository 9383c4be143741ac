"""Supervised contrastive objective over characteristic representations.

In GEN-SCL, mean-pooled encoder states pass through one head per
characteristic (sentiment, aspect, opinion), and training adds each
characteristic's loss, weighted by ``SclConfig.alpha``, to the seq2seq
cross-entropy. This module holds that loss. ``SclConfig`` lives in the
numpy-free ``configs``; ``demo.toy_demo`` owns its toy
encoder and heads. A mini-batch of N representations is extended with one
dropout-altered view per element (labels preserved) so every row has at least
one same-label partner; the per-row loss is then

    L_i = -1/|P(i)| * sum_{p in P(i)} log( exp(sim(h_i,h_p)/tau)
                                           / sum_{b in B(i)} exp(sim(h_i,h_b)/tau) )

with B(i) all other rows, P(i) its same-label subset, and sim = cosine
similarity. The batch loss is the mean of L_i over the extended batch.

Everything here is float64. ``scl_loss`` is numerically stabilized
(max-subtraction inside the log-sum-exp) and returns the analytic gradient
with respect to every representation row; its cost is memory traffic over
rows x rows arrays, so it keeps a single float buffer of that size and takes
the positive logits and the positive-pair gradient from per-class sums.
Its checks, the double-summation oracle and the finite-difference gradient
check, live in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .configs import SclConfig

__all__ = [
    "ReprBatch",
    "extend_batch",
    "scl_loss",
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
