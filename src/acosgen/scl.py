"""Supervised contrastive objective over characteristic representations.

In GEN-SCL, mean-pooled encoder states pass through one head per
characteristic (sentiment, aspect, opinion), and training adds each
characteristic's loss, weighted by its ``alpha``, to the seq2seq
cross-entropy. This module holds that loss and its oracles; ``demo.toy_demo``
owns its toy encoder and heads. A mini-batch of N representations is extended
with one dropout-altered view per element (labels preserved) so every row has
at least one same-label partner; the per-row loss is then

    L_i = -1/|P(i)| * sum_{p in P(i)} log( exp(sim(h_i,h_p)/tau)
                                           / sum_{b in B(i)} exp(sim(h_i,h_b)/tau) )

with B(i) all other rows, P(i) its same-label subset, and sim = cosine
similarity. The batch loss is the mean of L_i over the extended batch.

Everything here is float64 and numerically stabilized (max-subtraction
inside the log-sum-exp). ``scl_loss`` returns the analytic gradient with
respect to every representation row; its cost is memory traffic over
rows x rows arrays, so it keeps a single float buffer of that size and takes
the positive logits and the positive-pair gradient from per-class sums.
``reference_scl_loss`` is a deliberately naive double-summation of the same
quantity, kept as an independent oracle, and ``grad_check`` verifies the
gradient against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import read_utf8, split_lines

__all__ = [
    "SclConfig",
    "ReprBatch",
    "extend_batch",
    "scl_loss",
    "reference_scl_loss",
    "grad_check",
    "parse_scl_config",
    "load_scl_config",
]


@dataclass(frozen=True)
class SclConfig:
    """Hyperparameters of the contrastive objective.

    ``alpha`` weights the three characteristic losses (sentiment, aspect,
    opinion) against the seq2seq cross-entropy; a single float applies to all
    three. ``toy_demo``, which has no cross-entropy term, scales each
    characteristic's gradient step by its weight.
    """

    tau: float = 0.25
    alpha: tuple[float, float, float] = (0.05, 0.05, 0.05)
    dropout_p: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        alpha = self.alpha
        if isinstance(alpha, (int, float)):
            alpha = (float(alpha),) * 3
        else:
            alpha = tuple(float(a) for a in alpha)
            if len(alpha) != 3:
                raise ValueError(f"alpha must be a single weight or three, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p!r}")
        if any(not math.isfinite(a) for a in alpha):
            raise ValueError(f"alpha must be finite, got {alpha!r}")


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
    B(i). Then the diagonal becomes ``1/|P(i)|`` and the two gradient GEMMs
    read it. No rows x rows mask or division is made.

    The positive sums cost rows^2 * K flops, K being the number of classes.
    Every caller has K <= 4 (``characteristic_labels`` yields at most four
    sentiment and three span labels, ``verify.random_batch`` at most three),
    so that GEMM costs less than one rows x rows pass.

    The positive logits are sums of the very buffer entries the log-sum-exp
    reads; the diagonal adds 0.0. In a two-row batch of one label each sum is
    ``0 + s = s``, so it cancels the log-sum-exp bit for bit and the loss is
    0.0. With ``C_y`` the sum of the ``w`` rows of row ``i``'s label, the
    gradient with respect to ``w_i`` is

        g_i = ((S w)_i + (S^T w)_i - 2 (C_y - w_i) / |P(i)|) / rows

    and, the loss being invariant to each row's scale, the gradient with
    respect to ``h_i`` is its tangent projection
    ``(g_i - tau (w_i . g_i) w_i) / (sqrt(tau) |h_i|)``.
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
    if not norms.all():
        raise ValueError("zero-norm representation row: cosine similarity undefined")
    root_tau = math.sqrt(tau)
    w = batch.reps * (1.0 / (root_tau * norms))[:, None]

    labels = batch.labels
    codes = labels
    dense = labels.dtype.kind in "iu" and labels.min() >= 0 and labels.max() < rows
    if dense:
        class_sizes = np.bincount(codes)
        dense = class_sizes.all()
    if not dense:
        codes = np.unique(labels, return_inverse=True)[1]
        class_sizes = np.bincount(codes)
    pos_counts = class_sizes[codes] - 1
    if not pos_counts.all():
        bad = int(np.argmin(pos_counts))
        raise ValueError(f"row {bad} has no same-label partner in the batch")
    onehot = (codes == np.arange(class_sizes.size)[:, None]).astype(np.float64)

    buf = w @ w.T
    buf.flat[:: rows + 1] = 0.0
    pos_logits = (buf @ onehot.T)[np.arange(rows), codes]
    # Stabilized log-sum-exp over each row's B(i) = all other rows.
    buf.flat[:: rows + 1] = -np.inf
    row_max = buf.max(axis=1)
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    denom = buf.sum(axis=1)
    lse = row_max + np.log(denom)
    loss = float((lse - pos_logits / pos_counts).mean())

    buf *= (1.0 / denom)[:, None]
    # The softmax diagonal is 0; 1/|P(i)| there adds the +2 w_i / |P(i)| of
    # the positive term through the two products below.
    buf.flat[:: rows + 1] = 1.0 / pos_counts
    # No class has one member here (rejected above), so no division by zero.
    class_terms = (onehot @ w) * (2.0 / (class_sizes - 1))[:, None]
    g = buf @ w
    g += buf.T @ w
    g -= class_terms[codes]
    g -= (tau * (w * g).sum(axis=1))[:, None] * w
    g *= (1.0 / (rows * root_tau * norms))[:, None]
    return loss, g


def reference_scl_loss(batch: ReprBatch, tau: float) -> float:
    """Direct double-summation of the per-row loss (independent oracle).

    Plain Python loops, unstabilized exponentials: intentionally shares no
    code path with :func:`scl_loss`.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    reps = [np.asarray(row, dtype=np.float64) for row in batch.reps]
    labels = list(batch.labels)
    rows = len(reps)

    def cos(a: np.ndarray, b: np.ndarray) -> float:
        na = math.sqrt(float(np.dot(a, a)))
        nb = math.sqrt(float(np.dot(b, b)))
        if na == 0.0 or nb == 0.0:
            raise ValueError("zero-norm representation row")
        return float(np.dot(a, b)) / (na * nb)

    losses = []
    for i in range(rows):
        others = [b for b in range(rows) if b != i]
        positives = [p for p in others if labels[p] == labels[i]]
        if not positives:
            raise ValueError(f"row {i} has no same-label partner in the batch")
        denominator = sum(math.exp(cos(reps[i], reps[b]) / tau) for b in others)
        total = 0.0
        for p in positives:
            total += math.log(math.exp(cos(reps[i], reps[p]) / tau) / denominator)
        losses.append(-total / len(positives))
    return sum(losses) / rows


def grad_check(
    batch: ReprBatch,
    tau: float,
    h_step: float = 1e-5,
    *,
    floor: float = 1e-8,
    loss_fn: Callable[[ReprBatch, float], tuple[float, np.ndarray]] = scl_loss,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Checks every coordinate, or a fixed random tenth of them (seed 0) when the
    batch has more than 10,000. Relative error uses the denominator
    max(|analytic|, |numeric|, ``floor``). ``loss_fn`` is the kernel under
    test, :func:`scl_loss` by default.
    """
    if h_step <= 0:
        raise ValueError("h_step must be positive")
    _, grad = loss_fn(batch, tau)
    rows, dim = batch.reps.shape
    total = rows * dim
    if total > 10_000:
        rng = np.random.default_rng(0)
        count = max(1, int(round(total * 0.1)))
        flat = rng.choice(total, size=count, replace=False)
        coords = [(int(k) // dim, int(k) % dim) for k in flat]
    else:
        coords = [(i, j) for i in range(rows) for j in range(dim)]

    # Validated once, then bumped in place and restored, so the probes skip
    # ReprBatch's per-construction checks and results match fresh copies.
    probe = replace(batch, reps=batch.reps.copy())
    max_err = 0.0
    for i, j in coords:
        original = probe.reps[i, j]
        probe.reps[i, j] += h_step
        plus, _ = loss_fn(probe, tau)
        probe.reps[i, j] -= 2 * h_step
        minus, _ = loss_fn(probe, tau)
        probe.reps[i, j] = original
        numeric = (plus - minus) / (2 * h_step)
        analytic = grad[i, j]
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), floor)
        max_err = max(max_err, err)
    return max_err


# Each config key and the type its value converts to.
_CONFIG_KEYS = dict(
    tau=float, alpha=float, alpha1=float, alpha2=float, alpha3=float, dropout=float, seed=int
)


def parse_scl_config(text: str, *, source: str = "<string>") -> SclConfig:
    """Parse an SclConfig from ``key=value`` lines.

    Recognized keys: tau, alpha (sets all three weights), alpha1/2/3,
    dropout, seed. Blank lines and ``#`` comments are ignored;
    values not present keep the SclConfig defaults. Errors start with
    ``<source>:<line>:``, or ``<source>:`` for a value out of range.
    """
    values: dict[str, float | int] = {}
    for line_no, raw_line in enumerate(split_lines(text), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{line_no}: expected key=value, got {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{source}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{source}:{line_no}: {key}: {exc}") from None

    alpha = [values.get("alpha", a) for a in SclConfig.alpha]
    for idx, key in enumerate(("alpha1", "alpha2", "alpha3")):
        if key in values:
            alpha[idx] = values[key]
    try:
        return SclConfig(
            tau=values.get("tau", SclConfig.tau),
            alpha=tuple(alpha),
            dropout_p=values.get("dropout", SclConfig.dropout_p),
            rng_seed=values.get("seed", SclConfig.rng_seed),
        )
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_scl_config(path: str | Path) -> SclConfig:
    """Read an SclConfig from a plain ``key=value`` file."""
    path = Path(path)
    return parse_scl_config(read_utf8(path), source=str(path))
