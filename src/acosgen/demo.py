"""Toy contrastive-training demo on a frozen hash-embedding encoder.

At desk scale there is no encoder-decoder to fine-tune, so this demo freezes
a deterministic token-hash embedding "encoder" and trains only the three
characteristic projection heads by full-batch gradient descent on the
weighted contrastive losses (no cross-entropy term). The observable is
representation separation: mean same-label cosine similarity minus mean
different-label cosine similarity, before and after training, per
characteristic. Final per-example representations can be exported as TSV for
external 2-D projection tools.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Example, characteristic_labels
from .scl import SclConfig, _extend_with_mask, scl_loss

__all__ = [
    "TokenHashEncoder",
    "SeparationStats",
    "DemoResult",
    "head_gradient",
    "train_head",
    "toy_demo",
    "export_representations",
]

CHARACTERISTICS = ("sentiment", "aspect", "opinion")
ENCODER_DIM = 32
HEAD_DIM = 32
LEARNING_RATE = 40.0


def _derived_seed(*parts) -> int:
    digest = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class TokenHashEncoder:
    """Frozen encoder: each token maps to a fixed pseudo-random vector of ``ENCODER_DIM``.

    Vectors derive from a cryptographic hash of (seed, token), so encodings
    are identical across processes and platforms. ``toy_demo`` passes
    ``SclConfig.rng_seed`` as the seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def embed_token(self, token: str) -> np.ndarray:
        vec = self._cache.get(token)
        if vec is None:
            rng = np.random.default_rng(_derived_seed(self.seed, "token", token))
            vec = rng.standard_normal(ENCODER_DIM)
            self._cache[token] = vec
        return vec

    def encode(self, x: Example) -> np.ndarray:
        if not x.tokens:
            raise ValueError(f"example {x.id!r} has no tokens")
        return np.stack([self.embed_token(t) for t in x.tokens])


@dataclass(frozen=True)
class SeparationStats:
    """Mean intra-/inter-label cosine similarity before and after training."""

    intra_before: float
    inter_before: float
    intra_after: float
    inter_after: float

    @property
    def gap_before(self) -> float:
        return self.intra_before - self.inter_before

    @property
    def gap_after(self) -> float:
        return self.intra_after - self.inter_after


@dataclass
class DemoResult:
    stats: dict[str, SeparationStats]
    skipped: dict[str, str]
    representations: dict[str, np.ndarray]
    labels: dict[str, list[str]]
    example_ids: list[str]
    steps: int
    # Per characteristic, the contrastive loss at each training step.
    loss_curve: dict[str, list[float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"steps": self.steps, "characteristics": {}, "skipped": dict(self.skipped)}
        for name, s in self.stats.items():
            curve = self.loss_curve.get(name, [])
            row = {
                "intra_before": s.intra_before,
                "inter_before": s.inter_before,
                "gap_before": s.gap_before,
                "intra_after": s.intra_after,
                "inter_after": s.inter_after,
                "gap_after": s.gap_after,
                "loss_first": curve[0] if curve else None,
                "loss_last": curve[-1] if curve else None,
            }
            # A mean over no pairs is NaN, which JSON cannot hold: write null.
            out["characteristics"][name] = {k: None if v != v else v for k, v in row.items()}
        return out

    def to_text(self) -> str:
        lines = [
            f"{'characteristic':<15} {'intra0':>8} {'inter0':>8} {'gap0':>8} "
            f"{'intra1':>8} {'inter1':>8} {'gap1':>8}"
        ]
        for name, s in self.stats.items():
            lines.append(
                f"{name:<15} {s.intra_before:>8.4f} {s.inter_before:>8.4f} {s.gap_before:>8.4f} "
                f"{s.intra_after:>8.4f} {s.inter_after:>8.4f} {s.gap_after:>8.4f}"
            )
        for name, reason in self.skipped.items():
            lines.append(f"{name:<15} skipped: {reason}")
        return "\n".join(lines)


def _separation(reps: np.ndarray, labels: list[str]) -> tuple[float, float]:
    norms = np.linalg.norm(reps, axis=1)
    unit = reps / norms[:, None]
    sims = unit @ unit.T
    labels_arr = np.asarray(labels)
    same = (labels_arr[:, None] == labels_arr[None, :]) & ~np.eye(len(labels), dtype=bool)
    diff = (labels_arr[:, None] != labels_arr[None, :])
    intra = float(sims[same].mean()) if same.any() else float("nan")
    inter = float(sims[diff].mean()) if diff.any() else float("nan")
    return intra, inter


def head_gradient(
    pooled: np.ndarray, reps: np.ndarray, codes: np.ndarray, alpha: float, cfg: SclConfig, step_seed: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """One training step's loss and its alpha-weighted gradient in the head's (weight, bias).

    ``reps`` is ``pooled @ weight.T + bias``. The loss is ``scl_loss`` on
    ``reps`` extended by the dropout views that ``step_seed`` draws.
    """
    batch, keep = _extend_with_mask(reps, codes, cfg.dropout_p, step_seed)
    loss, grad = scl_loss(batch, cfg.tau)
    n = reps.shape[0]
    # Views are keep-masked rescaled copies, so their gradient flows
    # back through the mask onto the source representations.
    g_reps = grad[:n] + grad[n:] * keep / (1.0 - cfg.dropout_p)
    g_reps *= alpha
    return loss, g_reps.T @ pooled, g_reps.sum(axis=0)


def train_head(
    pooled: np.ndarray, characteristic: str, labels: list[str], cfg: SclConfig, steps: int
) -> tuple[SeparationStats, np.ndarray, list[float]]:
    """Train one characteristic's linear head on the pooled encodings.

    Returns the head's separation before and after, its final representations
    and its loss at each step. Reads no state but its arguments, so the heads
    can train at the same time.
    """
    alpha = cfg.alpha[CHARACTERISTICS.index(characteristic)]
    head_rng = np.random.default_rng(_derived_seed(cfg.rng_seed, characteristic, "init"))
    weight = head_rng.standard_normal((HEAD_DIM, ENCODER_DIM)) / math.sqrt(ENCODER_DIM)
    bias = np.zeros(HEAD_DIM)

    reps = pooled @ weight.T + bias
    intra_before, inter_before = _separation(reps, labels)

    # Integer codes spare scl_loss ranking the string labels at every step.
    codes = np.unique(labels, return_inverse=True)[1]
    losses = []
    for step in range(steps):
        step_seed = _derived_seed(cfg.rng_seed, characteristic, "step", step)
        loss, g_weight, g_bias = head_gradient(pooled, reps, codes, alpha, cfg, step_seed)
        losses.append(loss)
        weight -= LEARNING_RATE * g_weight
        bias -= LEARNING_RATE * g_bias
        reps = pooled @ weight.T + bias

    intra_after, inter_after = _separation(reps, labels)
    return SeparationStats(intra_before, inter_before, intra_after, inter_after), reps, losses


def _train_heads(
    pooled: np.ndarray, heads: dict[str, list[str]], cfg: SclConfig, steps: int
) -> dict[str, tuple[SeparationStats, np.ndarray, list[float]]]:
    """``train_head`` for each (characteristic, labels) item, in order.

    The heads share no state, and numpy releases the interpreter lock in its
    array work, so the first head trains on a worker thread while this thread
    trains the rest. Their arithmetic, hence every result bit, is unchanged.
    """
    jobs = list(heads.items())
    if len(jobs) < 2:
        return {c: train_head(pooled, c, labels, cfg, steps) for c, labels in jobs}
    first: dict[str, object] = {}

    def work():
        try:
            first["run"] = train_head(pooled, *jobs[0], cfg, steps)
        except BaseException as exc:  # re-raised on the calling thread
            first["error"] = exc

    worker = threading.Thread(target=work, name=f"acosgen-head-{jobs[0][0]}")
    worker.start()
    try:
        rest = {c: train_head(pooled, c, labels, cfg, steps) for c, labels in jobs[1:]}
    finally:
        worker.join()
    if "error" in first:
        raise first["error"]
    return {jobs[0][0]: first["run"], **rest}


def toy_demo(corpus: list[Example], cfg: SclConfig, steps: int) -> DemoResult:
    """Train the three characteristic heads on a frozen encoder and report
    representation separation before/after. Deterministic given cfg.rng_seed.

    Two heads train at a time, on two threads, bit for bit as if one after another."""
    if not corpus:
        raise ValueError("corpus is empty")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    all_labels = [characteristic_labels(x) for x in corpus]

    encoder = TokenHashEncoder(cfg.rng_seed)
    pooled = np.stack([encoder.encode(x).mean(axis=0) for x in corpus])

    skipped: dict[str, str] = {}
    heads: dict[str, list[str]] = {}
    for characteristic in CHARACTERISTICS:
        labels = [getattr(cl, characteristic) for cl in all_labels]
        if len(set(labels)) < 2:
            skipped[characteristic] = f"only one {characteristic} label present ({labels[0]!r})"
        else:
            heads[characteristic] = labels
    runs = _train_heads(pooled, heads, cfg, steps)

    return DemoResult(
        stats={c: stats for c, (stats, _, _) in runs.items()},
        skipped=skipped,
        representations={c: reps for c, (_, reps, _) in runs.items()},
        labels=heads,
        example_ids=[x.id for x in corpus],
        steps=steps,
        loss_curve={c: losses for c, (_, _, losses) in runs.items()},
    )


def export_representations(result: DemoResult, path: str | Path) -> None:
    """Write final representations as TSV: id, characteristic, label, coords."""
    lines = []
    for characteristic, reps in result.representations.items():
        labels = result.labels[characteristic]
        for example_id, label, row in zip(result.example_ids, labels, reps):
            coords = "\t".join(f"{v:.8g}" for v in row)
            lines.append(f"{example_id}\t{characteristic}\t{label}\t{coords}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
