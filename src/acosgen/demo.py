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
import queue
import threading
from collections.abc import Generator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Example, characteristic_labels
from .configs import SclConfig
from .scl import _extend_with_mask, scl_loss

__all__ = [
    "encode_corpus",
    "HeadRun",
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
# At most this many steps of one head per turn on a training thread: few enough that
# both threads finish close together, enough that queue hand-offs cost little.
STEPS_PER_TURN = 10


def _derived_seed(*parts) -> int:
    digest = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def encode_corpus(corpus: list[Example], seed: int) -> np.ndarray:
    """The frozen encoder: one row per example, the mean of its tokens' vectors.

    Each token maps to a fixed pseudo-random vector of ``ENCODER_DIM``, derived
    from a cryptographic hash of (seed, token), so encodings are identical
    across processes and platforms. ``toy_demo`` passes ``SclConfig.rng_seed``
    as the seed.
    """
    vectors: dict[str, np.ndarray] = {}
    rows = []
    for x in corpus:
        tokens = x.tokens
        if not tokens:
            raise ValueError(f"example {x.id!r} has no tokens")
        for token in tokens:
            if token not in vectors:
                rng = np.random.default_rng(_derived_seed(seed, "token", token))
                vectors[token] = rng.standard_normal(ENCODER_DIM)
        rows.append(np.stack([vectors[t] for t in tokens]).mean(axis=0))
    return np.stack(rows)


# eq=False: ``reps`` is an array, so field-wise == would be ambiguous.
@dataclass(frozen=True, eq=False)
class HeadRun:
    """One trained head: its labels, the mean intra-/inter-label cosine
    similarity before and after training, its final representations and its
    loss at each step."""

    labels: list[str]
    intra_before: float
    inter_before: float
    intra_after: float
    inter_after: float
    reps: np.ndarray
    losses: list[float]

    @property
    def gap_before(self) -> float:
        return self.intra_before - self.inter_before

    @property
    def gap_after(self) -> float:
        return self.intra_after - self.inter_after


@dataclass
class DemoResult:
    heads: dict[str, HeadRun]
    skipped: dict[str, str]
    example_ids: list[str]
    steps: int

    def to_dict(self) -> dict:
        out = {"steps": self.steps, "characteristics": {}, "skipped": dict(self.skipped)}
        for name, h in self.heads.items():
            row = {
                "intra_before": h.intra_before,
                "inter_before": h.inter_before,
                "gap_before": h.gap_before,
                "intra_after": h.intra_after,
                "inter_after": h.inter_after,
                "gap_after": h.gap_after,
                "loss_first": h.losses[0] if h.losses else None,
                "loss_last": h.losses[-1] if h.losses else None,
            }
            # A mean over no pairs is NaN, which JSON cannot hold: write null.
            out["characteristics"][name] = {k: None if v != v else v for k, v in row.items()}
        return out

    def to_text(self) -> str:
        lines = [
            f"{'characteristic':<15} {'intra0':>8} {'inter0':>8} {'gap0':>8} "
            f"{'intra1':>8} {'inter1':>8} {'gap1':>8}"
        ]
        for name, h in self.heads.items():
            lines.append(
                f"{name:<15} {h.intra_before:>8.4f} {h.inter_before:>8.4f} {h.gap_before:>8.4f} "
                f"{h.intra_after:>8.4f} {h.inter_after:>8.4f} {h.gap_after:>8.4f}"
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
    pooled: np.ndarray, reps: np.ndarray, codes: np.ndarray, cfg: SclConfig, step_seed: int
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
    g_reps *= cfg.alpha
    return loss, g_reps.T @ pooled, g_reps.sum(axis=0)


def _head_steps(
    pooled: np.ndarray, characteristic: str, labels: list[str], cfg: SclConfig, steps: int
) -> Generator[None, None, HeadRun]:
    """``train_head``'s loop: yields before each step and returns the ``HeadRun``.

    Between yields the caller may move the generator to another thread: it
    reads no state but its arguments, so every result bit is the same.
    """
    head_rng = np.random.default_rng(_derived_seed(cfg.rng_seed, characteristic, "init"))
    weight = head_rng.standard_normal((HEAD_DIM, ENCODER_DIM)) / math.sqrt(ENCODER_DIM)
    bias = np.zeros(HEAD_DIM)

    reps = pooled @ weight.T + bias
    intra_before, inter_before = _separation(reps, labels)

    # Integer codes spare scl_loss ranking the string labels at every step.
    codes = np.unique(labels, return_inverse=True)[1]
    losses = []
    for step in range(steps):
        yield
        step_seed = _derived_seed(cfg.rng_seed, characteristic, "step", step)
        loss, g_weight, g_bias = head_gradient(pooled, reps, codes, cfg, step_seed)
        losses.append(loss)
        weight -= LEARNING_RATE * g_weight
        bias -= LEARNING_RATE * g_bias
        reps = pooled @ weight.T + bias

    intra_after, inter_after = _separation(reps, labels)
    return HeadRun(labels, intra_before, inter_before, intra_after, inter_after, reps, losses)


def _resume(run: Generator[None, None, HeadRun], times: int) -> HeadRun | None:
    """Resume a head's training up to ``times`` times: its ``HeadRun`` once it ends, else None.

    The first resumption sets the head up and each later one runs one step, so
    ``steps + 1`` resumptions train a head of ``steps`` steps to its end.
    """
    try:
        for _ in range(times):
            next(run)
    except StopIteration as done:
        return done.value
    return None


def train_head(
    pooled: np.ndarray, characteristic: str, labels: list[str], cfg: SclConfig, steps: int
) -> HeadRun:
    """Train one characteristic's linear head on the pooled encodings, on this thread.

    Reads no state but its arguments, so the heads can train at the same time.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return _resume(_head_steps(pooled, characteristic, labels, cfg, steps), steps + 1)


def _train_heads(
    pooled: np.ndarray, heads: dict[str, list[str]], cfg: SclConfig, steps: int
) -> dict[str, HeadRun]:
    """``train_head`` for each (characteristic, labels) item, in order.

    The heads share no state, and numpy releases the interpreter lock in its
    array work, so a worker thread and this thread train them round-robin: each
    takes a head from one queue, runs ``STEPS_PER_TURN`` of its steps and puts
    it back until it is done. Each head's arithmetic, hence every result bit,
    is that of ``train_head``. An exception on either thread stops the other
    at its next turn and is re-raised here once both have stopped.
    """
    runs = {c: _head_steps(pooled, c, labels, cfg, steps) for c, labels in heads.items()}
    pending: queue.SimpleQueue[str] = queue.SimpleQueue()
    for characteristic in runs:
        pending.put(characteristic)
    done: dict[str, HeadRun] = {}
    failures: list[BaseException] = []

    def work():
        try:
            while not failures:
                try:
                    characteristic = pending.get_nowait()
                except queue.Empty:  # the other thread holds the last head, if any
                    return
                run = _resume(runs[characteristic], STEPS_PER_TURN)
                if run is None:
                    pending.put(characteristic)
                else:
                    done[characteristic] = run
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    worker = threading.Thread(target=work, name="acosgen-heads")
    worker.start()
    try:
        work()
    finally:
        worker.join()
    if failures:
        raise failures[0]
    return {c: done[c] for c in heads}


def toy_demo(corpus: list[Example], cfg: SclConfig, steps: int) -> DemoResult:
    """Train the three characteristic heads on a frozen encoder and report
    representation separation before/after. Deterministic given cfg.rng_seed.

    Two threads train the heads round-robin, bit for bit as if one after another."""
    if not corpus:
        raise ValueError("corpus is empty")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    all_labels = [characteristic_labels(x) for x in corpus]

    pooled = encode_corpus(corpus, cfg.rng_seed)

    skipped: dict[str, str] = {}
    trained: dict[str, list[str]] = {}
    for characteristic in CHARACTERISTICS:
        labels = [getattr(cl, characteristic) for cl in all_labels]
        if len(set(labels)) < 2:
            skipped[characteristic] = f"only one {characteristic} label present ({labels[0]!r})"
        else:
            trained[characteristic] = labels

    return DemoResult(
        heads=_train_heads(pooled, trained, cfg, steps),
        skipped=skipped,
        example_ids=[x.id for x in corpus],
        steps=steps,
    )


def export_representations(result: DemoResult, path: str | Path) -> None:
    """Write final representations as TSV: id, characteristic, label, coords."""
    lines = []
    for characteristic, head in result.heads.items():
        for example_id, label, row in zip(result.example_ids, head.labels, head.reps):
            coords = "\t".join(f"{v:.8g}" for v in row)
            lines.append(f"{example_id}\t{characteristic}\t{label}\t{coords}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
