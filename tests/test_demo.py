import math
import sys
import threading
import warnings

import numpy as np
import pytest

from acosgen import demo
from acosgen.core import characteristic_labels
from acosgen.demo import (
    CHARACTERISTICS,
    ENCODER_DIM,
    HEAD_DIM,
    DemoResult,
    encode_corpus,
    export_representations,
    head_gradient,
    toy_demo,
    train_head,
)
from acosgen.configs import SclConfig
from acosgen.scl import ReprBatch
from acosgen.synth import make_synthetic_corpus
from acosgen.verify import GRADIENT_TOLERANCE, grad_check

from conftest import example_from_line


@pytest.fixture(scope="module")
def small_corpus():
    return make_synthetic_corpus(60, seed=2)


class TestEncoder:
    def test_deterministic_across_instances(self):
        x = example_from_line("the pizza pizza\t1,2 C0 2 0,1")
        a = encode_corpus([x], 3)
        b = encode_corpus([x], 3)
        assert a.tobytes() == b.tobytes()
        # The row is the mean of its token vectors; a repeated token repeats one vector.
        the, pizza = (example_from_line(f"{word}\t0,1 C0 2 0,1") for word in ("the", "pizza"))
        c = encode_corpus([the, pizza], 3)
        assert np.allclose(a[0], (c[0] + 2 * c[1]) / 3)

    def test_seed_changes_embedding(self):
        x = example_from_line("pizza\t0,1 C0 2 0,1")
        assert not np.array_equal(encode_corpus([x], 3), encode_corpus([x], 4))

    def test_encode_shape(self, small_corpus):
        assert encode_corpus(small_corpus, 0).shape == (len(small_corpus), ENCODER_DIM)


class TestToyDemo:
    def test_zero_steps_identical_stats(self, small_corpus):
        result = toy_demo(small_corpus, SclConfig(rng_seed=1), steps=0)
        for h in result.heads.values():
            assert h.intra_before == h.intra_after
            assert h.inter_before == h.inter_after

    def test_deterministic_under_seed(self, small_corpus):
        cfg = SclConfig(rng_seed=5)
        a = toy_demo(small_corpus, cfg, steps=20)
        b = toy_demo(small_corpus, cfg, steps=20)
        assert a.to_dict() == b.to_dict()
        for name in a.heads:
            assert np.array_equal(a.heads[name].reps, b.heads[name].reps)

    def test_training_increases_gap(self, small_corpus):
        cfg = SclConfig(rng_seed=0)
        result = toy_demo(small_corpus, cfg, steps=60)
        for name, h in result.heads.items():
            assert h.gap_after > h.gap_before, name

    def test_loss_curve_falls(self, small_corpus):
        result = toy_demo(small_corpus, SclConfig(rng_seed=0), steps=60)
        report = result.to_dict()["characteristics"]
        for name, h in result.heads.items():
            curve = h.losses
            assert len(curve) == 60
            assert np.mean(curve[-10:]) < np.mean(curve[:10]), name
            assert (report[name]["loss_first"], report[name]["loss_last"]) == (curve[0], curve[-1])

    def test_single_label_characteristic_skipped(self):
        lines = [
            "a b c d\t0,1 C0 2 1,2",
            "e f g h\t0,1 C1 2 1,2\t2,3 C2 2 3,4",
            "i j k l\t-1,-1 C0 2 -1,-1",
        ]
        corpus = [example_from_line(line, f"p{i}") for i, line in enumerate(lines)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the report is the skip's one record
            result = toy_demo(corpus, SclConfig(rng_seed=0), steps=5)
        assert result.skipped == {"sentiment": "only one sentiment label present ('positive')"}
        assert "aspect" in result.heads

    def test_undefined_statistics_are_null_in_dict(self):
        # One example per sentiment: no same-label pair, so the intra mean is NaN.
        lines = ["a b c d\t0,1 C0 2 1,2", "e f g h\t0,1 C0 0 1,2"]
        corpus = [example_from_line(line, f"n{i}") for i, line in enumerate(lines)]
        result = toy_demo(corpus, SclConfig(rng_seed=0), steps=2)
        assert set(result.skipped) == {"aspect", "opinion"}
        assert math.isnan(result.heads["sentiment"].intra_before)
        row = result.to_dict()["characteristics"]["sentiment"]
        for key in ("intra_before", "gap_before", "intra_after", "gap_after"):
            assert row[key] is None, key
        assert math.isfinite(row["inter_before"]) and math.isfinite(row["loss_last"])
        assert "nan" in result.to_text()

    def test_rejects_bad_args(self, small_corpus):
        with pytest.raises(ValueError):
            toy_demo([], SclConfig(), steps=1)
        with pytest.raises(ValueError):
            toy_demo(small_corpus, SclConfig(), steps=-1)

    def test_train_head_rejects_negative_steps(self, small_corpus):
        pooled = encode_corpus(small_corpus, 0)
        labels = [characteristic_labels(x).sentiment for x in small_corpus]
        with pytest.raises(ValueError, match="^steps must be >= 0$"):
            train_head(pooled, "sentiment", labels, SclConfig(), steps=-1)


# Step counts either side of a turn's end, where a head goes back on the queue.
TURN_EDGE_STEPS = (0, 1, demo.STEPS_PER_TURN - 1, demo.STEPS_PER_TURN, demo.STEPS_PER_TURN + 1)
# A step in a head's second turn.
LATE_STEP = demo.STEPS_PER_TURN + 2


class HeadInterrupt(BaseException):
    """Not an ``Exception``, like ``KeyboardInterrupt``."""


def serial_demo(corpus, cfg, steps) -> DemoResult:
    """``toy_demo`` as one loop on the calling thread: ``train_head`` per trained head, in order."""
    pooled = encode_corpus(corpus, cfg.rng_seed)
    labels = {c: [getattr(characteristic_labels(x), c) for x in corpus] for c in CHARACTERISTICS}
    trained = {c: labels[c] for c in CHARACTERISTICS if len(set(labels[c])) > 1}
    return DemoResult(
        heads={c: train_head(pooled, c, trained[c], cfg, steps) for c in trained},
        skipped=toy_demo(corpus, cfg, 0).skipped,
        example_ids=[x.id for x in corpus],
        steps=steps,
    )


def assert_same_result(got: DemoResult, want: DemoResult):
    """Bit for bit: every statistic, loss and representation (NaN equal to NaN)."""
    assert got.to_dict() == want.to_dict()
    assert got.to_text() == want.to_text()
    assert list(got.heads) == list(want.heads)
    for name, head in want.heads.items():
        assert got.heads[name].losses == head.losses, name
        assert got.heads[name].labels == head.labels, name
        assert got.heads[name].reps.tobytes() == head.reps.tobytes(), name


class TestHeadTraining:
    def test_head_gradient_matches_central_differences(self):
        """The hand-written chain rule, through the dropout mask and the linear head, against
        ``grad_check``'s central differences of the alpha-weighted loss in (weight, bias)."""
        cfg = SclConfig(tau=0.25, dropout_p=0.1, rng_seed=4)
        corpus = make_synthetic_corpus(12, seed=cfg.rng_seed)
        pooled = encode_corpus(corpus, cfg.rng_seed)
        codes = np.unique([characteristic_labels(x).aspect for x in corpus], return_inverse=True)[1]
        assert len(set(codes)) > 1
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((HEAD_DIM, ENCODER_DIM)) / math.sqrt(ENCODER_DIM)
        bias = 0.1 * rng.standard_normal(HEAD_DIM)

        def head_loss(params, tau):  # params: the weight rows, then the bias row
            w, b = params.reps[:HEAD_DIM], params.reps[HEAD_DIM]
            loss, g_weight, g_bias = head_gradient(pooled, pooled @ w.T + b, codes, cfg, 77)
            return cfg.alpha * loss, np.vstack([g_weight, g_bias])

        params = ReprBatch(np.vstack([weight, bias]), np.zeros(HEAD_DIM + 1))
        assert grad_check(params, cfg.tau, loss_fn=head_loss) < GRADIENT_TOLERANCE

    def test_threaded_demo_equals_serial_heads(self, small_corpus):
        cfg = SclConfig(rng_seed=3)
        for steps in TURN_EDGE_STEPS:
            result = toy_demo(small_corpus, cfg, steps=steps)
            assert list(result.heads) == list(CHARACTERISTICS)
            assert_same_result(result, serial_demo(small_corpus, cfg, steps=steps))

    @pytest.mark.parametrize(
        "lines, skipped",
        [
            (["a b c d\t0,1 C0 2 1,2", "e f g h\t0,1 C1 2 1,2\t2,3 C2 2 3,4",
              "i j k l\t-1,-1 C0 2 -1,-1"], {"sentiment"}),
            (["a b c d\t0,1 C0 2 1,2", "e f g h\t0,1 C0 0 1,2", "i j k l\t0,1 C1 1 1,2"],
             {"aspect", "opinion"}),
        ],
    )
    def test_skipped_characteristics_leave_the_rest_unchanged(self, lines, skipped):
        corpus = [example_from_line(line, f"k{i}") for i, line in enumerate(lines)]
        cfg = SclConfig(rng_seed=1)
        for steps in TURN_EDGE_STEPS:
            result = toy_demo(corpus, cfg, steps=steps)
            assert set(result.skipped) == skipped
            assert_same_result(result, serial_demo(corpus, cfg, steps=steps))

    def test_thread_switches_inside_turns_change_no_bit(self, small_corpus):
        cfg = SclConfig(rng_seed=6)
        steps = 2 * demo.STEPS_PER_TURN + 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = toy_demo(small_corpus, cfg, steps=steps)
        finally:
            sys.setswitchinterval(interval)
        assert_same_result(result, serial_demo(small_corpus, cfg, steps=steps))

    @pytest.mark.parametrize(
        "failing, at_step, error",
        [pytest.param(c, 0, RuntimeError, id=c) for c in CHARACTERISTICS]
        + [pytest.param(c, LATE_STEP, RuntimeError, id=f"{c}-late") for c in CHARACTERISTICS]
        + [pytest.param("aspect", LATE_STEP, HeadInterrupt, id="base-exception")],
    )
    def test_a_head_error_propagates_and_no_thread_is_left(
        self, small_corpus, monkeypatch, failing, at_step, error
    ):
        """A failing step stops the other thread after at most one more turn, and its
        exception, a ``BaseException`` too, reaches the caller with both threads ended."""
        threads = threading.active_count()
        cfg = SclConfig(rng_seed=0)
        fail_seed = demo._derived_seed(cfg.rng_seed, failing, "step", at_step)
        calls = []

        def gradient_or_fail(pooled, reps, codes, cfg, step_seed):
            calls.append(step_seed)
            if step_seed == fail_seed:
                raise error(f"{failing} head failed")
            return head_gradient(pooled, reps, codes, cfg, step_seed)

        monkeypatch.setattr(demo, "head_gradient", gradient_or_fail)
        with pytest.raises(error, match=f"^{failing} head failed$"):
            toy_demo(small_corpus, cfg, steps=LATE_STEP + 2 * demo.STEPS_PER_TURN)
        assert threading.active_count() == threads
        assert len(calls) - calls.index(fail_seed) - 1 <= demo.STEPS_PER_TURN


class TestExport:
    def test_tsv_layout(self, tmp_path, small_corpus):
        result = toy_demo(small_corpus, SclConfig(rng_seed=0), steps=2)
        path = tmp_path / "reps.tsv"
        export_representations(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3 * len(small_corpus)
        first = lines[0].split("\t")
        assert first[0] == small_corpus[0].id
        assert first[1] == "sentiment"
        assert len(first) == 3 + HEAD_DIM
        float(first[3])

    def test_no_trained_characteristic_writes_empty_file(self, tmp_path):
        lines = ["a b c d\t0,1 C0 2 1,2", "e f g h\t0,1 C1 2 1,2"]
        corpus = [example_from_line(line, f"s{i}") for i, line in enumerate(lines)]
        result = toy_demo(corpus, SclConfig(rng_seed=0), steps=2)
        assert set(result.skipped) == {"sentiment", "aspect", "opinion"}
        path = tmp_path / "reps.tsv"
        export_representations(result, path)
        assert path.read_bytes() == b""
