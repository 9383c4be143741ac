import math
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
    TokenHashEncoder,
    export_representations,
    head_gradient,
    toy_demo,
    train_head,
)
from acosgen.scl import GRADIENT_TOLERANCE, ReprBatch, SclConfig, grad_check
from acosgen.synth import make_synthetic_corpus

from conftest import example_from_line


@pytest.fixture(scope="module")
def small_corpus():
    return make_synthetic_corpus(60, seed=2)


class TestEncoder:
    def test_deterministic_across_instances(self):
        a = TokenHashEncoder(3).embed_token("pizza")
        b = TokenHashEncoder(3).embed_token("pizza")
        assert np.array_equal(a, b)

    def test_seed_changes_embedding(self):
        a = TokenHashEncoder(3).embed_token("pizza")
        b = TokenHashEncoder(4).embed_token("pizza")
        assert not np.array_equal(a, b)

    def test_encode_shape(self, small_corpus):
        enc = TokenHashEncoder(0)
        x = small_corpus[0]
        assert enc.encode(x).shape == (len(x.tokens), ENCODER_DIM)


class TestToyDemo:
    def test_zero_steps_identical_stats(self, small_corpus):
        result = toy_demo(small_corpus, SclConfig(rng_seed=1), steps=0)
        for s in result.stats.values():
            assert s.intra_before == s.intra_after
            assert s.inter_before == s.inter_after

    def test_deterministic_under_seed(self, small_corpus):
        cfg = SclConfig(rng_seed=5)
        a = toy_demo(small_corpus, cfg, steps=20)
        b = toy_demo(small_corpus, cfg, steps=20)
        assert a.to_dict() == b.to_dict()
        for name in a.representations:
            assert np.array_equal(a.representations[name], b.representations[name])

    def test_training_increases_gap(self, small_corpus):
        cfg = SclConfig(rng_seed=0)
        result = toy_demo(small_corpus, cfg, steps=60)
        for name, s in result.stats.items():
            assert s.gap_after > s.gap_before, name

    def test_loss_curve_falls(self, small_corpus):
        result = toy_demo(small_corpus, SclConfig(rng_seed=0), steps=60)
        report = result.to_dict()["characteristics"]
        for name, curve in result.loss_curve.items():
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
        assert "aspect" in result.stats

    def test_undefined_statistics_are_null_in_dict(self):
        # One example per sentiment: no same-label pair, so the intra mean is NaN.
        lines = ["a b c d\t0,1 C0 2 1,2", "e f g h\t0,1 C0 0 1,2"]
        corpus = [example_from_line(line, f"n{i}") for i, line in enumerate(lines)]
        result = toy_demo(corpus, SclConfig(rng_seed=0), steps=2)
        assert set(result.skipped) == {"aspect", "opinion"}
        assert math.isnan(result.stats["sentiment"].intra_before)
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


def pooled_encodings(corpus, cfg):
    encoder = TokenHashEncoder(cfg.rng_seed)
    return np.stack([encoder.encode(x).mean(axis=0) for x in corpus])


def serial_demo(corpus, cfg, steps) -> DemoResult:
    """``toy_demo`` as one loop on the calling thread: ``train_head`` per trained head, in order."""
    pooled = pooled_encodings(corpus, cfg)
    labels = {c: [getattr(characteristic_labels(x), c) for x in corpus] for c in CHARACTERISTICS}
    trained = {c: labels[c] for c in CHARACTERISTICS if len(set(labels[c])) > 1}
    runs = {c: train_head(pooled, c, trained[c], cfg, steps) for c in trained}
    return DemoResult(
        stats={c: run[0] for c, run in runs.items()},
        skipped=toy_demo(corpus, cfg, 0).skipped,
        representations={c: run[1] for c, run in runs.items()},
        labels=trained,
        example_ids=[x.id for x in corpus],
        steps=steps,
        loss_curve={c: run[2] for c, run in runs.items()},
    )


def assert_same_result(got: DemoResult, want: DemoResult):
    """Bit for bit: every statistic, loss and representation (NaN equal to NaN)."""
    assert got.to_dict() == want.to_dict()
    assert got.to_text() == want.to_text()
    assert got.loss_curve == want.loss_curve
    assert got.labels == want.labels
    assert list(got.representations) == list(want.representations)
    for name, reps in want.representations.items():
        assert got.representations[name].tobytes() == reps.tobytes(), name


class TestHeadTraining:
    def test_head_gradient_matches_central_differences(self):
        """The hand-written chain rule, through the dropout mask and the linear head, against
        ``grad_check``'s central differences of the alpha-weighted loss in (weight, bias)."""
        cfg = SclConfig(tau=0.25, dropout_p=0.1, rng_seed=4)
        corpus = make_synthetic_corpus(12, seed=cfg.rng_seed)
        pooled = pooled_encodings(corpus, cfg)
        codes = np.unique([characteristic_labels(x).aspect for x in corpus], return_inverse=True)[1]
        assert len(set(codes)) > 1
        alpha = cfg.alpha[1]
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((HEAD_DIM, ENCODER_DIM)) / math.sqrt(ENCODER_DIM)
        bias = 0.1 * rng.standard_normal(HEAD_DIM)

        def head_loss(params, tau):  # params: the weight rows, then the bias row
            w, b = params.reps[:HEAD_DIM], params.reps[HEAD_DIM]
            loss, g_weight, g_bias = head_gradient(pooled, pooled @ w.T + b, codes, alpha, cfg, 77)
            return alpha * loss, np.vstack([g_weight, g_bias])

        params = ReprBatch(np.vstack([weight, bias]), np.zeros(HEAD_DIM + 1))
        assert grad_check(params, cfg.tau, loss_fn=head_loss) < GRADIENT_TOLERANCE

    def test_threaded_demo_equals_serial_heads(self, small_corpus):
        cfg = SclConfig(rng_seed=3)
        result = toy_demo(small_corpus, cfg, steps=12)
        assert list(result.stats) == list(CHARACTERISTICS)
        assert_same_result(result, serial_demo(small_corpus, cfg, steps=12))

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
        result = toy_demo(corpus, cfg, steps=4)
        assert set(result.skipped) == skipped
        assert_same_result(result, serial_demo(corpus, cfg, steps=4))

    @pytest.mark.parametrize("failing", ["sentiment", "opinion"])  # the worker's head, the caller's
    def test_a_head_error_propagates_and_no_thread_is_left(self, small_corpus, monkeypatch, failing):
        threads = threading.active_count()

        def train_or_fail(pooled, characteristic, *args):
            if characteristic == failing:
                raise RuntimeError(f"{characteristic} head failed")
            return train_head(pooled, characteristic, *args)

        monkeypatch.setattr(demo, "train_head", train_or_fail)
        with pytest.raises(RuntimeError, match=f"^{failing} head failed$"):
            toy_demo(small_corpus, SclConfig(rng_seed=0), steps=2)
        assert threading.active_count() == threads


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
