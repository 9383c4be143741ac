import math

import numpy as np
import pytest

from acosgen.demo import HEAD_DIM, TokenHashEncoder, export_representations, toy_demo
from acosgen.scl import SclConfig
from acosgen.synth import make_synthetic_corpus

from conftest import example_from_line


@pytest.fixture(scope="module")
def small_corpus():
    return make_synthetic_corpus(60, seed=2)


class TestEncoder:
    def test_deterministic_across_instances(self):
        a = TokenHashEncoder(dim=16, seed=3).embed_token("pizza")
        b = TokenHashEncoder(dim=16, seed=3).embed_token("pizza")
        assert np.array_equal(a, b)

    def test_seed_changes_embedding(self):
        a = TokenHashEncoder(dim=16, seed=3).embed_token("pizza")
        b = TokenHashEncoder(dim=16, seed=4).embed_token("pizza")
        assert not np.array_equal(a, b)

    def test_encode_shape(self, small_corpus):
        enc = TokenHashEncoder(dim=8, seed=0)
        x = small_corpus[0]
        assert enc.encode(x).shape == (len(x.tokens), 8)


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
        with pytest.warns(UserWarning, match="sentiment"):
            result = toy_demo(corpus, SclConfig(rng_seed=0), steps=5)
        assert "sentiment" in result.skipped
        assert "aspect" in result.stats

    def test_undefined_statistics_are_null_in_dict(self):
        # One example per sentiment: no same-label pair, so the intra mean is NaN.
        lines = ["a b c d\t0,1 C0 2 1,2", "e f g h\t0,1 C0 0 1,2"]
        corpus = [example_from_line(line, f"n{i}") for i, line in enumerate(lines)]
        with pytest.warns(UserWarning):
            result = toy_demo(corpus, SclConfig(rng_seed=0), steps=2)
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
        with pytest.warns(UserWarning):
            result = toy_demo(corpus, SclConfig(rng_seed=0), steps=2)
        assert set(result.skipped) == {"sentiment", "aspect", "opinion"}
        path = tmp_path / "reps.tsv"
        export_representations(result, path)
        assert path.read_bytes() == b""
