import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acosgen.scl import (
    ReprBatch,
    SclConfig,
    extend_batch,
    grad_check,
    load_scl_config,
    parse_scl_config,
    reference_scl_loss,
    scl_loss,
)
from acosgen.verify import (
    ORACLE_TOLERANCE,
    gradient_suite,
    oracle_suite,
    random_batch,
    save_failure,
)


class TestExtendBatch:
    def test_p_zero_views_identical(self):
        reps = np.random.default_rng(0).standard_normal((4, 6))
        batch = extend_batch(reps, list("aabb"), SclConfig(dropout_p=0.0))
        assert np.array_equal(batch.reps[4:], reps)
        assert list(batch.labels) == list("aabbaabb")

    def test_deterministic_under_seed(self):
        reps = np.random.default_rng(1).standard_normal((3, 5))
        cfg = SclConfig(dropout_p=0.1, rng_seed=77)
        a = extend_batch(reps, [0, 1, 0], cfg)
        b = extend_batch(reps, [0, 1, 0], cfg)
        assert np.array_equal(a.reps, b.reps)

    def test_every_row_has_partner(self):
        batch = extend_batch(np.ones((1, 4)), ["only"], SclConfig())
        labels = batch.labels
        for i in range(batch.num_rows):
            assert any(labels[j] == labels[i] for j in range(batch.num_rows) if j != i)

    def test_inverted_dropout_unbiased(self):
        # Monte-Carlo oracle: mean of views over many trials approaches the
        # source row within 3 standard errors per coordinate.
        source = np.array([[1.0, -2.0, 0.5, 3.0]])
        p = 0.1
        trials = 10_000
        acc = np.zeros(4)
        for seed in range(trials):
            batch = extend_batch(source, ["x"], SclConfig(dropout_p=p, rng_seed=seed))
            acc += batch.reps[1]
        mean = acc / trials
        sigma = np.abs(source[0]) * math.sqrt(p / (1 - p) / trials)
        assert np.all(np.abs(mean - source[0]) <= 3 * sigma)

    @settings(max_examples=300)
    @given(
        rows=st.integers(0, 8),
        ndim=st.sampled_from([1, 2, 3]),
        label_surplus=st.sampled_from([0, 0, -1, 1]),
        p=st.floats(0.0, 0.9, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rejects_exactly_the_invalid_inputs(self, rows, ndim, label_surplus, p, seed, data):
        # ReprBatch is the one check of an extended batch: a wrong shape, a wrong
        # label count or a non-finite entry raises ValueError, anything else extends.
        shape = (rows, 3, 2)[:ndim]
        entry = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([np.nan, np.inf, -np.inf]))
        size = math.prod(shape)
        reps = np.array(data.draw(st.lists(entry, min_size=size, max_size=size))).reshape(shape)
        n_labels = max(rows + label_surplus, 0)
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n_labels, max_size=n_labels))
        valid = ndim == 2 and rows >= 1 and len(labels) == rows and np.isfinite(reps).all()
        cfg = SclConfig(dropout_p=p, rng_seed=seed)
        with np.errstate(invalid="ignore"):  # inf times a dropped coordinate
            if not valid:
                with pytest.raises(ValueError):
                    extend_batch(reps, labels, cfg)
                return
            batch = extend_batch(reps, labels, cfg)
        assert batch.reps.shape == (2 * rows, 3)
        assert np.array_equal(batch.reps[:rows], reps)
        assert list(batch.labels) == labels + labels
        views = batch.reps[rows:]
        assert np.all((views == 0.0) | (views == reps / (1.0 - p)))


class TestSclLoss:
    def test_single_pair_zero_loss(self):
        batch = extend_batch(np.array([[1.0, 2.0]]), ["a"], SclConfig(dropout_p=0.0))
        loss, grad = scl_loss(batch, 0.25)
        assert loss == 0.0
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_two_row_same_label_cancels_exactly(self):
        # The one positive logit must cancel the log-sum-exp bit for bit,
        # also when the two rows differ.
        rng = np.random.default_rng(11)
        for dim in (2, 5, 16):
            reps = rng.standard_normal((2, dim))
            batch = ReprBatch(reps=reps, labels=[3, 3])
            loss, grad = scl_loss(batch, 0.25)
            assert loss == 0.0
            assert np.allclose(grad, 0.0, atol=1e-15)
            assert grad_check(batch, 0.25, 1e-5) < 1e-4

    def test_label_encodings_agree(self):
        # Integer codes are used as they are; strings, sparse and negative
        # integers are ranked first. One partition gives one result.
        rng = np.random.default_rng(12)
        codes = np.r_[rng.integers(0, 3, 9), [0, 1, 2]]
        codes = np.r_[codes, codes]
        reps = rng.standard_normal((codes.size, 6))
        results = [
            scl_loss(ReprBatch(reps=reps, labels=labels), 0.25)
            for labels in (codes, np.array(["neg", "pos", "neu"])[codes], codes * 10 + 7, codes - 2)
        ]
        loss, grad = results[0]
        for other_loss, other_grad in results[1:]:
            assert abs(other_loss - loss) <= 1e-15
            assert np.abs(other_grad - grad).max() <= 1e-15

    @settings(max_examples=150)
    @given(
        rows=st.integers(2, 24),
        dim=st.integers(2, 16),
        tau=st.sampled_from([0.01, 0.05, 0.25, 1.0]),
        encoding=st.sampled_from(["codes", "strings", "sparse", "negative"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_positives_from_class_sums_match_reference(
        self, rows, dim, tau, encoding, seed, data
    ):
        # Every class has at least two members; the rest of the rows are drawn.
        k = data.draw(st.integers(1, rows // 2))
        free = rows - 2 * k
        extra = data.draw(st.lists(st.integers(0, k - 1), min_size=free, max_size=free))
        order = data.draw(st.permutations(range(rows)))
        codes = np.r_[np.arange(k), np.arange(k), extra].astype(np.int64)[order]
        reps = np.random.default_rng(seed).standard_normal((rows, dim))
        encodings = {
            "codes": codes,
            "strings": np.array([f"c{c}" for c in codes]),
            "sparse": codes * 10 + 7,
            "negative": -1 - codes,
        }
        results = {
            name: scl_loss(ReprBatch(reps=reps, labels=labels), tau)
            for name, labels in encodings.items()
        }
        loss, grad = results[encoding]
        # Gradients reach ~70 at tau = 0.01, where one ulp is 1.4e-14, so their
        # agreement is scaled like the oracle metric: relative, floored at 1.
        grad_scale = max(1.0, np.abs(grad).max())
        for other_loss, other_grad in results.values():
            assert abs(other_loss - loss) <= 1e-15
            assert np.abs(other_grad - grad).max() <= 1e-15 * grad_scale
        # The oracle suite's metric: relative error floored at 1.
        reference = reference_scl_loss(ReprBatch(reps=reps, labels=encodings[encoding]), tau)
        assert abs(loss - reference) / max(abs(reference), abs(loss), 1.0) < ORACLE_TOLERANCE
        pair = ReprBatch(reps=reps[:2], labels=encodings[encoding][:1].repeat(2))
        assert scl_loss(pair, tau)[0] == 0.0

    @pytest.mark.parametrize("rows,dim", [(400, 32), (1000, 16)])
    def test_traced_peak_below_one_and_a_half_gram_buffers(self, rows, dim):
        # The kernel keeps one rows x rows float64 buffer beside rows x dim
        # temporaries; a second rows x rows float temporary would pass 2.
        rng = np.random.default_rng(14)
        batch = ReprBatch(reps=rng.standard_normal((rows, dim)), labels=rng.integers(0, 3, rows))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            scl_loss(batch, 0.25)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows * rows * 8

    def test_matches_reference_on_hundred_row_batch(self):
        rng = np.random.default_rng(13)
        reps = rng.standard_normal((50, 24))
        batch = extend_batch(reps, rng.integers(0, 4, 50), SclConfig(rng_seed=2))
        assert batch.num_rows == 100
        vec, _ = scl_loss(batch, 0.25)
        ref = reference_scl_loss(batch, 0.25)
        assert abs(vec - ref) / max(abs(ref), 1.0) < 1e-9

    def test_all_identical_rows_log_2n_minus_1(self):
        for n in (2, 4, 7):
            row = np.array([0.3, -1.2, 0.7])
            reps = np.tile(row, (2 * n, 1))
            batch = ReprBatch(reps=reps, labels=["x"] * (2 * n))
            loss, grad = scl_loss(batch, 0.25)
            assert loss == pytest.approx(math.log(2 * n - 1), rel=1e-12)
            assert np.allclose(grad, 0.0, atol=1e-12)

    def test_hand_computed_orthogonal_pair(self):
        batch = extend_batch(
            np.array([[1.0, 0.0], [0.0, 1.0]]), ["s", "s"], SclConfig(dropout_p=0.0)
        )
        loss, _ = scl_loss(batch, 0.25)
        # brute-force by hand: denominator e^4 + 1 + 1, terms -0.03598, -4.0360, -4.0360
        assert loss == pytest.approx(2.7027, abs=1e-4)

    def test_matches_reference_on_random_batches(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            batch = random_batch(rng)
            vec, _ = scl_loss(batch, 0.25)
            ref = reference_scl_loss(batch, 0.25)
            assert abs(vec - ref) / max(abs(ref), 1e-12) < 1e-9

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            batch = random_batch(rng)
            loss, _ = scl_loss(batch, 0.25)
            assert loss >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng)
        perm = rng.permutation(batch.num_rows)
        permuted = ReprBatch(reps=batch.reps[perm], labels=np.asarray(batch.labels)[perm])
        loss, grad = scl_loss(batch, 0.25)
        loss_p, grad_p = scl_loss(permuted, 0.25)
        assert loss_p == pytest.approx(loss, rel=1e-12)
        assert np.allclose(grad_p, grad[perm], atol=1e-12)

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng)
        scales = rng.uniform(0.1, 10.0, size=(batch.num_rows, 1))
        rescaled = replace(batch, reps=batch.reps * scales)
        loss, _ = scl_loss(batch, 0.25)
        loss_s, _ = scl_loss(rescaled, 0.25)
        assert abs(loss - loss_s) < 1e-9

    def test_tau_validation(self):
        batch = extend_batch(np.ones((2, 3)), ["a", "b"], SclConfig(dropout_p=0.0))
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                scl_loss(batch, tau)

    def test_missing_partner_rejected(self):
        batch = ReprBatch(
            reps=np.random.default_rng(0).standard_normal((3, 4)),
            labels=["a", "a", "b"],
        )
        with pytest.raises(ValueError, match="no same-label partner"):
            scl_loss(batch, 0.25)

    def test_zero_norm_row_rejected(self):
        reps = np.array([[1.0, 0.0], [0.0, 0.0]])
        batch = ReprBatch(reps=reps, labels=["a", "a"])
        with pytest.raises(ValueError, match="zero-norm"):
            scl_loss(batch, 0.25)

    def test_non_finite_reps_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ReprBatch(reps=np.array([[1.0, np.inf], [0.0, 1.0]]), labels=["a", "a"])


class TestGradCheck:
    def test_random_batches_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            batch = random_batch(rng)
            assert grad_check(batch, 0.25, 1e-5) < 1e-4

    def test_tau_halved_still_passes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            batch = random_batch(rng)
            assert grad_check(batch, 0.125, 1e-5) < 1e-4

    def test_zero_gradient_at_symmetric_point(self):
        row = np.array([0.5, -0.25, 1.0])
        reps = np.tile(row, (6, 1))
        batch = ReprBatch(reps=reps, labels=["x"] * 6)
        _, grad = scl_loss(batch, 0.25)
        assert np.allclose(grad, 0.0, atol=1e-12)
        h = 1e-5
        for i, j in ((0, 0), (2, 1), (5, 2)):
            bumped = reps.copy()
            bumped[i, j] += h
            plus, _ = scl_loss(replace(batch, reps=bumped), 0.25)
            bumped[i, j] -= 2 * h
            minus, _ = scl_loss(replace(batch, reps=bumped), 0.25)
            assert abs((plus - minus) / (2 * h)) < 1e-6

    def test_sampling_path_on_large_batch(self):
        rng = np.random.default_rng(9)
        reps = rng.standard_normal((70, 80))
        batch = extend_batch(reps, rng.integers(0, 3, 70), SclConfig(rng_seed=1))
        assert batch.num_rows * 80 > 10_000
        # larger step keeps central-difference roundoff below the metric's
        # 1e-8 denominator floor at this batch size (many saturated,
        # near-zero-gradient coordinates in the 10% sample)
        assert grad_check(batch, 0.25, 1e-3) < 1e-4

    def test_leaves_batch_unchanged_and_matches_fresh_copies(self):
        batch = random_batch(np.random.default_rng(12))
        before = batch.reps.copy()
        first = grad_check(batch, 0.25, 1e-5)
        assert np.array_equal(batch.reps, before)
        assert grad_check(batch, 0.25, 1e-5) == first
        # Reference: a fresh copy of the batch for every probe.
        _, grad = scl_loss(batch, 0.25)
        expected = 0.0
        for i, j in np.ndindex(*batch.reps.shape):
            bumped = batch.reps.copy()
            bumped[i, j] += 1e-5
            plus, _ = scl_loss(replace(batch, reps=bumped), 0.25)
            bumped[i, j] -= 2e-5
            minus, _ = scl_loss(replace(batch, reps=bumped), 0.25)
            numeric = (plus - minus) / 2e-5
            err = abs(numeric - grad[i, j]) / max(abs(numeric), abs(grad[i, j]), 1e-8)
            expected = max(expected, err)
        assert first == expected

    def test_bad_h_rejected(self):
        batch = extend_batch(np.ones((2, 3)), ["a", "b"], SclConfig(dropout_p=0.0))
        with pytest.raises(ValueError):
            grad_check(batch, 0.25, 0.0)


class TestConfig:
    def test_defaults(self):
        cfg = SclConfig()
        assert cfg.tau == 0.25
        assert cfg.alpha == (0.05, 0.05, 0.05)
        assert cfg.dropout_p == 0.1

    def test_scalar_alpha_broadcasts(self):
        assert SclConfig(alpha=0.005).alpha == (0.005, 0.005, 0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            SclConfig(tau=0.0)
        with pytest.raises(ValueError):
            SclConfig(dropout_p=1.0)
        with pytest.raises(ValueError):
            SclConfig(alpha=(1.0, 2.0))

    def test_file_loading(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\ntau = 0.5\nalpha=0.2\nalpha3=0.9\ndropout=0.0\nseed=4\n")
        cfg = load_scl_config(path)
        assert cfg.tau == 0.5
        assert cfg.alpha == (0.2, 0.2, 0.9)
        assert cfg.dropout_p == 0.0
        assert cfg.rng_seed == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("gamma=1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_scl_config(path)

    def test_pooling_key_rejected(self):
        with pytest.raises(ValueError, match=r"^<string>:2: unknown key 'pooling'$"):
            parse_scl_config("tau=0.5\npooling=mean\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tau=abc\n", r"^c\.cfg:1: tau: could not convert string to float: 'abc'$"),
            ("# seed\n\nseed=1.5\n", r"^c\.cfg:3: seed: invalid literal for int"),
            ("tau=0.5\nalpha1=x\n", r"^c\.cfg:2: alpha1: could not convert"),
        ],
    )
    def test_bad_value_names_file_and_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_scl_config(text, source="c.cfg")

    def test_range_error_names_file(self):
        with pytest.raises(ValueError, match=r"^c\.cfg: tau must be positive and finite"):
            parse_scl_config("tau=-1\n", source="c.cfg")
        with pytest.raises(ValueError, match=r"^c\.cfg: dropout_p must be in"):
            parse_scl_config("dropout=1.5\n", source="c.cfg")

    def test_shipped_defaults(self):
        from acosgen.configs import default_scl_config

        for name in ("rest", "laptop"):
            cfg = default_scl_config(name)
            assert (cfg.tau, cfg.alpha, cfg.dropout_p) == (0.25, (0.05,) * 3, 0.1)
        l1 = default_scl_config("laptop-l1")
        assert l1.alpha == (0.005, 0.005, 0.005)
        assert l1.tau == 0.25


class TestVerifySuites:
    def test_suites_pass_small(self):
        oracle = oracle_suite(batches=60, seed=1)
        gradient = gradient_suite(batches=10, seed=1)
        assert oracle.passed and gradient.passed

    def test_sign_flip_detected(self):
        def broken(batch, tau):
            loss, grad = scl_loss(batch, tau)
            return loss, -grad

        result = gradient_suite(batches=3, seed=0, loss_fn=broken)
        assert not result.passed
        assert result.first_failure is not None

    def test_scaled_loss_detected_by_oracle(self):
        def broken(batch, tau):
            loss, grad = scl_loss(batch, tau)
            return 1.01 * loss, grad

        result = oracle_suite(batches=20, seed=0, loss_fn=broken)
        assert not result.passed

    def test_failure_file_keys(self, tmp_path):
        def broken(batch, tau):
            loss, grad = scl_loss(batch, tau)
            return 1.01 * loss, grad

        path = save_failure(oracle_suite(batches=1, seed=0, loss_fn=broken), tmp_path / "f.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload) == ["suite", "tau", "error", "reps", "labels"]

    def test_negative_batch_count_rejected(self):
        for suite in (oracle_suite, gradient_suite):
            with pytest.raises(ValueError, match="batches must be >= 0, got -1"):
                suite(batches=-1)

    @pytest.mark.parametrize("tau", [0.05, 0.01])
    def test_oracle_holds_at_sharp_temperatures(self, tau):
        result = oracle_suite(batches=200, tau=tau, seed=3)
        assert result.passed, result.summary()

    def test_stable_at_sharp_temperature(self):
        oracle = oracle_suite(batches=40, tau=0.05, seed=2)
        gradient = gradient_suite(batches=8, tau=0.05, seed=2)
        assert oracle.passed, oracle.summary()
        assert gradient.passed, gradient.summary()
