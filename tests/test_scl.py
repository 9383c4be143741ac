import inspect
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acosgen import scl, verify
from acosgen.configs import SclConfig
from acosgen.scl import ReprBatch, extend_batch, scl_loss
from acosgen.verify import (
    GRADIENT_TOLERANCE,
    ORACLE_TOLERANCE,
    grad_check,
    gradient_suite,
    oracle_suite,
    random_batch,
    reference_scl_loss,
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
            assert grad_check(batch, 0.25) < 1e-4

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


def double_summation(batch, tau):
    """The defining double summation, every term evaluated afresh."""

    def cos(a, b):
        na, nb = math.sqrt(float(np.dot(a, a))), math.sqrt(float(np.dot(b, b)))
        if na == 0.0 or nb == 0.0:
            raise ValueError("zero-norm representation row")
        return float(np.dot(a, b)) / (na * nb)

    reps, labels, rows = list(batch.reps), list(batch.labels), batch.num_rows
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


@st.composite
def oracle_batches(draw):
    """2-24 rows of dim 2-16 with duplicated and antipodal rows, int or str labels."""
    rows = draw(st.integers(2, 24))
    dim = draw(st.integers(2, 16))
    coord = st.one_of(st.floats(-4.0, -1e-3), st.floats(1e-3, 4.0))
    reps = [draw(st.lists(coord, min_size=dim, max_size=dim)) for _ in range(rows)]
    for i in range(1, rows):
        kind = draw(st.sampled_from(["fresh", "duplicate", "antipodal"]))
        if kind != "fresh":
            j = draw(st.integers(0, i - 1))
            reps[i] = [x if kind == "duplicate" else -x for x in reps[j]]
    # Classes come in pairs (an odd last row joins the last pair), so every
    # row has a same-label partner; the permutation spreads them out.
    pairs = draw(st.lists(st.integers(0, 3), min_size=rows // 2, max_size=rows // 2))
    order = draw(st.permutations(range(rows)))
    label = draw(st.sampled_from([int, "c{}".format]))
    labels = [label(pairs[min(k // 2, len(pairs) - 1)]) for k in order]
    return ReprBatch(reps=np.array(reps), labels=labels)


class TestReferenceOracle:
    @settings(deadline=None)
    @given(batch=oracle_batches(), tau=st.sampled_from([0.003, 0.01, 0.05, 0.25, 1.0]))
    def test_equals_double_summation(self, batch, tau):
        assert reference_scl_loss(batch, tau) == double_summation(batch, tau)

    def test_each_norm_and_pair_exponential_computed_once(self, monkeypatch):
        rng = np.random.default_rng(0)
        batch = ReprBatch(reps=rng.standard_normal((16, 8)), labels=np.arange(16) % 4)
        counts = {"dot": 0, "exp": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(np, "dot", counting("dot", np.dot))
        monkeypatch.setattr(math, "exp", counting("exp", math.exp))
        reference_scl_loss(batch, 0.25)
        assert counts == {"dot": 16 + 120, "exp": 120}

    def test_missing_partner_of_row_0_precedes_zero_norm_row(self):
        batch = ReprBatch(reps=[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], labels=["a", "b", "b"])
        for oracle in (reference_scl_loss, double_summation):
            with pytest.raises(ValueError) as exc:
                oracle(batch, 0.25)
            assert str(exc.value) == "row 0 has no same-label partner in the batch"

    def test_zero_norm_row_precedes_missing_partner_of_row_3(self):
        batch = ReprBatch(
            reps=[[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]], labels=["a", "a", "a", "b"]
        )
        for oracle in (reference_scl_loss, double_summation):
            with pytest.raises(ValueError) as exc:
                oracle(batch, 0.25)
            assert str(exc.value) == "zero-norm representation row"

    # Row 0 is parallel to row 2 and antipodal to its partner, row 1.
    ANTIPODAL = ReprBatch(reps=[[1.0, 0.0], [-1.0, 0.0]] * 2, labels=["a", "a", "b", "b"])

    def test_overflowing_tau_rejected(self):
        with pytest.raises(OverflowError, match="math range error"):
            double_summation(self.ANTIPODAL, 0.001)
        with pytest.raises(ValueError) as exc:
            reference_scl_loss(self.ANTIPODAL, 0.001)
        assert str(exc.value) == (
            "tau 0.001 at 4 rows is outside the oracle's domain: rows * exp(1/tau) overflows"
        )

    def test_underflowing_tau_rejected(self):
        with pytest.raises(ValueError, match="math domain error"):
            double_summation(self.ANTIPODAL, 0.002)
        with pytest.raises(ValueError) as exc:
            reference_scl_loss(self.ANTIPODAL, 0.002)
        assert str(exc.value) == (
            "tau 0.002 at 4 rows is outside the oracle's domain: exp(-2/tau) / rows underflows to 0"
        )

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_tau_not_positive_and_finite_rejected(self, tau):
        with pytest.raises(ValueError) as exc:
            reference_scl_loss(self.ANTIPODAL, tau)
        assert str(exc.value) == (
            f"tau {tau!r} at 4 rows is outside the oracle's domain: not positive and finite"
        )

    @pytest.mark.parametrize("tau, strings", [(0.25, False), (0.01, False), (0.25, True)])
    def test_equals_double_summation_on_scl_check_batches(self, tau, strings):
        # scl-check's own inputs: numpy labels, 1-8 sources and their dropout views.
        rng = np.random.default_rng(21)
        sources = set()
        for _ in range(300):
            batch = random_batch(rng)
            if strings:
                batch = replace(batch, labels=np.array(["neg", "neu", "pos"])[batch.labels])
            assert batch.labels.dtype.kind == ("U" if strings else "i")
            sources.add(batch.num_rows // 2)
            assert reference_scl_loss(batch, tau) == double_summation(batch, tau)
        assert sources == set(range(1, 9))

    def test_does_not_call_the_kernel(self, monkeypatch):
        # verify imports scl_loss beside the oracle, which must stay independent of it.
        batches = [random_batch(np.random.default_rng(seed)) for seed in range(6)]

        def outcomes():
            losses = [reference_scl_loss(batch, tau) for batch in batches for tau in (0.25, 0.01)]
            domain = []
            for tau, rows in [(0.25, 4), (0.0028, 4), (0.001, 4), (0.002, 16), (math.nan, 2)]:
                try:
                    domain.append(verify._check_oracle_tau(tau, rows))
                except ValueError as exc:
                    domain.append(str(exc))
            return losses, domain

        expected = outcomes()

        def kernel(*args, **kwargs):
            raise RuntimeError("the oracle called scl_loss")

        monkeypatch.setattr(verify, "scl_loss", kernel)
        monkeypatch.setattr(scl, "scl_loss", kernel)
        assert outcomes() == expected
        assert expected[1][:2] == [None, None] and all(expected[1][2:])

    def test_sharpest_tau_in_domain_matches_double_summation(self):
        # Near the underflow bound the antipodal ratio is subnormal but not 0.
        assert reference_scl_loss(self.ANTIPODAL, 0.0028) == double_summation(
            self.ANTIPODAL, 0.0028
        )


class TestGradCheck:
    def test_random_batches_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            batch = random_batch(rng)
            assert grad_check(batch, 0.25) < 1e-4

    def test_tau_halved_still_passes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            batch = random_batch(rng)
            assert grad_check(batch, 0.125) < 1e-4

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

    def test_leaves_batch_unchanged_and_matches_fresh_copies(self):
        batch = random_batch(np.random.default_rng(12))
        before = batch.reps.copy()
        first = grad_check(batch, 0.25)
        assert np.array_equal(batch.reps, before)
        assert grad_check(batch, 0.25) == first
        assert first == fresh_copy_error(batch, 0.25)

    @pytest.mark.parametrize("stream, index, tau", [(2, 14, 0.25), (0, 7, 0.05)])
    def test_roundoff_on_a_near_zero_coordinate_passes(self, stream, index, tau):
        # Under a plain 1e-8 floor, central-difference roundoff on a coordinate
        # whose derivative is about zero reads as an error above the tolerance.
        # grad_check's roundoff floor judges it on an absolute scale. At
        # tau = 0.05 the floor's 1/tau term exceeds this batch's loss.
        rng = np.random.default_rng(stream)
        for _ in range(index + 1):
            batch = random_batch(rng)
        assert fresh_copy_error(batch, tau, floor=1e-8) >= 1e-4
        assert grad_check(batch, tau) == fresh_copy_error(batch, tau) < 1e-4


def fresh_copy_error(batch, tau, floor=None):
    """grad_check's metric at h = 1e-5, on a fresh copy for every probe.

    The denominator floor defaults to grad_check's roundoff floor.
    """
    loss, grad = scl_loss(batch, tau)
    if floor is None:
        roundoff = np.finfo(np.float64).eps * max(1.0, abs(loss), 1.0 / tau) / 1e-5
        floor = max(1e-8, 10.0 * roundoff / 1e-4)
    worst = 0.0
    for i, j in np.ndindex(*batch.reps.shape):
        bumped = batch.reps.copy()
        bumped[i, j] += 1e-5
        plus, _ = scl_loss(replace(batch, reps=bumped), tau)
        bumped[i, j] -= 2e-5
        minus, _ = scl_loss(replace(batch, reps=bumped), tau)
        numeric = (plus - minus) / 2e-5
        err = abs(numeric - grad[i, j]) / max(abs(numeric), abs(grad[i, j]), floor)
        worst = max(worst, err)
    return worst


class TestConfig:
    def test_defaults(self):
        cfg = SclConfig()
        assert cfg.tau == 0.25
        assert cfg.alpha == 0.05
        assert cfg.dropout_p == 0.1

    def test_scalar_alpha_is_kept_as_given(self):
        assert SclConfig(alpha=0.005).alpha == 0.005
        assert SclConfig(alpha=0).alpha == 0  # zero switches SCL off

    def test_validation(self):
        with pytest.raises(ValueError):
            SclConfig(tau=0.0)
        with pytest.raises(ValueError):
            SclConfig(dropout_p=1.0)
        for alpha in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^alpha must be finite and >= 0, got"):
                SclConfig(alpha=alpha)
        for alpha in ((0.05, 0.05, 0.05), (1.0, 2.0)):  # one weight serves all three losses
            with pytest.raises(TypeError):
                SclConfig(alpha=alpha)


class TestVerifySuites:
    def test_suites_pass_small(self):
        oracle = oracle_suite(batches=60, tau=0.25, seed=1)
        gradient = gradient_suite(batches=10, tau=0.25, seed=1)
        assert oracle.passed and gradient.passed

    def test_bad_tau_rejected_when_no_batch_runs(self):
        for suite in (oracle_suite, gradient_suite):
            for tau in (-1.0, 0.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="^tau must be positive and finite, got "):
                    suite(0, tau=tau, seed=0)

    def test_sign_flip_detected(self):
        def broken(batch, tau):
            loss, grad = scl_loss(batch, tau)
            return loss, -grad

        result = gradient_suite(batches=3, tau=0.25, seed=0, loss_fn=broken)
        assert not result.passed
        assert result.first_failure is not None

    def test_scaled_loss_detected_by_oracle(self):
        def broken(batch, tau):
            loss, grad = scl_loss(batch, tau)
            return 1.01 * loss, grad

        result = oracle_suite(batches=20, tau=0.25, seed=0, loss_fn=broken)
        assert not result.passed

    def test_failure_file_keys(self, tmp_path):
        def broken(batch, tau):
            loss, grad = scl_loss(batch, tau)
            return 1.01 * loss, grad

        path = save_failure(oracle_suite(batches=1, tau=0.25, seed=0, loss_fn=broken), tmp_path / "f.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload) == ["suite", "tau", "error", "reps", "labels"]

    def test_a_nan_error_fails_and_stays_the_max(self):
        # A NaN compares false with everything: neither max() nor >= would see it.
        calls = []

        def nan_first(batch, tau):
            loss, grad = scl_loss(batch, tau)
            calls.append(batch)
            return (math.nan if len(calls) == 1 else loss), grad

        result = oracle_suite(batches=5, tau=0.25, seed=0, loss_fn=nan_first)
        assert result.failures == 1 and math.isnan(result.max_error)
        assert result.summary() == "loss oracle: 4/5 within 1e-09 (max err nan) FAILED"

    def test_failure_file_is_strict_json_for_a_nan_error(self, tmp_path):
        def nan_loss(batch, tau):
            return math.nan, scl_loss(batch, tau)[1]

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        result = oracle_suite(batches=1, tau=0.25, seed=0, loss_fn=nan_loss)
        path = save_failure(result, tmp_path / "f.json")
        payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
        assert payload["error"] is None

    def test_random_batch_redraws_a_zeroed_view_row(self, monkeypatch):
        # Stream 5's seventh batch has dim 2, and its first dropout draw zeroes
        # a view row; the batch returned is the one a norm test would pick.
        drawn = []

        def recording(*args):
            drawn.append(extend_batch(*args))
            return drawn[-1]

        monkeypatch.setattr(verify, "extend_batch", recording)
        rng, old_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(7):
            drawn.clear()
            batch = random_batch(rng)
            expected = norm_tested_random_batch(old_rng)
            assert np.array_equal(batch.reps, expected.reps)
            assert np.array_equal(batch.labels, expected.labels)
        assert batch.reps.shape[1] == 2 and len(drawn) == 2
        assert (drawn[0].reps == 0.0).all(axis=1).any()
        assert (batch.reps != 0.0).any(axis=1).all()

    def test_negative_batch_count_rejected(self):
        for suite in (oracle_suite, gradient_suite):
            with pytest.raises(ValueError, match="batches must be >= 0, got -1"):
                suite(batches=-1, tau=0.25, seed=0)

    @pytest.mark.parametrize("tau", [0.05, 0.01])
    def test_oracle_holds_at_sharp_temperatures(self, tau):
        result = oracle_suite(batches=200, tau=tau, seed=3)
        assert result.passed, result.summary()

    def test_stable_at_sharp_temperature(self):
        oracle = oracle_suite(batches=40, tau=0.05, seed=2)
        gradient = gradient_suite(batches=8, tau=0.05, seed=2)
        assert oracle.passed, oracle.summary()
        assert gradient.passed, gradient.summary()


def norm_tested_random_batch(rng):
    """verify.random_batch with its zero-norm test written as np.linalg.norm."""
    n = int(rng.integers(1, 9))
    dim = int(rng.integers(2, 17))
    reps = rng.standard_normal((n, dim))
    labels = rng.integers(0, int(rng.integers(1, 4)), size=n)
    for _ in range(100):
        cfg = SclConfig(dropout_p=0.1, rng_seed=int(rng.integers(2**32)))
        batch = extend_batch(reps, labels, cfg)
        if np.linalg.norm(batch.reps, axis=1).min() > 0.0:
            return batch
    raise RuntimeError("could not draw a batch without zero-norm rows")


# Kernel mutants: (fragment of scl_loss's source, its replacement, the gates
# that must catch it). Gradient-only bugs leave the loss exact, so only the
# gradient gates see them; a wrong loss fails both gates.
MUTANTS = {
    "unmutated": ("", "", set()),
    "second gradient GEMM sign": ("g += buf.T @ w", "g -= buf.T @ w", {"gradient"}),
    "tangent projection dropped": (
        "g -= (tau * (w * g).sum(axis=1))[:, None] * w", "pass", {"gradient"}
    ),
    "class factor 2 -> 1": ("(2.0 / (class_sizes - 1))", "(1.0 / (class_sizes - 1))", {"gradient"}),
    "sqrt(tau) -> tau in the final scale": (
        "(rows * root_tau * norms)", "(rows * tau * norms)", {"gradient"}
    ),
    "pos_counts off by one": (
        "pos_counts = class_sizes[codes] - 1", "pos_counts = class_sizes[codes]",
        {"oracle", "gradient"},
    ),
    "row max left out of the log-sum-exp": (
        "lse = row_max + np.log(denom)", "lse = np.log(denom)", {"oracle", "gradient"}
    ),
    # A NaN error compares false with the tolerance; it must fail all the same.
    "NaN loss": ("return loss, g", "return math.nan, g", {"oracle", "gradient"}),
    "one NaN gradient entry": (
        "return loss, g", "g[0, 0] = math.nan; return loss, g", {"gradient"}
    ),
}


def mutant_loss(fragment, replacement):
    """scl_loss with one source fragment replaced, run in a copy of the module namespace."""
    source = inspect.getsource(scl.scl_loss)
    assert not fragment or source.count(fragment) == 1
    namespace = dict(vars(scl))
    exec(source.replace(fragment, replacement), namespace)
    return namespace["scl_loss"]


@pytest.mark.parametrize("name", MUTANTS)
def test_gates_catch_kernel_mutants(name):
    fragment, replacement, catchers = MUTANTS[name]
    loss_fn = mutant_loss(fragment, replacement)
    oracle = oracle_suite(batches=20, tau=0.25, seed=7, loss_fn=loss_fn)
    gradient = gradient_suite(batches=20, tau=0.25, seed=7, loss_fn=loss_fn)
    results = {"oracle": oracle, "gradient": gradient}
    assert {gate for gate, result in results.items() if not result.passed} == catchers
    if gradient.first_failure is not None:
        # The suite's error is grad_check's: replaying the saved batch fails it too.
        failure = gradient.first_failure
        batch = ReprBatch(np.array(failure["reps"]), np.array(failure["labels"]))
        assert not grad_check(batch, failure["tau"], loss_fn=loss_fn) < GRADIENT_TOLERANCE
