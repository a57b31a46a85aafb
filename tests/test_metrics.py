import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resplite import metrics
from resplite.metrics import EPS, EvalBatch, MetricError, auc, logloss, nce, sigmoid


def brute_force_auc(labels, preds):
    """O(n^2) pair-count oracle: wins plus half ties over all (pos, neg) pairs."""
    pos = [p for label, p in zip(labels, preds) if label == 1]
    neg = [p for label, p in zip(labels, preds) if label == 0]
    wins = 0.0
    for pp in pos:
        for pn in neg:
            if pp > pn:
                wins += 1.0
            elif pp == pn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestEvalBatch:
    def test_rejects_empty(self):
        with pytest.raises(MetricError, match="empty"):
            EvalBatch(np.array([]), np.array([]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(MetricError, match="equal length"):
            EvalBatch(np.array([1]), np.array([0.5, 0.5]))

    def test_rejects_bad_labels(self):
        with pytest.raises(MetricError, match="0 or 1"):
            EvalBatch(np.array([2]), np.array([0.5]))

    def test_rejects_out_of_range_predictions(self):
        with pytest.raises(MetricError, match="probabilities"):
            EvalBatch(np.array([1]), np.array([1.2]))

    def test_clamps_saturated_predictions(self):
        batch = EvalBatch(np.array([1, 0]), np.array([1.0, 0.0]))
        assert batch.predictions.max() <= 1 - 1e-15
        assert batch.predictions.min() >= 1e-15


class TestLogloss:
    def test_uniform_prediction_is_ln2(self):
        batch = EvalBatch(np.array([1]), np.array([0.5]))
        assert logloss(batch) == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_is_near_zero(self):
        batch = EvalBatch(np.array([1, 0]), np.array([1.0, 0.0]))
        assert logloss(batch) <= 1e-14

    def test_four_case_oracle_value(self):
        # frozen from the independent sum of four log terms
        want = -(math.log(0.9) + math.log(0.8) + math.log(0.8) + math.log(0.9)) / 4
        assert want == pytest.approx(0.16425203348601802, abs=1e-15)
        batch = EvalBatch(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.2, 0.1]))
        assert logloss(batch) == pytest.approx(want, abs=1e-12)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(EvalBatch(np.array([0, 1]), np.array([0.1, 0.9]))) == 1.0

    def test_all_ties_is_half(self):
        batch = EvalBatch(np.array([0, 1, 0, 1]), np.full(4, 0.3))
        assert auc(batch) == 0.5

    def test_single_class_errors(self):
        with pytest.raises(MetricError, match="single-class"):
            auc(EvalBatch(np.array([1, 1]), np.array([0.2, 0.4])))

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces heavy ties
            preds = rng.integers(0, 5, size=n) / 5.0 + 0.1
            batch = EvalBatch(labels, preds)
            assert auc(batch) == brute_force_auc(labels, batch.predictions)

    def test_monotone_transform_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        labels = rng.integers(0, 2, size=200)
        labels[0], labels[1] = 0, 1
        preds = rng.uniform(0.05, 0.95, size=200)
        a = auc(EvalBatch(labels, preds))
        b = auc(EvalBatch(labels, np.sqrt(preds)))
        assert a == b


class TestNce:
    def test_identity_at_background_rate(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(20):
            n = int(rng.integers(2, 500))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            p = labels.mean()
            result = nce(EvalBatch(labels, np.full(n, p)))
            assert result.nce == pytest.approx(1.0, abs=1e-12)

    def test_four_case_oracle_value(self):
        # oracle: 0.16425203348601802 / ln 2
        want = 0.16425203348601802 / math.log(2)
        assert want == pytest.approx(0.23696559416620616, abs=1e-15)
        result = nce(EvalBatch(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.2, 0.1])))
        assert result.background_rate == 0.5
        assert result.background_entropy == pytest.approx(math.log(2), abs=1e-15)
        assert result.nce == pytest.approx(want, abs=1e-12)

    def test_informative_predictions_score_below_one(self):
        result = nce(EvalBatch(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.2, 0.1])))
        assert result.mean_logloss < result.background_entropy
        assert result.nce < 1.0

    def test_single_class_names_denominator(self):
        with pytest.raises(MetricError, match="denominator"):
            nce(EvalBatch(np.array([0, 0]), np.array([0.1, 0.2])))


class TestJointInvariance:
    def test_permutation_leaves_metrics_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(9))
        labels = rng.integers(0, 2, size=300)
        labels[:2] = [0, 1]
        preds = rng.uniform(0.01, 0.99, size=300)
        perm = rng.permutation(300)
        a = EvalBatch(labels, preds)
        b = EvalBatch(labels[perm], preds[perm])
        assert logloss(a) == pytest.approx(logloss(b), abs=1e-12)
        assert auc(a) == pytest.approx(auc(b), abs=1e-12)
        assert nce(a).nce == pytest.approx(nce(b).nce, abs=1e-12)


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The body ``sigmoid`` had before it moved to two buffers: a gather,
    an exp and a divide per sign."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_logloss(batch: EvalBatch) -> float:
    """The body ``logloss`` had before it moved to one buffer."""
    p = batch.predictions
    y = batch.labels
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


#: the edge inputs of the bit-identity tests: ±0, exp's underflow edge, ±inf
_EDGES = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf]
_LOGITS = st.lists(
    st.one_of(st.floats(allow_nan=False), st.sampled_from(_EDGES),
              st.floats(-40, 40, allow_nan=False)),
    min_size=1, max_size=60,
)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestBitIdentityWithTheReferenceBodies:
    @settings(max_examples=300, deadline=None)
    @given(z=_LOGITS)
    @example(z=_EDGES)
    def test_sigmoid(self, z):
        z = np.asarray(z, dtype=np.float64)
        assert np.array_equal(_bits(sigmoid(z)), _bits(_reference_sigmoid(z)))

    def test_sigmoid_keeps_nan_a_nan(self):
        # a NaN stays NaN, but exp(-|z|) may flip its sign bit, so only
        # NaN-ness is compared
        z = np.array([np.nan, -np.nan, 1.0, -1.0])
        got, want = sigmoid(z), _reference_sigmoid(z)
        assert np.isnan(got[:2]).all() and np.isnan(want[:2]).all()
        assert np.array_equal(_bits(got[2:]), _bits(want[2:]))

    @settings(max_examples=300, deadline=None)
    @given(z=_LOGITS, data=st.data())
    @example(z=_EDGES, data=None)
    def test_logloss_of_sigmoid(self, z, data):
        z = np.asarray(z, dtype=np.float64)
        if data is None:
            labels = np.arange(len(z)) % 2
        else:
            labels = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=len(z),
                                                   max_size=len(z))))
        batch = EvalBatch(labels, sigmoid(z))
        assert _bits(logloss(batch)) == _bits(_reference_logloss(batch))

    @pytest.mark.parametrize("label", [0, 1])
    def test_logloss_at_the_clamp(self, label):
        preds = np.array([0.0, -0.0, 1.0, EPS, 1 - EPS, EPS / 2, 1 - EPS / 2, 0.5])
        batch = EvalBatch(np.full(len(preds), label), preds)
        assert _bits(logloss(batch)) == _bits(_reference_logloss(batch))


#: predictions on a coarse grid (heavy ties) plus values at and beyond the
#: clamp, which EvalBatch folds onto EPS and 1 - EPS
_PREDICTIONS = st.one_of(
    st.sampled_from([0.0, EPS / 3, EPS, 0.25, 0.5, 0.75, 1 - EPS, 1 - EPS / 3, 1.0]),
    st.floats(0.0, 1.0),
)


class TestAucPairCount:
    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 1), _PREDICTIONS), min_size=2, max_size=80))
    @example(rows=[(1, 0.3), (0, 0.3)])
    @example(rows=[(1, 0.0), (0, EPS), (0, 1e-300), (0, 0.5)])  # a single positive
    @example(rows=[(0, 1.0), (1, 1 - EPS), (1, 1 - 1e-17), (1, 0.5)])  # a single negative
    def test_equals_the_pair_count_oracle(self, rows):
        labels = np.array([label for label, _ in rows])
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        batch = EvalBatch(labels, np.array([p for _, p in rows]))
        assert auc(batch) == brute_force_auc(labels, batch.predictions)


def _reference_metrics(labels, preds) -> tuple[float, float, float, float]:
    """(logloss, nce, background rate, auc) by the bodies the metrics had
    while ``EvalBatch`` kept its labels as a float64 copy."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(preds, dtype=np.float64), EPS, 1.0 - EPS)
    terms = np.negative(p)
    np.log1p(terms, out=terms)
    np.log(p, out=terms, where=y == 1.0)
    ll = float(-np.mean(terms))
    rate = float(y.mean())
    entropy = float(-(rate * np.log(rate) + (1.0 - rate) * np.log(1.0 - rate)))
    is_pos = y == 1.0
    n_pos = int(np.count_nonzero(is_pos))
    n_neg = len(y) - n_pos
    sort_pos = n_pos > n_neg
    ref = np.sort(p[is_pos if sort_pos else ~is_pos])
    query = p[~is_pos if sort_pos else is_pos]
    twice = int(np.searchsorted(ref, query, side="left").sum())
    twice += int(np.searchsorted(ref, query, side="right").sum())
    if sort_pos:
        twice = 2 * n_pos * n_neg - twice
    return ll, ll / entropy, rate, twice / 2 / (n_pos * n_neg)


class TestOneByteLabels:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 1), _PREDICTIONS), min_size=2, max_size=80),
           dtype=st.sampled_from([np.uint8, np.int64, np.float64, bool]))
    def test_metrics_equal_the_float_label_bodies(self, rows, dtype):
        labels = np.array([label for label, _ in rows])
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        preds = np.array([p for _, p in rows])
        batch = EvalBatch(labels.astype(dtype), preds)
        r = nce(batch)
        got = (logloss(batch), r.nce, r.background_rate, auc(batch))
        assert _bits(got).tolist() == _bits(_reference_metrics(labels, preds)).tolist()

    def test_labels_take_one_byte_a_row(self):
        batch = EvalBatch(np.array([0, 1, 1], dtype=np.uint8), np.array([0.2, 0.7, 0.9]))
        assert batch.labels.itemsize == 1
        assert batch.labels.tolist() == [False, True, True]


class TestClampOnlyWhenNeeded:
    def test_in_range_predictions_are_held_without_a_copy(self):
        n = 200_000
        preds = np.linspace(0.1, 0.9, n)
        labels = (np.arange(n) % 2).astype(np.uint8)
        tracemalloc.start()
        try:
            batch = EvalBatch(labels, preds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bool labels take n bytes and one comparison n more; a float
        # copy of the predictions would take 8n
        assert peak < 4 * n
        assert batch.predictions is preds

    def test_clamp_copies_and_leaves_the_callers_array_alone(self):
        preds = np.array([0.0, 1.0, 0.5, EPS / 2])
        before = _bits(preds).copy()
        batch = EvalBatch(np.array([0, 1, 1, 0]), preds)
        assert np.array_equal(_bits(preds), before)
        assert not np.shares_memory(batch.predictions, preds)
        assert batch.predictions.tolist() == [EPS, 1 - EPS, 0.5, EPS]

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, -0.5, 1.5, np.inf])
    def test_rejects_predictions_outside_the_unit_interval_and_nan(self, bad):
        with pytest.raises(MetricError, match="probabilities"):
            EvalBatch(np.array([0, 1, 1]), np.array([0.5, bad, 0.25]))

    @settings(max_examples=200, deadline=None)
    @given(z=_LOGITS)
    @example(z=_EDGES)
    def test_sigmoid_into_a_buffer_equals_the_fresh_result(self, z):
        z = np.asarray(z, dtype=np.float64)
        buf = np.full_like(z, 7.0)
        assert sigmoid(z, out=buf) is buf
        assert np.array_equal(_bits(buf), _bits(sigmoid(z)))


def _batch_rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` labels (both classes, at a positive rate drawn per batch) and
    predictions that mix a coarse grid (ties), clamped values and uniforms."""
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.uint8)
    labels[:2] = [0, 1]
    preds = rng.random(n)
    grid = rng.random(n) < 0.3
    preds[grid] = rng.integers(0, 5, size=int(grid.sum())) / 4.0
    return labels, preds


def _metric_bits(labels, preds) -> list[int]:
    batch = EvalBatch(labels, preds)
    r = nce(batch)
    return _bits((logloss(batch), r.nce, r.background_rate, auc(batch))).tolist()


class TestBlocksKeepTheBits:
    """The metrics go over blocks of rows; each block size must give the
    one-pass results bit for bit.  Log loss sums its blocks in numpy's
    pairwise order, so if numpy changes that order these tests fail."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 700), block=st.integers(8, 64), seed=st.integers(0, 2**32 - 1))
    @example(n=700, block=8, seed=0)
    @example(n=129, block=64, seed=1)
    def test_small_blocks_equal_the_one_pass_bodies(self, n, block, seed):
        labels, preds = _batch_rows(n, seed)
        with mock.patch.object(metrics, "_EVAL_BLOCK", block):
            got = _metric_bits(labels, preds)
        assert got == _bits(_reference_metrics(labels, preds)).tolist()

    def test_real_blocks_at_100003_rows(self):
        n = 100_003
        assert n > 3 * metrics._EVAL_BLOCK
        labels, preds = _batch_rows(n, 17)
        assert _metric_bits(labels, preds) == _bits(_reference_metrics(labels, preds)).tolist()


def _rank_sum_auc(labels, preds) -> float:
    """AUC from the Mann-Whitney rank sum of the positives, with tied rows
    at their mid-rank; twice each rank is an integer, so the count is
    exact."""
    _, inverse, counts = np.unique(preds, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based rank of each value's last row
    twice_rank = (last - counts + 1 + last)[inverse]
    is_pos = labels == 1
    n_pos = int(is_pos.sum())
    n_neg = len(labels) - n_pos
    twice_u = int(twice_rank[is_pos].sum()) - n_pos * (n_pos + 1)
    return twice_u / 2 / (n_pos * n_neg)


class TestAucAgainstTheRankSum:
    @settings(max_examples=300, deadline=None)
    @given(n_small=st.integers(1, 150), extra=st.integers(0, 150),
           smaller=st.sampled_from(["pos", "neg", "equal"]),
           levels=st.integers(1, 40), block=st.integers(8, 64),
           seed=st.integers(0, 2**32 - 1))
    @example(n_small=1, extra=0, smaller="equal", levels=1, block=8, seed=0)
    def test_equals_the_rank_sum(self, n_small, extra, smaller, levels, block, seed):
        # n_pos below, above or equal to n_neg; predictions on a grid of
        # ``levels`` values tie across and within the classes
        n_pos = n_small + (extra if smaller == "neg" else 0)
        n_neg = n_small + (extra if smaller == "pos" else 0)
        rng = np.random.Generator(np.random.PCG64(seed))
        labels = rng.permutation(np.repeat(np.array([1, 0], dtype=np.uint8), [n_pos, n_neg]))
        preds = rng.integers(0, levels + 1, len(labels)) / levels
        with mock.patch.object(metrics, "_EVAL_BLOCK", block):
            got = auc(EvalBatch(labels, preds))
        assert got == _rank_sum_auc(labels, np.clip(preds, EPS, 1 - EPS))


class TestEvaluationMemory:
    N = 400_000

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.Generator(np.random.PCG64(4))
        labels = (rng.random(self.N) < 0.24).astype(np.uint8)
        return EvalBatch(labels, rng.uniform(0.01, 0.99, self.N))

    def _peak_bytes_per_row(self, fn, batch) -> float:
        tracemalloc.start()
        try:
            fn(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / self.N

    def test_nce_makes_no_full_length_float_temporary(self, batch):
        # one block of terms is 2**15 * 8 bytes; the per-row terms of the
        # whole batch would take 8 bytes a row
        assert self._peak_bytes_per_row(nce, batch) < 1.0

    def test_auc_copies_only_the_larger_class(self, batch):
        # the sorted copy of the 76% negatives takes 6.1 bytes a row; a copy
        # of the other class and its search results would add 3.8 more
        assert self._peak_bytes_per_row(auc, batch) < 8.0

    def test_auc_sorts_only_the_smaller_class(self, batch):
        # the sorted copy of the 24% positives takes 1.9 bytes a row; a copy
        # of the 76% negatives would take 6.1
        assert self._peak_bytes_per_row(auc, batch) < 4.0
