import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from resplite import metrics, pipeline
from resplite.gbdt import (
    GbdtError,
    GbdtModel,
    GbdtParams,
    feature_importance,
    fit,
    load_model,
    params_from_json,
    predict,
    save_model,
    tree_output,
)
from resplite.gbdt.binning import (
    _BIN_BLOCK,
    BinMapper,
    NumericBins,
    bin_column,
    bin_table,
    build_bin_mapper,
)
from resplite.gbdt.boosting import _grad_hess
from resplite.gbdt.tree import _SCORE_BLOCK, _build_hist, _compile, _scan_plan, tree_from_json
from resplite.pipeline import train_stage
from resplite.report import write_predictions_csv
from resplite.tabular import ColumnRole, MISSING_TOKEN, Schema, SplitPlan, Table, split_rows

from conftest import (
    count_leaves, dictionary_of, make_cat_table, make_table, predict_raw, split, total_leaves,
    tree_docs,
)


def separable_tables(n_train=2000, n_valid=400, seed=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal(n_train + n_valid)
    y = (x > 0).astype(np.uint8)
    days = np.concatenate(
        [np.full(n_train, 45), np.full(n_valid, 46)]
    )
    table = make_table(days, x, y)
    idx = np.arange(n_train + n_valid)
    return table.take(idx[:n_train]), table.take(idx[n_train:])


def loss_grad_hess(score: float, label: int) -> tuple[float, float]:
    """Gradient and hessian of the logistic loss at one (score, label), by
    :func:`_grad_hess`, the body that ``fit`` runs on every row."""
    grad, hess = _grad_hess(metrics.sigmoid(np.array([score])), np.array([label]))
    return float(grad[0]), float(hess[0])


class TestLossGradHess:
    def test_at_zero_score(self):
        grad, hess = loss_grad_hess(0.0, 1)
        assert grad == -0.5
        assert hess == 0.25

    def test_gradient_matches_finite_difference(self):
        rng = np.random.Generator(np.random.PCG64(4))
        grad_eps = 1e-6
        hess_eps = 1e-3  # second differences need a larger step for roundoff

        def loss(score, label):
            p = 1.0 / (1.0 + math.exp(-score))
            return -(label * math.log(p) + (1 - label) * math.log(1 - p))

        for _ in range(1000):
            score = float(rng.uniform(-6, 6))
            label = int(rng.integers(0, 2))
            grad, hess = loss_grad_hess(score, label)
            num_grad = (
                loss(score + grad_eps, label) - loss(score - grad_eps, label)
            ) / (2 * grad_eps)
            num_hess = (
                loss(score + hess_eps, label)
                - 2 * loss(score, label)
                + loss(score - hess_eps, label)
            ) / (hess_eps * hess_eps)
            assert grad == pytest.approx(num_grad, abs=1e-6)
            assert hess == pytest.approx(num_hess, abs=1e-4)


    def test_vectorized_gradients_match_the_scalar_ones(self):
        # fit takes its gradients from _grad_hess at sigmoid(scores)
        scores = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-700.0, 700.0]])
        for label in (0, 1):
            grad, hess = _grad_hess(metrics.sigmoid(scores), np.full(len(scores), float(label)))
            want = np.array([loss_grad_hess(float(s), label) for s in scores])
            np.testing.assert_allclose(grad, want[:, 0], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(hess, want[:, 1], rtol=1e-12, atol=1e-15)


class TestParams:
    def test_paper_defaults(self):
        p = GbdtParams()
        assert p.num_leaves == 491
        assert p.max_depth == -1
        assert p.num_iterations == 10000
        assert p.early_stopping_rounds == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_leaves": 1},
            {"max_bins": 256},
            {"max_bins": 1},
            {"learning_rate": 0.0},
            {"early_stopping_rounds": 0},
            {"feature_fraction": 0.0},
            {"lambda_l2": -1.0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(GbdtError):
            GbdtParams(**kwargs)


@pytest.mark.parametrize("doc, match", [
    ({"num_leaves": 31.5}, "num_leaves is 31.5, not int"),
    ({"max_bins": 100.5}, "max_bins is 100.5, not int"),
    ({"seed": 1.5}, "seed is 1.5, not int"),
    ({"max_depth": "3"}, "max_depth is '3', not int"),
    ({"feature_fraction": True}, "feature_fraction is True, not int or float"),
])
def test_params_of_the_wrong_json_type_rejected(doc, match):
    with pytest.raises(GbdtError, match=match):
        params_from_json(doc)


class TestFit:
    def test_learns_separable_data(self):
        train, valid = separable_tables()
        params = GbdtParams(
            num_leaves=15, learning_rate=0.1, num_iterations=50,
            early_stopping_rounds=50, min_data_in_leaf=5,
        )
        model = fit(params, train, valid, ["x0"])
        batch = metrics.EvalBatch(valid.col("y"), predict(model, valid))
        assert metrics.auc(batch) >= 0.99
        assert metrics.logloss(batch) <= 0.1

    def test_single_class_train_errors(self):
        train, valid = separable_tables(200, 50)
        bad = make_table(
            np.full(100, 45), np.arange(100, dtype=float), np.ones(100, dtype=np.uint8)
        )
        with pytest.raises(GbdtError, match="single-class"):
            fit(GbdtParams(num_leaves=4), bad, valid, ["x0"])

    def test_empty_valid_errors(self):
        train, valid = separable_tables(200, 50)
        empty = valid.take(np.array([], dtype=np.int64))
        with pytest.raises(GbdtError, match="empty"):
            fit(GbdtParams(num_leaves=4), train, empty, ["x0"])

    @pytest.mark.parametrize("rows", [np.empty(0, dtype=np.int64), slice(5, 5), None])
    def test_empty_train_rows_error(self, rows):
        # None: a train table of no rows, all of which are given
        train, valid = separable_tables(200, 50)
        if rows is None:
            train, rows = train.take(np.empty(0, dtype=np.int64)), slice(None)
        with pytest.raises(GbdtError, match="^the train rows are empty; cannot fit$"):
            fit(GbdtParams(num_leaves=4), train, valid, ["x0"], rows=rows)

    def test_label_as_feature_rejected(self):
        train, valid = separable_tables(100, 40)
        with pytest.raises(GbdtError, match="cannot"):
            fit(GbdtParams(num_leaves=4), train, valid, ["y"])

    def test_constant_features_give_zero_trees(self):
        n = 400
        rng = np.random.Generator(np.random.PCG64(2))
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        table = make_table(np.full(n, 45), np.full(n, 3.0), y)
        valid = make_table(np.full(60, 46), np.full(60, 3.0),
                           rng.integers(0, 2, size=60).astype(np.uint8))
        model = fit(GbdtParams(num_leaves=8), table, valid, ["x0"])
        assert model.n_trees == 0
        probs = predict(model, table)
        base = y.mean()
        assert np.allclose(probs, base, atol=1e-12)
        result = metrics.nce(metrics.EvalBatch(y, probs))
        assert result.nce == pytest.approx(1.0, abs=1e-9)

    def test_train_logloss_non_increasing(self):
        rng = np.random.Generator(np.random.PCG64(8))
        n = 3000
        x = rng.standard_normal(n)
        p = 1 / (1 + np.exp(-1.2 * x))
        y = (rng.random(n) < p).astype(np.uint8)
        days = np.where(np.arange(n) < 2500, 45, 46)
        table = make_table(days, x, y)
        idx = np.arange(n)
        train, valid = table.take(idx[:2500]), table.take(idx[2500:])
        model = fit(
            GbdtParams(num_leaves=31, learning_rate=0.1, num_iterations=120,
                       early_stopping_rounds=120, min_data_in_leaf=5),
            train, valid, ["x0"],
        )
        curve = model.train_curve
        assert len(curve) > 10
        for earlier, later in zip(curve, curve[1:]):
            assert later <= earlier + 1e-9

    def test_internal_curve_matches_external_metrics(self):
        train, valid = separable_tables(500, 100, seed=5)
        model = fit(
            GbdtParams(num_leaves=7, num_iterations=20, early_stopping_rounds=20,
                       learning_rate=0.2, min_data_in_leaf=5),
            train, valid, ["x0"],
        )
        probs = predict(model, train)
        external = metrics.logloss(metrics.EvalBatch(train.col("y"), probs))
        assert external == model.train_curve[model.n_trees - 1]


class TestEarlyStopping:
    def noisy_tables(self, seed=3):
        rng = np.random.Generator(np.random.PCG64(seed))
        n_train, n_valid = 1500, 700
        x = rng.standard_normal(n_train + n_valid)
        p = 1 / (1 + np.exp(-0.8 * x))
        y = (rng.random(n_train + n_valid) < p).astype(np.uint8)
        days = np.concatenate([np.full(n_train, 45), np.full(n_valid, 46)])
        table = make_table(days, x, y)
        idx = np.arange(n_train + n_valid)
        return table.take(idx[:n_train]), table.take(idx[n_train:])

    def test_retained_trees_equal_argmin_of_valid_curve(self):
        train, valid = self.noisy_tables()
        params = GbdtParams(
            num_leaves=31, learning_rate=0.3, num_iterations=400,
            early_stopping_rounds=30, min_data_in_leaf=5,
        )
        model = fit(params, train, valid, ["x0"])
        curve = np.asarray(model.valid_curve)
        assert model.n_trees == int(np.argmin(curve)) + 1
        # early stopping must have fired before the cap
        assert len(curve) < params.num_iterations

    def test_extra_iteration_budget_changes_nothing(self):
        train, valid = self.noisy_tables()
        base = dict(
            num_leaves=31, learning_rate=0.3, early_stopping_rounds=30,
            min_data_in_leaf=5,
        )
        m1 = fit(GbdtParams(num_iterations=400, **base), train, valid, ["x0"])
        m2 = fit(GbdtParams(num_iterations=500, **base), train, valid, ["x0"])
        p1 = predict(m1, valid)
        p2 = predict(m2, valid)
        assert np.array_equal(p1, p2)
        assert m1.n_trees == m2.n_trees


class TestPredict:
    def test_zero_tree_fit_keeps_the_valid_predictions_of_the_prior(self):
        n = 300
        rng = np.random.Generator(np.random.PCG64(12))
        table = make_table(np.full(n, 45), np.zeros(n), (rng.random(n) < 0.3).astype(np.uint8))
        valid = make_table(np.full(50, 46), np.zeros(50), rng.integers(0, 2, 50).astype(np.uint8))
        model = fit(GbdtParams(num_leaves=4), table, valid, ["x0"])
        assert model.n_trees == 0
        assert model.valid_probs.tobytes() == predict(model, valid).tobytes()

    def test_zero_tree_model_predicts_prior(self):
        n = 300
        rng = np.random.Generator(np.random.PCG64(12))
        y = (rng.random(n) < 0.3).astype(np.uint8)
        table = make_table(np.full(n, 45), np.zeros(n), y)
        valid = make_table(np.full(50, 46), np.zeros(50),
                           rng.integers(0, 2, 50).astype(np.uint8))
        model = fit(GbdtParams(num_leaves=4), table, valid, ["x0"])
        assert model.n_trees == 0
        expected = 1 / (1 + math.exp(-model.base_score))
        assert np.allclose(predict(model, table), expected)

    def test_manual_stump_prediction(self):
        # stump: x <= 0 -> -v*lr, else +v*lr, on top of a known base score
        base = math.log(0.4 / 0.6)
        v, lr = 0.7, 0.05
        mapper = BinMapper(("x0",), (NumericBins(np.array([0.0])),))
        stump = tree_from_json(
            {"feature": 0, "threshold_bin": 1, "missing_left": True,
             "left": {"leaf": -v * lr}, "right": {"leaf": +v * lr}},
            mapper.n_bins(), [False],
        )
        model = GbdtModel(
            params=GbdtParams(num_leaves=2),
            bin_mapper=mapper,
            base_score=base,
            trees=[stump],
        )
        table = make_table([45, 45], [-1.0, 2.0], [0, 1])
        probs = predict(model, table)
        want_low = 1 / (1 + math.exp(-(base - v * lr)))
        want_high = 1 / (1 + math.exp(-(base + v * lr)))
        assert probs[0] == pytest.approx(want_low, abs=1e-15)
        assert probs[1] == pytest.approx(want_high, abs=1e-15)

    def test_unseen_category_routes_without_error(self):
        rng = np.random.Generator(np.random.PCG64(6))
        n = 600
        codes = rng.integers(1, 4, size=n).astype(np.int32)
        y = (codes == 2).astype(np.uint8)
        dictionary = [MISSING_TOKEN, "a", "b", "c", "never_in_train"]
        table = make_cat_table(np.full(n, 45), codes, dictionary, y)
        valid = make_cat_table(np.full(80, 46), codes[:80], dictionary, y[:80])
        model = fit(GbdtParams(num_leaves=4, min_data_in_leaf=5,
                               num_iterations=10, early_stopping_rounds=10),
                    table, valid, ["cat"])
        probe = make_cat_table([46], [4], dictionary, [0])
        out = predict(model, probe)
        assert 0.0 < out[0] < 1.0

    def test_column_role_must_match_the_model(self):
        n = 600
        rng = np.random.Generator(np.random.PCG64(7))
        codes = rng.integers(1, 4, size=n).astype(np.int32)
        y = (codes == 2).astype(np.uint8)
        dictionary = [MISSING_TOKEN, "a", "b", "c"]
        cat_table = make_cat_table(np.full(n, 45), codes, dictionary, y)
        params = GbdtParams(num_leaves=4, min_data_in_leaf=5,
                            num_iterations=5, early_stopping_rounds=5)
        cat_model = fit(params, cat_table, cat_table, ["cat"])
        # the same column, unquantized: continuous under categorical bins
        raw = Table.from_columns(
            Schema((("day", ColumnRole.DAY), ("cat", ColumnRole.CONTINUOUS),
                    ("y", ColumnRole.LABEL_INSTALL))),
            {"day": np.full(n, 45), "cat": codes + 0.3, "y": y},
        )
        with pytest.raises(GbdtError, match="'cat'"):
            predict(cat_model, raw)
        with pytest.raises(GbdtError, match="'cat'"):  # with no rows too
            predict(cat_model, raw.take(np.arange(0)))
        # and the reverse: categorical under numeric bins
        num_model = fit(params, raw, raw, ["cat"])
        with pytest.raises(GbdtError, match="'cat'"):
            predict(num_model, cat_table)

    def test_missing_values_follow_default_direction(self):
        rng = np.random.Generator(np.random.PCG64(9))
        n = 1000
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.3] = np.nan
        y = np.where(np.isnan(x), rng.random(n) < 0.8, x > 0).astype(np.uint8)
        days = np.where(np.arange(n) < 800, 45, 46)
        table = make_table(days, x, y)
        idx = np.arange(n)
        train, valid = table.take(idx[:800]), table.take(idx[800:])
        model = fit(GbdtParams(num_leaves=8, min_data_in_leaf=5, num_iterations=60,
                               early_stopping_rounds=60, learning_rate=0.2),
                    train, valid, ["x0"])
        batch = metrics.EvalBatch(valid.col("y"), predict(model, valid))
        assert metrics.auc(batch) > 0.8


class TestImportance:
    def test_zero_tree_model_counts_zero(self):
        n = 200
        rng = np.random.Generator(np.random.PCG64(1))
        y = rng.integers(0, 2, n).astype(np.uint8)
        table = make_table(np.full(n, 45), np.zeros(n), y)
        valid = make_table(np.full(30, 46), np.zeros(30),
                           rng.integers(0, 2, 30).astype(np.uint8))
        model = fit(GbdtParams(num_leaves=4), table, valid, ["x0"])
        assert feature_importance(model) == [("x0", 0)]

    def test_split_counts_match_tree_walk_oracle(self):
        rng = np.random.Generator(np.random.PCG64(3))
        n = 2000
        x0 = rng.standard_normal(n)
        x1 = rng.standard_normal(n)
        p = 1 / (1 + np.exp(-(x0 - 0.5 * x1)))
        y = (rng.random(n) < p).astype(np.uint8)
        days = np.where(np.arange(n) < 1700, 45, 46)
        table = make_table(days, x0, y, extra_cont={"x1": x1})
        idx = np.arange(n)
        train, valid = table.take(idx[:1700]), table.take(idx[1700:])
        model = fit(GbdtParams(num_leaves=15, num_iterations=40,
                               early_stopping_rounds=40, learning_rate=0.1,
                               min_data_in_leaf=5),
                    train, valid, ["x0", "x1"])

        def walk(node, counter):
            if "leaf" in node:
                return
            counter[node["feature"]] += 1
            walk(node["left"], counter)
            walk(node["right"], counter)

        oracle = np.zeros(2, dtype=int)
        for doc in tree_docs(model):
            walk(doc, oracle)
        ranked = feature_importance(model)
        counts = dict(ranked)
        assert [counts["x0"], counts["x1"]] == oracle.tolist()
        assert sum(counts.values()) == total_leaves(model) - model.n_trees
        assert ranked[0][1] >= ranked[1][1]

    def test_leaf_budget_respected(self):
        train, valid = separable_tables(3000, 500, seed=13)
        params = GbdtParams(num_leaves=6, num_iterations=30,
                            early_stopping_rounds=30, min_data_in_leaf=5)
        model = fit(params, train, valid, ["x0"])
        for doc in tree_docs(model):
            assert count_leaves(doc) <= 6


def _reference_bin_column(fb: NumericBins, values: np.ndarray) -> np.ndarray:
    """The ``searchsorted`` binning that ``bin_column`` replaced."""
    out = np.zeros(len(values), dtype=np.uint8)
    finite = ~np.isnan(values)
    out[finite] = (
        np.searchsorted(fb.thresholds, values[finite], side="left") + 1
    ).astype(np.uint8)
    return out


#: floats a threshold list draws from, so that equal neighbours are common
_SPECIAL = [0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf]
_THRESHOLD = st.one_of(st.floats(allow_nan=False), st.sampled_from(_SPECIAL))


class TestBinColumn:
    @settings(max_examples=300, deadline=None)
    @given(thresholds=st.lists(_THRESHOLD, max_size=254).map(sorted),
           others=st.lists(st.floats(), max_size=40))
    @example(thresholds=[0.5], others=[])
    @example(thresholds=[1.0] * 254, others=[])
    @example(thresholds=[-np.inf, -np.inf, 0.0, np.inf, np.inf], others=[])
    @example(thresholds=[5e-324, 1e-310, 2.2250738585072014e-308], others=[0.0, -0.0])
    def test_equals_searchsorted_and_is_monotone(self, thresholds, others):
        fb = NumericBins(np.asarray(thresholds, dtype=np.float64))
        t = fb.thresholds
        with np.errstate(over="ignore"):  # the neighbours of the largest float
            around = [np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
        values = np.concatenate([
            t, *around, [np.nan, np.inf, -np.inf, 0.0, -0.0], np.asarray(others, dtype=np.float64),
        ])
        got = bin_column(fb, values)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _reference_bin_column(fb, values))
        nan = np.isnan(values)
        assert (got[nan] == 0).all() and (got[~nan] >= 1).all()
        order = np.argsort(values[~nan], kind="stable")
        assert (np.diff(got[~nan][order].astype(np.int64)) >= 0).all()

    def test_blocks_join_seamlessly(self):
        rng = np.random.Generator(np.random.PCG64(12))
        fb = NumericBins(np.unique(rng.standard_normal(254)))
        values = rng.standard_normal(2 * _BIN_BLOCK + 7)
        values[rng.random(len(values)) < 0.1] = np.nan
        assert np.array_equal(bin_column(fb, values), _reference_bin_column(fb, values))

    @pytest.mark.parametrize("max_bins", [2, 200, 255])
    @pytest.mark.parametrize("n_codes", [256, 65536, 65537])
    def test_codes_of_every_width_bin_up_to_the_overflow_bin(self, n_codes, max_bins):
        # uint8, uint16 and int32 codes, each up to its dictionary's last
        codes = np.array([0, 1, max_bins - 2, max_bins - 1, 254, 255, 256, n_codes - 1])
        codes = np.minimum(codes, n_codes - 1)
        table = Table.from_columns(Schema((("c", ColumnRole.CATEGORICAL),)), {"c": codes},
                                   {"c": dictionary_of(n_codes)})
        binned = bin_table(build_bin_mapper(table, ["c"], max_bins), table)
        assert binned.dtype == np.uint8
        assert binned[0].tolist() == np.minimum(codes, max_bins - 1).tolist()


class TestHistograms:
    def test_subtraction_identity(self):
        rng = np.random.Generator(np.random.PCG64(21))
        n = 5000
        schema = Schema(
            (("day", ColumnRole.DAY),
             ("x0", ColumnRole.CONTINUOUS),
             ("x1", ColumnRole.CONTINUOUS),
             ("y", ColumnRole.LABEL_INSTALL))
        )
        x0 = rng.standard_normal(n)
        x0[rng.random(n) < 0.1] = np.nan
        table = Table.from_columns(schema, {
            "day": np.full(n, 45),
            "x0": x0,
            "x1": rng.standard_normal(n),
            "y": rng.integers(0, 2, n).astype(np.uint8),
        })
        mapper = build_bin_mapper(table, ["x0", "x1"], 64)
        binned = bin_table(mapper, table)
        grad = rng.standard_normal(n)
        hess = rng.uniform(0.01, 0.25, n)
        scan = _scan_plan(np.array([0, 1]), mapper.n_bins(), np.zeros(2, dtype=bool))
        rows = np.arange(n, dtype=np.int64)
        parent_gh, parent_c = _build_hist(binned, scan, rows, grad, hess)
        mask = rng.random(n) < 0.4
        left_gh, left_c = _build_hist(binned, scan, rows[mask], grad, hess)
        right_gh, right_c = _build_hist(binned, scan, rows[~mask], grad, hess)
        # integer counts are exact; gradient sums within float tolerance
        assert np.array_equal(parent_c, left_c + right_c)
        assert np.allclose(parent_gh - left_gh, right_gh, atol=1e-9)


class TestDeterminism:
    def test_repeat_fit_is_bit_identical(self):
        rng = np.random.Generator(np.random.PCG64(17))
        n = 4000
        x0 = rng.standard_normal(n)
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        p = 1 / (1 + np.exp(-(0.9 * x0 - 0.7 * x1 + 0.3 * x2)))
        y = (rng.random(n) < p).astype(np.uint8)
        days = np.where(np.arange(n) < 3400, 45, 46)
        table = make_table(days, x0, y, extra_cont={"x1": x1, "x2": x2})
        idx = np.arange(n)
        train, valid = table.take(idx[:3400]), table.take(idx[3400:])
        params = GbdtParams(num_leaves=31, num_iterations=40,
                            early_stopping_rounds=40, learning_rate=0.1,
                            min_data_in_leaf=5, seed=2)
        m1 = fit(params, train, valid, ["x0", "x1", "x2"])
        m2 = fit(params, train, valid, ["x0", "x1", "x2"])
        assert np.array_equal(predict(m1, valid), predict(m2, valid))
        assert m1.valid_curve == m2.valid_curve

    def test_same_seed_reproduces_with_feature_fraction(self):
        rng = np.random.Generator(np.random.PCG64(19))
        n = 2000
        cols = {f"x{i}": rng.standard_normal(n) for i in range(1, 5)}
        x0 = rng.standard_normal(n)
        p = 1 / (1 + np.exp(-(x0 + cols["x1"])))
        y = (rng.random(n) < p).astype(np.uint8)
        days = np.where(np.arange(n) < 1700, 45, 46)
        table = make_table(days, x0, y, extra_cont=cols)
        idx = np.arange(n)
        train, valid = table.take(idx[:1700]), table.take(idx[1700:])
        params = GbdtParams(num_leaves=15, num_iterations=30,
                            early_stopping_rounds=30, feature_fraction=0.6,
                            min_data_in_leaf=5, seed=77)
        features = ["x0", "x1", "x2", "x3", "x4"]
        m1 = fit(params, train, valid, features)
        m2 = fit(params, train, valid, features)
        assert np.array_equal(predict(m1, valid), predict(m2, valid))


class TestModelIO:
    def test_json_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(23))
        n = 1500
        codes = rng.integers(1, 9, n).astype(np.int32)
        y = np.isin(codes, (2, 5)).astype(np.uint8)
        y ^= (rng.random(n) < 0.1).astype(np.uint8)
        dictionary = [MISSING_TOKEN] + [f"t{i}" for i in range(1, 9)]
        table = make_cat_table(np.where(np.arange(n) < 1200, 45, 46),
                               codes, dictionary, y)
        idx = np.arange(n)
        train, valid = table.take(idx[:1200]), table.take(idx[1200:])
        model = fit(GbdtParams(num_leaves=8, num_iterations=30,
                               early_stopping_rounds=30, min_data_in_leaf=5),
                    train, valid, ["cat"])
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(predict(model, valid), predict(again, valid))
        assert again.n_trees == model.n_trees
        assert feature_importance(again) == feature_importance(model)

    def test_a_model_built_from_trees_and_a_mapper_round_trips(self, tmp_path):
        # the saved tree count, split counts and feature names come from the
        # trees and the mapper, so load_model's checks of them pass
        rng = np.random.Generator(np.random.PCG64(29))
        model = _random_model(rng, 3, 40)
        table = _scoring_table(rng, 500)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        again = load_model(path)
        assert doc["best_iteration"] == again.n_trees == 3
        assert doc["feature_names"] == ["x0", "c0", "x1"]
        assert sum(doc["split_counts"]) == 3 * 39
        assert feature_importance(again) == feature_importance(model)
        assert predict(again, table).tobytes() == predict(model, table).tobytes()

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(GbdtError, match="not a"):
            load_model(path)


class TestRawScores:
    def test_predict_raw_is_logit_of_predict(self):
        train, valid = separable_tables(500, 100, seed=31)
        model = fit(GbdtParams(num_leaves=7, num_iterations=15,
                               early_stopping_rounds=15, min_data_in_leaf=5),
                    train, valid, ["x0"])
        raw = predict_raw(model, valid)
        probs = predict(model, valid)
        assert np.allclose(1 / (1 + np.exp(-raw)), probs)


def _reference_tree_output(doc: dict, binned: np.ndarray) -> np.ndarray:
    """The per-node traversal that ``tree_output`` replaced: partition the
    row indices at every node of the tree's JSON document by the node's bin
    routing."""
    n = binned.shape[1]
    out = np.empty(n, dtype=np.float64)
    stack: list[tuple[dict, np.ndarray]] = [(doc, np.arange(n, dtype=np.int64))]
    while stack:
        node, idx = stack.pop()
        if "leaf" in node:
            out[idx] = node["leaf"]
            continue
        bins = binned[node["feature"]][idx]
        if "threshold_bin" in node:
            mask = (bins <= node["threshold_bin"]) & (node["missing_left"] | (bins != 0))
        else:
            mask = np.isin(bins, node["left_bins"])
        stack.append((node["left"], idx[mask]))
        stack.append((node["right"], idx[~mask]))
    return out


def _random_tree(rng, n_leaves, n_bins, is_cat) -> dict:
    """The JSON document of a tree of ``n_leaves`` leaves grown by splitting
    random leaves, so paths reuse features; categorical ``left_bins`` may
    hold bin 0."""
    root = {"leaf": 0.0}
    leaves = [root]
    while len(leaves) < n_leaves:
        node = leaves.pop(int(rng.integers(len(leaves))))
        del node["leaf"]  # the leaf becomes a split in place
        f = int(rng.integers(len(n_bins)))
        if is_cat[f]:
            size = int(rng.integers(1, n_bins[f]))
            left_bins = np.sort(rng.choice(n_bins[f], size=size, replace=False)).tolist()
            node.update(feature=f, left_bins=left_bins, missing_left=left_bins[0] == 0)
        else:
            node.update(feature=f, threshold_bin=int(rng.integers(1, n_bins[f] - 1)),
                        missing_left=bool(rng.integers(2)))
        node.update(left={"leaf": 0.0}, right={"leaf": 0.0})
        leaves += [node["left"], node["right"]]
    for leaf in leaves:
        leaf["leaf"] = float(rng.standard_normal())
    return root


class TestTreeOutput:
    @settings(max_examples=200, deadline=None)
    @given(n_leaves=st.integers(1, 150), n_features=st.integers(1, 6),
           n_rows=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_bit_equal_to_the_node_traversal(self, n_leaves, n_features, n_rows, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n_bins = rng.integers(3, 257, n_features)
        is_cat = rng.random(n_features) < 0.5
        doc = _random_tree(rng, n_leaves, n_bins, is_cat)
        binned = np.stack([rng.integers(0, b, n_rows) for b in n_bins]).astype(np.uint8)
        got = tree_output(tree_from_json(doc, n_bins, is_cat), binned)
        want = _reference_tree_output(doc, binned)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(n_leaves=st.integers(1, 200), n_features=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_compiled_tables_keep_only_their_words_leaves(self, n_leaves, n_features, seed):
        # the scorer starts a word from its first table, so no table may
        # keep a bit beyond the word's leaves
        rng = np.random.Generator(np.random.PCG64(seed))
        n_bins = rng.integers(3, 257, n_features)
        is_cat = rng.random(n_features) < 0.5
        doc = _random_tree(rng, n_leaves, n_bins, is_cat)
        leaf_values = [leaf["leaf"] for leaf in _leaves(doc)]
        words = _compile(tree_from_json(doc, n_bins, is_cat))
        assert len(words) == -(-n_leaves // 64)
        for w, (values, masks) in enumerate(words):
            in_word = min(64, n_leaves - 64 * w)
            valid = np.uint64((1 << in_word) - 1)
            for f, table in masks:
                assert 0 <= f < n_features
                assert table.dtype == np.uint64 and table.shape == (256,)
                assert not (table & ~valid).any()
            # one pad entry, then the word's leaves left to right
            assert values.tolist() == [0.0, *leaf_values[64 * w : 64 * w + 64],
                                       *[0.0] * (64 - in_word)]
            assert masks or in_word == 1

    def test_root_leaf_from_json(self):
        root = tree_from_json({"leaf": -0.25}, np.array([3]), np.array([False]))
        binned = np.arange(256, dtype=np.uint8)[None, :]
        assert tree_output(root, binned).tolist() == [-0.25] * 256

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_65_leaf_chain_crosses_a_word(self, side):
        # a chain of 64 nodes on one feature, each with a leaf on ``side``:
        # bin b leaves the chain at its own depth, so all 65 leaves are
        # reached, and one of them sits alone in the second 64-leaf word
        node = {"leaf": 64.0}
        for k in reversed(range(64)):
            leaf = {"leaf": float(k)}
            if side == "right":  # bins above k + 1 go on down the chain
                split = {"threshold_bin": k + 1, "left": leaf, "right": node}
            else:  # bins up to 254 - k go on down the chain
                split = {"threshold_bin": 254 - k, "left": node, "right": leaf}
            node = {"feature": 0, "missing_left": bool(k % 2), **split}
        binned = np.arange(256, dtype=np.uint8)[None, :]
        want = _reference_tree_output(node, binned)
        assert len(np.unique(want)) == 65
        chain = tree_from_json(node, np.array([256]), np.array([False]))
        assert np.array_equal(tree_output(chain, binned), want)


def _scoring_table(rng, n):
    """A table of a continuous x0 (10% missing), a categorical c0 of 12
    codes and a continuous x1, with a random label."""
    x0 = rng.standard_normal(n)
    x0[rng.random(n) < 0.1] = np.nan
    schema = Schema((("day", ColumnRole.DAY), ("x0", ColumnRole.CONTINUOUS),
                     ("c0", ColumnRole.CATEGORICAL), ("x1", ColumnRole.CONTINUOUS),
                     ("y", ColumnRole.LABEL_INSTALL)))
    columns = {"day": np.full(n, 45), "x0": x0, "c0": rng.integers(0, 12, n).astype(np.int32),
               "x1": rng.standard_normal(n), "y": rng.integers(0, 2, n).astype(np.uint8)}
    dictionary = [MISSING_TOKEN] + [f"k{i}" for i in range(1, 12)]
    return Table.from_columns(schema, columns, {"c0": dictionary})


def _random_model(rng, n_trees, n_leaves) -> GbdtModel:
    """A model of random trees over the bins of a 2,000-row scoring table."""
    mapper = build_bin_mapper(_scoring_table(rng, 2000), ["x0", "c0", "x1"], 255)
    n_bins = mapper.n_bins()
    is_cat = mapper.is_cat()
    trees = [tree_from_json(_random_tree(rng, n_leaves, n_bins, is_cat), n_bins, is_cat)
             for _ in range(n_trees)]
    return GbdtModel(params=GbdtParams(), bin_mapper=mapper, base_score=-1.3, trees=trees)


class TestRowBlockScoring:
    B = _SCORE_BLOCK

    # 40 leaves fit one 64-leaf word; 150 leaves take three
    @pytest.mark.parametrize("n_leaves", [40, 150])
    @pytest.mark.parametrize("n_rows", [0, 1, B - 1, B, B + 1, 2 * B + 7])
    def test_equals_the_per_tree_sum(self, n_rows, n_leaves):
        rng = np.random.Generator(np.random.PCG64(n_rows * 1000 + n_leaves))
        model = _random_model(rng, 3, n_leaves)
        table = _scoring_table(rng, n_rows)
        binned = bin_table(model.bin_mapper, table)
        want = np.full(n_rows, model.base_score)
        for tree in model.trees:
            want += tree_output(tree, binned)
        raw = predict_raw(model, table)
        assert raw.dtype == np.float64 and raw.shape == (n_rows,)
        assert np.array_equal(raw.view(np.uint64), want.view(np.uint64))
        probs = predict(model, table)
        assert np.array_equal(probs.view(np.uint64), metrics.sigmoid(want).view(np.uint64))

    def test_scoring_and_evaluation_peak_per_row(self):
        # at 200k rows predict holds its output (8 bytes a row) and one
        # block's temporaries: 12.6 bytes a row.  The metrics add the bool
        # labels, the sorted smaller class (half the rows here) and one
        # block of temporaries: 14.6 bytes a row.  One more full-length
        # float64 array (8 bytes a row) breaks either bound
        n = 200_000
        rng = np.random.Generator(np.random.PCG64(4))
        model = _random_model(rng, 20, 63)
        table = _scoring_table(rng, n)
        tracemalloc.start()
        try:
            probs = predict(model, table)
            _, predict_peak = tracemalloc.get_traced_memory()
            batch = metrics.EvalBatch(table.col("y"), probs)
            metrics.nce(batch)
            metrics.auc(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert predict_peak / n < 16, f"predict peak {predict_peak / n:.1f} bytes a row"
        assert peak / n < 20, f"peak {peak / n:.1f} bytes a row"


def _mixed_tables(seed, n=1200):
    """Train/valid tables with a continuous x0 (10% missing), a categorical
    c0 of 12 codes and a continuous x1; the label depends on all three."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.standard_normal(n)
    x0[rng.random(n) < 0.1] = np.nan
    c0 = rng.integers(0, 12, n).astype(np.int32)
    x1 = rng.standard_normal(n)
    logit = np.nan_to_num(x0, nan=1.0) + np.isin(c0, (2, 5, 7)) - 0.5 * x1
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(np.uint8)
    schema = Schema((("day", ColumnRole.DAY), ("x0", ColumnRole.CONTINUOUS),
                     ("c0", ColumnRole.CATEGORICAL), ("x1", ColumnRole.CONTINUOUS),
                     ("y", ColumnRole.LABEL_INSTALL)))
    dictionary = [MISSING_TOKEN] + [f"k{i}" for i in range(1, 12)]
    table = Table.from_columns(
        schema, {"day": np.where(np.arange(n) < n * 4 // 5, 45, 46), "x0": x0,
                 "c0": c0, "x1": x1, "y": y}, {"c0": dictionary})
    idx = np.arange(n)
    return table.take(idx[: n * 4 // 5]), table.take(idx[n * 4 // 5:])


class TestModelRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), num_leaves=st.integers(2, 80),
           max_bins=st.integers(2, 255), feature_fraction=st.sampled_from([0.5, 1.0]))
    def test_save_load_predict_is_bit_identical(
        self, tmp_path_factory, seed, num_leaves, max_bins, feature_fraction
    ):
        train, valid = _mixed_tables(seed)
        model = fit(GbdtParams(num_leaves=num_leaves, num_iterations=6,
                               early_stopping_rounds=6, min_data_in_leaf=3,
                               max_bins=max_bins, feature_fraction=feature_fraction,
                               seed=seed), train, valid)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        again = load_model(path)
        for table in (train, valid):
            assert np.array_equal(predict_raw(again, table).view(np.uint64),
                                  predict_raw(model, table).view(np.uint64))
        assert again.params == model.params
        # the writer and the reader are inverses
        save_model(again, path.with_name("again.json"))
        assert path.with_name("again.json").read_bytes() == path.read_bytes()


@st.composite
def day_plan_cases(draw):
    """A table over random days with a continuous feature with NaNs, one with
    few values, and a categorical of 300 codes (past every overflow bin),
    plus a plan over its days and the params to fit it with."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(60, 900))
    days = rng.integers(40, 40 + draw(st.integers(2, 6)), n).astype(np.int32)
    x0 = rng.standard_normal(n)
    x0[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan
    x1 = rng.integers(0, 6, n) / 4.0
    c0 = rng.integers(0, 300, n).astype(np.int32)
    logit = np.nan_to_num(x0, nan=-1.0) + (c0 % 3 == 0) + x1 - 0.5
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(np.uint8)
    schema = Schema((("day", ColumnRole.DAY), ("x0", ColumnRole.CONTINUOUS),
                     ("c0", ColumnRole.CATEGORICAL), ("x1", ColumnRole.CONTINUOUS),
                     ("y", ColumnRole.LABEL_INSTALL)))
    dictionary = [MISSING_TOKEN] + [f"k{i}" for i in range(1, 300)]
    table = Table.from_columns(schema, {"day": days, "x0": x0, "c0": c0, "x1": x1, "y": y},
                               {"c0": dictionary})
    present = np.unique(days).tolist()
    valid_day = draw(st.sampled_from(present[1:] or present))
    before = [d for d in present if d < valid_day]
    train_days = draw(st.sets(st.sampled_from(before))) if before else set()
    params = GbdtParams(
        num_leaves=int(rng.integers(2, 32)), max_depth=draw(st.sampled_from([-1, 1, 3])),
        num_iterations=5, early_stopping_rounds=2,
        min_data_in_leaf=draw(st.sampled_from([1, 5, 20])),
        max_bins=draw(st.sampled_from([2, 16, 255])),
        feature_fraction=draw(st.sampled_from([0.4, 1.0])), seed=seed % 1000,
    )
    return table, SplitPlan(frozenset(train_days), valid_day), params


class TestFitOnRowIndices:
    @settings(max_examples=60, deadline=None)
    @given(case=day_plan_cases())
    def test_model_equals_the_fit_on_split_copies(self, tmp_path_factory, case):
        table, plan, params = case
        parts = split(table, plan)
        labels = parts.train.col("y")
        assume(0 < labels.sum() < len(labels))
        out = tmp_path_factory.mktemp("rows")
        train_rows, valid, _ = train_stage(table, plan, params, out)
        save_model(fit(params, parts.train, parts.valid), out / "copies.json")
        assert (out / "model.json").read_bytes() == (out / "copies.json").read_bytes()
        assert valid.equals(parts.valid)
        assert table.take(train_rows).equals(parts.train)


    @settings(max_examples=40, deadline=None)
    @given(case=day_plan_cases())
    def test_valid_predictions_are_the_fits_own_and_equal_predict(self, tmp_path_factory, case):
        table, plan, params = case
        train_rows, valid_rows = split_rows(table, plan)
        labels = table.col("y")[train_rows]
        assume(0 < labels.sum() < len(labels))
        out = tmp_path_factory.mktemp("valid")
        _, valid, model = train_stage(table, plan, params, out)
        probs = predict(model, valid)
        assert model.valid_probs.tobytes() == probs.tobytes()
        write_predictions_csv(pipeline._row_ids(valid), probs, out / "predict.csv")
        assert (out / "valid_predictions.csv").read_bytes() == (out / "predict.csv").read_bytes()
        assert load_model(out / "model.json").valid_probs is None


def _split_nodes(tree: dict) -> list[dict]:
    if "leaf" in tree:
        return []
    return [tree] + _split_nodes(tree["left"]) + _split_nodes(tree["right"])


def _leaves(tree: dict) -> list[dict]:
    if "leaf" in tree:
        return [tree]
    return _leaves(tree["left"]) + _leaves(tree["right"])


def _edit_node(kind, **changes):
    """Update the first node that has the field ``kind``; returns its tree."""
    def edit(doc):
        for t, tree in enumerate(doc["trees"]):
            for node in _split_nodes(tree) + _leaves(tree):
                if kind in node:
                    node.update(changes)
                    return t
        raise AssertionError(f"no {kind} node to corrupt")
    return edit


def _edit_doc(change):
    def edit(doc):
        change(doc)
        return None
    return edit


def _one_nan_threshold(doc):
    """x0's thresholds become one NaN, and its splits the one threshold bin
    left, so that only the NaN is wrong."""
    doc["bin_mapper"][0]["thresholds"] = [float("nan")]
    for tree in doc["trees"]:
        for node in _split_nodes(tree):
            if node["feature"] == 0:
                node["threshold_bin"] = 1


#: one corrupted field each: (edit, what the error says after "tree N: ")
MODEL_CORRUPTIONS = {
    "feature -1": (_edit_node("threshold_bin", feature=-1),
                   "feature -1 is outside [0, 3)"),
    "feature 99": (_edit_node("threshold_bin", feature=99),
                   "feature 99 is outside [0, 3)"),
    "threshold_bin 300": (_edit_node("threshold_bin", threshold_bin=300),
                          "threshold_bin 300 of feature"),
    "threshold_bin 0": (_edit_node("threshold_bin", threshold_bin=0),
                        "threshold_bin 0 of feature"),
    "numeric split on categorical c0": (
        _edit_node("threshold_bin", feature=1),
        "feature 1 is categorical but its node has threshold_bin"),
    "categorical split on numeric x0": (
        _edit_node("left_bins", feature=0),
        "feature 0 is numeric but its node has left_bins"),
    "left_bins [300]": (_edit_node("left_bins", left_bins=[300]),
                        "left_bins of feature 1 are not ascending bins in [0, 12)"),
    "left_bins empty": (_edit_node("left_bins", left_bins=[]),
                        "left_bins of feature 1 are not"),
    "left_bins descending": (_edit_node("left_bins", left_bins=[5, 2]),
                             "left_bins of feature 1 are not"),
    "left_bins negative": (_edit_node("left_bins", left_bins=[-1, 2]),
                           "left_bins of feature 1 are not"),
    "missing_left without bin 0": (
        _edit_node("left_bins", left_bins=[3, 4], missing_left=True),
        "missing_left of feature 1 disagrees with its left_bins"),
    "leaf NaN": (_edit_node("leaf", leaf=float("nan")), "leaf value nan is not finite"),
    "leaf inf": (_edit_node("leaf", leaf=float("inf")), "leaf value inf is not finite"),
    "node without right": (_edit_node("threshold_bin", right=None), ""),
    "split_counts one too long": (_edit_doc(lambda d: d["split_counts"].append(0)),
                             "split_counts holds 4 counts for 3 features"),
    "feature_names reordered": (
        _edit_doc(lambda d: d["feature_names"].reverse()),
        "feature_names disagree with the bin mapper's features"),
    "unknown params key": (_edit_doc(lambda d: d["params"].update(n_threads=2)),
                           "params has unknown keys ['n_threads']"),
    "overflow_bin 300": (_edit_doc(lambda d: d["bin_mapper"][1].update(overflow_bin=300)),
                         "categorical bins of feature 'c0' are malformed"),
    "base_score NaN": (_edit_doc(lambda d: d.update(base_score=float("nan"))),
                       "base_score nan is not finite"),
    "unknown bin kind": (_edit_doc(lambda d: d["bin_mapper"][2].update(kind="ordinal")),
                         "feature 'x1' has unknown bin kind 'ordinal'"),
    "threshold_bin 1.7": (_edit_node("threshold_bin", threshold_bin=1.7),
                          "is 1.7, not int"),
    "missing_left 'false'": (_edit_node("threshold_bin", missing_left="false"),
                             "is 'false', not bool"),
    "left_bins [1.5, 2.5]": (_edit_node("left_bins", left_bins=[1.5, 2.5], missing_left=False),
                             "a left_bins entry of feature 1 is 1.5, not int"),
    "feature 0.3": (_edit_node("threshold_bin", feature=0.3), "feature is 0.3, not int"),
    "leaf '0.1'": (_edit_node("leaf", leaf="0.1"), "leaf value is '0.1', not int or float"),
    "base_score '0.1'": (_edit_doc(lambda d: d.update(base_score="0.1")),
                         "base_score is '0.1', not int or float"),
    "string thresholds": (
        _edit_doc(lambda d: d["bin_mapper"][0].update(
            thresholds=[str(t) for t in d["bin_mapper"][0]["thresholds"]])),
        "a threshold of 'x0' is '"),
    "n_categories 12.0": (_edit_doc(lambda d: d["bin_mapper"][1].update(n_categories=12.0)),
                          "n_categories of 'c0' is 12.0, not int"),
    "left_bins entry 2**70": (
        _edit_node("left_bins", left_bins=[1, 2**70], missing_left=False),
        "left_bins of feature 1 are not ascending bins in [0, 12)"),
    "left_bins entry True after ints": (
        _edit_node("left_bins", left_bins=[1, 2, True], missing_left=False),
        "a left_bins entry of feature 1 is True, not int"),
    "leaf 10**400": (_edit_node("leaf", leaf=10**400),
                     "leaf value is an integer too large for a float"),
    "threshold 10**400": (
        _edit_doc(lambda d: d["bin_mapper"][0]["thresholds"].append(10**400)),
        "a threshold of 'x0' is an integer too large for a float"),
    "split_counts entry 2**70": (_edit_doc(lambda d: d["split_counts"].__setitem__(0, 2**70)),
                                 "a split_counts entry is an integer too large for an int64"),
    "split_counts entry 'x'": (_edit_doc(lambda d: d["split_counts"].__setitem__(0, "x")),
                               "a split_counts entry is 'x', not int"),
    "base_score 10**400": (_edit_doc(lambda d: d.update(base_score=10**400)),
                           "base_score is an integer too large for a float"),
    "train_curve entry 10**400": (_edit_doc(lambda d: d["train_curve"].append(10**400)),
                                  "a train_curve entry is an integer too large for a float"),
    "valid_curve entry '0.5'": (_edit_doc(lambda d: d["valid_curve"].append("0.5")),
                                "a valid_curve entry is '0.5', not int or float"),
    "best_iteration 'x'": (_edit_doc(lambda d: d.update(best_iteration="x")),
                           "best_iteration is 'x', not int"),
    "descending thresholds": (
        _edit_doc(lambda d: d["bin_mapper"][0]["thresholds"].reverse()),
        "numeric bins of feature 'x0' are malformed"),
    "one threshold, NaN": (_edit_doc(_one_nan_threshold),
                           "numeric bins of feature 'x0' are malformed"),
    "best_iteration 99": (_edit_doc(lambda d: d.update(best_iteration=99)),
                          "best_iteration 99 is not the"),
    "split_counts entry + 1": (
        _edit_doc(lambda d: d["split_counts"].__setitem__(0, d["split_counts"][0] + 1)),
        "disagree with the splits in the trees"),
}


@pytest.fixture(scope="module")
def mixed_model_doc(tmp_path_factory):
    train, valid = _mixed_tables(seed=8)
    model = fit(GbdtParams(num_leaves=8, num_iterations=8, early_stopping_rounds=8,
                           min_data_in_leaf=5), train, valid, ["x0", "c0", "x1"])
    path = tmp_path_factory.mktemp("mixed") / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    kinds = {k for tree in doc["trees"] for node in _split_nodes(tree) for k in node}
    assert {"threshold_bin", "left_bins"} <= kinds
    return doc


class TestModelValidation:
    def test_fitted_model_loads(self, mixed_model_doc, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(mixed_model_doc))
        assert load_model(path).n_trees == len(mixed_model_doc["trees"])

    def test_unreadable_file_fails_loudly(self, tmp_path):
        # every prefix short of the closing brace, and a byte that no UTF-8
        # text starts with
        train, valid = separable_tables(300, 60, seed=5)
        model = fit(GbdtParams(num_leaves=3, num_iterations=2, early_stopping_rounds=2,
                               max_bins=4, min_data_in_leaf=5), train, valid, ["x0"])
        path = tmp_path / "model.json"
        save_model(model, path)
        saved = path.read_bytes()
        assert model.n_trees == 2
        for data in [saved[:k] for k in range(len(saved) - 1)] + [b"\xff" + saved]:
            path.write_bytes(data)
            with pytest.raises(GbdtError, match=f"{path} is not a JSON document"):
                load_model(path)

    @pytest.mark.parametrize("name", list(MODEL_CORRUPTIONS))
    def test_corrupted_field_fails_loudly(self, mixed_model_doc, tmp_path, name):
        edit, message = MODEL_CORRUPTIONS[name]
        doc = copy.deepcopy(mixed_model_doc)
        tree = edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GbdtError) as exc:
            load_model(path)
        prefix = "" if tree is None else f"tree {tree}: "
        assert str(exc.value).startswith(prefix)
        assert message in str(exc.value)
