import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from resplite.encoders import (
    EncoderError,
    EncoderState,
    FreqWindow,
    apply_encoders,
    fit_frequency,
    fit_target,
    load_states,
    save_states,
    transform,
)
from resplite.tabular import ColumnRole, MISSING_TOKEN, Schema, Table

from conftest import dictionary_of, make_cat_table

DICT = (MISSING_TOKEN, "A", "B", "C")


def ab_table(rows):
    """rows: list of (day, token, install) with tokens A/B/C."""
    code = {"A": 1, "B": 2, "C": 3}
    days = [r[0] for r in rows]
    codes = [code[r[1]] for r in rows]
    y = [r[2] for r in rows]
    return make_cat_table(days, codes, DICT, y)


class TestFrequency:
    def test_prev_day_hand_count(self):
        table = ab_table([(1, "A", 0), (1, "A", 0), (2, "A", 1)])
        state = fit_frequency(table, "cat", FreqWindow.PREV_DAY)
        out = transform(state, table)
        # day 1 rows see no history; the day-2 row sees both day-1 As
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_all_history_hand_count(self):
        table = ab_table([(1, "A", 0), (1, "A", 0), (2, "A", 1)])
        state = fit_frequency(table, "cat", FreqWindow.ALL_HISTORY)
        probe = ab_table([(3, "A", 0)])
        assert transform(state, probe).tolist() == [3.0]

    def test_unseen_category_counts_zero(self):
        table = ab_table([(1, "A", 0), (2, "A", 0)])
        state = fit_frequency(table, "cat", FreqWindow.PREV_DAY)
        probe = ab_table([(2, "B", 0)])
        assert transform(state, probe).tolist() == [0.0]

    def test_prev_week_is_trailing_seven_days(self):
        rows = [(d, "A", 0) for d in range(1, 11)]  # one A per day, days 1..10
        table = ab_table(rows)
        state = fit_frequency(table, "cat", FreqWindow.PREV_WEEK)
        probe = ab_table([(10, "A", 0)])
        # window [3, 9]: seven days, one occurrence each
        assert transform(state, probe).tolist() == [7.0]

    def test_non_categorical_feature_rejected(self):
        schema = Schema(
            (("day", ColumnRole.DAY), ("x", ColumnRole.CONTINUOUS),
             ("y", ColumnRole.LABEL_INSTALL))
        )
        table = Table.from_columns(
            schema,
            {"day": np.array([1]), "x": np.array([0.5]),
             "y": np.array([1], dtype=np.uint8)},
        )
        with pytest.raises(EncoderError, match="not categorical"):
            fit_frequency(table, "x", FreqWindow.PREV_DAY)

    def test_days_past_fit_range_use_full_history(self):
        table = ab_table([(1, "A", 0), (2, "A", 0), (3, "A", 0)])
        state = fit_frequency(table, "cat", FreqWindow.ALL_HISTORY)
        far = ab_table([(9, "A", 0)])
        near = ab_table([(4, "A", 0)])
        assert transform(state, far).tolist() == transform(state, near).tolist() == [3.0]


class TestTarget:
    def test_prior_fallback_for_cold_category(self):
        # history: day 1 has 10 rows, 3 positive -> P_2 = 0.3; B unseen
        rows = [(1, "A", 1)] * 3 + [(1, "A", 0)] * 7
        state = fit_target(ab_table(rows + [(2, "B", 0)]), "cat", "install", a=1.0)
        probe = ab_table([(2, "B", 0)])
        assert transform(state, probe)[0] == pytest.approx(0.3)

    def test_hand_formula(self):
        # c=A history before day 2: 3 occurrences, 2 positives; overall
        # prior 0.4 from 10 rows with 4 positives
        rows = [(1, "A", 1), (1, "A", 1), (1, "A", 0)] + \
            [(1, "B", 1), (1, "B", 0), (1, "B", 0), (1, "B", 0)] + \
            [(1, "C", 1), (1, "C", 0), (1, "C", 0)]
        state = fit_target(ab_table(rows), "cat", "install", a=1.0)
        probe = ab_table([(2, "A", 0)])
        assert transform(state, probe)[0] == pytest.approx((2 + 0.4) / (3 + 1))

    def test_first_day_is_half_for_every_category(self):
        rows = [(1, "A", 1), (1, "B", 0), (2, "A", 1)]
        state = fit_target(ab_table(rows), "cat", "install", a=1.0)
        probe = ab_table([(1, "A", 0), (1, "B", 0), (1, "C", 0)])
        assert transform(state, probe).tolist() == [0.5, 0.5, 0.5]

    def test_click_target_uses_click_label(self):
        table = make_cat_table(
            [1, 1, 2], [1, 1, 1], DICT, y=[0, 0, 0], clicks=[1, 1, 0]
        )
        state = fit_target(table, "cat", "click", a=1.0)
        out = transform(state, table)
        # day 2: A clicked twice in two day-1 occurrences, prior 1.0
        assert out[2] == pytest.approx((2 + 1.0) / (2 + 1))

    def test_missing_target_errors(self):
        table = ab_table([(1, "A", 0)])
        with pytest.raises(EncoderError, match="no click label"):
            fit_target(table, "cat", "click")

    def test_unknown_target_name_errors(self):
        table = ab_table([(1, "A", 0)])
        with pytest.raises(EncoderError, match="unknown target"):
            fit_target(table, "cat", "purchase")

    def test_positive_smoothing_required(self):
        table = ab_table([(1, "A", 0)])
        for a in (0.0, math.inf, math.nan):
            with pytest.raises(EncoderError, match="positive and finite"):
                fit_target(table, "cat", "install", a=a)

    def test_encoding_stays_in_unit_interval(self):
        rng = np.random.Generator(np.random.PCG64(0))
        n = 4000
        days = rng.integers(1, 15, size=n)
        codes = rng.integers(0, 4, size=n).astype(np.int32)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        table = make_cat_table(days, codes, DICT, y)
        state = fit_target(table, "cat", "install", a=0.5)
        out = transform(state, table)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_monotone_evidence(self):
        base = [(1, "A", 1), (1, "A", 0), (1, "B", 1), (1, "B", 0)]
        s0 = fit_target(ab_table(base), "cat", "install", a=1.0)
        s_pos = fit_target(ab_table(base + [(1, "A", 1)]), "cat", "install", a=1.0)
        s_neg = fit_target(ab_table(base + [(1, "A", 0)]), "cat", "install", a=1.0)
        probe = ab_table([(2, "A", 0)])
        e0 = transform(s0, probe)[0]
        # the global prior moves too; isolate the category effect by fixing
        # the prior via identical day totals is overkill here, so assert the
        # directional pull dominates
        assert transform(s_pos, probe)[0] > e0
        assert transform(s_neg, probe)[0] < e0


class TestLeakage:
    def random_table(self, seed, n=600, n_days=8, card=5):
        rng = np.random.Generator(np.random.PCG64(seed))
        days = np.sort(rng.integers(1, n_days + 1, size=n))
        codes = rng.integers(0, card + 1, size=n).astype(np.int32)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        clicks = rng.integers(0, 2, size=n).astype(np.uint8)
        dictionary = (MISSING_TOKEN,) + tuple(f"v{i}" for i in range(1, card + 1))
        return make_cat_table(days, codes, dictionary, y, clicks=clicks), rng

    def all_states(self, table):
        states = [
            fit_frequency(table, "cat", w) for w in FreqWindow
        ] + [
            fit_target(table, "cat", "install", a=1.0),
            fit_target(table, "cat", "click", a=1.0),
        ]
        return states

    def test_within_day_permutation_leaves_encodings_unchanged(self):
        for seed in range(10):
            table, rng = self.random_table(seed)
            days = table.day_values
            perm = np.arange(table.n_rows)
            for d in np.unique(days):
                sel = np.flatnonzero(days == d)
                perm[sel] = rng.permutation(sel)
            shuffled = table.take(perm)
            for state, state_p in zip(self.all_states(table), self.all_states(shuffled)):
                probe = table  # encode the original rows under both fits
                a = transform(state, probe)
                b = transform(state_p, probe)
                assert np.array_equal(a, b), state.column_name

    def test_appending_future_rows_leaves_past_encodings_unchanged(self):
        for seed in range(10):
            table, rng = self.random_table(seed, n_days=6)
            days = table.day_values
            max_day = int(days.max())
            extra_n = 50
            extra = make_cat_table(
                np.full(extra_n, max_day),  # rows AT day d must not affect day d
                rng.integers(0, 6, size=extra_n).astype(np.int32),
                table.dictionary("cat"),
                rng.integers(0, 2, size=extra_n).astype(np.uint8),
                clicks=rng.integers(0, 2, size=extra_n).astype(np.uint8),
            )
            combined = Table.from_columns(
                table.schema,
                {
                    name: np.concatenate([table.col(name), extra.col(name)])
                    for name in table.schema.names
                },
                {"cat": table.dictionary("cat")},
            )
            probe_idx = np.flatnonzero(days <= max_day)
            probe = table.take(probe_idx)
            for s_old, s_new in zip(self.all_states(table), self.all_states(combined)):
                a = transform(s_old, probe)
                b = transform(s_new, probe)
                assert np.array_equal(a, b), s_old.column_name

    def test_window_nesting(self):
        for seed in range(5):
            table, _ = self.random_table(seed, n=800, n_days=12)
            day = fit_frequency(table, "cat", FreqWindow.PREV_DAY)
            week = fit_frequency(table, "cat", FreqWindow.PREV_WEEK)
            hist = fit_frequency(table, "cat", FreqWindow.ALL_HISTORY)
            a = transform(day, table)
            b = transform(week, table)
            c = transform(hist, table)
            assert (a <= b).all()
            assert (b <= c).all()


class TestCodeWidths:
    @pytest.mark.parametrize("n_codes", [256, 65536])
    def test_top_codes_of_a_narrow_table_encode_as_in_a_wide_one(self, n_codes):
        rng = np.random.Generator(np.random.PCG64(n_codes))
        n = 600
        days = rng.integers(45, 52, n)
        codes = rng.choice([1, 2, n_codes - 1], n)
        y, clicks = rng.integers(0, 2, n), rng.integers(0, 2, n)
        narrow = make_cat_table(days, codes, dictionary_of(n_codes), y, clicks)
        wide = make_cat_table(days, codes, dictionary_of(65537), y, clicks)
        assert narrow.col("cat").dtype == (np.uint8 if n_codes == 256 else np.uint16)
        assert wide.col("cat").dtype == np.int32
        fits = [lambda t, w=w: fit_frequency(t, "cat", w) for w in FreqWindow]
        fits += [lambda t, target=target: fit_target(t, "cat", target, 2.0)
                 for target in ("click", "install")]
        for fit in fits:
            small, large = fit(narrow), fit(wide)
            assert np.array_equal(small.counts, large.counts[:, :n_codes])
            want = transform(large, wide)
            assert transform(small, narrow).tobytes() == want.tobytes()
            # a state of a larger dictionary encodes narrow codes (no NEP 50 overflow)
            assert transform(large, narrow).tobytes() == want.tobytes()


class TestApplyAndPersist:
    def test_apply_appends_named_continuous_columns(self):
        table = ab_table([(1, "A", 1), (2, "B", 0)])
        states = [
            fit_frequency(table, "cat", FreqWindow.PREV_WEEK),
            fit_target(table, "cat", "install", a=1.0),
        ]
        out = apply_encoders(states, table)
        assert "cat__freq_prev_week" in out.schema.names
        assert "cat__te_install" in out.schema.names
        assert out.schema.role("cat__te_install") is ColumnRole.CONTINUOUS

    def test_empty_table_transforms_to_empty_column(self):
        table = ab_table([(1, "A", 1)])
        state = fit_frequency(table, "cat", FreqWindow.PREV_DAY)
        empty = table.take(np.array([], dtype=np.int64))
        assert transform(state, empty).shape == (0,)

    def test_state_json_round_trip(self, tmp_path):
        table = ab_table([(1, "A", 1), (1, "B", 0), (2, "A", 1), (3, "C", 0)])
        states = [
            fit_frequency(table, "cat", FreqWindow.ALL_HISTORY),
            fit_target(table, "cat", "install", a=2.0),
        ]
        save_states(states, tmp_path / "enc.json")
        again = load_states(tmp_path / "enc.json")
        for s1, s2 in zip(states, again):
            assert np.array_equal(transform(s1, table), transform(s2, table))
            assert s2.column_name == s1.column_name

    @pytest.mark.parametrize("index, edit, match", [
        (0, lambda s: s.pop("kind"), "lacks the key 'kind'"),
        (0, lambda s: s.update(kind="count"), "kind is 'count', not one of frequency, target"),
        (0, lambda s: s.update(window="prev_month"), "window is 'prev_month', not one of"),
        (0, lambda s: s.update(n_categories=4.0), "n_categories is 4.0, not int"),
        (0, lambda s: s.update(max_day=0), "n_categories 4 or days 1..0 hold no counts"),
        (0, lambda s: s.update(counts=[[0, 1, 0, 0]] * 2),
         r"counts is not an array of counts of shape \(3, 4\)"),
        (0, lambda s: s.update(counts=[[0, 1, 0], [0], [1, 1, 1, 1]]), "counts is not an array"),
        (0, lambda s: s.update(counts=[[0, 1.5, 0, 0]] * 3), "counts is not an array"),
        (0, lambda s: s.update(counts=[[0, -1, 0, 0]] * 3), "counts is not an array"),
        (1, lambda s: s.update(target="view"), "target is 'view', not one of click, install"),
        (1, lambda s: s.update(smoothing=0), "smoothing is 0.0, not positive"),
        (1, lambda s: s.update(smoothing=math.inf), "smoothing is inf, not positive and finite"),
        (1, lambda s: s.update(smoothing=math.nan), "smoothing is nan, not positive and finite"),
        (1, lambda s: s.update(smoothing="2"), "smoothing is '2', not int or float"),
        (1, lambda s: s.update(smoothing=10**400), "smoothing is an integer too large for a float"),
        (1, lambda s: s.pop("day_rows"), "lacks the key 'day_rows'"),
        (1, lambda s: s.update(day_positives=[0, 1]),
         r"day_positives is not an array of counts of shape \(3,\)"),
        (1, lambda s: s.update(target_sums=[[True] * 4] * 3), "target_sums is not an array"),
        (1, lambda s: s.update(target_sums=[[0, 5, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
                               day_positives=[5, 1, 0]), "target_sums exceed their counts"),
        (1, lambda s: s.update(day_rows=[2, 1, 2]), "day_rows are not the row sums of counts"),
        (1, lambda s: s.update(counts=[[0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),
         "day_rows are not the row sums of counts"),
        (1, lambda s: s.update(day_positives=[1, 1, 1]),
         "day_positives are not the row sums of target_sums"),
        (1, lambda s: s.clear() or s.update(kind="frequency"), "lacks the key 'n_categories'"),
    ])
    def test_malformed_state_fails_naming_its_index_and_field(self, tmp_path, index, edit, match):
        table = ab_table([(1, "A", 1), (1, "B", 0), (2, "A", 1), (3, "C", 0)])
        save_states([fit_frequency(table, "cat", FreqWindow.PREV_DAY),
                     fit_target(table, "cat", "install")], tmp_path / "enc.json")
        doc = json.loads((tmp_path / "enc.json").read_text())
        edit(doc["encoders"][index])
        (tmp_path / "enc.json").write_text(json.dumps(doc))
        with pytest.raises(EncoderError, match=f"encoder state {index}: {match}"):
            load_states(tmp_path / "enc.json")

    @pytest.mark.parametrize("doc", [[], {"encoders": {}}, {"states": []}])
    def test_document_without_an_encoders_list_fails(self, tmp_path, doc):
        (tmp_path / "enc.json").write_text(json.dumps(doc))
        with pytest.raises(EncoderError, match="not an object holding an encoders list"):
            load_states(tmp_path / "enc.json")

    @pytest.mark.parametrize("feature", ["c9", "day", "y"])
    def test_state_of_no_categorical_column_of_the_table_fails(self, feature):
        table = ab_table([(1, "A", 1), (2, "B", 0)])
        state = fit_frequency(table, "cat", FreqWindow.PREV_WEEK)
        other = dataclasses.replace(state, feature=feature)
        with pytest.raises(EncoderError, match=f"encoder state 1: feature '{feature}' is not"):
            apply_encoders([state, other], table)

    @pytest.mark.parametrize("n_states", [0, 1, 3])
    def test_state_file_is_the_whole_document_dump(self, tmp_path, n_states):
        # states are written one at a time; the bytes are those of one
        # json.dumps of the whole document
        table = ab_table([(1, "A", 1), (1, "B", 0), (2, "A", 1), (3, "C", 0)])
        states = [
            fit_frequency(table, "cat", FreqWindow.PREV_DAY),
            fit_target(table, "cat", "install", a=0.5),
            fit_frequency(table, "cat", FreqWindow.ALL_HISTORY),
        ][:n_states]
        save_states(states, tmp_path / "enc.json")
        doc = {"encoders": [s.to_json_dict() for s in states]}
        assert (tmp_path / "enc.json").read_text(encoding="utf-8") == (
            json.dumps(doc, sort_keys=True) + "\n"
        )

    def test_test_day_all_history_equals_full_train_count(self):
        rng = np.random.Generator(np.random.PCG64(9))
        n = 500
        days = np.sort(rng.integers(45, 67, size=n))
        codes = rng.integers(1, 4, size=n).astype(np.int32)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        table = make_cat_table(days, codes, DICT, y)
        state = fit_frequency(table, "cat", FreqWindow.ALL_HISTORY)
        probe = make_cat_table([67], [1], DICT, [0])
        want = int((codes == 1).sum())
        assert transform(state, probe).tolist() == [float(want)]


def per_day_reference(state, table):
    """The per-day transform that the vectorized one replaced: every
    distinct day rebuilds the cumulative matrices and looks its rows up."""

    def cum_before(matrix):
        out = np.zeros((matrix.shape[0] + 1,) + matrix.shape[1:], dtype=np.float64)
        np.cumsum(matrix, axis=0, out=out[1:])
        return out

    n_days = state.counts.shape[0]

    def idx(d):
        return min(max(d - state.min_day, 0), n_days)

    codes, days = table.col(state.feature), table.day_values
    out = np.empty(table.n_rows, dtype=np.float64)
    for day in np.unique(days):
        e = min(int(day), state.max_day + 1)
        hi = idx(e)
        if state.kind == "frequency":
            cum = cum_before(state.counts)
            lo = {FreqWindow.PREV_DAY: idx(e - 1), FreqWindow.PREV_WEEK: idx(e - 7)}
            lookup, fallback = cum[hi] - cum[lo.get(state.window, 0)], 0.0
        else:
            rows = np.concatenate(([0], np.cumsum(state.counts.sum(axis=1))))[hi]
            pos = np.concatenate(([0], np.cumsum(state.target_sums.sum(axis=1))))[hi]
            if rows == 0:
                lookup, fallback = np.full(state.n_categories, 0.5), 0.5
            else:
                prior, a = pos / rows, state.smoothing
                lookup = (cum_before(state.target_sums)[hi] + a * prior) / (
                    cum_before(state.counts)[hi] + a
                )
                fallback = float(prior)
        sel = days == day
        row_codes = codes[sel]
        vals = lookup[np.minimum(row_codes, state.n_categories - 1)]
        out[sel] = np.where(row_codes >= state.n_categories, fallback, vals)
    return out


class TestAgainstPerDayReference:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_the_per_day_loop(self, seed):
        # applied rows reach 5 days either side of the fitted range, and
        # codes past the fitted dictionary
        rng = np.random.Generator(np.random.PCG64(seed))
        n_cats = int(rng.integers(1, 12))
        first, span = int(rng.integers(5, 30)), int(rng.integers(1, 12))

        def table(n, lo, hi, n_codes):
            return make_cat_table(
                rng.integers(lo, hi, size=n), rng.integers(0, n_codes, size=n),
                (MISSING_TOKEN,) + tuple(f"t{i}" for i in range(1, n_codes)),
                (rng.random(n) < rng.random()).astype(np.uint8),
            )

        fit = table(int(rng.integers(1, 200)), first, first + span, n_cats)
        probe = table(int(rng.integers(1, 200)), first - 5, first + span + 5, n_cats + 3)
        states = [fit_frequency(fit, "cat", w) for w in FreqWindow]
        states.append(fit_target(fit, "cat", "install", a=float(rng.choice([0.3, 1.0, 7.0]))))
        for state in states:
            want = per_day_reference(state, probe)
            got = transform(state, probe)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (state.kind, state.window)


#: rows of a small categorical table: (day, code, install, click)
ROWS = st.lists(st.tuples(st.integers(3, 9), st.integers(0, 5), st.integers(0, 1),
                          st.integers(0, 1)), min_size=1, max_size=60)


class TestStateProperties:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=ROWS, a=st.floats(1e-3, 1e3))
    def test_states_round_trip_hold_the_day_totals_and_encode_in_range(self, tmp_path, rows, a):
        days, codes, y, clicks = (np.array(c) for c in zip(*rows))
        dictionary = (MISSING_TOKEN,) + tuple(f"t{i}" for i in range(1, int(codes.max()) + 2))
        table = make_cat_table(days, codes, dictionary, y.astype(np.uint8),
                               clicks=clicks.astype(np.uint8))
        states = [fit_frequency(table, "cat", w) for w in FreqWindow]
        states += [fit_target(table, "cat", t, a=a) for t in ("click", "install")]
        save_states(states, tmp_path / "a.json")
        loaded = load_states(tmp_path / "a.json")
        save_states(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        for state, again in zip(states, loaded):
            assert transform(again, table).tobytes() == transform(state, table).tobytes()
        in_range = range(int(days.min()), int(days.max()) + 1)
        for doc, label in zip(json.loads((tmp_path / "a.json").read_text())["encoders"][3:],
                              (clicks, y)):
            assert doc["day_rows"] == [int((days == d).sum()) for d in in_range]
            assert doc["day_positives"] == [int(label[days == d].sum()) for d in in_range]
        for state in states[3:]:
            encoded = transform(state, table)
            assert ((encoded >= 0) & (encoded <= 1)).all()
