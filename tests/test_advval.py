import numpy as np
import pytest

from resplite.advval import (
    AdvConfig,
    AdvValError,
    VERDICT_DROP,
    VERDICT_KEEP,
    VERDICT_SKIPPED,
    _fit_and_score,
    adversarial_auc,
    audit,
    filter_features,
    save_report,
)
from resplite.synth import (
    ArithmeticFeature,
    LabelModel,
    ShiftedFeature,
    SynthSpec,
    generate,
    split_train_test,
)
from resplite.tabular import ColumnRole, MISSING_TOKEN, Schema, Table

from conftest import dictionary_of


def fast_cfg(**overrides):
    kwargs = dict(seed=0, subsample_per_side=8000)
    kwargs.update(overrides)
    return AdvConfig(**kwargs)


class TestAdversarialAuc:
    def test_identical_distributions_score_near_half(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.standard_normal(10000)
        b = rng.standard_normal(10000)
        score = adversarial_auc(a, b, fast_cfg())
        assert 0.45 <= score <= 0.55

    def test_disjoint_supports_score_near_one(self):
        rng = np.random.Generator(np.random.PCG64(1))
        a = -np.abs(rng.standard_normal(4000)) - 0.1
        b = np.abs(rng.standard_normal(4000)) + 0.1
        assert adversarial_auc(a, b, fast_cfg()) >= 0.99

    def test_empty_side_errors(self):
        with pytest.raises(AdvValError, match="non-empty"):
            adversarial_auc(np.array([]), np.array([1.0]), fast_cfg())

    def test_mismatched_dtypes_error(self):
        with pytest.raises(AdvValError, match="same column type"):
            adversarial_auc(
                np.array([1.0]), np.array([1], dtype=np.int32), fast_cfg()
            )

    def test_deterministic_given_seed(self):
        rng = np.random.Generator(np.random.PCG64(2))
        a = rng.standard_normal(5000)
        b = rng.standard_normal(5000) + 0.4
        s1 = adversarial_auc(a, b, fast_cfg(seed=9))
        s2 = adversarial_auc(a, b, fast_cfg(seed=9))
        assert s1 == s2

    def test_symmetry_under_label_swap(self):
        # identical construction and holdout split, sides relabeled: each
        # bin's smoothed test share becomes one minus itself, so the ranking
        # reverses along with the labels and the AUC does not move
        rng = np.random.Generator(np.random.PCG64(3))
        values = np.concatenate(
            [rng.standard_normal(4000), rng.standard_normal(4000) + 0.5]
        )
        origin = np.concatenate(
            [np.zeros(4000, dtype=np.uint8), np.ones(4000, dtype=np.uint8)]
        )
        holdout = np.zeros(8000, dtype=bool)
        holdout[rng.permutation(8000)[:1600]] = True
        a = _fit_and_score(values, origin, holdout, False)
        b = _fit_and_score(values, 1 - origin, holdout, False)
        assert a == pytest.approx(b, abs=1e-9)

    def test_retrained_swap_scores_match(self):
        # retraining with swapped sides flips the scores as well, so the
        # adversarial AUC itself is side-agnostic (statistically)
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000) + 0.5
        s_ab = adversarial_auc(a, b, fast_cfg(seed=5))
        s_ba = adversarial_auc(b, a, fast_cfg(seed=5))
        assert abs(s_ab - s_ba) < 0.05


def planted_spec(seed):
    return SynthSpec(
        n_rows_per_day=700,
        days=(45, 56),
        cat_cardinalities=(30, 6),
        n_cont=6,
        shifted=(ShiftedFeature(index=3, magnitude=2.0),),
        arithmetic=(ArithmeticFeature(index=4, delta=0.5711, max_multiplier=40),),
        label_model=LabelModel(-1.5, -0.5, continuous={0: 1.0}, categorical={0: 0.6}),
        seed=seed,
    )


class TestAudit:
    def test_planted_shift_is_dropped_others_kept(self):
        table, _ = generate(planted_spec(5))
        train, test = split_train_test(table)
        report = audit(train, test, fast_cfg())
        assert report.entry("x3").verdict == VERDICT_DROP
        assert report.entry("x3").auc >= 0.75
        for entry in report.entries:
            if entry.name != "x3":
                assert entry.verdict == VERDICT_KEEP, entry
                assert entry.auc < 0.65

    def test_every_feature_appears_exactly_once(self):
        table, _ = generate(planted_spec(6))
        train, test = split_train_test(table)
        report = audit(train, test, fast_cfg())
        names = [e.name for e in report.entries]
        assert names == list(train.schema.feature_columns())
        for e in report.entries:
            if e.auc is not None:
                assert (e.verdict == VERDICT_DROP) == (
                    e.auc >= report.config.auc_threshold
                )

    def test_same_distribution_halves_score_near_half(self):
        table, _ = generate(planted_spec(7))
        train, _ = split_train_test(table)
        idx = np.arange(train.n_rows)
        first, second = train.take(idx[::2]), train.take(idx[1::2])
        report = audit(first, second, fast_cfg())
        for e in report.entries:
            assert e.auc is not None
            assert 0.4 <= e.auc <= 0.6, e

    def test_empty_test_table_errors(self):
        table, _ = generate(planted_spec(8))
        train, test = split_train_test(table)
        empty = test.take(np.array([], dtype=np.int64))
        with pytest.raises(AdvValError, match="non-empty"):
            audit(train, empty, fast_cfg())

    def test_schema_mismatch_errors(self):
        table, _ = generate(planted_spec(9))
        train, test = split_train_test(table)
        with pytest.raises(AdvValError, match="share a schema"):
            audit(train, test.drop_columns({"x0"}), fast_cfg())

    def test_tiny_input_yields_skipped_entries(self):
        table, _ = generate(planted_spec(10))
        train, test = split_train_test(table)
        tiny_train = train.take(np.arange(3))
        tiny_test = test.take(np.arange(2))
        report = audit(tiny_train, tiny_test, fast_cfg())
        assert all(e.verdict == VERDICT_SKIPPED for e in report.entries)
        assert all(e.reason for e in report.entries)

    def test_determinism(self):
        table, _ = generate(planted_spec(11))
        train, test = split_train_test(table)
        r1 = audit(train, test, fast_cfg(seed=4))
        r2 = audit(train, test, fast_cfg(seed=4))
        assert r1.entries == r2.entries

    def test_report_json_round_trip(self, tmp_path):
        table, _ = generate(planted_spec(12))
        train, test = split_train_test(table)
        report = audit(train, test, fast_cfg())
        save_report(report, tmp_path / "adv.json")
        import json

        doc = json.loads((tmp_path / "adv.json").read_text())
        assert len(doc["features"]) == len(report.entries)
        assert doc["auc_threshold"] == 0.75


class TestCategoricalAudit:
    def test_category_mix_shift_dropped_and_overflow_codes_share_a_bin(self):
        # "mix" draws the same six categories on both sides with different
        # shares; "wide" uses codes 300-399 on train and 400-499 on test,
        # all past the last own bin, so both sides land in the overflow bin
        # and the feature looks unshifted
        rng = np.random.Generator(np.random.PCG64(0))
        n = 5000
        schema = Schema((
            ("mix", ColumnRole.CATEGORICAL),
            ("wide", ColumnRole.CATEGORICAL),
            ("same", ColumnRole.CATEGORICAL),
            ("y", ColumnRole.LABEL_INSTALL),
        ))
        tokens = (MISSING_TOKEN,) + tuple(f"t{i}" for i in range(1, 600))

        def side(mix_shares, wide_lo):
            return Table.from_columns(
                schema,
                {
                    "mix": rng.choice(np.arange(1, 7), size=n, p=mix_shares),
                    "wide": rng.integers(wide_lo, wide_lo + 100, size=n),
                    "same": rng.integers(0, 600, size=n),
                    "y": np.zeros(n, dtype=np.uint8),
                },
                {"mix": tokens, "wide": tokens, "same": tokens},
            )

        train = side(np.full(6, 1 / 6), 300)
        test = side([0.7, 0.2, 0.025, 0.025, 0.025, 0.025], 400)
        report = audit(train, test, fast_cfg())
        assert report.dropped() == ["mix"]
        assert report.entry("mix").auc >= 0.8
        assert report.entry("wide").auc == 0.5
        assert 0.45 <= report.entry("same").auc <= 0.55


class TestCodeWidths:
    @staticmethod
    def sides(top: int):
        """Train and test codes with different shares of 1, 2 and ``top``."""
        rng = np.random.Generator(np.random.PCG64(top))
        return (rng.choice([1, 2, top], 4000, p=[0.8, 0.15, 0.05]),
                rng.choice([1, 2, top], 4000, p=[0.05, 0.15, 0.8]))

    @pytest.mark.parametrize("n_codes", [256, 65536, 65537])
    def test_top_codes_of_every_width_audit_as_their_int32_values(self, n_codes):
        train, test = self.sides(n_codes - 1)
        schema = Schema((("c", ColumnRole.CATEGORICAL), ("y", ColumnRole.LABEL_INSTALL)))
        tables = [Table.from_columns(schema, {"c": codes, "y": np.zeros(len(codes))},
                                     {"c": dictionary_of(n_codes)}) for codes in (train, test)]
        seed = int(np.random.SeedSequence([0, 0]).generate_state(1)[0])
        want = adversarial_auc(train.astype(np.int32), test.astype(np.int32), fast_cfg(),
                               categorical=True, seed=seed)
        entry = audit(*tables, fast_cfg()).entry("c")
        assert entry.verdict == VERDICT_DROP and entry.auc == want

    def test_sides_of_different_widths_are_audited(self):
        # two caches whose dictionaries differ in size hold codes of two widths
        train, test = self.sides(255)
        got = adversarial_auc(train.astype(np.uint8), test.astype(np.uint16), fast_cfg(),
                              categorical=True)
        assert got == adversarial_auc(train.astype(np.int32), test.astype(np.int32),
                                      fast_cfg(), categorical=True)
        schema = Schema((("c", ColumnRole.CATEGORICAL), ("y", ColumnRole.LABEL_INSTALL)))
        tables = [Table.from_columns(schema, {"c": codes, "y": np.zeros(len(codes))},
                                     {"c": dictionary_of(n_codes)})
                  for codes, n_codes in ((train, 256), (test, 300))]
        assert [t.col("c").dtype for t in tables] == [np.uint8, np.uint16]
        assert audit(*tables, fast_cfg()).entry("c").verdict == VERDICT_DROP


class TestFilterFeatures:
    def test_zero_drops_is_identity(self):
        table, _ = generate(planted_spec(13))
        train, _ = split_train_test(table)
        idx = np.arange(train.n_rows)
        report = audit(train.take(idx[::2]), train.take(idx[1::2]), fast_cfg())
        assert not report.dropped()
        out = filter_features(report, train)
        assert out.schema == train.schema

    def test_drops_exactly_the_flagged_features(self):
        spec = SynthSpec(
            n_rows_per_day=500,
            days=(45, 52),
            n_cont=5,
            shifted=(ShiftedFeature(1, 2.5), ShiftedFeature(3, 2.5)),
            label_model=LabelModel(-1.0, -0.4, continuous={0: 1.0}),
            seed=3,
        )
        table, _ = generate(spec)
        train, test = split_train_test(table)
        report = audit(train, test, fast_cfg())
        assert set(report.dropped()) == {"x1", "x3"}
        out = filter_features(report, train)
        assert set(train.schema.names) - set(out.schema.names) == {"x1", "x3"}
        # order of the remaining columns is untouched
        kept = [n for n in train.schema.names if n not in {"x1", "x3"}]
        assert list(out.schema.names) == kept


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(AdvValError):
            AdvConfig(auc_threshold=0.4)
        with pytest.raises(AdvValError):
            AdvConfig(holdout_fraction=1.0)
