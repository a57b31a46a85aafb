"""Checking a train-detected lattice step against every table it is applied
to: refinement to delta/m, the continuous fallback, and idempotence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resplite.denoise import apply_denoise_group, detect_all, refine_estimates
from resplite.tabular import ColumnRole, Schema, Table

SCHEMA = Schema(
    (("day", ColumnRole.DAY), ("a", ColumnRole.CONTINUOUS),
     ("y", ColumnRole.LABEL_INSTALL))
)


def make(values, day):
    n = len(values)
    return Table.from_columns(SCHEMA, {
        "day": np.full(n, day),
        "a": np.asarray(values, dtype=np.float64),
        "y": np.zeros(n, dtype=np.uint8),
    })


TRAIN = make(np.arange(6) * 0.5, 45)


class TestRefineEstimates:
    def test_on_lattice_tables_keep_step_and_count_zero(self):
        test = make([0.0, 1.5, 4.0, np.nan], 46)
        (est,) = refine_estimates([TRAIN, test], detect_all(TRAIN))
        (raw,) = detect_all(TRAIN)
        assert est.detected
        assert est.delta == raw.delta
        assert est.off_lattice == (0, 0)
        assert est.note == ""

    def test_off_lattice_values_refine_step(self):
        test = make([0.25, 0.5, 0.75, 3.0], 46)
        (est,) = refine_estimates([TRAIN, test], detect_all(TRAIN))
        assert est.detected
        assert est.delta == pytest.approx(0.25, rel=1e-12)
        assert est.off_lattice == (0, 2)
        assert "delta/2" in est.note
        doc = est.to_json_dict()
        assert doc["off_lattice"] == [0, 2]
        assert doc["delta"] == pytest.approx(0.25, rel=1e-12)

    def test_refining_twice_changes_nothing(self):
        for test in (
            make([0.0, 1.5], 46),                  # step kept
            make([0.25, 0.75], 46),                # refined to delta/2
            make([0.5 * (2 + 1 / 17)], 46),        # left continuous
        ):
            once = refine_estimates([TRAIN, test], detect_all(TRAIN))
            assert refine_estimates([TRAIN, test], once) == once

    def test_undetected_estimate_passes_through(self):
        noise = make(np.random.Generator(np.random.PCG64(0)).random(50), 45)
        raw = detect_all(noise)
        assert not raw[0].detected
        assert refine_estimates([noise, TRAIN], raw) == raw


class TestGroupApplyFallback:
    def test_value_fitting_no_harmonic_leaves_feature_continuous(self):
        # 1 + 1/34 is (2 + 1/17) train steps: it sits on delta/17 but on no
        # delta/m with m <= 16, so no refinement can hold it
        odd = 0.5 * (2 + 1 / 17)
        test = make([0.5, odd, 2.0], 46)
        raw = detect_all(TRAIN)
        assert raw[0].detected
        (est,) = refine_estimates([TRAIN, test], raw)
        assert not est.detected
        assert np.isnan(est.delta)
        assert est.off_lattice == (0, 1)
        assert "m <= 16" in est.note and "continuous" in est.note
        assert est.to_json_dict()["delta"] is None
        t_train, t_test = apply_denoise_group([TRAIN, test], raw)
        for before, after in ((TRAIN, t_train), (test, t_test)):
            assert after.schema.role("a") is ColumnRole.CONTINUOUS
            assert np.array_equal(after.col("a"), before.col("a"))

    def test_group_apply_with_refined_estimates_is_unchanged(self):
        test = make([0.25, 1.0, 2.75], 46)
        raw = detect_all(TRAIN)
        a = apply_denoise_group([TRAIN, test], raw)
        b = apply_denoise_group([TRAIN, test], refine_estimates([TRAIN, test], raw))
        for x, y in zip(a, b):
            assert x.dictionary("a") == y.dictionary("a")
            assert np.array_equal(x.col("a"), y.col("a"))


@settings(max_examples=60, deadline=None)
@given(
    train_k=st.lists(st.integers(0, 40), min_size=3, max_size=30),
    test_k=st.lists(st.integers(0, 160), min_size=1, max_size=30),
    m=st.integers(1, 4),
)
def test_distinct_raw_values_never_share_a_code(train_k, test_k, m):
    # train sits on multiples of 0.3; test on multiples of 0.3 / m
    train = make(np.asarray(train_k) * 0.3, 45)
    test = make(np.asarray(test_k) * (0.3 / m), 46)
    out = apply_denoise_group([train, test], detect_all(train))
    if out[0].schema.role("a") is ColumnRole.CONTINUOUS:
        # not detected on train, or no refinement fits: left untouched
        for before, after in zip((train, test), out):
            assert np.array_equal(after.col("a"), before.col("a"))
        return
    raw = np.concatenate([train.col("a"), test.col("a")])
    codes = np.concatenate([out[0].col("a"), out[1].col("a")])
    # one code per distinct raw value, and one raw value per code
    pairs = set(zip(np.round(raw, 9).tolist(), codes.tolist()))
    assert len(pairs) == len({v for v, _ in pairs}) == len({c for _, c in pairs})
