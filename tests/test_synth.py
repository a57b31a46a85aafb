import tracemalloc

import numpy as np
import pytest

from resplite import synth
from resplite.synth import (
    ArithmeticFeature,
    CorrelatedPair,
    LabelModel,
    ShiftedFeature,
    SynthError,
    SynthSpec,
    default_spec,
    generate,
    split_train_test,
    write_csv,
)
from resplite.tabular import (
    ColumnRole,
    Schema,
    Table,
    ingest_csv_group,
    load_binary,
    save_binary,
)


def tiny_spec(**overrides):
    base = dict(
        n_rows_per_day=300,
        days=(45, 50),
        cat_cardinalities=(8,),
        n_cont=3,
        arithmetic=(ArithmeticFeature(index=1, delta=0.0385, max_multiplier=100),),
        label_model=LabelModel(-1.0, -0.3, continuous={0: 1.0}, categorical={0: 0.5}),
        seed=123,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestValidation:
    def test_out_of_range_arithmetic_index(self):
        with pytest.raises(SynthError, match="out of range"):
            generate(tiny_spec(arithmetic=(ArithmeticFeature(9, 0.1, 5),)))

    def test_out_of_range_shift_index(self):
        with pytest.raises(SynthError, match="out of range"):
            generate(tiny_spec(shifted=(ShiftedFeature(7, 1.0),)))

    def test_bad_cardinality(self):
        with pytest.raises(SynthError, match="cardinalities"):
            generate(tiny_spec(cat_cardinalities=(1,)))


class TestArithmeticPlanting:
    def test_values_are_exact_multiples_of_delta(self):
        table, truth = generate(tiny_spec())
        column = table.col("x1")
        k = truth.multipliers["x1"]
        assert truth.deltas["x1"] == 0.0385
        # value equals k * delta up to the single rounding of the product
        assert np.array_equal(column, k.astype(np.float64) * 0.0385)
        ratio = np.round(np.unique(column) / 0.0385).astype(int)
        assert ratio.min() >= 0 and ratio.max() <= 100

    def test_multipliers_within_range(self):
        _, truth = generate(tiny_spec())
        k = truth.multipliers["x1"]
        assert k.min() >= 0 and k.max() <= 100


class TestShift:
    def test_shift_applies_to_final_day_only(self):
        spec = tiny_spec(shifted=(ShiftedFeature(index=2, magnitude=2.0),))
        table, truth = generate(spec)
        days = table.day_values
        x = table.col("x2")
        final = days == 50
        assert abs(x[final].mean() - 2.0) < 0.2
        assert abs(x[~final].mean()) < 0.1
        assert truth.shifts == {"x2": 2.0}

    def test_no_shift_means_matching_distributions(self):
        table, _ = generate(tiny_spec(n_rows_per_day=2000))
        days = table.day_values
        x = table.col("x0")
        final = days == 50
        # both sides are N(0,1); means agree within a few standard errors
        se = np.sqrt(1 / final.sum() + 1 / (~final).sum())
        assert abs(x[final].mean() - x[~final].mean()) < 4 * se


class TestLabels:
    def test_calibration_within_three_standard_errors(self):
        table, truth = generate(tiny_spec(n_rows_per_day=5000))
        y = table.col("is_installed").astype(float)
        p = truth.install_probs
        se = np.sqrt((p * (1 - p)).sum()) / len(p)
        assert abs(y.mean() - p.mean()) <= 3 * se

    def test_click_rate_exceeds_install_rate(self):
        table, _ = generate(tiny_spec(n_rows_per_day=3000))
        assert table.col("is_clicked").mean() > table.col("is_installed").mean()


class TestDeterminism:
    def test_same_seed_identical_after_persistence(self, tmp_path):
        a, _ = generate(tiny_spec())
        b, _ = generate(tiny_spec())
        pa, pb = tmp_path / "a.rlt", tmp_path / "b.rlt"
        save_binary(a, pa)
        save_binary(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a, _ = generate(tiny_spec())
        b, _ = generate(tiny_spec(seed=124))
        assert not a.equals(b)


class TestCorrelatedPair:
    def test_empirical_correlation_near_loading(self):
        spec = tiny_spec(
            n_rows_per_day=20000,
            correlated=(CorrelatedPair(base_index=0, index=2, loading=0.6),),
        )
        table, _ = generate(spec)
        r = np.corrcoef(table.col("x0"), table.col("x2"))[0, 1]
        assert r == pytest.approx(0.6, abs=0.02)


class TestCsvRoundTrip:
    def test_written_files_reingest_to_identical_tables(self, tmp_path):
        spec = default_spec(seed=3, n_rows_per_day=150)
        table, _ = generate(spec)
        train, test = split_train_test(table)
        write_csv(train, tmp_path / "train.csv")
        write_csv(test, tmp_path / "test.csv")
        again_train, again_test = ingest_csv_group(
            [tmp_path / "train.csv", tmp_path / "test.csv"], table.schema
        )
        assert again_train.equals(train)
        assert again_test.equals(test)

    def test_pseudo_test_day_is_final_day(self):
        table, truth = generate(tiny_spec())
        train, test = split_train_test(table)
        assert truth.test_day == 50
        assert set(test.day_values.tolist()) == {50}
        assert 50 not in set(train.day_values.tolist())

    def test_truth_json_dict_is_serializable(self):
        import json

        _, truth = generate(tiny_spec())
        blob = json.dumps(truth.to_json_dict())
        assert "install_probs" in blob


def _whole_column_csv(table: Table, path) -> None:
    """``write_csv`` as it was before it went by row blocks: every column is
    formatted whole, then the lines are joined."""
    schema = table.schema
    cols = []
    for name, role in schema.columns:
        values = table.col(name)
        if role is ColumnRole.CATEGORICAL:
            tokens = np.array(("",) + table.dictionary(name)[1:], dtype=object)
            cols.append(tokens[values])
        elif role in (ColumnRole.CONTINUOUS, ColumnRole.BINARY):
            text = np.array(list(map(repr, values.tolist())), dtype=object)
            text[np.isnan(values)] = ""
            cols.append(text)
        elif role is ColumnRole.ROW_ID:
            cols.append([v.decode() for v in values.tolist()])
        else:
            cols.append(list(map(str, values.tolist())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if schema.has_header:
            fh.write(schema.delimiter.join(schema.names) + "\n")
        fh.writelines(f"{line}\n" for line in map(schema.delimiter.join, zip(*cols)))


def _csv_table(seed: int, n: int) -> Table:
    """The first ``n`` rows of a generated table (8,280 rows), with NaN cells
    in x0, missing c0 codes and an extra binary column b0 (NaN cells too).
    Odd seeds get a comma-delimited schema with a header."""
    table, _ = generate(default_spec(seed=seed, n_rows_per_day=360))
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = {name: table.col(name)[:n].copy() for name in table.schema.names}
    cols["x0"][rng.random(n) < 0.1] = np.nan
    cols["c0"][rng.random(n) < 0.05] = 0
    cols["b0"] = (rng.random(n) < 0.5).astype(np.float64)
    cols["b0"][rng.random(n) < 0.1] = np.nan
    header = seed % 2 == 1
    schema = Schema(table.schema.columns + (("b0", ColumnRole.BINARY),),
                    delimiter="," if header else "\t", has_header=header)
    dicts = {name: table.dictionary(name) for name, role in table.schema.columns
             if role is ColumnRole.CATEGORICAL}
    return Table.from_columns(schema, cols, dicts)


class TestBlockCsvWriter:
    B = synth._CSV_BLOCK

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_whole_column_body(self, tmp_path, seed, n):
        table = _csv_table(seed, n)
        assert table.n_rows == n
        write_csv(table, tmp_path / "blocks.csv")
        _whole_column_csv(table, tmp_path / "whole.csv")
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "whole.csv").read_bytes()
        assert got.count(b"\n") == n + table.schema.has_header
        if n > 100:
            assert b"\t\t" in got or b",," in got  # some NaN or missing cells

    def test_peak_does_not_grow_with_the_rows(self, tmp_path):
        # the whole-column body peaked at 82.9 MB (867 bytes a row) on the
        # 95,656 train rows of the benchmark table
        train, _ = split_train_test(generate(default_spec(seed=0))[0])
        assert train.n_rows == 95_656
        half = train.take(np.arange(train.n_rows // 2))
        peaks = []
        for table in (half, train):
            tracemalloc.start()
            try:
                write_csv(table, tmp_path / "train.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 16e6, f"peak {peaks[1] / 1e6:.1f} MB"
        assert peaks[1] <= 1.1 * peaks[0], f"peaks {peaks}"
