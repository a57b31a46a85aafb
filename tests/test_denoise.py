import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resplite.denoise import (
    DenoiseError,
    apply_denoise_group,
    correlation_matrix,
    detect_all,
    detect_delta,
    group_deltas,
    quantize,
)
from resplite.report import save_correlation_csv
from resplite.synth import (
    ArithmeticFeature,
    CorrelatedPair,
    LabelModel,
    SynthSpec,
    generate,
)
from resplite.tabular import ColumnRole, Schema, Table

ROOT = Path(__file__).resolve().parent.parent


def _continuous_table(columns: dict) -> Table:
    schema = Schema(tuple((name, ColumnRole.CONTINUOUS) for name in columns))
    return Table.from_columns(schema, columns)


class TestDetectDelta:
    def test_consecutive_multiples_of_paper_step(self):
        e = detect_delta(np.array([0.0385, 0.0770, 0.1925]))
        assert e.detected
        assert e.delta == pytest.approx(0.0385, rel=1e-6)
        assert e.n_unique == 3

    def test_skip_pattern_multiples_recover_fine_step(self):
        # 1x, 3x, 5x of the step: every gap is twice the true step, but the
        # values themselves are odd multiples, pinning the finer lattice
        e = detect_delta(np.array([0.5711, 1.7133, 2.8555]))
        assert e.detected
        assert e.delta == pytest.approx(0.5711, rel=1e-6)

    def test_uniform_values_not_detected(self):
        for seed in range(5):
            rng = np.random.Generator(np.random.PCG64(seed))
            e = detect_delta(rng.random(1000))
            assert not e.detected

    def test_too_few_uniques_not_detected(self):
        assert not detect_delta(np.array([1.0, 2.0])).detected
        assert not detect_delta(np.array([3.0, 3.0, 3.0])).detected
        assert not detect_delta(np.array([])).detected

    def test_missing_values_ignored(self):
        col = np.array([np.nan, 0.25, 0.5, np.nan, 1.0, 0.75])
        e = detect_delta(col)
        assert e.detected
        assert e.delta == pytest.approx(0.25, rel=1e-9)

    def test_off_lattice_value_breaks_detection(self):
        e = detect_delta(np.array([0.25, 0.5, 0.75, 0.9]))
        assert not e.detected

    def test_scale_covariance(self):
        rng = np.random.Generator(np.random.PCG64(1))
        k = rng.integers(0, 50, size=500)
        base = k * 0.125
        e1 = detect_delta(base)
        e2 = detect_delta(base * 3.0)
        assert e1.detected and e2.detected
        assert e2.delta == pytest.approx(3.0 * e1.delta, rel=1e-9)
        q1 = quantize(base, e1)
        q2 = quantize(base * 3.0, e2)
        assert np.array_equal(q1, q2)


class TestQuantize:
    def test_divides_by_delta(self):
        e = detect_delta(np.array([0.0385, 0.0770, 0.1925]))
        out = quantize(np.array([0.1925, 0.0, np.nan]), e)
        assert out[0] == 5.0
        assert out[1] == 0.0
        assert np.isnan(out[2])

    def test_requires_detection(self):
        e = detect_delta(np.array([1.0, 2.0]))
        with pytest.raises(DenoiseError, match="cannot quantize"):
            quantize(np.array([1.0]), e)

    def test_reconstruction_bound(self):
        rng = np.random.Generator(np.random.PCG64(2))
        k = rng.integers(0, 200, size=2000)
        col = k * 0.0385
        e = detect_delta(col)
        q = quantize(col, e)
        assert np.abs(q * e.delta - col).max() <= e.tol_rel * e.delta


class TestSynthgenRecovery:
    def test_ground_truth_multipliers_recovered_exactly(self):
        spec = SynthSpec(
            n_rows_per_day=2000,
            days=(45, 50),
            n_cont=3,
            arithmetic=(
                ArithmeticFeature(index=0, delta=0.0385, max_multiplier=100),
                ArithmeticFeature(index=1, delta=0.5711, max_multiplier=50),
            ),
            label_model=LabelModel(-1.0, -0.4, continuous={2: 1.0}),
            seed=4,
        )
        table, truth = generate(spec)
        for name, want_delta in (("x0", 0.0385), ("x1", 0.5711)):
            e = detect_delta(table.col(name), feature=name)
            assert e.detected
            assert abs(e.delta - want_delta) / want_delta <= 1e-4
            q = quantize(table.col(name), e)
            assert np.array_equal(q, truth.multipliers[name].astype(float))


class TestApplyDenoise:
    def make(self):
        rng = np.random.Generator(np.random.PCG64(3))
        k = rng.integers(0, 20, size=300)
        schema = Schema(
            (
                ("day", ColumnRole.DAY),
                ("a", ColumnRole.CONTINUOUS),
                ("b", ColumnRole.CONTINUOUS),
                ("y", ColumnRole.LABEL_INSTALL),
            )
        )
        return Table.from_columns(
            schema,
            {
                "day": np.full(300, 45),
                "a": k * 0.25,
                "b": rng.standard_normal(300),
                "y": rng.integers(0, 2, 300).astype(np.uint8),
            },
        ), k

    def test_as_categorical_swaps_role_and_dictionary(self):
        table, k = self.make()
        estimates = detect_all(table)
        out = apply_denoise_group([table], estimates)[0]
        assert out.schema.role("a") is ColumnRole.CATEGORICAL
        assert out.schema.role("b") is ColumnRole.CONTINUOUS
        d = out.dictionary("a")
        codes = out.col("a")
        decoded = np.array([int(d[c]) for c in codes])
        assert np.array_equal(decoded, k)

    def test_three_hundred_multipliers_code_as_uint16(self):
        rng = np.random.Generator(np.random.PCG64(3))
        k = rng.permutation(np.repeat(np.arange(300), 4))
        schema = Schema((("day", ColumnRole.DAY), ("a", ColumnRole.CONTINUOUS),
                         ("y", ColumnRole.LABEL_INSTALL)))
        table = Table.from_columns(schema, {"day": np.full(len(k), 45), "a": k * 0.25,
                                            "y": np.zeros(len(k), dtype=np.uint8)})
        out = apply_denoise_group([table], detect_all(table))[0]
        d, codes = out.dictionary("a"), out.col("a")
        assert len(d) == 301 and codes.dtype == np.uint16
        assert [int(d[c]) for c in codes] == k.tolist()

    def test_group_apply_shares_one_dictionary(self):
        # the two tables see different (overlapping) multiplier sets; codes
        # must still mean the same integer in both
        schema = Schema(
            (("day", ColumnRole.DAY), ("a", ColumnRole.CONTINUOUS),
             ("y", ColumnRole.LABEL_INSTALL))
        )

        def make(ks, day):
            n = len(ks)
            return Table.from_columns(schema, {
                "day": np.full(n, day),
                "a": np.asarray(ks) * 0.25,
                "y": np.zeros(n, dtype=np.uint8),
            })

        train = make([0, 2, 4, 6, 8, 10], 45)
        test = make([1, 2, 3, 10, 12], 46)
        estimates = detect_all(train)
        t_train, t_test = apply_denoise_group([train, test], estimates)
        assert t_train.dictionary("a") == t_test.dictionary("a")
        d = t_train.dictionary("a")
        back_train = [int(d[c]) for c in t_train.col("a")]
        back_test = [int(d[c]) for c in t_test.col("a")]
        assert back_train == [0, 2, 4, 6, 8, 10]
        assert back_test == [1, 2, 3, 10, 12]

    @pytest.mark.parametrize("values", [[0, 0.5, 1, 1.5, 5e18], [0, 0.5, 1, 1.5, 5e18, 6e18]])
    def test_integers_past_int64_keep_their_own_codes(self, values):
        # 5e18 / 0.5 is past 2**63: an int64 cast would wrap it to -2**63
        table = _continuous_table({"x": np.array(values)})
        out = apply_denoise_group([table], detect_all(table))[0]
        d = out.dictionary("x")
        assert out.col("x").tolist() == list(range(1, len(values) + 1))
        assert [d[c] for c in out.col("x")] == [str(int(2 * v)) for v in values]


class TestGroupDeltas:
    def test_shared_step_features_cluster(self):
        rng = np.random.Generator(np.random.PCG64(5))
        cols = {
            "a": rng.integers(0, 40, 500) * 0.0385,
            "b": rng.integers(0, 40, 500) * 0.0385,
            "c": rng.integers(0, 40, 500) * 0.5711,
        }
        estimates = [detect_delta(v, feature=n) for n, v in cols.items()]
        groups = group_deltas(estimates)
        assert ["a", "b"] in groups
        assert ["c"] in groups


class TestCorrelationMatrix:
    def make(self, n=5000, seed=6):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        schema = Schema(
            (
                ("day", ColumnRole.DAY),
                ("x", ColumnRole.CONTINUOUS),
                ("neg", ColumnRole.CONTINUOUS),
                ("mix", ColumnRole.CONTINUOUS),
                ("y", ColumnRole.LABEL_INSTALL),
            )
        )
        return Table.from_columns(
            schema,
            {
                "day": np.full(n, 45),
                "x": x,
                "neg": -x,
                "mix": 0.5 * x + np.sqrt(1 - 0.25) * noise,
                "y": rng.integers(0, 2, n).astype(np.uint8),
            },
        )

    def test_diagonal_and_perfect_anticorrelation(self):
        matrix, features = correlation_matrix(self.make())
        assert features == ["x", "neg", "mix"]
        assert np.allclose(np.diag(matrix), 1.0, atol=1e-12)
        assert matrix[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self):
        matrix, _ = correlation_matrix(self.make())
        assert np.allclose(matrix, matrix.T, atol=1e-12)

    def test_zero_variance_feature_warns_and_nans(self):
        table = self.make(n=100)
        # np.std is 1.4e-17 for a column of 0.1 and 1.4e-14 for 123.456
        for value in (2.0, 0.1, 123.456):
            flat = table.replace_column("mix", ColumnRole.CONTINUOUS, np.full(100, value))
            with pytest.warns(UserWarning, match="zero variance") as record:
                matrix, features = correlation_matrix(flat)
            assert len(record) == 1, value
            j = features.index("mix")
            assert np.isnan(matrix[j]).all(), value
            assert np.isnan(matrix[:, j]).all(), value

    def test_pair_constant_only_on_shared_rows_is_nan(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, np.nan, np.nan])
        y = np.array([np.nan, np.nan, 0.1, 0.1, 0.1, 0.7, 0.2])
        table = _continuous_table({"x": x, "y": y, "z": np.arange(7.0) ** 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither side is degenerate alone
            matrix, _ = correlation_matrix(table)
        assert np.isnan(matrix[0, 1]) and np.isnan(matrix[1, 0])
        assert np.array_equal(np.diag(matrix), [1.0, 1.0, 1.0])
        assert not np.isnan(matrix[[0, 1], [2, 2]]).any()

    def test_tiny_and_huge_columns_keep_their_correlation(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.standard_normal(200)
        y = x + rng.standard_normal(200)
        # squares of 1e-200 underflow to 0 and those of 1e200 overflow
        scaled = {"tiny": y * 1e-200, "huge": y * 1e200, "pow2": y * 2.0**-900}
        table = _continuous_table({"x": x, "y": y, **scaled})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix, _ = correlation_matrix(table)
        assert matrix[0, 4] == matrix[0, 1]  # a power of 2 keeps every bit
        assert np.allclose(matrix[0, 2:], matrix[0, 1], rtol=0.0, atol=1e-12)
        assert np.allclose(matrix[1:, 1:], 1.0, rtol=0.0, atol=1e-12)

    def test_matrix_bits_do_not_depend_on_the_blas_thread_count(self):
        script = (
            "import sys\n"
            "from resplite.denoise import correlation_matrix\n"
            "from resplite.pipeline import default_spec\n"
            "from resplite.synth import generate\n"
            "table, _ = generate(default_spec(seed=0, n_rows_per_day=1000))\n"
            "assert table.n_rows >= 20_000\n"
            "sys.stdout.write(correlation_matrix(table)[0].tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_pairwise_complete_uses_shared_rows(self):
        table = self.make(n=200)
        x = table.col("x").copy()
        x[:100] = np.nan
        holed = table.replace_column("x", ColumnRole.CONTINUOUS, x)
        matrix, features = correlation_matrix(holed)
        i, j = features.index("x"), features.index("neg")
        assert matrix[i, j] == pytest.approx(-1.0, abs=1e-12)

    def test_needs_two_features(self):
        table = self.make()
        with pytest.raises(DenoiseError, match="at least 2"):
            correlation_matrix(table, ["x"])

    def test_latent_factor_loading_matches_analytic_value(self):
        spec = SynthSpec(
            n_rows_per_day=5000,
            days=(45, 64),
            n_cont=3,
            correlated=(CorrelatedPair(base_index=0, index=1, loading=0.6),),
            label_model=LabelModel(-1.0, -0.4, continuous={2: 0.8}),
            seed=7,
        )
        table, _ = generate(spec)  # 100k rows
        matrix, features = correlation_matrix(table, ["x0", "x1"])
        assert matrix[0, 1] == pytest.approx(0.6, abs=0.05)

    def test_csv_export_is_square_with_unit_diagonal(self, tmp_path):
        matrix, features = correlation_matrix(self.make())
        path = tmp_path / "corr.csv"
        save_correlation_csv(matrix, features, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(features) + 1
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert len(cells) == len(features) + 1
            assert float(cells[i + 1]) == 1.0


def _reference_correlations(cols: list[np.ndarray]) -> np.ndarray:
    """The plain two-pass loop: per pair, the shared finite rows, centred,
    then summed one product at a time."""
    out = np.full((len(cols), len(cols)), np.nan)
    for i, a in enumerate(cols):
        for j, b in enumerate(cols):
            both = np.isfinite(a) & np.isfinite(b)
            xa, xb = a[both], b[both]
            if len(xa) < 2 or len(set(xa.tolist())) == 1 or len(set(xb.tolist())) == 1:
                continue
            if i == j:
                out[i, j] = 1.0
                continue
            xa, xb = (xa - xa.mean()).tolist(), (xb - xb.mean()).tolist()
            sab = saa = sbb = 0.0
            for u, v in zip(xa, xb):
                sab += u * v
                saa += u * u
                sbb += v * v
            out[i, j] = sab / math.sqrt(saa * sbb)
    return out


@st.composite
def _holed_columns(draw):
    """2-5 columns of 2-60 rows on a 0.001 grid, with NaN holes and runs of
    0.1 or 123.456 (whose ``np.std`` is not 0); no column holds a single
    value on its own finite rows."""
    n = draw(st.integers(2, 60))
    cell = st.one_of(
        st.integers(-10**6, 10**6).map(lambda k: k / 1000),
        st.sampled_from([0.1, 123.456, np.nan]),
    )
    cols = []
    for _ in range(draw(st.integers(2, 5))):
        col = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64)
        finite = col[np.isfinite(col)]
        if len(finite) < 2 or finite.min() == finite.max():
            col[:2] = [draw(st.sampled_from([0.1, -3.0, 123.456])), 7.0]
        cols.append(col)
    return cols


@settings(max_examples=300, deadline=None)
@given(cols=_holed_columns())
@example(cols=[  # y holds only 0.1 on the rows it shares with x
    np.array([1.0, 2.0, 3.0, 4.0, 5.0, np.nan, np.nan]),
    np.array([np.nan, np.nan, 0.1, 0.1, 0.1, 0.7, 0.2]),
])
def test_correlations_match_the_two_pass_reference(cols):
    table = _continuous_table({f"x{k}": c for k, c in enumerate(cols)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no column is degenerate alone
        matrix, _ = correlation_matrix(table)
    want = _reference_correlations(cols)
    assert np.array_equal(np.isnan(matrix), np.isnan(want))
    assert np.array_equal(matrix, matrix.T, equal_nan=True)
    assert np.array_equal(np.diag(matrix), np.ones(len(cols)))
    assert np.allclose(matrix, want, rtol=0.0, atol=1e-12, equal_nan=True)
