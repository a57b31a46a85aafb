"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from resplite import metrics, pipeline
from resplite.advval import AdvConfig, audit
from resplite.denoise import detect_delta, quantize
from resplite.encoders import FreqWindow, fit_frequency, fit_target, transform
from resplite.gbdt import GbdtParams, fit, predict
from resplite.gbdt.boosting import _grad_hess
from resplite.synth import (
    ArithmeticFeature,
    LabelModel,
    ShiftedFeature,
    SynthSpec,
    generate,
    split_train_test,
)
from resplite.tabular import MISSING_TOKEN, SplitPlan

from conftest import make_cat_table, split

ROOT = Path(__file__).resolve().parent.parent


class _Criterion:
    """Context manager that prints the criterion's pass/fail line."""

    def __init__(self, number: int, budget_s: float, description: str):
        self.number = number
        self.budget_s = budget_s
        self.description = description

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"criterion {self.number:02d} {status} ({elapsed:.1f}s / "
            f"budget {self.budget_s:.0f}s): {self.description}"
        )
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget_s:.0f}s"
            )
        return False


def test_c01_nce_identity():
    with _Criterion(1, 1.0, "constant background-rate prediction gives NCE = 1"):
        rng = np.random.Generator(np.random.PCG64(101))
        for _ in range(50):
            n = int(rng.integers(2, 2000))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            result = metrics.nce(
                metrics.EvalBatch(labels, np.full(n, labels.mean()))
            )
            assert abs(result.nce - 1.0) <= 1e-12


def test_c02_auc_brute_force_equivalence():
    with _Criterion(2, 30.0, "fast AUC equals O(n^2) pair counting on 1000 batches"):
        rng = np.random.Generator(np.random.PCG64(202))
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grids in most batches force heavy ties
            if rng.random() < 0.7:
                preds = rng.integers(0, 8, size=n) / 8.0 + 0.05
            else:
                preds = rng.uniform(0.01, 0.99, size=n)
            batch = metrics.EvalBatch(labels, preds)
            fast = metrics.auc(batch)
            pos = batch.predictions[labels == 1]
            neg = batch.predictions[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert fast == brute


def test_c03_gradient_checks():
    with _Criterion(3, 5.0, "logistic grad/hess match finite differences at 10k points"):
        rng = np.random.Generator(np.random.PCG64(303))
        import math

        def loss(score, label):
            p = 1.0 / (1.0 + math.exp(-score))
            return -(label * math.log(p) + (1 - label) * math.log(1 - p))

        grad_eps, hess_eps = 1e-6, 1e-3
        points = [(float(rng.uniform(-8, 8)), int(rng.integers(0, 2))) for _ in range(10000)]
        scores, labels = (np.array(column) for column in zip(*points))
        # the body fit runs on every row
        grads, hesses = _grad_hess(metrics.sigmoid(scores), labels)
        for (score, label), grad, hess in zip(points, grads.tolist(), hesses.tolist()):
            num_grad = (
                loss(score + grad_eps, label) - loss(score - grad_eps, label)
            ) / (2 * grad_eps)
            num_hess = (
                loss(score + hess_eps, label)
                - 2 * loss(score, label)
                + loss(score - hess_eps, label)
            ) / (hess_eps * hess_eps)
            assert abs(grad - num_grad) <= 1e-6
            assert abs(hess - num_hess) <= 1e-4


def _separable_spec(seed):
    return SynthSpec(
        n_rows_per_day=2000,
        days=(45, 55),
        n_cont=2,
        label_model=LabelModel(
            install_intercept=0.0, click_intercept=-1.0, continuous={0: 60.0}
        ),
        seed=seed,
    )


def test_c04_gbdt_learnability():
    with _Criterion(4, 60.0, "separable data: valid AUC >= 0.99, logloss <= 0.1, "
                             "monotone train loss"):
        table, _ = generate(_separable_spec(404))
        parts = split(table, SplitPlan(frozenset(range(45, 55)), 55))
        assert parts.train.n_rows == 20000 and parts.valid.n_rows == 2000
        params = GbdtParams(
            num_leaves=31, learning_rate=0.1, num_iterations=200,
            early_stopping_rounds=200, min_data_in_leaf=20, seed=1,
        )
        model = fit(params, parts.train, parts.valid, ["x0", "x1"])
        assert model.n_trees <= 200
        batch = metrics.EvalBatch(
            parts.valid.col("is_installed"), predict(model, parts.valid)
        )
        assert metrics.auc(batch) >= 0.99
        assert metrics.logloss(batch) <= 0.1
        for earlier, later in zip(model.train_curve, model.train_curve[1:]):
            assert later <= earlier + 1e-9


def _noisy_spec(seed):
    return SynthSpec(
        n_rows_per_day=1500,
        days=(45, 50),
        cat_cardinalities=(20,),
        n_cont=2,
        label_model=LabelModel(
            install_intercept=-0.5, click_intercept=-0.2,
            continuous={0: 0.8}, categorical={0: 0.5},
        ),
        seed=seed,
    )


def test_c05_early_stopping_contract():
    with _Criterion(5, 60.0, "retained trees = argmin valid loss; +100 iterations "
                             "change nothing"):
        table, _ = generate(_noisy_spec(505))
        parts = split(table, SplitPlan(frozenset(range(45, 50)), 50))
        base = dict(
            num_leaves=63, learning_rate=0.3, early_stopping_rounds=30,
            min_data_in_leaf=10, seed=2,
        )
        features = ["c0", "x0", "x1"]
        m1 = fit(GbdtParams(num_iterations=400, **base), parts.train, parts.valid,
                 features)
        curve = np.asarray(m1.valid_curve)
        assert len(curve) < 400, "early stopping must fire before the cap"
        assert m1.n_trees == int(np.argmin(curve)) + 1
        m2 = fit(GbdtParams(num_iterations=500, **base), parts.train, parts.valid,
                 features)
        assert np.array_equal(predict(m1, parts.valid), predict(m2, parts.valid))
        assert np.array_equal(predict(m1, parts.train), predict(m2, parts.train))


def _shift_spec(seed):
    return SynthSpec(
        n_rows_per_day=800,
        days=(45, 56),
        cat_cardinalities=(30, 8),
        n_cont=8,
        shifted=(ShiftedFeature(index=4, magnitude=2.0),),
        arithmetic=(ArithmeticFeature(index=2, delta=0.0385, max_multiplier=60),),
        label_model=LabelModel(
            install_intercept=-1.5, click_intercept=-0.6,
            continuous={0: 1.0, 2: 0.5}, categorical={0: 0.6},
        ),
        seed=seed,
    )


def test_c06_adversarial_detection():
    with _Criterion(6, 120.0, "planted shift dropped (AUC >= 0.75), all others "
                              "< 0.65, across 5 seeds"):
        for seed in range(5):
            table, _ = generate(_shift_spec(606 + seed))
            train, test = split_train_test(table)
            assert len(train.schema.feature_columns()) >= 10
            report = audit(train, test, AdvConfig(seed=seed, subsample_per_side=8000))
            shifted = report.entry("x4")
            assert shifted.auc >= 0.75, (seed, shifted)
            assert shifted.verdict == "drop"
            for entry in report.entries:
                if entry.name != "x4":
                    assert entry.auc is not None and entry.auc < 0.65, (seed, entry)
                    assert entry.verdict == "keep"


def test_c07_denoiser_recovery():
    with _Criterion(7, 10.0, "planted deltas recovered to 1e-4 relative; "
                             "multipliers exact on all finite cells"):
        spec = SynthSpec(
            n_rows_per_day=4000,
            days=(45, 56),
            n_cont=3,
            arithmetic=(
                ArithmeticFeature(index=0, delta=0.0385, max_multiplier=100),
                ArithmeticFeature(index=1, delta=0.5711, max_multiplier=50),
            ),
            label_model=LabelModel(-1.0, -0.4, continuous={2: 1.0}),
            seed=707,
        )
        table, truth = generate(spec)
        for name, want in (("x0", 0.0385), ("x1", 0.5711)):
            est = detect_delta(table.col(name), feature=name)
            assert est.detected
            assert abs(est.delta - want) / want <= 1e-4
            q = quantize(table.col(name), est)
            assert np.array_equal(q, truth.multipliers[name].astype(np.float64))


def test_c08_encoder_leakage_suite():
    with _Criterion(8, 30.0, "within-day shuffles and future appends leave day-d "
                             "encodings bit-identical on 50 tables; windows nest"):
        rng = np.random.Generator(np.random.PCG64(808))
        dictionary = (MISSING_TOKEN,) + tuple(f"v{i}" for i in range(1, 7))

        def random_table(n, max_day):
            days = np.sort(rng.integers(1, max_day + 1, size=n))
            codes = rng.integers(0, 7, size=n).astype(np.int32)
            y = rng.integers(0, 2, size=n).astype(np.uint8)
            clicks = rng.integers(0, 2, size=n).astype(np.uint8)
            return make_cat_table(days, codes, dictionary, y, clicks=clicks)

        def states(table):
            return [fit_frequency(table, "cat", w) for w in FreqWindow] + [
                fit_target(table, "cat", "install", a=1.0),
                fit_target(table, "cat", "click", a=1.0),
            ]

        for trial in range(50):
            n = int(rng.integers(100, 500))
            max_day = int(rng.integers(3, 12))
            table = random_table(n, max_day)
            days = table.day_values

            # within-day permutation
            perm = np.arange(n)
            for d in np.unique(days):
                sel = np.flatnonzero(days == d)
                perm[sel] = rng.permutation(sel)
            shuffled = table.take(perm)
            for s_a, s_b in zip(states(table), states(shuffled)):
                assert np.array_equal(
                    transform(s_a, table), transform(s_b, table)
                ), s_a.column_name

            # appending rows at day >= d leaves day-d encodings unchanged
            extra_n = 40
            top = int(days.max())
            from resplite.tabular import Table

            extra_days = np.full(extra_n, top)
            combined = Table.from_columns(
                table.schema,
                {
                    "day": np.concatenate([days, extra_days]),
                    "cat": np.concatenate(
                        [table.col("cat"),
                         rng.integers(0, 7, size=extra_n).astype(np.int32)]
                    ),
                    "clk": np.concatenate(
                        [table.col("clk"),
                         rng.integers(0, 2, size=extra_n).astype(np.uint8)]
                    ),
                    "y": np.concatenate(
                        [table.col("y"),
                         rng.integers(0, 2, size=extra_n).astype(np.uint8)]
                    ),
                },
                {"cat": dictionary},
            )
            for s_a, s_b in zip(states(table), states(combined)):
                assert np.array_equal(
                    transform(s_a, table), transform(s_b, table)
                ), s_a.column_name

            # window nesting on every cell
            day_c = transform(states(table)[0], table)
            week_c = transform(states(table)[1], table)
            hist_c = transform(states(table)[2], table)
            assert (day_c <= week_c).all() and (week_c <= hist_c).all()


def _benchmark_config(data_files, out_dir, seed):
    return {
        "paths": {
            "train": data_files["train"],
            "test": data_files["test"],
            "output_dir": str(out_dir),
        },
        "schema": json.loads(Path(data_files["schema"]).read_text()),
        "split": {"valid_day": 66},
        "stages": {"adversarial": False},
        "encoders": {"frequency": {"features": ["c0", "c1", "c2", "c3"]}},
        "gbdt": {
            "num_leaves": 63, "learning_rate": 0.1, "num_iterations": 250,
            "early_stopping_rounds": 25, "min_data_in_leaf": 50,
        },
        "seed": seed,
    }


def test_c09_ablation_direction(tmp_path):
    with _Criterion(9, 600.0, "cumulative ablation non-increasing within 0.002 "
                              "slack per step, 3 seeds, 100k rows"):
        for seed in range(3):
            data = pipeline.emit_synthetic(
                seed=seed, out_dir=tmp_path / f"data{seed}", n_rows_per_day=4348
            )
            cfg = pipeline.load_config(
                _benchmark_config(data, tmp_path / f"out{seed}", seed), env={}
            )
            rows = pipeline.ablate(
                cfg, ["frequency", "denoise", "target_encoding"]
            )
            assert [r["variant"] for r in rows] == [
                "vanilla", "+frequency", "+denoise", "+target_encoding"
            ]
            losses = [r["valid_logloss"] for r in rows]
            for earlier, later in zip(losses, losses[1:]):
                assert later <= earlier + 0.002, (seed, losses)


def test_c10_determinism(tmp_path):
    with _Criterion(10, 600.0, "identical config+seed runs are byte-identical"):
        data = pipeline.emit_synthetic(
            seed=7, out_dir=tmp_path / "data", n_rows_per_day=4348
        )
        doc = _benchmark_config(data, tmp_path / "out", 7)
        doc["stages"] = {"adversarial": True}
        doc["adversarial"] = {"subsample_per_side": 20000}

        def run_once():
            return pipeline.run(pipeline.load_config(doc, env={}))

        def snapshot(root):
            out = {}
            for path in sorted(Path(root).rglob("*")):
                if path.is_file() and path.name != "timings.json":
                    out[str(path.relative_to(root))] = path.read_bytes()
            return out

        r1 = run_once()
        # the full benchmark run produces every section and beats background
        assert list(r1.sections) == [
            "ingest", "split", "adversarial", "denoise", "encoding",
            "training", "metrics",
        ]
        assert r1.sections["metrics"]["valid"]["nce"] < 1.0
        first = snapshot(tmp_path / "out")
        run_once()
        second = snapshot(tmp_path / "out")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


def test_c10_run_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``resplite run`` with the c10 config, in fresh interpreters at one and
    two BLAS threads, writes the same bytes to every file but timings.json."""
    data = pipeline.emit_synthetic(seed=3, out_dir=tmp_path / "data", n_rows_per_day=300)
    doc = _benchmark_config(data, tmp_path / "out", 3)
    doc["stages"] = {"adversarial": True}
    doc["adversarial"] = {"subsample_per_side": 20000}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    snapshots = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.startswith("RLT_")}
        env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "resplite.cli", "run", "--config",
             str(tmp_path / "config.json")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        snapshots.append({
            str(path.relative_to(tmp_path / "out")): path.read_bytes()
            for path in sorted((tmp_path / "out").rglob("*"))
            if path.is_file() and path.name != "timings.json"
        })
    assert "correlation.csv" in snapshots[0]
    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], name
