"""Train the histogram GBDT on synthetic data with a temporal split, watch
early stopping pick the best iteration, and rank features by how often the
trees split on them.

Run: python demos/06_gbdt_training.py
"""

from resplite import metrics
from resplite.gbdt import GbdtParams, feature_importance, fit, predict
from resplite.synth import default_spec, generate, split_train_test
from resplite.tabular import SplitPlan, split_rows

table, truth = generate(default_spec(seed=5, n_rows_per_day=1500))
train_file, test_file = split_train_test(table)
train_rows, valid_rows = split_rows(train_file, SplitPlan(frozenset(range(45, 66)), 66))
train, valid = train_file.take(train_rows), train_file.take(valid_rows)
print(f"train {train.n_rows} rows (days 45..65), valid {valid.n_rows} rows (day 66)")

params = GbdtParams(
    num_leaves=63, learning_rate=0.1, num_iterations=300,
    early_stopping_rounds=25, min_data_in_leaf=20, seed=0,
)
model = fit(params, train, valid)
print(f"\nboosted {len(model.valid_curve)} iterations, kept the first "
      f"{model.best_iteration} (validation loss minimum)")

for name, part in (("valid", valid), ("test ", test_file)):
    batch = metrics.EvalBatch(part.col("is_installed"), predict(model, part))
    r = metrics.nce(batch)
    print(f"{name}: logloss={r.mean_logloss:.5f} "
          f"auc={metrics.auc(batch):.4f} nce={r.nce:.4f}")

print("\nsplit-count importance (top 10):")
for name, count in feature_importance(model)[:10]:
    print(f"  {name:>6} {count:>5}")
print("\n(x2/x3 rank low here because their signal is locked behind the "
      "lattice; see the denoising and pipeline demos)")
