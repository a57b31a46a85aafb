"""Per-feature adversarial validation: tell train rows from test rows using
one feature at a time.  Each feature is binned as the GBDT bins it, and a
holdout is ranked by each bin's smoothed test share on the fit rows (a
binned train/test density ratio).  Chance-level AUC means the feature's
distribution is stable; high AUC flags covariate shift, and features at or
above the threshold are dropped before model training.

Run: python demos/03_adversarial_validation.py
"""

from resplite.advval import AdvConfig, audit, filter_features
from resplite.synth import default_spec, generate, split_train_test

table, truth = generate(default_spec(seed=7, n_rows_per_day=700))
train, test = split_train_test(table)
print(f"auditing {len(train.schema.feature_columns())} features, "
      f"{train.n_rows} train rows vs {test.n_rows} test rows")
print(f"planted shift: {truth.shifts}\n")

report = audit(train, test, AdvConfig(seed=0, subsample_per_side=10000))
print(f"{'feature':>10} {'auc':>8}  verdict")
for entry in report.entries:
    marker = "  <- planted shift" if entry.name in truth.shifts else ""
    print(f"{entry.name:>10} {entry.auc:8.4f}  {entry.verdict}{marker}")

filtered = filter_features(report, train)
dropped = set(train.schema.names) - set(filtered.schema.names)
print(f"\nfilter_features removed: {sorted(dropped)}")
print(f"remaining columns: {len(filtered.schema.names)} of {len(train.schema.names)}")
