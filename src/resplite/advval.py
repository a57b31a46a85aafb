"""Per-feature adversarial validation.

For each feature column, rows of the train file (origin 0) and the test file
(origin 1) are pooled and split into a fit part and a stratified holdout.
The feature is binned as the GBDT bins it, on the fit part: quantile
thresholds for numeric features, codes with one overflow bin for
categoricals.  Each holdout row is scored with its bin's smoothed test share
on the fit part, ``(n_test + 1) / (n + 2)``, a binned estimate of the
test/train density ratio, and the holdout AUC of those scores measures how
much the feature's distribution moved.  A one-feature tree ensemble is
piecewise constant over the same bins, so this is the ranking it would
learn, without fitting one.  Features at or above the AUC threshold are
verdicted Drop and can be filtered from model training.

Day, row-id, and label columns are exempt: the day column separates the
files by construction, and labels are not feature candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/spans.py wraps advval.gbdt_fit, advval.gbdt_predict and advval.auc by name
from .gbdt import fit as gbdt_fit, predict as gbdt_predict  # noqa: F401
from .gbdt.binning import NumericBins, _numeric_thresholds, bin_column
from .metrics import EvalBatch, MetricError, auc
from .report import write_json
from .tabular import ColumnRole, Table

#: the GBDT's default bin budget; categorical codes >= MAX_BINS - 1 share one bin
MAX_BINS = 255


class AdvValError(ValueError):
    """Raised for unusable audit inputs."""


@dataclass(frozen=True)
class AdvConfig:
    auc_threshold: float = 0.75
    holdout_fraction: float = 0.2
    seed: int = 0
    subsample_per_side: int | None = 200_000

    def __post_init__(self) -> None:
        if not 0.5 <= self.auc_threshold <= 1.0:
            raise AdvValError("auc_threshold must be in [0.5, 1.0]")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise AdvValError("holdout_fraction must be in (0, 1)")


VERDICT_KEEP = "keep"
VERDICT_DROP = "drop"
VERDICT_SKIPPED = "skipped"


@dataclass(frozen=True)
class AdvEntry:
    name: str
    auc: float | None
    verdict: str
    reason: str | None = None


@dataclass(frozen=True)
class AdvReport:
    entries: tuple[AdvEntry, ...]
    n_train: int
    n_test: int
    config: AdvConfig

    def dropped(self) -> list[str]:
        return [e.name for e in self.entries if e.verdict == VERDICT_DROP]

    def entry(self, name: str) -> AdvEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "n_train": self.n_train,
            "n_test": self.n_test,
            "auc_threshold": self.config.auc_threshold,
            "holdout_fraction": self.config.holdout_fraction,
            "seed": self.config.seed,
            "subsample_per_side": self.config.subsample_per_side,
            "features": [
                {
                    "name": e.name,
                    "auc": e.auc,
                    "verdict": e.verdict,
                    "reason": e.reason,
                }
                for e in self.entries
            ],
        }


def save_report(report: AdvReport, path) -> None:
    write_json(path, report.to_json_dict())


def _subsample(values: np.ndarray, cap: int | None, rng: np.random.Generator) -> np.ndarray:
    if cap is None or len(values) <= cap:
        return values
    idx = np.sort(rng.choice(len(values), size=cap, replace=False))
    return values[idx]


def _fit_and_score(
    values: np.ndarray, origin: np.ndarray, holdout: np.ndarray, categorical: bool
) -> float:
    """Holdout AUC of each bin's smoothed test share on the non-holdout rows,
    with the feature binned as the GBDT would bin it on those rows."""
    y_hold = origin[holdout]
    if y_hold.min() == y_hold.max():
        raise AdvValError(
            "holdout ended single-class; supply more rows per side"
        )
    fit = ~holdout
    if categorical:
        bins = np.minimum(values, MAX_BINS - 1)
    else:
        bins = bin_column(NumericBins(_numeric_thresholds(values[fit], MAX_BINS)), values)
    n = np.bincount(bins[fit], minlength=MAX_BINS)
    n_test = np.bincount(bins[fit], weights=origin[fit], minlength=MAX_BINS)
    ratio = (n_test + 1.0) / (n + 2.0)
    return auc(EvalBatch(y_hold, ratio[bins[holdout]]))


def _stratified_holdout(
    origin: np.ndarray, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    holdout = np.zeros(len(origin), dtype=bool)
    for cls in (0, 1):
        idx = np.flatnonzero(origin == cls)
        n_hold = int(round(fraction * len(idx)))
        picked = rng.permutation(idx)[:n_hold]
        holdout[picked] = True
    return holdout


def adversarial_auc(
    feature_train: np.ndarray,
    feature_test: np.ndarray,
    cfg: AdvConfig,
    categorical: bool = False,
    seed: int | None = None,
) -> float:
    """Holdout AUC of the binned train-vs-test density ratio of one feature.

    Rows are labeled 0 = train-origin, 1 = test-origin, optionally subsampled
    per side to the configured cap; a stratified holdout of
    ``holdout_fraction`` is scored.
    """
    if len(feature_train) == 0 or len(feature_test) == 0:
        raise AdvValError("both sides must be non-empty")
    # categorical codes of any width against codes, numbers against numbers
    if (feature_train.dtype.kind in "iu") != (feature_test.dtype.kind in "iu"):
        raise AdvValError("both sides must have the same column type")
    rng = np.random.Generator(np.random.PCG64(cfg.seed if seed is None else seed))
    tr = _subsample(feature_train, cfg.subsample_per_side, rng)
    te = _subsample(feature_test, cfg.subsample_per_side, rng)
    values = np.concatenate([tr, te])
    origin = np.concatenate(
        [np.zeros(len(tr), dtype=np.uint8), np.ones(len(te), dtype=np.uint8)]
    )
    holdout = _stratified_holdout(origin, cfg.holdout_fraction, rng)
    return _fit_and_score(values, origin, holdout, categorical)


def audit(train: Table, test: Table, cfg: AdvConfig) -> AdvReport:
    """Run the per-feature adversarial audit over two tables sharing a schema.

    Per-feature failures become Skipped entries with a reason instead of
    aborting the whole audit.  Deterministic given the config seed: each
    feature gets an independent seed derived from (seed, feature position).
    """
    if train.schema != test.schema:
        raise AdvValError("train and test tables must share a schema")
    if train.n_rows == 0 or test.n_rows == 0:
        raise AdvValError("audit needs non-empty train and test tables")
    entries: list[AdvEntry] = []
    for pos, name in enumerate(train.schema.feature_columns()):
        categorical = train.schema.role(name) is ColumnRole.CATEGORICAL
        feature_seed = int(
            np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, pos]).generate_state(1)[0]
        )
        try:
            score = adversarial_auc(
                train.col(name),
                test.col(name),
                cfg,
                categorical=categorical,
                seed=feature_seed,
            )
        except (AdvValError, MetricError, ValueError) as exc:
            entries.append(AdvEntry(name, None, VERDICT_SKIPPED, str(exc)))
            continue
        verdict = VERDICT_DROP if score >= cfg.auc_threshold else VERDICT_KEEP
        entries.append(AdvEntry(name, float(score), verdict))
    return AdvReport(tuple(entries), train.n_rows, test.n_rows, cfg)


def filter_features(report: AdvReport, table: Table) -> Table:
    """Drop every feature the report verdicts Drop; everything else,
    including labels, day, and ids, is untouched."""
    dropped = set(report.dropped()) & set(table.schema.names)
    if not dropped:
        return table
    return table.drop_columns(dropped)
