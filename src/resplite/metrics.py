"""Evaluation metrics for binary response prediction: log loss, ROC AUC,
and normalized cross entropy (log loss divided by the entropy of the
background positive rate).

All logs are natural.  Labels are {0,1} externally; the ±1 label convention
some definitions use reduces to the same per-row weights under
``y = 2*label - 1``, so no separate code path is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: probability clamp applied before any log
EPS = 1e-15


class MetricError(ValueError):
    """Raised for degenerate metric inputs (empty or single-class batches)."""


@dataclass(frozen=True)
class EvalBatch:
    """A batch of {0,1} labels with predicted probabilities.

    Predictions are clamped into ``[EPS, 1 - EPS]`` at construction so no
    downstream log can saturate.
    """

    labels: np.ndarray
    predictions: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.float64)
        preds = np.asarray(self.predictions, dtype=np.float64)
        if labels.ndim != 1 or preds.ndim != 1:
            raise MetricError("labels and predictions must be one-dimensional")
        if len(labels) != len(preds):
            raise MetricError("labels and predictions must have equal length")
        if len(labels) == 0:
            raise MetricError("batch is empty")
        if not np.isin(labels, (0.0, 1.0)).all():
            raise MetricError("labels must be 0 or 1")
        if np.isnan(preds).any() or preds.min() < 0.0 or preds.max() > 1.0:
            raise MetricError("predictions must be probabilities in [0, 1]")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "predictions", np.clip(preds, EPS, 1.0 - EPS))

    @property
    def n(self) -> int:
        return len(self.labels)

    def has_both_classes(self) -> bool:
        return bool(self.labels.any() and not self.labels.all())


@dataclass(frozen=True)
class NceResult:
    nce: float
    mean_logloss: float
    background_rate: float
    background_entropy: float


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of log-odds, without overflow for large |z|."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logloss(batch: EvalBatch) -> float:
    """Mean negative log likelihood of the labels under the predictions."""
    p = batch.predictions
    y = batch.labels
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    # group boundaries of equal sorted scores
    boundary = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate(([0], boundary))
    ends = np.concatenate((boundary, [len(scores)]))
    avg = (starts + ends + 1) / 2.0  # mean of 1-based ranks start+1..end
    group_of = np.repeat(np.arange(len(starts)), ends - starts)
    ranks[order] = avg[group_of]
    return ranks


def auc(batch: EvalBatch) -> float:
    """ROC AUC via the rank statistic, with ties counted half.

    Equals the pair-count definition exactly: (#(pos, neg) pairs where the
    positive outranks the negative, plus half the tied pairs) / (n_pos*n_neg).
    """
    if not batch.has_both_classes():
        raise MetricError("AUC is undefined for a single-class batch")
    y = batch.labels
    ranks = _average_ranks(batch.predictions)
    n_pos = int(y.sum())
    n_neg = batch.n - n_pos
    rank_sum = float(ranks[y == 1.0].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def nce(batch: EvalBatch) -> NceResult:
    """Normalized cross entropy: log loss over the background-rate entropy.

    The background rate is the batch's empirical positive rate; predicting it
    for every row gives NCE = 1, and any informative model scores below 1.
    """
    if not batch.has_both_classes():
        raise MetricError(
            "NCE denominator is degenerate: batch labels are single-class, "
            "so the background entropy is zero"
        )
    p = float(batch.labels.mean())
    entropy = float(-(p * np.log(p) + (1.0 - p) * np.log(1.0 - p)))
    ll = logloss(batch)
    return NceResult(
        nce=ll / entropy,
        mean_logloss=ll,
        background_rate=p,
        background_entropy=float(entropy),
    )
