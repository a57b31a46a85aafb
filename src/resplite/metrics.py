"""Evaluation metrics for binary response prediction: log loss, ROC AUC,
and normalized cross entropy (log loss divided by the entropy of the
background positive rate).

All logs are natural.  Labels are {0,1} externally; the ±1 label convention
some definitions use reduces to the same per-row weights under
``y = 2*label - 1``, so no separate code path is needed.

AUC is an exact pair count: one class's predictions are sorted, and each row
of the other class counts the rows it beats and ties with two binary
searches.  Beyond one copy of each class there, the metrics make no
full-length temporary but one float buffer (and :func:`sigmoid` its output
when it is given none).  :class:`EvalBatch` copies the predictions only
to clamp one that lies outside ``[EPS, 1 - EPS]``.
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

    Labels are kept as a bool array (one byte a row; sums of 0/1 values are
    exact in any order).  Predictions are clamped into ``[EPS, 1 - EPS]`` at
    construction so no downstream log can saturate.  The clamp copies them
    only when some prediction lies outside that range; otherwise the batch
    holds the given float64 array itself.  Nothing here writes into it.
    """

    labels: np.ndarray
    predictions: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        preds = np.asarray(self.predictions, dtype=np.float64)
        if labels.ndim != 1 or preds.ndim != 1:
            raise MetricError("labels and predictions must be one-dimensional")
        if len(labels) != len(preds):
            raise MetricError("labels and predictions must have equal length")
        if len(labels) == 0:
            raise MetricError("batch is empty")
        is_pos = labels == 1
        if np.count_nonzero(labels == 0) + np.count_nonzero(is_pos) != len(labels):
            raise MetricError("labels must be 0 or 1")
        lo, hi = preds.min(), preds.max()  # NaN when any prediction is NaN
        if not (lo >= 0.0 and hi <= 1.0):
            raise MetricError("predictions must be probabilities in [0, 1]")
        if lo < EPS or hi > 1.0 - EPS:
            preds = np.clip(preds, EPS, 1.0 - EPS)
        object.__setattr__(self, "labels", is_pos)
        object.__setattr__(self, "predictions", preds)

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


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of log-odds, without overflow for large |z|:
    ``1 / (1 + e)`` where z >= 0 and ``e / (1 + e)`` elsewhere, with
    ``e = exp(-|z|)``.  The result goes into ``out`` (not ``z`` itself)
    when one is given."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.add(e, 1.0, out=out)
    np.divide(e, out, out=out, where=z < 0)
    np.divide(1.0, out, out=out, where=z >= 0)
    return out


def logloss(batch: EvalBatch) -> float:
    """Mean negative log likelihood of the labels under the predictions."""
    p = batch.predictions
    terms = np.negative(p)
    np.log1p(terms, out=terms)
    np.log(p, out=terms, where=batch.labels)
    return float(-np.mean(terms))


def auc(batch: EvalBatch) -> float:
    """ROC AUC as the pair count: (#(pos, neg) pairs where the positive
    outranks the negative, plus half the tied pairs) / (n_pos*n_neg).

    The larger class is sorted.  For each row of the other class, two
    ``searchsorted`` calls give the sorted rows below it and at or below it;
    their sum counts the pairs it wins twice and its ties once.  When the
    positives are the sorted class this counts the negatives' wins, and the
    positives' count is the rest of ``2 * n_pos * n_neg``.  The count is an
    exact integer, equal to twice the Mann-Whitney U of the rank statistic.
    """
    if not batch.has_both_classes():
        raise MetricError("AUC is undefined for a single-class batch")
    is_pos = batch.labels
    n_pos = int(np.count_nonzero(is_pos))
    n_neg = batch.n - n_pos
    sort_pos = n_pos > n_neg
    ref = batch.predictions[is_pos if sort_pos else ~is_pos]
    ref.sort()
    query = batch.predictions[~is_pos if sort_pos else is_pos]
    twice = int(np.searchsorted(ref, query, side="left").sum())
    twice += int(np.searchsorted(ref, query, side="right").sum())
    if sort_pos:
        twice = 2 * n_pos * n_neg - twice
    return twice / 2 / (n_pos * n_neg)


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
