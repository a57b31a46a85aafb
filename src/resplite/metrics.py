"""Evaluation metrics for binary response prediction: log loss, ROC AUC,
and normalized cross entropy (log loss divided by the entropy of the
background positive rate).

All logs are natural.  Labels are {0,1} externally; the ±1 label convention
some definitions use reduces to the same per-row weights under
``y = 2*label - 1``, so no separate code path is needed.

The metrics work on blocks of at most ``_EVAL_BLOCK`` rows, so no float
temporary is as long as the batch.  Log loss makes its per-row terms one
block at a time in one reused buffer, and adds the blocks in the order
numpy's pairwise summation adds a whole array: a range longer than a block
is split at its half rounded down to a multiple of 8, as numpy splits it.
So the result equals ``-np.mean`` of all the terms, bit for bit.

AUC is an exact pair count: the smaller class's predictions are copied in
row order and sorted.  The other class is gathered a block at a time and
sorted in place, and each of its rows counts the sorted rows it beats and
ties with two binary searches.  So the metrics hold at most one block of
float temporaries beside that copy of the smaller class.
:class:`EvalBatch` copies the predictions only to clamp one that lies
outside ``[EPS, 1 - EPS]``, and :func:`sigmoid` makes its output when it is
given none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: probability clamp applied before any log
EPS = 1e-15
#: rows evaluated at a time
_EVAL_BLOCK = 1 << 13
#: the longest range numpy's pairwise summation adds without splitting it
_PAIRWISE_LEAF = 128


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
    """Mean negative log likelihood of the labels under the predictions,
    equal to ``-np.mean`` of the per-row terms (see the module docstring)."""
    p, y = batch.predictions, batch.labels
    leaf = max(_EVAL_BLOCK, _PAIRWISE_LEAF)
    buf = np.empty(min(len(p), leaf))

    def total(lo: int, hi: int) -> np.float64:
        n = hi - lo
        if n > leaf:
            half = n // 2
            half -= half % 8
            return total(lo, lo + half) + total(lo + half, hi)
        terms = buf[:n]
        np.negative(p[lo:hi], out=terms)
        np.log1p(terms, out=terms)
        np.log(p[lo:hi], out=terms, where=y[lo:hi])
        return np.add.reduce(terms)

    return float(-(total(0, len(p)) / len(p)))


def auc(batch: EvalBatch) -> float:
    """ROC AUC as the pair count: (#(pos, neg) pairs where the positive
    outranks the negative, plus half the tied pairs) / (n_pos*n_neg).

    The smaller class is copied a block at a time, in row order, and sorted
    once.  The other class is gathered a block at a time and the block is
    sorted; for each of its rows, two ``searchsorted`` calls give the sorted
    rows below it and at or below it, and their sum counts the pairs it wins
    twice and its ties once.  When the positives are the sorted class this
    counts the negatives' wins, and the positives' count is the rest of
    ``2 * n_pos * n_neg``.  The count is an exact integer, equal to twice
    the Mann-Whitney U of the rank statistic, whichever class is sorted.
    """
    if not batch.has_both_classes():
        raise MetricError("AUC is undefined for a single-class batch")
    p, is_pos = batch.predictions, batch.labels
    n_pos = int(np.count_nonzero(is_pos))
    n_neg = batch.n - n_pos
    sort_pos = n_pos < n_neg
    blocks = [slice(lo, lo + _EVAL_BLOCK) for lo in range(0, batch.n, _EVAL_BLOCK)]
    ref = np.empty(min(n_pos, n_neg))
    start = 0
    for rows in blocks:
        in_ref = is_pos[rows] == sort_pos
        end = start + int(np.count_nonzero(in_ref))
        ref[start:end] = p[rows][in_ref]
        start = end
    ref.sort()
    twice = 0
    for rows in blocks:
        query = p[rows][is_pos[rows] != sort_pos]
        query.sort()  # ascending keys walk the sorted class in order
        twice += int(np.searchsorted(ref, query, side="left").sum())
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
