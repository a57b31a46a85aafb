"""Leakage-free categorical encoders.

Both encoders are day-indexed: the statistics used to encode a row at day d
come exclusively from rows with day < d (never day d itself), so within-day
label or occurrence shuffles cannot change any encoding, and appending
future rows cannot either.

Frequency encoding counts category occurrences over one of three trailing
windows: the previous day, the previous 7 days, or all history up to one
day ago.  Target encoding is the ordered, smoothed kind: the category's
historical target mean shrunk toward the day's global prior by a pseudo
count ``a``, with 0.5 as the cold-start value when no history exists at all.
A fitted state holds per-day category counts and, for target encoding,
per-day label sums; the day totals behind the priors are their row sums.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .gbdt.binning import json_float, json_value
from .report import read_json
from .tabular import ColumnRole, Table


class EncoderError(ValueError):
    """Raised for invalid encoder inputs."""


class FreqWindow(Enum):
    PREV_DAY = "prev_day"
    PREV_WEEK = "prev_week"
    ALL_HISTORY = "all_history"


#: target names; the label of target ``t`` is the schema's ``t_column``
_TARGETS = ("click", "install")


def column_name(feature: str, window: FreqWindow | None = None, target: str | None = None) -> str:
    """The name of the column encoding ``feature`` by the frequency
    ``window`` or, given none, by the ``target``."""
    if window is not None:
        return f"{feature}__freq_{window.value}"
    return f"{feature}__te_{target}"


@dataclass(frozen=True)
class EncoderState:
    """Fitted day-indexed statistics for one feature.

    ``counts[i, c]`` is the number of occurrences of category ``c`` on day
    ``min_day + i``.  ``target_sums`` (target kind only) is the matching sum
    of the ``target`` label.  The day totals behind the per-day global
    priors are the row sums of the two; they are derived, not stored.
    """

    kind: str                      # "frequency" | "target"
    feature: str
    n_categories: int
    min_day: int
    max_day: int
    counts: np.ndarray             # (n_days, n_categories) int64
    window: FreqWindow | None = None
    target: str | None = None      # "click" | "install"
    smoothing: float = 1.0
    target_sums: np.ndarray | None = None

    @property
    def column_name(self) -> str:
        return column_name(self.feature, self.window, self.target)

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "feature": self.feature,
            "n_categories": self.n_categories,
            "min_day": self.min_day,
            "max_day": self.max_day,
            "counts": self.counts.tolist(),
        }
        if self.kind == "frequency":
            doc["window"] = self.window.value
        else:
            doc["target"] = self.target
            doc["smoothing"] = self.smoothing
            doc["target_sums"] = self.target_sums.tolist()
            doc["day_rows"] = self.counts.sum(axis=1).tolist()
            doc["day_positives"] = self.target_sums.sum(axis=1).tolist()
        return doc

    @classmethod
    def from_json_dict(cls, doc) -> "EncoderState":
        """The state that :meth:`to_json_dict` wrote.  A missing key, a value
        of another JSON type, kind, window or target, an array of another
        shape, a smoothing that is not finite and positive, a target sum above
        its count, or day totals that are not the row sums of ``counts`` and
        ``target_sums`` raise :class:`EncoderError` naming the field."""
        if not isinstance(doc, dict):
            raise EncoderError(f"is {type(doc).__name__}, not a JSON object")

        def value(key: str, types: tuple[type, ...], choices=None):
            if key not in doc:
                raise EncoderError(f"lacks the key {key!r}")
            got = json_value(doc[key], types, key, EncoderError)
            if choices is not None and got not in choices:
                raise EncoderError(f"{key} is {got!r}, not one of {', '.join(choices)}")
            return got

        def counts(key: str, shape: tuple[int, ...]) -> np.ndarray:
            rows = value(key, (list,))
            try:
                arr = np.asarray(rows)
            except ValueError:  # a ragged list
                arr = None
            if arr is None or arr.dtype.kind != "i" or arr.shape != shape or (arr < 0).any():
                raise EncoderError(f"{key} is not an array of counts of shape {shape}")
            return arr.astype(np.int64)

        kind = value("kind", (str,), ("frequency", "target"))
        n_categories = value("n_categories", (int,))
        min_day, max_day = value("min_day", (int,)), value("max_day", (int,))
        if n_categories < 1 or max_day < min_day:
            raise EncoderError(
                f"n_categories {n_categories} or days {min_day}..{max_day} hold no counts"
            )
        shape = (max_day - min_day + 1, n_categories)
        state = dict(kind=kind, feature=value("feature", (str,)), n_categories=n_categories,
                     min_day=min_day, max_day=max_day, counts=counts("counts", shape))
        if kind == "frequency":
            return cls(**state, window=FreqWindow(
                value("window", (str,), [w.value for w in FreqWindow])))
        smoothing = json_float(value("smoothing", (int, float)), "smoothing", EncoderError)
        if not 0 < smoothing < math.inf:
            raise EncoderError(f"smoothing is {smoothing}, not positive and finite")
        state.update(target=value("target", (str,), _TARGETS), smoothing=smoothing,
                     target_sums=counts("target_sums", shape))
        if (state["target_sums"] > state["counts"]).any():
            raise EncoderError("target_sums exceed their counts")
        for key, matrix in (("day_rows", "counts"), ("day_positives", "target_sums")):
            if not np.array_equal(counts(key, shape[:1]), state[matrix].sum(axis=1)):
                raise EncoderError(f"{key} are not the row sums of {matrix}")
        return cls(**state)


def _fit(table: Table, feature: str, label: str | None, **fields) -> EncoderState:
    """The state of ``feature``'s per-day category counts and, given a
    ``label`` column, label sums; ``fields`` give the kind and the rest."""
    if table.schema.role(feature) is not ColumnRole.CATEGORICAL:
        raise EncoderError(f"feature {feature!r} is not categorical")
    days = table.day_values
    min_day, max_day = int(days.min()), int(days.max())
    shape = (max_day - min_day + 1, len(table.dictionary(feature)))
    flat = (days - min_day).astype(np.int64) * shape[1] + table.col(feature)

    def per_day(weights=None) -> np.ndarray:
        return np.bincount(flat, weights, shape[0] * shape[1]).reshape(shape).astype(np.int64)

    return EncoderState(
        feature=feature, n_categories=shape[1], min_day=min_day, max_day=max_day,
        counts=per_day(),
        target_sums=None if label is None else per_day(table.col(label).astype(np.float64)),
        **fields,
    )


def fit_frequency(table: Table, feature: str, window: FreqWindow) -> EncoderState:
    """Build per-day category counts; days absent from data count zero."""
    return _fit(table, feature, None, kind="frequency", window=window)


def fit_target(
    table: Table, feature: str, target: str, a: float = EncoderState.smoothing
) -> EncoderState:
    """Fit the ordered target encoder for one label ("click" or "install")."""
    if not 0 < a < math.inf:
        raise EncoderError("smoothing a must be positive and finite")
    if target not in _TARGETS:
        raise EncoderError(f"unknown target {target!r}; use one of {_TARGETS}")
    label = getattr(table.schema, f"{target}_column")
    if label is None:
        raise EncoderError(f"table has no {target} label column")
    return _fit(table, feature, label, kind="target", target=target, smoothing=a)


def _cum_before(matrix: np.ndarray) -> np.ndarray:
    """cum[i] = column sums over rows < i; shape (n_days + 1, C)."""
    out = np.zeros((matrix.shape[0] + 1,) + matrix.shape[1:], dtype=np.float64)
    np.cumsum(matrix, axis=0, out=out[1:])
    return out


#: trailing days counted by each bounded frequency window
_WINDOW_DAYS = {FreqWindow.PREV_DAY: 1, FreqWindow.PREV_WEEK: 7}


def transform(state: EncoderState, table: Table) -> np.ndarray:
    """Encode the table's feature column from the fitted state: one
    cumulative sum per statistic, gathered at each row's day and code.

    Unseen categories follow the zero-count / prior-fallback conventions;
    rows at days past the fitted range are clamped to ``max_day + 1``, so
    they use all fitted history.
    """
    if table.n_rows == 0:
        return np.empty(0, dtype=np.float64)
    codes = table.col(state.feature)

    def before(day: np.ndarray) -> np.ndarray:
        """Cumulative-sum row holding every fitted day < ``day``."""
        return np.clip(day - state.min_day, 0, len(state.counts))

    end = np.minimum(table.day_values.astype(np.int64), state.max_day + 1)
    hi = before(end)
    # codes beyond the fitted dictionary behave as unseen categories; a
    # clamp past the codes' dtype (NEP 50 rejects it) would clamp nothing
    safe = np.minimum(codes, min(state.n_categories - 1, np.iinfo(codes.dtype).max))
    unseen = codes >= state.n_categories
    cum_counts = _cum_before(state.counts)
    if state.kind == "frequency":
        span = _WINDOW_DAYS.get(state.window)
        lo = 0 if span is None else before(end - span)
        counts = cum_counts[hi, safe] - cum_counts[lo, safe]
        return np.where(unseen, 0.0, counts)
    cum_sums = _cum_before(state.target_sums)
    # the day totals: row sums of whole integers, exact in float64
    rows, positives = cum_counts.sum(axis=1)[hi], cum_sums.sum(axis=1)[hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        prior = positives / rows  # NaN on cold-start rows, replaced below
    a = state.smoothing
    encoded = (cum_sums[hi, safe] + a * prior) / (cum_counts[hi, safe] + a)
    return np.where(rows == 0, 0.5, np.where(unseen, prior, encoded))


def apply_encoders(states: list[EncoderState], table: Table) -> Table:
    """Append one continuous column per fitted encoder state.  A state whose
    feature is no categorical column of ``table`` raises, naming its index."""
    cats = table.schema.names_of(ColumnRole.CATEGORICAL)
    for i, state in enumerate(states):
        if state.feature not in cats:
            raise EncoderError(
                f"encoder state {i}: feature {state.feature!r} is not a categorical "
                "column of the table"
            )
    new_cols = [
        (state.column_name, ColumnRole.CONTINUOUS, transform(state, table))
        for state in states
    ]
    return table.append_columns(new_cols)


def save_states(states: Iterable[EncoderState], path) -> None:
    """Write ``{"encoders": [...]}`` a state at a time, as one ``json.dumps``
    would.  ``states`` may be a generator that fits each state as it is
    asked for, so that no two are held at once; when it raises, the partial
    file is removed."""
    # json.dumps uses the C encoder; json.dump to a file never does
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write('{"encoders": [')
            for i, state in enumerate(states):
                fh.write((", " if i else "") + json.dumps(state.to_json_dict(), sort_keys=True))
            fh.write("]}\n")
    except Exception:
        Path(path).unlink(missing_ok=True)
        raise


def load_states(path) -> list[EncoderState]:
    """The states that :func:`save_states` wrote to ``path``.  A malformed
    document raises :class:`EncoderError`, naming the bad state's index and
    field."""
    doc = read_json(path, EncoderError)
    if not isinstance(doc, dict) or not isinstance(doc.get("encoders"), list):
        raise EncoderError(f"{path} is not an object holding an encoders list")
    states = []
    for i, state in enumerate(doc["encoders"]):
        try:
            states.append(EncoderState.from_json_dict(state))
        except EncoderError as exc:
            raise EncoderError(f"encoder state {i}: {exc}") from None
    return states
