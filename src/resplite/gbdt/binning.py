"""Feature discretization for histogram tree growth.

Continuous features map to quantile bins via ascending upper-bound
thresholds computed on the training split only; bin 0 is reserved for
missing everywhere.  Categorical features map codes to bins by identity,
with codes at or beyond ``max_bins - 1`` collapsed into one overflow bin.
Total bins per feature never exceed 256, so a binned matrix is uint8.

Binning: a finite value v goes to bin 1 + (the number of thresholds below
v), which is ``searchsorted(thresholds, v, side="left") + 1``.  The count is
a branch-free lower bound (Khuong & Morin 2017): with the thresholds padded
by ``+inf`` to a power of two, each halving step adds ``step`` to ``pos``
when ``pad[pos + step - 1] < v``.  Because the padded thresholds ascend, a
true comparison means every entry up to that one is below v, so ``pos`` only
ever advances past entries below v and ends at their count; the padding is
never below v.  Every comparison is the ``<`` that ``searchsorted`` makes,
so ties, signed zeros and infinities fall as they do there.  NaN compares
false everywhere and is sent to bin 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tabular import ColumnRole, Table

#: the most bins a feature has: every bin fits a uint8
STRIDE = 256


class GbdtError(ValueError):
    """Raised for invalid training or scoring inputs, or parameters."""


def json_value(value, types: tuple[type, ...], what: str, error=GbdtError):
    """``value`` when JSON decoded it as one of ``types`` (a bool is no int);
    otherwise raises ``error`` with a message naming ``what``."""
    if type(value) not in types:
        raise error(f"{what} is {value!r}, not {' or '.join(t.__name__ for t in types)}")
    return value


def json_float(value, what: str, error=GbdtError) -> float:
    """``value`` as a float when JSON decoded it as a number that a float
    can hold; otherwise raises ``error`` naming ``what``."""
    try:
        return float(json_value(value, (int, float), what, error))
    except OverflowError:
        raise error(f"{what} is an integer too large for a float") from None


def json_int64(value, what: str) -> int:
    """``value`` when JSON decoded it as an int that an int64 can hold;
    otherwise raises :class:`GbdtError` naming ``what``."""
    if not -(2**63) <= json_value(value, (int,), what) < 2**63:
        raise GbdtError(f"{what} is an integer too large for an int64")
    return value


@dataclass(frozen=True)
class NumericBins:
    """Ascending thresholds; finite value v lands in the first bin whose
    upper bound is >= v (1-based; bin 0 = missing)."""

    thresholds: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.thresholds) + 2  # missing + len+1 finite bins


@dataclass(frozen=True)
class CategoricalBins:
    n_categories: int
    overflow_bin: int  # == max_bins - 1

    @property
    def n_bins(self) -> int:
        return min(self.n_categories, self.overflow_bin + 1)


@dataclass(frozen=True)
class BinMapper:
    feature_names: tuple[str, ...]
    feature_bins: tuple[NumericBins | CategoricalBins, ...]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def n_bins(self) -> np.ndarray:
        return np.asarray([fb.n_bins for fb in self.feature_bins], dtype=np.int64)

    def is_cat(self) -> np.ndarray:
        return np.asarray([isinstance(fb, CategoricalBins) for fb in self.feature_bins], dtype=bool)


def _numeric_thresholds(values: np.ndarray, max_bins: int) -> np.ndarray:
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return np.empty(0, dtype=np.float64)
    uniques = np.unique(finite)
    if len(uniques) <= max_bins - 1:
        return ((uniques[:-1] + uniques[1:]) / 2.0).astype(np.float64)
    qs = np.linspace(0.0, 1.0, max_bins)[1:-1]
    return np.unique(np.quantile(finite, qs)).astype(np.float64)


def build_bin_mapper(
    table: Table, feature_names: list[str], max_bins: int, rows: slice | np.ndarray = slice(None)
) -> BinMapper:
    """Compute per-feature bins from the given (training) ``rows`` of the table."""
    bins: list[NumericBins | CategoricalBins] = []
    for name in feature_names:
        role = table.schema.role(name)
        if role is ColumnRole.CATEGORICAL:
            bins.append(
                CategoricalBins(
                    n_categories=len(table.dictionary(name)),
                    overflow_bin=max_bins - 1,
                )
            )
        else:
            bins.append(
                NumericBins(_numeric_thresholds(table.col(name)[rows], max_bins))
            )
    return BinMapper(tuple(feature_names), tuple(bins))


#: values binned at a time, so that a block's search temporaries stay in cache
_BIN_BLOCK = 1 << 15


def bin_column(fb: NumericBins | CategoricalBins, values: np.ndarray) -> np.ndarray:
    """The uint8 bins of one column (see "Binning" in the module docstring)."""
    if isinstance(fb, CategoricalBins):
        return np.minimum(values, fb.overflow_bin).astype(np.uint8, copy=False)
    # at most 254 thresholds: every position below fits a uint8
    size = 1 << len(fb.thresholds).bit_length()
    pad = np.full(size, np.inf)
    pad[: len(fb.thresholds)] = fb.thresholds
    out = np.empty(len(values), dtype=np.uint8)
    for start in range(0, len(values), _BIN_BLOCK):
        v = values[start : start + _BIN_BLOCK]
        pos = np.zeros(len(v), dtype=np.uint8)
        step = size >> 1
        while step:
            pos += (pad.take(pos + np.uint8(step - 1)) < v) * np.uint8(step)
            step >>= 1
        out[start : start + _BIN_BLOCK] = np.where(np.isnan(v), 0, pos + np.uint8(1))
    return out


def bin_table(
    mapper: BinMapper, table: Table, rows: slice | np.ndarray = slice(None)
) -> np.ndarray:
    """Binned feature matrix of shape (n_features, n_rows) over the table's
    ``rows`` (a slice or an index array), one contiguous uint8 row per
    feature.  Each column must have the role the mapper bins it for:
    categorical under categorical bins, any other under numeric."""
    n = len(range(table.n_rows)[rows]) if isinstance(rows, slice) else len(rows)
    out = np.empty((mapper.n_features, n), dtype=np.uint8)
    is_cat = mapper.is_cat()
    for j, name in enumerate(mapper.feature_names):
        role = table.schema.role(name)
        if (role is ColumnRole.CATEGORICAL) != is_cat[j]:
            binned_as = "categorical" if is_cat[j] else "numeric"
            raise GbdtError(
                f"feature {name!r} is {role.value} in the table "
                f"but the model bins it as {binned_as}"
            )
        out[j] = bin_column(mapper.feature_bins[j], table.col(name)[rows])
    return out


def mapper_to_json(mapper: BinMapper) -> list[dict]:
    doc = []
    for name, fb in zip(mapper.feature_names, mapper.feature_bins):
        if isinstance(fb, CategoricalBins):
            doc.append(
                {
                    "name": name,
                    "kind": "categorical",
                    "n_categories": fb.n_categories,
                    "overflow_bin": fb.overflow_bin,
                }
            )
        else:
            doc.append(
                {
                    "name": name,
                    "kind": "numeric",
                    "thresholds": [float(t) for t in fb.thresholds],
                }
            )
    return doc


def mapper_from_json(doc: list[dict]) -> BinMapper:
    """Parse a mapper saved by :func:`mapper_to_json`; a feature whose bins
    would not fit a uint8 bin, or whose thresholds descend or hold a NaN,
    raises."""
    names = []
    bins: list[NumericBins | CategoricalBins] = []
    for entry in doc:
        name, kind = entry["name"], entry["kind"]
        if kind == "categorical":
            fb = CategoricalBins(
                n_categories=json_value(entry["n_categories"], (int,), f"n_categories of {name!r}"),
                overflow_bin=json_value(entry["overflow_bin"], (int,), f"overflow_bin of {name!r}"),
            )
            ok = fb.n_categories >= 1 and 1 <= fb.overflow_bin <= STRIDE - 2
        elif kind == "numeric":
            fb = NumericBins(np.asarray(
                [json_float(t, f"a threshold of {name!r}") for t in entry["thresholds"]],
                dtype=np.float64,
            ))
            t = fb.thresholds
            ok = fb.n_bins <= STRIDE and not np.isnan(t).any() and bool((t[1:] >= t[:-1]).all())
        else:
            raise GbdtError(f"feature {name!r} has unknown bin kind {kind!r}")
        if not ok:
            raise GbdtError(f"{kind} bins of feature {name!r} are malformed")
        names.append(name)
        bins.append(fb)
    return BinMapper(tuple(names), tuple(bins))
