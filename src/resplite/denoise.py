"""Arithmetic-lattice detection and integer quantization for continuous
features, plus the pairwise Pearson correlation matrix used to spot related
feature blocks.

A column is "on a lattice" when its sorted unique values all sit within
``tol_rel * step`` of multiples of a common step above the minimum value.
Detection estimates the step from the minimum positive gap between
consecutive uniques, then refines it by averaging the per-value implied
steps, which removes the downward bias of taking a single noisy gap.

A step detected on one table (train) is checked against every table it is
applied to (train and test) before anything is quantized: a value is off
the lattice when ``(v - v_min) / delta`` is more than ``tol_rel`` from an
integer.  When some value is off, the step is refined to ``delta / m`` for
the smallest ``m <= 16`` that puts the union of the tables on the lattice;
when no such ``m`` exists the feature is left continuous everywhere.  So
distinct raw values never share a code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .report import write_json
from .tabular import ColumnRole, MISSING_TOKEN, Table

DEFAULT_TOL_REL = 1e-3


class DenoiseError(ValueError):
    """Raised when quantization is applied without a detected lattice."""


@dataclass(frozen=True)
class DeltaEstimate:
    feature: str
    delta: float            # NaN when not detected
    v_min: float
    n_unique: int
    max_abs_residual: float
    detected: bool
    tol_rel: float = DEFAULT_TOL_REL
    # per table, finite values off the detected step; empty until checked
    # against the tables by refine_estimates
    off_lattice: tuple[int, ...] = ()
    note: str = ""          # why refine_estimates changed the step

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature,
            "delta": None if np.isnan(self.delta) else float(self.delta),
            "v_min": None if np.isnan(self.v_min) else float(self.v_min),
            "n_unique": self.n_unique,
            "max_abs_residual": float(self.max_abs_residual),
            "detected": self.detected,
            "tol_rel": self.tol_rel,
            "off_lattice": list(self.off_lattice),
            "note": self.note,
        }


def _not_detected(feature: str, uniques: np.ndarray, tol_rel: float) -> DeltaEstimate:
    return DeltaEstimate(
        feature=feature,
        delta=float("nan"),
        v_min=float(uniques[0]) if len(uniques) else float("nan"),
        n_unique=len(uniques),
        max_abs_residual=float("inf"),
        detected=False,
        tol_rel=tol_rel,
    )


def detect_delta(
    column: np.ndarray,
    tol_rel: float = DEFAULT_TOL_REL,
    feature: str = "",
) -> DeltaEstimate:
    """Detect an arithmetic progression in a continuous column's uniques.

    Fewer than 3 finite unique values yields a not-detected result rather
    than an error.
    """
    finite = column[np.isfinite(column)]
    uniques = np.unique(finite)
    if len(uniques) < 3:
        return _not_detected(feature, uniques, tol_rel)
    gaps = np.diff(uniques)
    candidate = float(gaps[gaps > 0].min())
    offsets = uniques - uniques[0]
    k = np.round(offsets / candidate)
    residuals = np.abs(offsets - k * candidate)
    if residuals.max() > tol_rel * candidate:
        return _not_detected(feature, uniques, tol_rel)
    positive = k > 0
    delta = float(np.mean(offsets[positive] / k[positive]))
    delta = _harmonize_with_origin(delta, float(uniques[0]), tol_rel)
    k2 = np.round(offsets / delta)
    max_resid = float(np.abs(offsets - k2 * delta).max())
    return DeltaEstimate(
        feature=feature,
        delta=delta,
        v_min=float(uniques[0]),
        n_unique=len(uniques),
        max_abs_residual=max_resid,
        detected=True,
        tol_rel=tol_rel,
    )


_MAX_HARMONIC = 16


def _harmonize_with_origin(delta: float, v_min: float, tol_rel: float) -> float:
    """Shrink the gap-based step so the minimum value itself is a multiple.

    The gap structure only pins the step up to a divisor: values like
    {1, 3, 5} * d have every consecutive gap equal to 2d, yet dividing by 2d
    would not yield integers.  Quantization divides raw values by the step,
    so when v_min sits halfway (or 1/m of the way) between multiples, the
    true step is delta/m.  Values stay on the finer lattice automatically
    because they differ from v_min by whole multiples of delta.
    """
    f = v_min / delta
    if abs(f - round(f)) <= tol_rel:
        return delta
    for m in range(2, _MAX_HARMONIC + 1):
        fm = f * m
        if abs(fm - round(fm)) <= tol_rel * m:
            return delta / m
    return delta


def _off_lattice_count(
    values: np.ndarray, delta: float, v_min: float, tol_rel: float
) -> int:
    steps = (values - v_min) / delta
    return int(np.count_nonzero(np.abs(steps - np.round(steps)) > tol_rel))


def _refine(tables: list[Table], est: DeltaEstimate) -> DeltaEstimate:
    if not est.detected:
        return est
    columns = [
        t.col(est.feature)[np.isfinite(t.col(est.feature))]
        if est.feature in t.schema.names else np.empty(0)
        for t in tables
    ]
    counts = tuple(
        _off_lattice_count(c, est.delta, est.v_min, est.tol_rel) for c in columns
    )
    if not any(counts):
        return est if est.off_lattice else replace(est, off_lattice=counts)
    union = np.concatenate(columns)
    for m in range(2, _MAX_HARMONIC + 1):
        fine = est.delta / m
        if _off_lattice_count(union, fine, est.v_min, est.tol_rel) == 0:
            offsets = union - est.v_min
            return replace(
                est,
                delta=fine,
                max_abs_residual=float(
                    np.abs(offsets - np.round(offsets / fine) * fine).max()
                ),
                off_lattice=counts,
                note=f"refined from {est.delta!r} to delta/{m} to fit every table",
            )
    return replace(
        est,
        delta=float("nan"),
        max_abs_residual=float("inf"),
        detected=False,
        off_lattice=counts,
        note=f"off-lattice values fit no delta/m for m <= {_MAX_HARMONIC}; "
             f"left continuous (detected delta {est.delta!r})",
    )


def refine_estimates(
    tables: list[Table], estimates: list[DeltaEstimate]
) -> list[DeltaEstimate]:
    """Check each detected step against the finite values of every table.

    Records per table how many values are off the detected lattice.  When
    any is, the step becomes ``delta / m`` for the smallest ``m`` in
    ``2..16`` that puts the union of the tables on the lattice; when none
    fits, the estimate becomes not detected, so the feature stays
    continuous.  Uses feature values only, never labels.  Refining an
    already refined estimate changes nothing.
    """
    return [_refine(tables, est) for est in estimates]


def quantize(column: np.ndarray, estimate: DeltaEstimate) -> np.ndarray:
    """Compute round(v / delta) at the detected step; NaN stays missing.

    Returned as float64 with integral values so missing cells stay
    representable.
    """
    if not estimate.detected:
        raise DenoiseError(
            f"no lattice detected for {estimate.feature or 'column'}; cannot quantize"
        )
    out = np.full(len(column), np.nan)
    finite = np.isfinite(column)
    out[finite] = np.round(column[finite] / estimate.delta)
    return out


def detect_all(table: Table, tol_rel: float = DEFAULT_TOL_REL) -> list[DeltaEstimate]:
    """Run detection over every continuous feature of ``table``."""
    return [
        detect_delta(table.col(name), tol_rel=tol_rel, feature=name)
        for name in table.schema.names_of(ColumnRole.CONTINUOUS)
    ]


def group_deltas(estimates: list[DeltaEstimate]) -> list[list[str]]:
    """Cluster detected steps within 1% relative difference; reporting only,
    detection itself stays per-feature."""
    detected = sorted(
        (e for e in estimates if e.detected), key=lambda e: (e.delta, e.feature)
    )
    groups: list[list[str]] = []
    last_delta = None
    for e in detected:
        if last_delta is not None and (e.delta - last_delta) <= 0.01 * last_delta:
            groups[-1].append(e.feature)
        else:
            groups.append([e.feature])
        last_delta = e.delta
    return groups


def apply_denoise_group(tables: list[Table], estimates: list[DeltaEstimate]) -> list[Table]:
    """Replace each detected column with the categorical codes of its
    quantized integers, in place under the same name.  (Kept continuous, the
    integers would bin exactly as the raw lattice values do: ``round(v / δ)``
    is strictly increasing on them.)

    The estimates are first checked against every table by
    :func:`refine_estimates`: a step that leaves some table's values off the
    lattice is refined, or the feature is left continuous and untouched in
    every table.  One dictionary is built per feature over the union of all
    tables' values (ascending integer order), so codes agree across train and
    test exactly like shared ingest dictionaries do.
    """
    out = list(tables)
    for est in refine_estimates(tables, estimates):
        held = [i for i, t in enumerate(out) if est.feature in t.schema.names]
        if not est.detected or not held:
            continue
        quantized = [quantize(out[i].col(est.feature), est) for i in held]
        finite = [~np.isnan(q) for q in quantized]
        # the integers stay floats: past 2**63 an int64 cast would wrap
        union, inverse = np.unique(
            np.concatenate([q[f] for q, f in zip(quantized, finite)]), return_inverse=True
        )
        dictionary = (MISSING_TOKEN,) + tuple(str(int(v)) for v in union)
        ends = np.cumsum([np.count_nonzero(f) for f in finite])
        for i, f, part in zip(held, finite, np.split(inverse + 1, ends[:-1])):
            codes = np.zeros(len(f), dtype=np.int32)
            codes[f] = part
            out[i] = out[i].replace_column(est.feature, ColumnRole.CATEGORICAL, codes, dictionary)
    return out


def save_estimates(estimates: list[DeltaEstimate], path, groups: list[list[str]]) -> None:
    write_json(path, {"estimates": [e.to_json_dict() for e in estimates], "groups": groups})


def correlation_matrix(
    table: Table, features: list[str] | None = None
) -> tuple[np.ndarray, list[str]]:
    """Pairwise-complete Pearson correlations over continuous features.

    A pair is NaN when its shared finite rows number fewer than 2 or either
    side holds a single value there (``min == max``); a feature degenerate
    alone also warns of zero variance. Other diagonal cells are exactly 1.
    No BLAS is called; numpy reductions add in one order at any thread count.
    """
    if features is None:
        features = table.schema.names_of(ColumnRole.CONTINUOUS)
    if len(features) < 2:
        raise DenoiseError("correlation matrix needs at least 2 continuous features")
    cols = [table.col(name) for name in features]
    out = np.full((len(cols), len(cols)), np.nan)
    for i, j in zip(*np.triu_indices(len(cols))):  # (0, 0), (0, 1), ..., row by row
        both = np.isfinite(cols[i]) & np.isfinite(cols[j])
        xi, xj = cols[i][both], cols[j][both]
        if len(xi) < 2 or xi.min() == xi.max() or xj.min() == xj.max():
            if i == j:
                warnings.warn(f"feature {features[i]!r} has zero variance; "
                              "correlations set to NaN", stacklevel=2)
        elif i == j:
            out[i, i] = 1.0
        else:  # scaling by a power of 2 keeps the bits; no square under- or overflows
            xi, xj = (np.ldexp(x, -np.frexp(np.abs(x).max())[1]) for x in (xi, xj))
            xi, xj = xi - xi.mean(), xj - xj.mean()
            sxx, syy = np.add.reduce(xi * xi), np.add.reduce(xj * xj)
            out[i, j] = out[j, i] = np.add.reduce(xi * xj) / np.sqrt(sxx * syy)
    return out, list(features)
