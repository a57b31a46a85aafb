"""Synthetic competition-style tabular dataset generator with planted structure.

Every planted mechanism exists so a downstream stage has a ground-truth
oracle: covariate-shifted columns for the adversarial audit, arithmetic-
lattice columns for the denoiser, popularity- and category-driven label
effects for the encoders, and a recorded logistic model for the learner.

All randomness comes from a single numpy PCG64 generator seeded from
``SynthSpec.seed``; given a seed, generated tables are byte-identical across
runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import sigmoid
from .tabular import ColumnRole, Schema, Table, first_occurrence_codes, row_numbers


class SynthError(ValueError):
    """Raised for inconsistent generator specs."""


@dataclass(frozen=True)
class ShiftedFeature:
    """Continuous column whose mean moves by `magnitude` on the final day."""

    index: int
    magnitude: float


@dataclass(frozen=True)
class ArithmeticFeature:
    """Continuous column taking values k*delta, k uniform in [0, max_multiplier]."""

    index: int
    delta: float
    max_multiplier: int


@dataclass(frozen=True)
class CorrelatedPair:
    """Continuous column regenerated as loading*base + sqrt(1-loading^2)*noise,
    so corr(base, index) = loading analytically."""

    base_index: int
    index: int
    loading: float


@dataclass(frozen=True)
class CatSignal:
    """Shape of a categorical feature's latent per-category score:
    a standardized log-popularity component plus i.i.d. noise."""

    index: int
    popularity_weight: float = 1.0
    idiosyncratic_weight: float = 1.0


@dataclass(frozen=True)
class LabelModel:
    """Logistic model over latent feature scores.

    ``continuous`` coefficients apply to the raw column value, except for
    arithmetic features where they apply to that feature's per-multiplier
    effect table (so recovering the multiplier is what helps a model).
    ``categorical`` coefficients apply to per-category latent scores.
    """

    install_intercept: float
    click_intercept: float
    continuous: dict[int, float] = field(default_factory=dict)
    categorical: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SynthSpec:
    n_rows_per_day: int
    days: tuple[int, int] = (45, 67)  # inclusive range; last day is pseudo-test
    cat_cardinalities: tuple[int, ...] = ()
    n_cont: int = 0
    shifted: tuple[ShiftedFeature, ...] = ()
    arithmetic: tuple[ArithmeticFeature, ...] = ()
    correlated: tuple[CorrelatedPair, ...] = ()
    cat_signals: tuple[CatSignal, ...] = ()
    label_model: LabelModel = field(
        default_factory=lambda: LabelModel(-2.0, -0.8)
    )
    seed: int = 0
    zipf_exponent: float = 0.75

    @property
    def n_cat(self) -> int:
        return len(self.cat_cardinalities)

    @property
    def day_list(self) -> list[int]:
        lo, hi = self.days
        return list(range(lo, hi + 1))

    def validate(self) -> None:
        lo, hi = self.days
        if hi < lo:
            raise SynthError("days range is empty")
        if self.n_rows_per_day < 1:
            raise SynthError("n_rows_per_day must be positive")
        if any(c < 2 for c in self.cat_cardinalities):
            raise SynthError("categorical cardinalities must be >= 2")
        cont_indices = set(range(self.n_cont))
        for s in self.shifted:
            if s.index not in cont_indices:
                raise SynthError(f"shifted feature index {s.index} out of range")
        for a in self.arithmetic:
            if a.index not in cont_indices:
                raise SynthError(f"arithmetic feature index {a.index} out of range")
            if a.delta <= 0:
                raise SynthError("arithmetic delta must be positive")
            if a.max_multiplier < 1:
                raise SynthError("max_multiplier must be >= 1")
        for c in self.correlated:
            if c.index not in cont_indices or c.base_index not in cont_indices:
                raise SynthError("correlated pair index out of range")
            if not -1.0 < c.loading < 1.0:
                raise SynthError("correlation loading must be in (-1, 1)")
        special = [a.index for a in self.arithmetic] + [c.index for c in self.correlated]
        if len(set(special)) != len(special):
            raise SynthError("a column may be arithmetic or correlated, not both")
        for j in self.label_model.continuous:
            if j not in cont_indices:
                raise SynthError(f"label model continuous index {j} out of range")
        for j in self.label_model.categorical:
            if not 0 <= j < self.n_cat:
                raise SynthError(f"label model categorical index {j} out of range")
        for s in self.cat_signals:
            if not 0 <= s.index < self.n_cat:
                raise SynthError(f"cat signal index {s.index} out of range")


@dataclass
class GroundTruth:
    """Everything the generator knows that tests need to check against."""

    install_probs: np.ndarray
    click_probs: np.ndarray
    logits: np.ndarray
    deltas: dict[str, float]                 # column name -> planted delta
    multipliers: dict[str, np.ndarray]       # column name -> per-row k
    arithmetic_effects: dict[str, np.ndarray]  # column name -> per-k effect table
    category_scores: dict[str, np.ndarray]   # column name -> per-category score
    shifts: dict[str, float]                 # column name -> planted mean shift
    label_model: LabelModel
    test_day: int

    def to_json_dict(self) -> dict:
        return {
            "test_day": self.test_day,
            "install_probs": [float(p) for p in self.install_probs],
            "click_probs": [float(p) for p in self.click_probs],
            "deltas": {k: float(v) for k, v in self.deltas.items()},
            "multipliers": {k: [int(x) for x in v] for k, v in self.multipliers.items()},
            "arithmetic_effects": {
                k: [float(x) for x in v] for k, v in self.arithmetic_effects.items()
            },
            "category_scores": {
                k: [float(x) for x in v] for k, v in self.category_scores.items()
            },
            "shifts": {k: float(v) for k, v in self.shifts.items()},
            "label_model": {
                "install_intercept": self.label_model.install_intercept,
                "click_intercept": self.label_model.click_intercept,
                "continuous": {str(k): v for k, v in self.label_model.continuous.items()},
                "categorical": {str(k): v for k, v in self.label_model.categorical.items()},
            },
        }


def cat_name(j: int) -> str:
    return f"c{j}"


def cont_name(j: int) -> str:
    return f"x{j}"


def _standardize(v: np.ndarray) -> np.ndarray:
    sd = v.std()
    if sd == 0:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def generate(spec: SynthSpec) -> tuple[Table, GroundTruth]:
    """Generate one table covering every day in the spec, plus ground truth.

    The final day is the pseudo-test day: shifted features change mean there
    and nowhere else.  Labels are Bernoulli draws from the recorded logistic
    model, for every day including the pseudo-test day.
    """
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    days = spec.day_list
    n_days = len(days)
    n = n_days * spec.n_rows_per_day
    test_day = days[-1]

    day_col = np.repeat(np.asarray(days, dtype=np.int32), spec.n_rows_per_day)
    final_rows = day_col == test_day

    # categorical draws: codes then per-category idiosyncratic scores,
    # feature by feature, in index order
    signal_by_index = {s.index: s for s in spec.cat_signals}
    cat_scores_by_cat: list[np.ndarray] = []  # indexed by raw category id
    raw_by_feature: list[np.ndarray] = []
    for j, card in enumerate(spec.cat_cardinalities):
        weights = (np.arange(1, card + 1, dtype=np.float64)) ** (-spec.zipf_exponent)
        weights /= weights.sum()
        raw = rng.choice(card, size=n, p=weights)
        idio = rng.standard_normal(card)
        sig = signal_by_index.get(j, CatSignal(j))
        scores = sig.popularity_weight * _standardize(np.log(weights)) + \
            sig.idiosyncratic_weight * idio
        cat_scores_by_cat.append(scores)
        raw_by_feature.append(raw)

    # continuous draws: base matrix, then correlations, lattices, shifts
    X = rng.standard_normal((n, spec.n_cont)) if spec.n_cont else np.zeros((n, 0))
    for c in spec.correlated:
        X[:, c.index] = c.loading * X[:, c.base_index] + \
            math.sqrt(1.0 - c.loading ** 2) * X[:, c.index]
    multipliers: dict[str, np.ndarray] = {}
    deltas: dict[str, float] = {}
    effects: dict[str, np.ndarray] = {}
    k_by_index: dict[int, np.ndarray] = {}
    for a in spec.arithmetic:
        k = rng.integers(0, a.max_multiplier + 1, size=n)
        table = rng.standard_normal(a.max_multiplier + 1)
        X[:, a.index] = k.astype(np.float64) * a.delta
        name = cont_name(a.index)
        multipliers[name] = k.astype(np.int64)
        deltas[name] = a.delta
        effects[name] = table
        k_by_index[a.index] = k
    shifts: dict[str, float] = {}
    for s in spec.shifted:
        X[final_rows, s.index] += s.magnitude
        shifts[cont_name(s.index)] = s.magnitude

    # logit assembly over latent scores
    z = np.full(n, 0.0)
    for j, coef in sorted(spec.label_model.continuous.items()):
        if j in k_by_index:
            z += coef * effects[cont_name(j)][k_by_index[j]]
        else:
            z += coef * X[:, j]
    category_scores: dict[str, np.ndarray] = {}
    for j, coef in sorted(spec.label_model.categorical.items()):
        scores = cat_scores_by_cat[j]
        z += coef * scores[raw_by_feature[j]]
        category_scores[cat_name(j)] = scores
    p_install = sigmoid(spec.label_model.install_intercept + z)
    p_click = sigmoid(spec.label_model.click_intercept + z)
    installs = (rng.random(n) < p_install).astype(np.uint8)
    clicks = (rng.random(n) < p_click).astype(np.uint8)

    columns: dict[str, np.ndarray | list] = {
        "row_id": row_numbers(n),
        "day": day_col,
    }
    schema_cols: list[tuple[str, ColumnRole]] = [
        ("row_id", ColumnRole.ROW_ID),
        ("day", ColumnRole.DAY),
    ]
    dicts: dict[str, list[str]] = {}
    for j in range(spec.n_cat):
        name = cat_name(j)
        schema_cols.append((name, ColumnRole.CATEGORICAL))
        columns[name], dicts[name] = first_occurrence_codes(raw_by_feature[j])
    for j in range(spec.n_cont):
        name = cont_name(j)
        schema_cols.append((name, ColumnRole.CONTINUOUS))
        columns[name] = X[:, j].copy()
    schema_cols.append(("is_clicked", ColumnRole.LABEL_CLICK))
    schema_cols.append(("is_installed", ColumnRole.LABEL_INSTALL))
    columns["is_clicked"] = clicks
    columns["is_installed"] = installs

    table = Table.from_columns(Schema(tuple(schema_cols)), columns, dicts)
    truth = GroundTruth(
        install_probs=p_install,
        click_probs=p_click,
        logits=z,
        deltas=deltas,
        multipliers=multipliers,
        arithmetic_effects=effects,
        category_scores=category_scores,
        shifts=shifts,
        label_model=spec.label_model,
        test_day=test_day,
    )
    return table, truth


#: rows formatted and written at a time, so that no Python string list
#: grows with the row count
_CSV_BLOCK = 8192


def write_csv(table: Table, path) -> None:
    """Emit the table as a delimited file matching its schema (no header
    unless the schema declares one), formatting and writing ``_CSV_BLOCK``
    rows at a time.  Floats print as their shortest round-trip ``repr``;
    NaN and categorical code 0 print as empty cells."""
    schema = table.schema
    tokens = {
        name: np.array(("",) + table.dictionary(name)[1:], dtype=object)
        for name, role in schema.columns if role is ColumnRole.CATEGORICAL
    }

    def cells(name: str, role: ColumnRole, values: np.ndarray) -> list[str]:
        if role is ColumnRole.CATEGORICAL:
            return tokens[name][values].tolist()
        if role in (ColumnRole.CONTINUOUS, ColumnRole.BINARY):
            return ["" if v != v else repr(v) for v in values.tolist()]
        if role is ColumnRole.ROW_ID:
            return [v.decode() for v in values.tolist()]
        return list(map(str, values.tolist()))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if schema.has_header:
            fh.write(schema.delimiter.join(schema.names) + "\n")
        for at in range(0, table.n_rows, _CSV_BLOCK):
            cols = [cells(name, role, table.col(name)[at : at + _CSV_BLOCK])
                    for name, role in schema.columns]
            fh.writelines(f"{line}\n" for line in map(schema.delimiter.join, zip(*cols)))


def split_train_test(table: Table) -> tuple[Table, Table]:
    """Split a generated table into the train file (all days but the last)
    and the pseudo-test file (final day only)."""
    days = table.day_values
    last = int(days.max())
    idx = np.arange(table.n_rows)
    return table.take(idx[days != last]), table.take(idx[days == last])


def default_spec(seed: int = 0, n_rows_per_day: int = 4348) -> SynthSpec:
    """The benchmark spec: ~100k rows over days 45..67, four categorical and
    eight continuous features with planted shift, lattices, popularity- and
    category-level label effects."""
    return SynthSpec(
        n_rows_per_day=n_rows_per_day,
        days=(45, 67),
        cat_cardinalities=(5000, 800, 50, 12),
        n_cont=8,
        shifted=(ShiftedFeature(index=4, magnitude=2.0),),
        arithmetic=(
            ArithmeticFeature(index=2, delta=0.0385, max_multiplier=100),
            ArithmeticFeature(index=3, delta=0.5711, max_multiplier=50),
        ),
        correlated=(CorrelatedPair(base_index=0, index=5, loading=0.6),),
        cat_signals=(
            CatSignal(index=0, popularity_weight=1.0, idiosyncratic_weight=0.35),
            CatSignal(index=1, popularity_weight=0.0, idiosyncratic_weight=1.0),
            CatSignal(index=2, popularity_weight=0.5, idiosyncratic_weight=0.5),
        ),
        label_model=LabelModel(
            install_intercept=-3.0,
            click_intercept=-1.5,
            continuous={0: 0.8, 1: -0.6, 2: 0.9, 3: 0.7},
            categorical={0: 0.9, 1: 0.8, 2: 0.5},
        ),
        seed=seed,
    )
