"""Gradient boosting driver: logistic loss, leaf-wise trees, early stopping
on validation log loss, split-count importance, and a versioned JSON model
format.

Scores and histogram sums are accumulated in float64 throughout; given the
same params, data, and seed the fit is bit-reproducible.

Prediction compiles every tree once, then scores the table in blocks of
rows: a block is binned, its trees' leaf values are added in tree order, and
the sigmoid of its scores is written into the one output array, so no
full-length temporary is made beyond that output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..metrics import EvalBatch, logloss, sigmoid
from ..report import read_json
from ..tabular import ColumnRole, Table
from .binning import (
    BinMapper,
    GbdtError,
    bin_table,
    build_bin_mapper,
    json_float,
    json_int64,
    json_value,
    mapper_from_json,
    mapper_to_json,
)
from .tree import (
    _SCORE_BLOCK,
    Tree,
    _compile,
    _leaf_values,
    bin_counts,
    grow_tree,
    tree_from_json,
    tree_output,
    tree_to_json,
)

MODEL_FORMAT = "resplite-gbdt"
MODEL_VERSION = 1


@dataclass(frozen=True)
class GbdtParams:
    num_leaves: int = 491
    max_depth: int = -1  # -1 = unlimited
    learning_rate: float = 0.05
    num_iterations: int = 10000
    early_stopping_rounds: int = 100
    min_data_in_leaf: int = 20
    lambda_l2: float = 1.0
    max_bins: int = 255
    seed: int = 0
    feature_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.num_leaves < 2:
            raise GbdtError("num_leaves must be >= 2")
        if not 2 <= self.max_bins <= 255:
            raise GbdtError("max_bins must be in [2, 255]")
        if self.learning_rate <= 0:
            raise GbdtError("learning_rate must be positive")
        if self.early_stopping_rounds < 1:
            raise GbdtError("early_stopping_rounds must be >= 1")
        if self.num_iterations < 1:
            raise GbdtError("num_iterations must be >= 1")
        if self.min_data_in_leaf < 1:
            raise GbdtError("min_data_in_leaf must be >= 1")
        if self.lambda_l2 < 0:
            raise GbdtError("lambda_l2 must be >= 0")
        if not 0 < self.feature_fraction <= 1:
            raise GbdtError("feature_fraction must be in (0, 1]")


#: the JSON types of each parameter's value
PARAM_TYPES = {f.name: (int,) if f.type == "int" else (int, float) for f in fields(GbdtParams)}


def params_from_json(doc, seed: int = 0) -> GbdtParams:
    """GbdtParams from a JSON object of overrides (``seed`` when it has none);
    a key that is not a parameter, or a value of the wrong type, raises."""
    if not isinstance(doc, dict):
        raise GbdtError(f"params must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(GbdtParams)})
    if unknown:
        raise GbdtError(f"params has unknown keys {unknown}")
    try:
        params = GbdtParams(**{"seed": seed, **doc})
    except TypeError as exc:
        raise GbdtError(f"params: {exc}") from None
    for name, types in PARAM_TYPES.items():
        json_value(getattr(params, name), types, name)
    return params


@dataclass
class GbdtModel:
    params: GbdtParams
    feature_names: tuple[str, ...]
    bin_mapper: BinMapper
    base_score: float
    trees: list[Tree]
    best_iteration: int
    split_counts: np.ndarray
    train_curve: list[float] = field(default_factory=list)
    valid_curve: list[float] = field(default_factory=list)
    #: the valid table's probabilities under the kept trees, as :func:`fit`
    #: computed them for early stopping; not saved, so None after loading
    valid_probs: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _grad_hess(
    p: np.ndarray, labels: np.ndarray, grad: np.ndarray | None = None,
    hess: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Logistic-loss gradients and hessians at the probabilities
    ``sigmoid(scores)``, written into ``grad`` and ``hess`` when given."""
    grad = np.subtract(p, labels, out=grad)
    hess = np.subtract(1.0, p, out=hess)
    return grad, np.multiply(p, hess, out=hess)


def loss_grad_hess(score: float, label: int) -> tuple[float, float]:
    """Gradient and hessian of the logistic loss at one (score, label), by
    the body that :func:`fit` runs on every row."""
    grad, hess = _grad_hess(sigmoid(np.array([score])), np.array([label]))
    return float(grad[0]), float(hess[0])


def _check_features(table: Table, feature_names: list[str]) -> None:
    for name in feature_names:
        role = table.schema.role(name)
        if role in (ColumnRole.LABEL_CLICK, ColumnRole.LABEL_INSTALL, ColumnRole.ROW_ID):
            raise GbdtError(f"column {name!r} ({role.value}) cannot be a feature")


def fit(
    params: GbdtParams,
    train: Table,
    valid: Table,
    feature_names: list[str] | None = None,
    rows: slice | np.ndarray = slice(None),
) -> GbdtModel:
    """Boost trees on the train table's ``rows`` (an index array or a slice;
    all rows by default), early-stopping on validation log loss.

    Keeps trees up to the iteration with the lowest validation loss (first
    minimum on ties).  The validation table must be non-empty; the train
    labels must contain both classes.
    """
    if feature_names is None:
        feature_names = list(train.schema.feature_columns())
    target = train.schema.require_install()
    if train.schema != valid.schema:
        raise GbdtError("train and valid tables must share a schema")
    if valid.n_rows == 0:
        raise GbdtError("validation table is empty; early stopping needs it")
    if not feature_names:
        raise GbdtError("no feature columns given")
    _check_features(train, feature_names)

    # 0/1 labels stay uint8: they convert exactly wherever floats meet them
    y_train = train.col(target)[rows]
    y_valid = valid.col(target)
    pos_rate = float(y_train.mean())
    if pos_rate <= 0.0 or pos_rate >= 1.0:
        raise GbdtError("train labels are single-class; cannot fit")

    mapper = build_bin_mapper(train, feature_names, params.max_bins, rows)
    binned_train = bin_table(mapper, train, rows)
    binned_valid = bin_table(mapper, valid)
    n_bins_all = mapper.n_bins()
    root_counts = bin_counts(binned_train)
    is_cat = mapper.is_cat()

    base_score = math.log(pos_rate / (1.0 - pos_rate))
    scores = np.full(len(y_train), base_score, dtype=np.float64)
    valid_scores = np.full(valid.n_rows, base_score, dtype=np.float64)

    rng = np.random.Generator(np.random.PCG64(params.seed))
    n_features = len(feature_names)
    n_sub = max(1, math.ceil(params.feature_fraction * n_features))

    trees: list[Tree] = []
    train_curve: list[float] = []
    valid_curve: list[float] = []
    best_iter = -1
    best_loss = math.inf
    # one sigmoid per round serves both the train curve and the next
    # gradients; all three live in buffers reused every round
    p_train = sigmoid(scores)
    # the valid probabilities the best loss so far was computed from
    best_valid = sigmoid(valid_scores)
    grad, hess = np.empty_like(scores), np.empty_like(scores)
    order = np.empty(len(scores), dtype=np.int64)  # each tree's row partition
    for it in range(params.num_iterations):
        _grad_hess(p_train, y_train, grad, hess)
        if n_sub < n_features:
            subset = np.sort(rng.choice(n_features, size=n_sub, replace=False))
        else:
            subset = np.arange(n_features, dtype=np.int64)
        # adds the tree's leaf values to the scores of their rows
        tree = grow_tree(binned_train, n_bins_all, is_cat, grad, hess, subset, root_counts,
                         params.num_leaves, params.max_depth, params.min_data_in_leaf,
                         params.lambda_l2, params.learning_rate, scores, order)
        if tree is None:
            break
        valid_scores += tree_output(tree, binned_valid)
        trees.append(tree)
        sigmoid(scores, out=p_train)
        train_curve.append(logloss(EvalBatch(y_train, p_train)))
        p_valid = sigmoid(valid_scores)
        vloss = logloss(EvalBatch(y_valid, p_valid))
        valid_curve.append(vloss)
        if vloss < best_loss:
            best_loss, best_iter, best_valid = vloss, it, p_valid
        elif it - best_iter >= params.early_stopping_rounds:
            break

    kept = trees[: best_iter + 1]
    return GbdtModel(
        params=params,
        feature_names=tuple(feature_names),
        bin_mapper=mapper,
        base_score=base_score,
        trees=kept,
        best_iteration=len(kept),
        split_counts=_split_counts(kept, n_features),
        train_curve=train_curve,
        valid_curve=valid_curve,
        valid_probs=best_valid,
    )


def _split_counts(trees: list[Tree], n_features: int) -> np.ndarray:
    """The number of split nodes on each feature over the trees."""
    features = np.concatenate([np.empty(0, dtype=np.int32), *(t.feature for t in trees)])
    return np.bincount(features[features >= 0], minlength=n_features).astype(np.int64)


def predict(model: GbdtModel, table: Table) -> np.ndarray:
    """Predicted installation probabilities for each row: the sigmoid of the
    raw score, computed one row block at a time; the sum runs over the trees
    in order, as in :func:`fit`."""
    trees = [_compile(tree) for tree in model.trees]
    out = np.empty(table.n_rows, dtype=np.float64)
    # at least one block, so that a table of no rows is checked too
    for start in range(0, max(table.n_rows, 1), _SCORE_BLOCK):
        rows = slice(start, start + _SCORE_BLOCK)
        binned = bin_table(model.bin_mapper, table, rows)
        scores = np.full(binned.shape[1], model.base_score, dtype=np.float64)
        for tree in trees:
            scores += _leaf_values(tree, binned)
        out[rows] = sigmoid(scores)
    return out


def feature_importance(model: GbdtModel) -> list[tuple[str, int]]:
    """Per-feature split counts over retained trees, sorted descending with
    ties broken by feature index."""
    order = sorted(
        range(len(model.feature_names)),
        key=lambda j: (-int(model.split_counts[j]), j),
    )
    return [(model.feature_names[j], int(model.split_counts[j])) for j in order]


def save_model(model: GbdtModel, path) -> None:
    is_cat = model.bin_mapper.is_cat()
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "params": asdict(model.params),
        "feature_names": list(model.feature_names),
        "bin_mapper": mapper_to_json(model.bin_mapper),
        "base_score": model.base_score,
        "best_iteration": model.best_iteration,
        "split_counts": [int(c) for c in model.split_counts],
        "trees": [tree_to_json(tree, is_cat) for tree in model.trees],
        "train_curve": model.train_curve,
        "valid_curve": model.valid_curve,
    }
    # json.dumps uses the C encoder; json.dump to a file never does
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path) -> GbdtModel:
    """Read a model written by :func:`save_model`.  The document is checked
    before anything is scored with it: a field of the wrong JSON type, a
    number too large for its field, a field that does not fit the model's
    bin mapper, or a ``best_iteration`` or ``split_counts`` that its trees do
    not give raises :class:`GbdtError` naming the field (and the tree); so
    does a file that is not UTF-8 JSON, naming the path."""
    doc = read_json(path, GbdtError)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise GbdtError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise GbdtError(f"unsupported model version {doc.get('version')}")
    try:
        return _model_from_json(doc)
    except (KeyError, TypeError) as exc:
        raise GbdtError(f"malformed model document: {exc!r}") from None


def _model_from_json(doc: dict) -> GbdtModel:
    params = params_from_json(doc["params"])
    mapper = mapper_from_json(doc["bin_mapper"])
    feature_names = tuple(doc["feature_names"])
    if feature_names != mapper.feature_names:
        raise GbdtError("feature_names disagree with the bin mapper's features")
    split_counts = np.asarray(
        [json_int64(c, "a split_counts entry") for c in doc["split_counts"]], dtype=np.int64
    )
    if split_counts.shape != (mapper.n_features,):
        raise GbdtError(
            f"split_counts holds {split_counts.size} counts for {mapper.n_features} features"
        )
    base_score = json_float(doc["base_score"], "base_score")
    if not math.isfinite(base_score):
        raise GbdtError(f"base_score {base_score} is not finite")
    n_bins = mapper.n_bins()
    is_cat = mapper.is_cat()
    trees = []
    for t, tree in enumerate(doc["trees"]):
        try:
            trees.append(tree_from_json(tree, n_bins, is_cat))
        except KeyError as exc:
            raise GbdtError(f"tree {t}: a node lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:  # GbdtError is a ValueError
            raise GbdtError(f"tree {t}: {exc}") from None
        tree.clear()  # its arrays are made: drop its JSON while the rest loads
    best_iteration = json_value(doc["best_iteration"], (int,), "best_iteration")
    if best_iteration != len(trees):
        raise GbdtError(f"best_iteration {best_iteration} is not the tree count {len(trees)}")
    counted = _split_counts(trees, mapper.n_features)
    if not np.array_equal(split_counts, counted):
        raise GbdtError(f"split_counts disagree with the splits in the trees, {counted.tolist()}")
    return GbdtModel(
        params=params,
        feature_names=feature_names,
        bin_mapper=mapper,
        base_score=base_score,
        trees=trees,
        best_iteration=best_iteration,
        split_counts=split_counts,
        train_curve=[json_float(x, "a train_curve entry") for x in doc["train_curve"]],
        valid_curve=[json_float(x, "a valid_curve entry") for x in doc["valid_curve"]],
    )
