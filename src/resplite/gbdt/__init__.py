"""Histogram-based, leaf-wise gradient boosted trees for binary
classification with logistic loss."""

from .binning import BinMapper, CategoricalBins, NumericBins, bin_table, build_bin_mapper
from .boosting import (
    GbdtError,
    GbdtModel,
    GbdtParams,
    feature_importance,
    fit,
    load_model,
    loss_grad_hess,
    params_from_json,
    predict,
    save_model,
)
from .tree import Tree, grow_tree, tree_output

__all__ = [
    "BinMapper",
    "CategoricalBins",
    "GbdtError",
    "GbdtModel",
    "GbdtParams",
    "NumericBins",
    "Tree",
    "bin_table",
    "build_bin_mapper",
    "feature_importance",
    "fit",
    "grow_tree",
    "load_model",
    "loss_grad_hess",
    "params_from_json",
    "predict",
    "save_model",
    "tree_output",
]
