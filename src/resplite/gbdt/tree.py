"""Leaf-wise histogram tree growth on second-order gradient statistics.

A tree is grown by repeatedly splitting the live leaf with the highest gain
until the leaf budget is hit or no candidate has positive gain.  Gain is the
usual regularized second-order score
``G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)``; leaf values are damped
Newton steps ``-G/(H+lam) * learning_rate``.

Determinism rules: the split is the first maximum of gain over features in
ascending index order and then over bins, so ties keep the lowest feature
index and lowest bin; equal-gain leaves split in creation order; missing
values go left on exact gain ties.  Sibling histograms are derived by
subtraction from the parent (smaller child built directly).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .binning import STRIDE


@dataclass
class LeafNode:
    value: float


@dataclass
class NumericSplitNode:
    feature: int
    threshold_bin: int  # left = finite bins 1..threshold_bin
    missing_left: bool
    left: "Node"
    right: "Node"


@dataclass
class CategoricalSplitNode:
    feature: int
    left_bins: np.ndarray  # sorted bin ids routed left
    missing_left: bool     # == (bin 0 in left_bins)
    left: "Node"
    right: "Node"


Node = Union[LeafNode, NumericSplitNode, CategoricalSplitNode]


@dataclass
class GrownTree:
    root: Node
    leaf_updates: list[tuple[np.ndarray, float]]  # (train row indices, value)
    n_leaves: int


@dataclass
class _Split:
    gain: float
    feature: int      # model feature index
    kind: str         # "numeric" | "categorical"
    threshold_bin: int
    missing_left: bool
    left_bins: np.ndarray | None
    grad_left: float
    hess_left: float
    count_left: int


class _Leaf:
    __slots__ = ("rows", "depth", "grad", "hess", "count", "hist", "split", "node_box")

    def __init__(self, rows, depth, grad, hess, count):
        self.rows = rows
        self.depth = depth
        self.grad = grad
        self.hess = hess
        self.count = count
        self.hist: np.ndarray | None = None
        self.split: _Split | None = None
        self.node_box: list = [None, None, None]  # split node, left, right


def _build_hist(
    binned: np.ndarray,
    subset: np.ndarray,
    rows: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
) -> np.ndarray:
    """Histogram planes of shape (3, k, STRIDE): per-feature gradient sums,
    hessian sums, and counts.  Each bin accumulates its rows in row order."""
    g_rows = grad[rows]
    h_rows = hess[rows]
    hist = np.empty((3, len(subset), STRIDE), dtype=np.float64)
    for fpos, f in enumerate(subset):
        bins_rows = binned[f][rows]
        hist[0, fpos] = np.bincount(bins_rows, weights=g_rows, minlength=STRIDE)
        hist[1, fpos] = np.bincount(bins_rows, weights=h_rows, minlength=STRIDE)
        hist[2, fpos] = np.bincount(bins_rows, minlength=STRIDE)
    return hist


@dataclass(frozen=True)
class _Scan:
    """Per-tree constants of the split scan; they depend only on the subset.

    ``num``/``cat`` are positions within the subset.  Numeric threshold
    position b (threshold bin b + 1) is a candidate for the i-th numeric
    feature only where ``valid[i, b]``, i.e. b < n_bins - 2.
    """

    subset: np.ndarray
    n_bins: np.ndarray  # per subset position
    num: np.ndarray
    cat: np.ndarray
    valid: np.ndarray   # (len(num), width) bool


def _scan_plan(subset: np.ndarray, n_bins_all: np.ndarray, is_cat: np.ndarray) -> _Scan:
    n_bins = n_bins_all[subset]
    cat_mask = is_cat[subset]
    num = np.flatnonzero(~cat_mask)
    width = int(n_bins[num].max()) - 2 if len(num) else 0
    valid = np.arange(width)[None, :] < (n_bins[num] - 2)[:, None]
    return _Scan(subset, n_bins, num, np.flatnonzero(cat_mask), valid)


def _scan_categorical(hg, hh, hc, n_bins, total_g, total_h, total_c, lam, min_data):
    """Best prefix of the G/H-sorted occupied bins; returns None when no
    valid positive split exists."""
    counts = hc[:n_bins]
    nz = np.flatnonzero(counts)
    if len(nz) < 2:
        return None
    key = hg[nz] / hh[nz]  # per-row hessians are positive, so hh[nz] > 0
    order = np.lexsort((nz, key))
    sel = nz[order]
    cg = np.cumsum(hg[sel])[:-1]
    ch = np.cumsum(hh[sel])[:-1]
    cc = np.cumsum(hc[sel])[:-1]
    gr = total_g - cg
    hr = total_h - ch
    cr = total_c - cc
    ok = (cc >= min_data) & (cr >= min_data)
    parent = total_g * total_g / (total_h + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = cg * cg / (ch + lam) + gr * gr / (hr + lam) - parent
    gain = np.where(ok, gain, -np.inf)
    k = int(np.argmax(gain))
    if not np.isfinite(gain[k]) or gain[k] <= 0.0:
        return None
    left_bins = np.sort(sel[: k + 1]).astype(np.int64)
    return float(gain[k]), left_bins, float(cg[k]), float(ch[k]), int(cc[k])


def _find_best_split(leaf: _Leaf, scan: _Scan, lam, min_data) -> _Split | None:
    """Best split of the leaf over every feature of the subset.

    All numeric features are scanned together: prefix sums over bins 1..b+1
    with the missing bin joined left (side 0) or right (side 1), the missing
    side chosen by strictly greater gain (ties go left), then the first-max
    bin per feature.  A feature with any NaN gain, or whose best gain is
    infinite or not positive, offers no candidate.  The split is the
    first-max feature in subset order, so ties keep the lowest feature and
    then the lowest bin.
    """
    if leaf.count < 2 * min_data:
        return None
    hist = leaf.hist
    total_g, total_h, total_c = leaf.grad, leaf.hess, leaf.count
    best_gain = np.full(len(scan.subset), -np.inf)
    kn, width = scan.valid.shape
    if width:
        sides = np.empty((3, 2, kn, width))  # (G/H/count, missing side, feature, b)
        np.cumsum(hist[:, scan.num, 1 : width + 1], axis=2, out=sides[:, 1])
        missing = hist[:, scan.num, :1]
        np.add(sides[:, 1], missing, out=sides[:, 0])
        gl, hl, cl = sides
        gr = total_g - gl
        hr = total_h - hl
        cr = total_c - cl
        ok = (cl >= min_data) & (cr >= min_data) & scan.valid
        parent = total_g * total_g / (total_h + lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
        gain = np.where(ok, gain, -np.inf)
        use_right = gain[1] > gain[0]
        gain = np.where(use_right, gain[1], gain[0])
        num_gain = gain.max(axis=1)  # NaN when any bin's gain is NaN
        best_gain[scan.num] = np.where(
            np.isfinite(num_gain) & (num_gain > 0.0), num_gain, -np.inf
        )
    cat_found = {}
    for fpos in scan.cat:
        res = _scan_categorical(
            hist[0, fpos], hist[1, fpos], hist[2, fpos], int(scan.n_bins[fpos]),
            total_g, total_h, total_c, lam, min_data,
        )
        if res is not None:
            best_gain[fpos] = res[0]
            cat_found[fpos] = res
    fpos = int(np.argmax(best_gain))
    if best_gain[fpos] == -np.inf:
        return None
    feature = int(scan.subset[fpos])
    if fpos in cat_found:
        gain, left_bins, g_left, h_left, c_left = cat_found[fpos]
        return _Split(
            gain=gain, feature=feature, kind="categorical",
            threshold_bin=0, missing_left=bool(0 in left_bins),
            left_bins=left_bins, grad_left=g_left, hess_left=h_left, count_left=c_left,
        )
    i = int(np.searchsorted(scan.num, fpos))
    b = int(np.argmax(gain[i]))
    missing_left = not bool(use_right[i, b])
    pg, ph, pc = sides[:, 1, i, b]
    mg, mh, mc = missing[:, i, 0]
    return _Split(
        gain=float(gain[i, b]), feature=feature, kind="numeric",
        threshold_bin=b + 1, missing_left=missing_left, left_bins=None,
        grad_left=float(pg + (mg if missing_left else 0.0)),
        hess_left=float(ph + (mh if missing_left else 0.0)),
        count_left=int(pc + (mc if missing_left else 0)),
    )


def _split_node(split: _Split) -> NumericSplitNode | CategoricalSplitNode:
    """The split's node, with its children left for ``grow_tree`` to fill."""
    if split.kind == "numeric":
        return NumericSplitNode(
            split.feature, split.threshold_bin, split.missing_left, None, None
        )
    return CategoricalSplitNode(
        split.feature, split.left_bins, split.missing_left, None, None
    )


def _left_mask(
    node: NumericSplitNode | CategoricalSplitNode, bins_rows: np.ndarray
) -> np.ndarray:
    """Which rows the node sends left, given their bins of its feature."""
    if isinstance(node, NumericSplitNode):
        mask = bins_rows <= node.threshold_bin
        if not node.missing_left:
            mask &= bins_rows != 0
        return mask
    bitmap = np.zeros(STRIDE, dtype=bool)
    bitmap[node.left_bins] = True
    return bitmap[bins_rows]


def grow_tree(
    binned: np.ndarray,
    n_bins_all: np.ndarray,
    is_cat: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    subset: np.ndarray,
    num_leaves: int,
    max_depth: int,
    min_data: int,
    lam: float,
    learning_rate: float,
) -> Optional[GrownTree]:
    """Grow one tree over all rows; returns None when not even the root can
    be split with positive gain (no further boosting progress is possible)."""
    n = binned.shape[1]
    rows = np.arange(n, dtype=np.int64)
    scan = _scan_plan(subset, n_bins_all, is_cat)

    root = _Leaf(rows, 0, float(grad.sum()), float(hess.sum()), n)
    root.hist = _build_hist(binned, subset, rows, grad, hess)
    root.split = _find_best_split(root, scan, lam, min_data)
    if root.split is None:
        return None

    heap: list[tuple[float, int, _Leaf]] = []
    seq = 0
    heapq.heappush(heap, (-root.split.gain, seq, root))
    n_leaves = 1

    while heap and n_leaves < num_leaves:
        _, _, leaf = heapq.heappop(heap)
        split = leaf.split
        node = _split_node(split)
        mask = _left_mask(node, binned[split.feature][leaf.rows])
        rows_l = leaf.rows[mask]
        rows_r = leaf.rows[~mask]

        left = _Leaf(rows_l, leaf.depth + 1, split.grad_left, split.hess_left, len(rows_l))
        right = _Leaf(
            rows_r, leaf.depth + 1,
            leaf.grad - split.grad_left, leaf.hess - split.hess_left, len(rows_r),
        )
        # build the smaller child's histogram directly, derive the sibling
        small, big = (left, right) if left.count <= right.count else (right, left)
        small.hist = _build_hist(binned, subset, small.rows, grad, hess)
        big.hist = leaf.hist - small.hist
        leaf.hist = None
        leaf.rows = None

        leaf.node_box = [node, left, right]
        n_leaves += 1

        for child in (left, right):
            if max_depth < 0 or child.depth < max_depth:
                child.split = _find_best_split(child, scan, lam, min_data)
            if child.split is None:  # terminal: its histogram is never read again
                child.hist = None
                continue
            seq += 1
            heapq.heappush(heap, (-child.split.gain, seq, child))
        if n_leaves >= num_leaves:
            break

    leaf_updates: list[tuple[np.ndarray, float]] = []

    def finalize(leaf: _Leaf) -> Node:
        node, left, right = leaf.node_box
        if left is None:  # never split: a terminal leaf
            value = -leaf.grad / (leaf.hess + lam) * learning_rate
            leaf_updates.append((leaf.rows, float(value)))
            return LeafNode(float(value))
        node.left = finalize(left)
        node.right = finalize(right)
        return node

    tree_root = finalize(root)
    return GrownTree(tree_root, leaf_updates, n_leaves)


def tree_output(root: Node, binned: np.ndarray) -> np.ndarray:
    """Route every column of the binned matrix through the tree and return
    the per-row leaf values."""
    n = binned.shape[1]
    out = np.empty(n, dtype=np.float64)
    stack: list[tuple[Node, np.ndarray]] = [(root, np.arange(n, dtype=np.int64))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, LeafNode):
            out[idx] = node.value
            continue
        mask = _left_mask(node, binned[node.feature][idx])
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def count_leaves(root: Node) -> int:
    if isinstance(root, LeafNode):
        return 1
    return count_leaves(root.left) + count_leaves(root.right)


def node_to_json(node: Node) -> dict:
    if isinstance(node, LeafNode):
        return {"leaf": node.value}
    doc = {
        "feature": node.feature,
        "left": node_to_json(node.left),
        "right": node_to_json(node.right),
        "missing_left": node.missing_left,
    }
    if isinstance(node, NumericSplitNode):
        doc["threshold_bin"] = node.threshold_bin
    else:
        doc["left_bins"] = [int(b) for b in node.left_bins]
    return doc


def node_from_json(doc: dict) -> Node:
    if "leaf" in doc:
        return LeafNode(float(doc["leaf"]))
    left = node_from_json(doc["left"])
    right = node_from_json(doc["right"])
    if "threshold_bin" in doc:
        return NumericSplitNode(
            feature=int(doc["feature"]),
            threshold_bin=int(doc["threshold_bin"]),
            missing_left=bool(doc["missing_left"]),
            left=left,
            right=right,
        )
    return CategoricalSplitNode(
        feature=int(doc["feature"]),
        left_bins=np.asarray(doc["left_bins"], dtype=np.int64),
        missing_left=bool(doc["missing_left"]),
        left=left,
        right=right,
    )
