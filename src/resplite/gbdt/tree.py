"""Leaf-wise histogram tree growth on second-order gradient statistics.

A tree is grown by repeatedly splitting the live leaf with the highest gain
until the leaf budget is hit or no candidate has positive gain.  Gain is the
usual regularized second-order score
``G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)``; leaf values are damped
Newton steps ``-G/(H+lam) * learning_rate``.

One stacked pass scans every feature of a leaf: numeric bins in order,
categorical bins sorted by G/H (Fisher's sorted partition, as in LightGBM).
A numeric feature's missing bin is tried on both sides only where it holds
rows or leftover G/H in the leaf; elsewhere both sides score alike.

A leaf's histogram is exact and compact: one float64 ``(2, B + 1)`` block
of gradient and hessian sums and one ``B + 1`` integer vector of row counts,
where B is the sum of ``n_bins`` over the tree's features.  Each feature owns
a segment as wide as its own bins, and the last slot is a zero pad.  Counts
are held in the narrowest of uint8, uint16 and int32 that holds the fit's
row count (:func:`~resplite.tabular.code_dtype`), so they stay exact
integers, and the scan takes their prefix sums in int64.  The scan gathers
its padded ``(features, width)`` stack through a per-tree index whose
positions past a feature's bins point at the pad; there it reads +0.0 and 0,
exactly what the empty bins of a fixed 256-bin row would hold.  G/H sums
are accumulated and subtracted in the same order as in such rows, so every
split is the same.

Determinism rules: the split is the first maximum of gain over features in
ascending index order and then over bins, so ties keep the lowest feature
index and lowest bin; equal-gain leaves split in creation order; missing
values go left on exact gain ties.  Sibling histograms are derived by
subtraction from the parent (smaller child built directly).  A histogram
lives only while some scan will read it: with b splits left in the leaf
budget, only the b smallest heap keys can still be popped, so the other
frontier leaves drop their histograms and stay leaves; a leaf whose split
leaves no child that can be scanned (too few rows, or at ``max_depth``)
drops its histogram after its own scan, and its split builds none.  Neither
can change the tree.  The rows live in one index array that every split
partitions in place, left rows first, each side in row order: a leaf's rows
are a contiguous view of it, through which its value is added to their
scores, and a tree allocates no row array that outlives a split (per-split
arrays of changing sizes fragment the heap).

A tree is held as preorder arrays (:class:`Tree`, after LightGBM's
``Tree``): per node ``feature`` (-1 at a leaf) and ``right``, a split's
right child (its left child is the next node); per split ``left``, the
packed set of bins it sends left, as its scan found it; per leaf ``value``,
left to right.  With ``before[i]`` the number of leaves among nodes
0..i-1 (a cumulative sum of the leaf flags), the left subtree of split i,
nodes i + 1..right[i] - 1, holds leaves ``before[i]`` to
``before[right[i]]``: that is how :func:`_compile` finds leaf ranges.

Scoring walks no nodes (QuickScorer, Lucchese et al. 2015, over histogram
bins).  Leaves are numbered left to right and each row carries one bit per
leaf, in 64-leaf uint64 words.  A node that sends the row right rules out
every leaf of its left subtree.  Each node depends on one bin, so the nodes
on one feature fold into a 256-entry table of leaf masks, and a row's
surviving leaves are the AND of one table entry per feature the tree uses.
The exit leaf is the lowest surviving bit: it is never ruled out, and every
leaf to its left lies in the left subtree of a node where the row goes right.
A table keeps only the leaves that exist in its word, so a word starts from
its first table.  Each word has its own leaf values after one pad entry, so
the popcount below the lowest surviving bit indexes them directly.  ``predict``
scores rows in blocks of ``_SCORE_BLOCK``, so a block's uint64 words and
index temporaries stay in cache and no temporary grows with the row count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..tabular import code_dtype
from .binning import STRIDE, GbdtError, json_float, json_value


@dataclass(frozen=True, slots=True, eq=False)
class Tree:
    """One tree as preorder arrays (see the module docstring)."""

    feature: np.ndarray  # (nodes,) int32: the split feature, -1 at a leaf
    right: np.ndarray    # (nodes,) int32: the right child, 0 at a leaf
    left: np.ndarray     # (splits, 32) uint8: the bins each split sends left
    value: np.ndarray    # (leaves,) float64: the leaf values, left to right

    @property
    def n_leaves(self) -> int:
        return len(self.value)


@dataclass
class _Split:
    gain: float
    feature: int      # model feature index
    left: np.ndarray  # (STRIDE,) bool: the bins it sends left
    grad_left: float
    hess_left: float
    count_left: int


class _Leaf:
    __slots__ = ("rows", "depth", "grad", "hess", "count", "hist", "split", "children")

    def __init__(self, rows, depth, grad, hess, count):
        self.rows = rows
        self.depth = depth
        self.grad = grad
        self.hess = hess
        self.count = count
        self.hist: tuple[np.ndarray, np.ndarray] | None = None  # (G/H sums, counts)
        self.split: _Split | None = None
        self.children: tuple[_Leaf, _Leaf] | None = None  # (left, right) once split


def bin_counts(binned: np.ndarray) -> np.ndarray:
    """Row counts per bin of every feature over all rows, ``(features,
    STRIDE)`` in the count dtype of ``binned``'s row count: the root's count
    plane, the same in every round of a fit."""
    dtype = code_dtype(binned.shape[1] + 1)
    return np.stack([np.bincount(b, minlength=STRIDE) for b in binned]).astype(dtype)


@dataclass(frozen=True)
class _Scan:
    """Per-tree constants of the histogram layout and the split scan; they
    depend only on the subset.

    ``num``/``cat`` are positions within the subset.  Feature position i
    owns histogram slots ``offsets[i]:offsets[i + 1]``; slot ``offsets[-1]``
    is the zero pad.  ``index[i, b]`` is the slot of bin b + 1 of feature i,
    or the pad where i has no such bin; ``cat_index`` holds the slots of
    bins 0..width of each categorical feature, and ``missing`` the slot of
    each numeric feature's bin 0.  Scan position b is threshold bin b + 1 of
    a numeric feature (b < n_bins - 2), or the b + 1 lowest-key bins of a
    categorical one (b < n_bins - 1); ``valid`` marks those positions.
    """

    subset: np.ndarray
    num: np.ndarray
    cat: np.ndarray
    offsets: list[int]
    index: np.ndarray      # (len(subset), width) int64
    cat_index: np.ndarray  # (len(cat), width + 1) int64
    missing: np.ndarray    # (len(num),) int64
    valid: np.ndarray      # (len(subset), width) bool


def _scan_plan(subset: np.ndarray, n_bins_all: np.ndarray, is_cat: np.ndarray) -> _Scan:
    cat_mask = is_cat[subset]
    n_bins = n_bins_all[subset]
    offsets = np.zeros(len(subset) + 1, dtype=np.int64)
    np.cumsum(n_bins, out=offsets[1:])
    limit = n_bins - 2 + cat_mask
    width = max(int(limit.max()), 0)
    bins = np.arange(width + 1)[None, :]
    index = np.where(bins < n_bins[:, None], offsets[:-1, None] + bins, offsets[-1])
    num, cat = np.flatnonzero(~cat_mask), np.flatnonzero(cat_mask)
    return _Scan(subset, num, cat, offsets.tolist(), np.ascontiguousarray(index[:, 1:]),
                 index[cat], offsets[num], bins[:, 1:] <= limit[:, None])


def _build_hist(
    binned: np.ndarray,
    scan: _Scan,
    rows: np.ndarray | slice,
    grad: np.ndarray,
    hess: np.ndarray,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The histogram of ``rows`` in the layout of ``scan``: the (2, B + 1)
    gradient and hessian sums and the B + 1 row counts.  Each bin
    accumulates its rows in row order.  At the root, ``rows`` is
    ``slice(None)`` (no gather) and ``counts`` is :func:`bin_counts` of
    ``binned``."""
    g_rows = grad[rows]
    h_rows = hess[rows]
    pad = scan.offsets[-1]
    gh = np.empty((2, pad + 1), dtype=np.float64)
    hc = np.empty(pad + 1, dtype=code_dtype(binned.shape[1] + 1))
    gh[:, pad] = 0.0
    hc[pad] = 0
    for f, lo, hi in zip(scan.subset.tolist(), scan.offsets, scan.offsets[1:]):
        bins_rows = binned[f][rows]
        gh[0, lo:hi] = np.bincount(bins_rows, weights=g_rows, minlength=hi - lo)
        gh[1, lo:hi] = np.bincount(bins_rows, weights=h_rows, minlength=hi - lo)
        if counts is None:
            hc[lo:hi] = np.bincount(bins_rows, minlength=hi - lo)
        else:
            hc[lo:hi] = counts[f, : hi - lo]
    return gh, hc


def _gain(gl, hl, cl, total_g, total_h, total_c, lam, min_data, valid):
    """Split gain at every position from the left side's prefix sums;
    -inf where either side holds fewer than ``min_data`` rows."""
    ok = (cl >= min_data) & (total_c - cl >= min_data) & valid
    parent = total_g * total_g / (total_h + lam)
    gr = total_g - gl
    hr = total_h - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
    return np.where(ok, gain, -np.inf)


def _find_best_split(leaf: _Leaf, scan: _Scan, lam, min_data) -> _Split | None:
    """Best split of the leaf over every feature of the subset.

    One prefix sum runs over numeric bins 1..width and over categorical bins
    in G/H order (occupied bins first, ties by bin index).  A feature with
    any NaN gain, or whose best gain is infinite or not positive, offers no
    candidate.  The split is the first-max feature, then position.
    """
    width = scan.valid.shape[1]
    if leaf.count < 2 * min_data or not width:
        return None
    gh, hc = leaf.hist
    totals = (leaf.grad, leaf.hess, leaf.count, lam, min_data)
    stack, stack_c = gh.take(scan.index, axis=1), hc.take(scan.index)  # bins 1..width
    if len(scan.cat):
        cat_hist, cat_counts = gh.take(scan.cat_index, axis=1), hc.take(scan.cat_index)
        if not scan.valid[scan.num].any() and np.count_nonzero(cat_counts, axis=1).max() < 2:
            return None  # no feature has two sides: no parent score, as per feature
        with np.errstate(divide="ignore", invalid="ignore"):
            key = cat_hist[0] / cat_hist[1]
        order = np.lexsort((key, cat_counts == 0), axis=-1)[:, :width]
        flat = order + np.arange(0, cat_counts.size, width + 1)[:, None]
        stack[:, scan.cat] = cat_hist.reshape(2, -1).take(flat, axis=1)
        stack_c[scan.cat] = cat_counts.take(flat)
    np.cumsum(stack, axis=2, out=stack)
    counts = np.cumsum(stack_c, axis=1, dtype=np.int64)
    gain = _gain(*stack, counts, *totals, scan.valid)

    missing, missing_c = gh.take(scan.missing, axis=1), hc.take(scan.missing)
    held = np.flatnonzero((missing != 0).any(axis=0) | (missing_c != 0))
    joined = scan.num[held]  # subset positions whose missing bin holds anything
    if len(joined):
        left = stack[:, joined] + missing[:, held, None]
        left_c = counts[joined] + missing_c[held, None]
        gain_left = _gain(*left, left_c, *totals, scan.valid[joined])
        use_right = gain[joined] > gain_left
        gain[joined] = np.where(use_right, gain[joined], gain_left)

    best = gain.max(axis=1)  # NaN when any position's gain is NaN
    best = np.where(np.isfinite(best) & (best > 0.0), best, -np.inf)
    fpos = int(np.argmax(best))
    if best[fpos] == -np.inf:
        return None
    b = int(np.argmax(gain[fpos]))
    feature = int(scan.subset[fpos])
    pg, ph = stack[:, fpos, b]
    pc = counts[fpos, b]
    if fpos in scan.cat:
        left = _left_set(order[np.searchsorted(scan.cat, fpos), : b + 1])
        return _Split(gain=float(gain[fpos, b]), feature=feature, left=left,
                      grad_left=float(pg), hess_left=float(ph), count_left=int(pc))
    missing_left = True
    if fpos in joined:
        missing_left = not bool(use_right[np.searchsorted(joined, fpos), b])
    slot = scan.offsets[fpos]  # the feature's missing bin
    mg, mh = gh[:, slot]
    left = _left_set(slice(0 if missing_left else 1, b + 2))  # threshold bin b + 1
    return _Split(
        gain=float(gain[fpos, b]), feature=feature, left=left,
        grad_left=float(pg + (mg if missing_left else 0.0)),
        hess_left=float(ph + (mh if missing_left else 0.0)),
        count_left=int(pc + (hc[slot] if missing_left else 0)),
    )


#: rows scored at a time, so that a block's uint64 words stay in cache
_SCORE_BLOCK = 1 << 14


def _left_set(bins: np.ndarray | slice) -> np.ndarray:
    """The 256-entry table of the bins a split sends left, ``bins``: a
    numeric split's are a slice, from bin 0 (missing) or 1 to its threshold
    bin."""
    table = np.zeros(STRIDE, dtype=bool)
    table[bins] = True
    return table


def _tree(nodes: list[list[int]], sets: list[np.ndarray], values: list[float]) -> Tree:
    """A :class:`Tree` from its preorder ``[feature, right]`` nodes, the
    splits' left sets as 256-entry tables and the leaf values."""
    sets = np.reshape(np.array(sets, dtype=bool), (-1, STRIDE))  # a lone leaf has none
    feature, right = zip(*nodes)
    return Tree(np.array(feature, dtype=np.int32), np.array(right, dtype=np.int32),
                np.packbits(sets, axis=1, bitorder="little"), np.array(values, dtype=np.float64))


def grow_tree(
    binned: np.ndarray,
    n_bins_all: np.ndarray,
    is_cat: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    subset: np.ndarray,
    root_counts: np.ndarray,
    num_leaves: int,
    max_depth: int,
    min_data: int,
    lam: float,
    learning_rate: float,
    scores: np.ndarray,
    order: np.ndarray,
) -> Tree | None:
    """Grow one tree over all rows, adding each leaf's value to the
    ``scores`` of its rows; returns None, having added nothing, when not
    even the root can be split with positive gain (no further boosting
    progress is possible).  ``root_counts`` is :func:`bin_counts` of
    ``binned``.  ``order`` is an int64 buffer of one slot per row that the
    splits partition in place."""
    n = binned.shape[1]
    scan = _scan_plan(subset, n_bins_all, is_cat)

    def scannable(count: int, depth: int) -> bool:
        """Whether a leaf of ``count`` rows at ``depth`` gets a split scan."""
        return count >= 2 * min_data and (max_depth < 0 or depth < max_depth)

    def drop_unread(leaf: _Leaf) -> None:
        """Drop the scanned leaf's histogram unless its split's larger child,
        derived from it, can be scanned (the smaller can only if it can)."""
        split = leaf.split
        if split is None or not scannable(
            max(split.count_left, leaf.count - split.count_left), leaf.depth + 1
        ):
            leaf.hist = None

    order[:] = np.arange(n)
    root = _Leaf(order, 0, float(grad.sum()), float(hess.sum()), n)
    root.hist = _build_hist(binned, scan, slice(None), grad, hess, root_counts)
    root.split = _find_best_split(root, scan, lam, min_data)
    if root.split is None:
        return None
    drop_unread(root)

    heap: list[tuple[float, int, _Leaf]] = []
    seq = 0
    heapq.heappush(heap, (-root.split.gain, seq, root))
    n_leaves = 1

    while heap and n_leaves < num_leaves:
        _, _, leaf = heapq.heappop(heap)
        split = leaf.split
        mask = split.left[binned[split.feature][leaf.rows]]
        rows, n_left = leaf.rows, int(np.count_nonzero(mask))
        right_rows = rows[~mask]
        rows[:n_left] = rows[mask]
        rows[n_left:] = right_rows
        rows_l, rows_r = rows[:n_left], rows[n_left:]

        left = _Leaf(rows_l, leaf.depth + 1, split.grad_left, split.hess_left, len(rows_l))
        right = _Leaf(
            rows_r, leaf.depth + 1,
            leaf.grad - split.grad_left, leaf.hess - split.hess_left, len(rows_r),
        )
        leaf.rows = None
        leaf.children = (left, right)
        n_leaves += 1
        if n_leaves == num_leaves:
            break  # the children stay leaves: no histogram, no scan

        if leaf.hist is not None:  # else neither child can be scanned: both stay leaves
            # build the smaller child's histogram directly, derive the sibling's in place
            small, big = (left, right) if left.count <= right.count else (right, left)
            small.hist = _build_hist(binned, scan, small.rows, grad, hess)
            for plane, part in zip(leaf.hist, small.hist):
                np.subtract(plane, part, out=plane)
            big.hist, leaf.hist = leaf.hist, None
            for child in (left, right):
                if scannable(child.count, child.depth):
                    child.split = _find_best_split(child, scan, lam, min_data)
                drop_unread(child)
                if child.split is not None:
                    seq += 1
                    heap.append((-child.split.gain, seq, child))
        heap.sort()  # keys are unique, and a sorted list is a heap
        for _, _, rest in heap[num_leaves - n_leaves :]:  # never to be popped
            rest.hist = None
        del heap[num_leaves - n_leaves :]

    nodes, sets, values = [], [], []
    stack = [(root, None)]  # (leaf, the node whose right child it is)
    while stack:  # preorder: a split's left subtree is popped before its right
        leaf, parent = stack.pop()
        if parent is not None:
            parent[1] = len(nodes)
        if leaf.children is None:  # never split: a terminal leaf
            value = float(-leaf.grad / (leaf.hess + lam) * learning_rate)
            scores[leaf.rows] += value
            values.append(value)
            nodes.append([-1, 0])
        else:
            left, right = leaf.children
            nodes.append([leaf.split.feature, 0])
            sets.append(leaf.split.left)
            stack += [(right, nodes[-1]), (left, None)]
    return _tree(nodes, sets, values)


def _compile(tree: Tree) -> list[tuple[np.ndarray, list]]:
    """The tree as leaf bitmasks (see the module docstring).

    Returns, per 64-leaf word, the leaf values of the word after one pad
    entry (65 entries, zero beyond the tree's last leaf) and a
    ``(feature, table)`` pair for each feature that rules out some of its
    leaves.  ``table[b]`` keeps the leaves of the word that no node on that
    feature rules out for a row in bin ``b``.  A word whose leaves no node
    rules out (one leaf, the tree's last) gets no table.
    """
    values = tree.value
    splits = np.flatnonzero(tree.feature >= 0)
    features, planes = np.unique(tree.feature[splits], return_inverse=True)
    before = np.concatenate(([0], np.cumsum(tree.feature < 0)))
    first, end = before[splits], before[tree.right[splits]]  # left subtrees' leaves
    left_sets = np.unpackbits(tree.left, axis=1, bitorder="little").view(bool)
    n_words = -(-len(values) // 64)
    keep = np.zeros((len(features) + 1, STRIDE, 64 * n_words), dtype=bool)
    keep[:, :, : len(values)] = True  # the last plane is the valid-leaf mask
    for plane, left, lo, hi in zip(planes, left_sets, first, end):
        keep[plane, ~left, lo:hi] = False
    packed = np.packbits(keep, axis=2, bitorder="little").view("<u8").astype(np.uint64)
    padded = np.zeros((n_words, 65), dtype=np.float64)  # a pad, then 64 leaves
    padded[:, 1:].flat[: len(values)] = values
    words = []
    for w in range(n_words):
        valid = packed[-1, 0, w]
        masks = [(f, packed[i, :, w].copy()) for i, f in enumerate(features.tolist())
                 if (packed[i, :, w] != valid).any()]
        words.append((padded[w], masks))
    return words


def _leaf_values(compiled: list[tuple[np.ndarray, list]], cols: np.ndarray) -> np.ndarray:
    """Per-column leaf values of ``cols``, one block of a binned matrix, in
    a tree compiled by :func:`_compile`."""
    out = None
    # the exit leaf is in the first word with a surviving bit
    for values, masks in reversed(compiled):
        if not masks:  # its one leaf survives in every row
            out = np.full(cols.shape[1], values[1])
            continue
        (f, table), *rest = masks
        # a uint8 bin cannot fall outside a 256-entry table: no bounds check
        v = np.take(table, cols[f], mode="wrap")
        for f, table in rest:
            v &= np.take(table, cols[f], mode="wrap")
        # v ^ (v - 1) keeps the lowest set bit and sets every bit below
        # it, so its popcount is that bit's index + 1 (64 when v is 0)
        leaf = np.take(values, np.bitwise_count(v ^ (v - 1)))
        out = leaf if out is None else np.where(v != 0, leaf, out)
    return out


def tree_output(tree: Tree, binned: np.ndarray) -> np.ndarray:
    """The tree's leaf value for every column of the binned matrix, scored
    in one block: ``fit`` scores the valid day with it, at most a day of rows."""
    return _leaf_values(_compile(tree), binned)


def tree_to_json(tree: Tree, is_cat) -> dict:
    """The tree as nested node documents: ``{"leaf": value}`` for a leaf; a
    split holds its ``feature``, ``missing_left``, ``left`` and ``right``
    nodes, and its ``threshold_bin`` if the feature is numeric (``is_cat``
    false) or its ascending ``left_bins`` if categorical."""
    left_sets = iter(np.unpackbits(tree.left, axis=1, bitorder="little"))  # in preorder
    values = iter(tree.value.tolist())  # in preorder, which is left to right

    def node(i: int) -> dict:
        f = int(tree.feature[i])
        if f < 0:
            return {"leaf": next(values)}
        bins = np.flatnonzero(next(left_sets)).tolist()
        doc = {"feature": f, "left": node(i + 1), "right": node(int(tree.right[i])),
               "missing_left": bins[0] == 0}
        if is_cat[f]:
            doc["left_bins"] = bins
        else:
            doc["threshold_bin"] = bins[-1]
        return doc

    return node(0)


def tree_from_json(doc: dict, n_bins: np.ndarray, is_cat) -> Tree:
    """Parse a tree saved by :func:`tree_to_json`, checking each node against
    the model's per-feature ``n_bins`` and ``is_cat``; a value the scorer
    cannot route raises :class:`GbdtError` naming its field."""
    nodes, sets, values = [], [], []

    def parse(doc: dict) -> None:
        """Append the node and its subtrees in preorder."""
        if "leaf" in doc:
            value = json_float(doc["leaf"], "leaf value")
            if not math.isfinite(value):
                raise GbdtError(f"leaf value {value} is not finite")
            values.append(value)
            nodes.append([-1, 0])
            return
        feature = json_value(doc["feature"], (int,), "feature")
        if not 0 <= feature < len(n_bins):
            raise GbdtError(f"feature {feature} is outside [0, {len(n_bins)})")
        bins = int(n_bins[feature])
        missing_left = json_value(
            doc["missing_left"], (bool,), f"missing_left of feature {feature}"
        )
        numeric = "threshold_bin" in doc
        if numeric == bool(is_cat[feature]):
            kind = "categorical" if is_cat[feature] else "numeric"
            field = "threshold_bin" if numeric else "left_bins"
            raise GbdtError(f"feature {feature} is {kind} but its node has {field}")
        node, k = [feature, 0], len(sets)
        nodes.append(node)
        sets.append(None)  # set once the node is checked, after its subtrees
        parse(doc["left"])
        node[1] = len(nodes)
        parse(doc["right"])
        if numeric:
            threshold = json_value(
                doc["threshold_bin"], (int,), f"threshold_bin of feature {feature}"
            )
            if not 1 <= threshold <= bins - 2:
                raise GbdtError(
                    f"threshold_bin {threshold} of feature {feature} is outside [1, {bins - 2}]"
                )
            sets[k] = _left_set(slice(0 if missing_left else 1, threshold + 1))
            return
        entries = doc["left_bins"]
        if set(map(type, entries)) - {int}:  # name the first entry that is no int
            for b in entries:
                json_value(b, (int,), f"a left_bins entry of feature {feature}")
        try:
            left_bins = np.asarray(entries, dtype=np.int64)
        except OverflowError:  # an entry beyond int64 is beyond every bin too
            left_bins = np.empty(0, dtype=np.int64)
        if not (
            len(left_bins) and 0 <= left_bins[0] and left_bins[-1] < bins
            and (left_bins[1:] > left_bins[:-1]).all()
        ):
            raise GbdtError(
                f"left_bins of feature {feature} are not ascending bins in [0, {bins})"
            )
        if missing_left != (left_bins[0] == 0):
            raise GbdtError(f"missing_left of feature {feature} disagrees with its left_bins")
        sets[k] = _left_set(left_bins)

    parse(doc)
    return _tree(nodes, sets, values)
