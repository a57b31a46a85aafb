"""The vectorized split scan and histogram build against per-feature
references: a loop over the single-feature numeric scan below and the
categorical scan must pick exactly the split the vectorized scan picks."""

import dataclasses
import heapq
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resplite.gbdt import tree
from resplite.gbdt.binning import STRIDE
from resplite.gbdt.tree import (
    _Leaf,
    _Split,
    _build_hist,
    _find_best_split,
    _scan_plan,
    bin_counts,
)


def _scan_numeric(hg, hh, hc, n_bins, total_g, total_h, total_c, lam, min_data):
    """Best threshold over one numeric feature's histogram, trying the
    missing bin on both sides; returns None when no valid positive split."""
    if n_bins < 3:
        return None
    pg = np.cumsum(hg[1:n_bins])[:-1]
    ph = np.cumsum(hh[1:n_bins])[:-1]
    pc = np.cumsum(hc[1:n_bins])[:-1]
    mg, mh, mc = hg[0], hh[0], hc[0]
    parent = total_g * total_g / (total_h + lam)

    def side_gain(gl, hl, cl):
        gr = total_g - gl
        hr = total_h - hl
        cr = total_c - cl
        ok = (cl >= min_data) & (cr >= min_data)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
        return np.where(ok, gain, -np.inf)

    gain_left = side_gain(pg + mg, ph + mh, pc + mc)   # missing joins left
    gain_right = side_gain(pg, ph, pc)                 # missing joins right
    use_right = gain_right > gain_left
    gain = np.where(use_right, gain_right, gain_left)
    b = int(np.argmax(gain))
    if not np.isfinite(gain[b]) or gain[b] <= 0.0:
        return None
    missing_left = not bool(use_right[b])
    gl = float(pg[b] + (mg if missing_left else 0.0))
    hl = float(ph[b] + (mh if missing_left else 0.0))
    cl = int(pc[b] + (mc if missing_left else 0))
    return float(gain[b]), b + 1, missing_left, gl, hl, cl


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


def _feature_rows(hist, n_bins):
    """The (G, H, count) rows of each feature of a compact histogram, whose
    features own consecutive slots, ``n_bins`` each, before one zero pad;
    counts as float64, as the per-feature scans take them."""
    gh, hc = hist
    ends = np.cumsum(n_bins)
    assert gh.shape == (2, ends[-1] + 1) and hc.shape == (ends[-1] + 1,)
    assert not gh[:, -1].any() and hc[-1] == 0
    return [(gh[0, lo:hi], gh[1, lo:hi], hc[lo:hi].astype(np.float64))
            for lo, hi in zip(ends - n_bins, ends)]


def _reference_split(leaf, subset, n_bins_all, is_cat, lam, min_data):
    """One feature at a time; a candidate replaces the incumbent only on
    strictly greater gain."""
    if leaf.count < 2 * min_data:
        return None
    rows = _feature_rows(leaf.hist, n_bins_all[subset])
    best = None
    for fpos, f in enumerate(subset):
        nb = int(n_bins_all[f])
        args = (*rows[fpos], nb, leaf.grad, leaf.hess, leaf.count, lam, min_data)
        left = np.zeros(STRIDE, dtype=bool)  # the bins the split sends left
        if is_cat[f]:
            res = _scan_categorical(*args)
            if res is not None and (best is None or res[0] > best.gain):
                gain, left_bins, gl, hl, cl = res
                left[left_bins] = True
                best = _Split(gain=gain, feature=int(f), left=left,
                              grad_left=gl, hess_left=hl, count_left=cl)
        else:
            res = _scan_numeric(*args)
            if res is not None and (best is None or res[0] > best.gain):
                gain, tb, missing_left, gl, hl, cl = res
                left[1 : tb + 1] = True
                left[0] = missing_left
                best = _Split(gain=gain, feature=int(f), left=left,
                              grad_left=gl, hess_left=hl, count_left=cl)
    return best


def _fields(split):
    if split is None:
        return None
    out = {}
    for field in dataclasses.fields(split):
        value = getattr(split, field.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.tolist())
        out[field.name] = (type(value), value)
    return out


def _left_bins(split):
    """The bins the split sends left, ascending."""
    return np.flatnonzero(split.left).tolist()


def _outcome(find, *args):
    """The split's fields, or the error raised: with lambda_l2 = 0 and no
    hessian in the leaf the parent score divides by zero in both scans."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # the categorical G/H key
            return _fields(find(*args))
    except ZeroDivisionError:
        return ZeroDivisionError


@st.composite
def scan_cases(draw):
    """Small leaves with exact gain ties: gradients and hessians on a coarse
    grid, duplicated feature columns, missing rows in only some features,
    n_bins < 3, and zero hessians with lambda_l2 = 0 (NaN and infinite
    gains).  Some leaf histograms are derived as grow_tree derives the
    larger child, parent minus sibling, one or two levels deep: with
    gradients off the grid, a bin without rows can keep a leftover G/H."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    mix = draw(st.sampled_from(["numeric", "categorical", "mixed"]))
    n_features = draw(st.integers(1, 6))
    m = draw(st.integers(0, 80))
    lam = draw(st.sampled_from([0.0, 1.0]))
    zero_hess = draw(st.booleans())
    min_data = draw(st.integers(1, 6))
    n_bins_all = np.empty(n_features, dtype=np.int64)
    is_cat = np.empty(n_features, dtype=bool)
    binned = np.empty((n_features, m), dtype=np.uint8)
    for f in range(n_features):
        if f and draw(st.booleans()):  # a copy of an earlier feature: exact ties
            src = draw(st.integers(0, f - 1))
            n_bins_all[f], is_cat[f], binned[f] = n_bins_all[src], is_cat[src], binned[src]
            continue
        is_cat[f] = mix == "categorical" or (mix == "mixed" and draw(st.booleans()))
        n_bins_all[f] = draw(st.sampled_from([1, 2, 3, 4, 5, 8, STRIDE]) if is_cat[f]
                             else st.sampled_from([2, 3, 4, 5, 8, STRIDE]))
        low = 1 if draw(st.booleans()) else 0  # no missing rows: side ties
        high = min(int(n_bins_all[f]), draw(st.sampled_from([3, 6, STRIDE])))
        binned[f] = rng.integers(min(low, high - 1), high, size=m)
    if draw(st.booleans()):
        grad = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=m)
        hess = rng.choice([0.0, 0.25, 1.0] if zero_hess else [0.25, 1.0], size=m)
    else:
        grad = rng.uniform(-1.0, 1.0, size=m)
        hess = rng.uniform(0.0 if zero_hess else 0.01, 1.0, size=m)
    if draw(st.booleans()):
        subset = np.arange(n_features, dtype=np.int64)
    else:
        size = draw(st.integers(1, n_features))
        subset = np.sort(rng.choice(n_features, size=size, replace=False))
    # every row goes to the leaf (owner 0) or to one of its ancestors' other
    # children; a small leaf leaves most missing rows to its siblings
    n_siblings = draw(st.integers(0, 2))
    share = draw(st.sampled_from([0.1, 0.5])) if n_siblings else 1.0
    owner = np.where(rng.random(m) < share, 0, 1 + rng.integers(0, max(n_siblings, 1), size=m))
    if n_siblings and draw(st.booleans()):  # none of feature 0's missing rows
        owner[(binned[0] == 0) & (owner == 0)] = 1
    rows, *siblings = (np.flatnonzero(owner == i) for i in range(n_siblings + 1))
    return binned, n_bins_all, is_cat, grad, hess, subset, rows, siblings, lam, min_data


def _case_leaf(binned, grad, hess, scan, rows, siblings):
    """The leaf over ``rows``; with siblings, its histogram is the
    ancestor's over every row minus each sibling's, outermost first."""
    leaf = _Leaf(rows, 0, float(grad[rows].sum()), float(hess[rows].sum()), len(rows))
    all_rows = np.sort(np.concatenate([rows, *siblings]))
    leaf.hist = _build_hist(binned, scan, all_rows, grad, hess)
    for sibling in siblings:
        part = _build_hist(binned, scan, sibling, grad, hess)
        leaf.hist = tuple(plane - p for plane, p in zip(leaf.hist, part))
    return leaf


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_vectorized_scan_matches_per_feature_reference(case):
    binned, n_bins_all, is_cat, grad, hess, subset, rows, siblings, lam, min_data = case
    scan = _scan_plan(subset, n_bins_all, is_cat)
    leaf = _case_leaf(binned, grad, hess, scan, rows, siblings)
    want = _outcome(_reference_split, leaf, subset, n_bins_all, is_cat, lam, min_data)
    got = _outcome(_find_best_split, leaf, scan, lam, min_data)
    assert got == want


def test_ties_keep_lowest_feature_then_lowest_bin_then_missing_left():
    # gradients +1,+1,-1,-1 in bins 1,2,4,5 and no missing rows: thresholds
    # 2 and 3 (bin 3 is empty) tie on both identical features, and so do
    # the two sides for the empty missing bin
    binned = np.array([[1, 2, 4, 5], [1, 2, 4, 5]], dtype=np.uint8)
    grad = np.array([1.0, 1.0, -1.0, -1.0])
    hess = np.ones(4)
    n_bins_all = np.array([7, 7])
    is_cat = np.array([False, False])
    subset = np.array([0, 1])
    rows = np.arange(4)
    leaf = _Leaf(rows, 0, 0.0, 4.0, 4)
    scan = _scan_plan(subset, n_bins_all, is_cat)
    leaf.hist = _build_hist(binned, scan, rows, grad, hess)
    split = _find_best_split(leaf, scan, 1.0, 1)
    assert (split.feature, _left_bins(split)) == (0, [0, 1, 2])
    assert (split.grad_left, split.hess_left, split.count_left) == (2.0, 2.0, 2)


def test_feature_with_a_nan_gain_offers_no_split():
    # lambda_l2 = 0: feature 0's threshold 1 isolates the one row with zero
    # gradient and hessian (0/0), so feature 0 is skipped although its
    # threshold 2 beats every threshold of feature 1
    binned = np.array([[1, 2, 3, 3], [1, 2, 1, 2]], dtype=np.uint8)
    grad = np.array([0.0, 1.0, -1.0, -1.0])
    hess = np.array([0.0, 1.0, 1.0, 1.0])
    subset = np.array([0, 1])
    rows = np.arange(4)
    leaf = _Leaf(rows, 0, -1.0, 3.0, 4)
    scan = _scan_plan(subset, np.array([5, 4]), np.array([False, False]))
    leaf.hist = _build_hist(binned, scan, rows, grad, hess)
    split = _find_best_split(leaf, scan, 0.0, 1)
    assert (split.feature, _left_bins(split)[-1]) == (1, 1)
    assert _fields(split) == _fields(_reference_split(
        leaf, subset, np.array([5, 4]), np.array([False, False]), 0.0, 1))


def test_no_threshold_past_a_features_last_bin():
    # feature 0 has one finite bin; the scan is as wide as feature 1's bins,
    # yet "every finite row left, missing right" is not a threshold of 0
    binned = np.array([[0, 0, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]], dtype=np.uint8)
    grad = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    hess = np.ones(6)
    subset = np.array([0, 1])
    rows = np.arange(6)
    leaf = _Leaf(rows, 0, 2.0, 6.0, 6)
    scan = _scan_plan(subset, np.array([2, 8]), np.array([False, False]))
    leaf.hist = _build_hist(binned, scan, rows, grad, hess)
    assert _find_best_split(leaf, scan, 1.0, 1) is None


def test_missing_bin_with_leftover_sums_but_no_rows_is_scanned_on_both_sides():
    # the leaf holds rows 0-2; the missing rows 3, 4, 6 and 7 went to two
    # siblings, so the leaf's missing bin, grandparent minus both siblings,
    # has no rows but a leftover gradient sum, and joining it left loses
    binned = np.array([[2, 2, 1, 0, 0, 3, 0, 0]], dtype=np.uint8)
    grad = np.array([-0.9, -0.2, 0.7, -0.7, -1.0, 0.0, -0.1, -0.1])
    hess = np.ones(8)
    rows, siblings = np.arange(3), [np.array([6, 7]), np.array([3, 4, 5])]
    subset, n_bins_all, is_cat = np.array([0]), np.array([4]), np.array([False])
    scan = _scan_plan(subset, n_bins_all, is_cat)
    leaf = _case_leaf(binned, grad, hess, scan, rows, siblings)
    gh, hc = leaf.hist
    assert hc[0] == 0 and gh[0, 0] != 0
    split = _find_best_split(leaf, scan, 1.0, 1)
    assert _left_bins(split) == [1]  # threshold 1, missing rows right
    assert _fields(split) == _fields(_reference_split(leaf, subset, n_bins_all, is_cat, 1.0, 1))


def test_empty_categories_sort_after_occupied_ones_with_infinite_keys():
    # bins 3, 4 and 5 hold rows with zero hessian and positive gradient
    # (key +inf), bins 1 and 2 are empty; min_data = 2 makes {0, 3} the best
    # left set, and the empty bins must not be swept into it
    binned = np.array([[0, 4, 5, 3, 5]], dtype=np.uint8)
    grad = np.array([0.0, 0.5, 0.0, 0.5, 1.0])
    hess = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    subset, n_bins_all, is_cat = np.array([0]), np.array([6]), np.array([True])
    scan = _scan_plan(subset, n_bins_all, is_cat)
    leaf = _case_leaf(binned, grad, hess, scan, np.arange(5), [])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _reference_split(leaf, subset, n_bins_all, is_cat, 1.0, 2)
    split = _find_best_split(leaf, scan, 1.0, 2)
    assert _left_bins(split) == [0, 3]
    assert _fields(split) == _fields(want)


def test_root_histogram_reads_every_row_in_place():
    # the root's histogram, from the whole columns and the fit's count
    # plane, is bit-identical to gathering every row
    rng = np.random.Generator(np.random.PCG64(9))
    binned = rng.integers(0, 40, size=(5, 3000), dtype=np.uint8)
    grad = rng.standard_normal(3000)
    hess = rng.uniform(0.01, 0.25, 3000)
    scan = _scan_plan(np.array([1, 3, 4]), np.full(5, 40), np.zeros(5, dtype=bool))
    root = _build_hist(binned, scan, slice(None), grad, hess, bin_counts(binned))
    gathered = _build_hist(binned, scan, np.arange(3000), grad, hess)
    assert [p.tobytes() for p in root] == [p.tobytes() for p in gathered]


def test_leaf_without_two_categories_computes_no_gain():
    # lambda_l2 = 0 and no hessian: the per-feature scan of a categorical
    # with one occupied bin never computes the parent score, which would
    # divide by zero, and neither may the stacked scan
    binned = np.array([[1, 1]], dtype=np.uint8)
    scan = _scan_plan(np.array([0]), np.array([2]), np.array([True]))
    leaf = _case_leaf(binned, np.array([0.0, -0.5]), np.zeros(2), scan, np.arange(2), [])
    assert _find_best_split(leaf, scan, 0.0, 1) is None


def test_build_hist_needs_no_rows_by_features_temporary():
    k, m = 20, 200_000
    rng = np.random.Generator(np.random.PCG64(5))
    binned = rng.integers(0, STRIDE, size=(k, m), dtype=np.uint8)
    grad = rng.standard_normal(m)
    hess = rng.uniform(0.01, 0.25, m)
    rows = np.arange(m, dtype=np.int64)
    scan = _scan_plan(np.arange(k), np.full(k, STRIDE), np.zeros(k, dtype=bool))
    tracemalloc.start()
    try:
        gh, hc = _build_hist(binned, scan, rows, grad, hess)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gh.shape == (2, k * STRIDE + 1) and hc.shape == (k * STRIDE + 1,)
    assert np.array_equal(hc[:-1].reshape(k, STRIDE).sum(axis=1), np.full(k, m))
    # a (k, m) int64 gather alone is k*m*8 bytes
    assert peak < k * m * 8 / 2


def test_the_split_that_fills_the_tree_builds_and_scans_nothing(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(4))
    n, k = 4000, 3
    binned = rng.integers(0, 64, size=(k, n), dtype=np.uint8)
    grad = rng.standard_normal(n)
    hess = rng.uniform(0.1, 0.25, n)
    calls = Counter()
    for name in ("_build_hist", "_find_best_split"):
        def counted(*args, _real=getattr(tree, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(tree, name, counted)
    grown = tree.grow_tree(
        binned, np.full(k, 64), np.zeros(k, dtype=bool), grad, hess, np.arange(k),
        bin_counts(binned), num_leaves=8, max_depth=-1, min_data=20, lam=1.0,
        learning_rate=0.1, scores=np.zeros(n), order=np.empty(n, dtype=np.int64),
    )
    assert grown.n_leaves == 8
    # the root, then one histogram and two scans for each split but the last
    # and the split of a 45-row leaf, whose children of 22 and 23 rows both
    # hold fewer than 2 * min_data rows; two children of 29 and 31 rows get
    # no scan for the same reason
    assert calls == {"_build_hist": 1 + 5, "_find_best_split": 1 + 2 * 5 - 2}


@pytest.mark.parametrize("max_depth, min_data, n_leaves, scans",
                         [(2, 20, 4, 3), (-1, 1000, 3, 2)])
def test_a_split_no_child_of_which_can_be_scanned_builds_nothing(
        monkeypatch, max_depth, min_data, n_leaves, scans):
    # the root's split builds one histogram for its two children; each child
    # of at least 2 * min_data rows is scanned and splits, but its own
    # children sit at max_depth or hold fewer than 2 * min_data rows, so its
    # histogram goes right after its scan and its split builds none
    rng = np.random.Generator(np.random.PCG64(4))
    n, k = 4000, 3
    binned = rng.integers(0, 64, size=(k, n), dtype=np.uint8)
    grad = rng.standard_normal(n)
    hess = rng.uniform(0.1, 0.25, n)
    calls = Counter()
    scanned = []

    def scan(leaf, *args, _real=tree._find_best_split):
        # every earlier histogram was dropped, or handed to a child
        assert all(done.hist is None for done in scanned)
        calls["_find_best_split"] += 1
        scanned.append(leaf)
        return _real(leaf, *args)

    def build(*args, _real=tree._build_hist):
        calls["_build_hist"] += 1
        return _real(*args)

    monkeypatch.setattr(tree, "_find_best_split", scan)
    monkeypatch.setattr(tree, "_build_hist", build)
    case = (binned, np.full(k, 64), np.zeros(k, dtype=bool), grad, hess, np.arange(k),
            bin_counts(binned), 8, max_depth, min_data, 1.0, 0.1)
    grown, fields = _grow(case)
    assert grown.n_leaves == n_leaves
    assert all(done.hist is None for done in scanned)
    assert calls == {"_build_hist": 2, "_find_best_split": scans}
    assert fields == _reference_grow_tree(*case)


def _reference_grow_tree(binned, n_bins_all, is_cat, grad, hess, subset, root_counts,
                         num_leaves, max_depth, min_data, lam, learning_rate):
    """``grow_tree`` as it was before it dropped the histograms of leaves
    past the leaf budget and derived siblings in the parent's buffer: every
    frontier leaf keeps its histogram until it is popped.  Returns the
    fields of :func:`_tree_fields`: the tree's JSON node document, the
    scores of :func:`_base_scores` with each leaf's value added to its
    rows, and the leaves' rows left to right."""
    n = binned.shape[1]
    scores = _base_scores(n)
    scan = _scan_plan(subset, n_bins_all, is_cat)
    root = _Leaf(np.arange(n, dtype=np.int64), 0, float(grad.sum()), float(hess.sum()), n)
    root.hist = _build_hist(binned, scan, slice(None), grad, hess, root_counts)
    root.split = _find_best_split(root, scan, lam, min_data)
    if root.split is None:
        return _tree_fields(None, scores, None)
    heap = [(-root.split.gain, 0, root)]
    seq = 0
    n_leaves = 1
    children = {}  # split leaf -> (left leaf, right leaf)
    while heap and n_leaves < num_leaves:
        _, _, leaf = heapq.heappop(heap)
        split = leaf.split
        mask = np.isin(binned[split.feature][leaf.rows], _left_bins(split))
        rows_l, rows_r = leaf.rows[mask], leaf.rows[~mask]
        left = _Leaf(rows_l, leaf.depth + 1, split.grad_left, split.hess_left, len(rows_l))
        right = _Leaf(rows_r, leaf.depth + 1, leaf.grad - split.grad_left,
                      leaf.hess - split.hess_left, len(rows_r))
        leaf.rows = None
        children[leaf] = (left, right)
        n_leaves += 1
        if n_leaves == num_leaves:
            break
        small, big = (left, right) if left.count <= right.count else (right, left)
        small.hist = _build_hist(binned, scan, small.rows, grad, hess)
        big.hist = tuple(plane - part for plane, part in zip(leaf.hist, small.hist))
        leaf.hist = None
        for child in (left, right):
            if max_depth < 0 or child.depth < max_depth:
                child.split = _find_best_split(child, scan, lam, min_data)
            if child.split is None:
                child.hist = None
                continue
            seq += 1
            heapq.heappush(heap, (-child.split.gain, seq, child))

    leaf_rows = []

    def finalize(leaf):
        if leaf not in children:
            value = float(-leaf.grad / (leaf.hess + lam) * learning_rate)
            scores[leaf.rows] += value
            leaf_rows.append(leaf.rows)
            return {"leaf": value}
        split = leaf.split
        bins = _left_bins(split)
        doc = {"feature": split.feature, "missing_left": bins[0] == 0,
               "left": finalize(children[leaf][0]), "right": finalize(children[leaf][1])}
        if is_cat[split.feature]:
            doc["left_bins"] = bins
        else:
            assert [b for b in bins if b] == list(range(1, bins[-1] + 1))  # 1..threshold
            doc["threshold_bin"] = bins[-1]
        return doc

    return _tree_fields(finalize(root), scores, np.concatenate(leaf_rows))


def _base_scores(n):
    """The scores that a tree's leaf values are added to: not zero, so that
    each addition rounds."""
    return np.random.Generator(np.random.PCG64(n)).standard_normal(n)


def _tree_fields(doc, scores, leaf_rows):
    """A grown tree's JSON node document (None for no tree), every score,
    floats as their bits, and the leaves' rows."""
    # repr of a float is exact, and json writes it so
    return (None if doc is None else json.dumps(doc, sort_keys=True),
            [x.hex() for x in scores.tolist()],
            None if leaf_rows is None else leaf_rows.tolist())


def _grow(case):
    """``grow_tree`` on ``case`` from :func:`_base_scores` with a row buffer
    of stale rows: the tree, and the fields of :func:`_tree_fields`, the
    buffer as its leaves' rows."""
    scores = _base_scores(case[0].shape[1])
    order = np.full(len(scores), -1, dtype=np.int64)
    grown = tree.grow_tree(*case, scores, order)
    if grown is None:
        return None, _tree_fields(None, scores, None)
    return grown, _tree_fields(tree.tree_to_json(grown, case[2]), scores, order)


@st.composite
def grow_cases(draw):
    """Random binned tables with numeric and categorical features, missing
    bins, feature subsets, leaf budgets near and past what the data can
    split, depth limits and leaf minimums."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, 1500))
    k = int(rng.integers(1, 9))
    n_bins_all = rng.integers(2, STRIDE + 1, size=k)
    is_cat = rng.random(k) < 0.4
    binned = (rng.random((k, n)) * n_bins_all[:, None]).astype(np.uint8)
    signal = (binned / n_bins_all[:, None]).sum(axis=0)  # every feature carries some
    grad = np.round(rng.standard_normal(n) * draw(st.sampled_from([0.1, 1.0])), 1) - signal
    hess = rng.uniform(0.05, 0.25, n)
    subset = np.flatnonzero(rng.random(k) < 0.7)
    if not len(subset):
        subset = np.array([int(rng.integers(k))])
    return (binned, n_bins_all, is_cat, grad, hess, subset, bin_counts(binned),
            int(rng.integers(2, 40)), draw(st.sampled_from([-1, -1, 2, 4, 7])),
            draw(st.sampled_from([1, 3, 10, 20])), draw(st.sampled_from([0.5, 1.0])), 0.1)


@settings(max_examples=200, deadline=None)
@given(case=grow_cases())
def test_grow_tree_equals_the_reference_loop(case):
    # a reused row buffer, holding stale rows, ends as the leaves' rows
    assert _grow(case)[1] == _reference_grow_tree(*case)


def test_a_tree_not_grown_adds_nothing_to_the_scores():
    # no gradient anywhere: no split has positive gain, not even the root's
    rng = np.random.Generator(np.random.PCG64(6))
    n, k = 200, 2
    binned = rng.integers(0, 16, size=(k, n), dtype=np.uint8)
    case = (binned, np.full(k, 16), np.array([False, True]), np.zeros(n), np.full(n, 0.25),
            np.arange(k), bin_counts(binned), 8, -1, 5, 1.0, 0.1)
    scores = _base_scores(n)
    assert tree.grow_tree(*case, scores, np.empty(n, dtype=np.int64)) is None
    assert scores.tobytes() == _base_scores(n).tobytes()


def test_grow_tree_holds_at_most_32_histograms_for_63_leaves(monkeypatch):
    # at a split scan the frontier is at its widest; sampled there, the
    # live histograms (numpy blocks of exactly one G/H block's size) are at
    # most the 31 leaves that can still split plus the new child
    k, n = 27, 6000
    rng = np.random.Generator(np.random.PCG64(11))
    binned = rng.integers(0, 64, size=(k, n), dtype=np.uint8)
    grad = rng.standard_normal(n) + (binned[0] > 32) - 0.5 * (binned[1] < 20)
    hess = rng.uniform(0.1, 0.25, n)
    # one histogram: G/H sums over each feature's 64 bins and a zero pad,
    # and uint16 counts of as many slots
    slots = k * 64 + 1
    gh, hc = _build_hist(binned, _scan_plan(np.arange(k), np.full(k, 64), np.zeros(k, bool)),
                         np.arange(n), grad, hess)
    assert hc.dtype == np.uint16 and gh.nbytes + hc.nbytes == 16 * slots + 2 * slots
    hist_bytes = gh.nbytes
    live = []

    def sampled(*args, _real=tree._find_best_split):
        sizes = [t.size for t in tracemalloc.take_snapshot().traces]
        live.append(sizes.count(hist_bytes))
        return _real(*args)

    case = (binned, np.full(k, 64), np.arange(k) < 3, grad, hess, np.arange(k),
            bin_counts(binned), 63, -1, 20, 1.0, 0.1)
    monkeypatch.setattr(tree, "_find_best_split", sampled)
    tracemalloc.start()
    try:
        grown, fields = _grow(case)
    finally:
        tracemalloc.stop()
    assert grown.n_leaves == 63
    assert max(live) <= 32, f"{max(live)} live histograms"
    assert max(live) > 1  # the sampling sees the histograms at all
    assert fields == _reference_grow_tree(*case)


@pytest.mark.parametrize("n, count_dtype", [
    (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.int32),
])
def test_count_planes_hold_every_row_at_the_dtype_edges(n, count_dtype):
    # feature 2 holds every row in bin 1: its count is n itself, the most
    # the count dtype must hold
    rng = np.random.Generator(np.random.PCG64(n))
    k = 3
    binned = np.ones((k, n), dtype=np.uint8)
    binned[:2] = rng.integers(0, 16, size=(2, n))
    n_bins_all, is_cat = np.array([16, 16, 3]), np.array([False, True, False])
    grad = rng.standard_normal(n) + (binned[0] > 8) - 0.5 * (binned[1] < 4)
    hess = rng.uniform(0.1, 0.25, n)
    subset = np.arange(k)
    root_counts = bin_counts(binned)
    scan = _scan_plan(subset, n_bins_all, is_cat)
    root = _Leaf(np.arange(n), 0, float(grad.sum()), float(hess.sum()), n)
    root.hist = _build_hist(binned, scan, slice(None), grad, hess, root_counts)
    gathered = _build_hist(binned, scan, np.arange(n), grad, hess)
    for hc in (root_counts, root.hist[1], gathered[1]):
        assert hc.dtype == count_dtype
    want = np.concatenate([np.bincount(b, minlength=nb) for b, nb in zip(binned, n_bins_all)])
    assert np.array_equal(gathered[1][:-1], want) and gathered[1][-1] == 0
    assert [p.tobytes() for p in root.hist] == [p.tobytes() for p in gathered]
    assert _fields(_find_best_split(root, scan, 1.0, 5)) == _fields(
        _reference_split(root, subset, n_bins_all, is_cat, 1.0, 5))
    case = (binned, n_bins_all, is_cat, grad, hess, subset, root_counts, 15, -1, 5, 1.0, 0.1)
    assert _grow(case)[1] == _reference_grow_tree(*case)
