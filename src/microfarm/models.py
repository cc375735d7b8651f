"""From-scratch regressors mapping soil features to per-plant ratings.

Five model kinds share one lifecycle: standardize features with the
training-set scaling, fit one independent regressor per plant column,
predict continuous scores, then round and clamp to ratings in 1..5.
A RandomForest draws one substream per tree index t from the master seed,
shared by every plant column: its bootstrap rows, then one sequence of
candidate-feature sets, of which tree t's r-th node that may split, in
level order (by depth, then by the parent's rank, the left child before
the right), searches the r-th.  So permuting label columns permutes
predictions and nothing else.  The forest grows in groups of whole tree
indices, each with all its plant trees, a level at a time, so a tree
index's rows and candidate sets are decoded once and dropped with its group.

A tree fit of enough work (_FORK_WORK) splits its plant columns into
consecutive groups, one per CPU the process may run on and at most one per
plant.  The caller grows the first group; every other group grows in a
forked child process, which sends its packed trees back over a pipe
(_in_workers), and the groups' ensembles are joined in plant order.  A
plant's trees depend only on its own column, and a forest's also on the
tree indices' seeds, which every group draws from afresh, so a model's
bytes are the same on any number of CPUs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ratings import (
    FEATURE_NAMES,
    FullRatingMatrix,
    SoilProfile,
    round_half_up,
    to_ratings,
)

MODEL_KINDS = ("KNN", "Linear", "DecisionTree", "RandomForest", "GradientBoost")

DEFAULT_HYPERPARAMS = {
    "KNN": {"k": 5},
    "Linear": {"ridge_lambda": 1e-6},
    "DecisionTree": {"max_depth": 12, "min_leaf": 2},
    "RandomForest": {"trees": 100, "max_depth": 12, "feature_subsample": 2, "bootstrap": True},
    "GradientBoost": {"rounds": 100, "learning_rate": 0.1, "tree_depth": 3},
}

# Tree splits are searched over per-feature quantile bins, so resolution
# follows data density instead of the raw feature span.
HISTOGRAM_BINS = 256

MODEL_FORMAT = "microfarm-model/5"


class DataError(ValueError):
    """Raised when a dataset cannot support the requested operation."""


class ModelError(ValueError):
    """Raised for unknown kinds, bad hyperparameters, or bad arguments."""


# ---------------------------------------------------------------------------
# dataset


class Dataset:
    """Aligned soil features (m x 5) and per-plant numeric labels (m x n).

    Feature scaling parameters (per-column mean and stddev) are computed at
    construction; fitting standardizes with the training set's values.
    """

    def __init__(self, features, labels) -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(FEATURE_NAMES):
            raise DataError(f"features must be m x {len(FEATURE_NAMES)}, got {features.shape}")
        if labels.ndim != 2 or labels.shape[0] != features.shape[0]:
            raise DataError("labels must be 2-D with one row per feature row")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(labels)):
            raise DataError("features and labels must be finite")
        self.features = features
        self.labels = labels
        if features.shape[0]:
            self.mean = features.mean(axis=0)
            self.std = features.std(axis=0)
        else:  # legal empty set; identity scaling instead of NaN warnings
            self.mean = np.zeros(features.shape[1])
            self.std = np.ones(features.shape[1])

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_plants(self) -> int:
        return self.labels.shape[1]


def dataset_from_soils(soils, ratings: FullRatingMatrix) -> Dataset:
    features = np.array([s.as_array() for s in soils], dtype=np.float64)
    return Dataset(features, ratings.values)


def split(dataset: Dataset, test_fraction: float = 0.2, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle, then round(test_fraction*m) rows for test."""
    if not 0.0 < test_fraction < 1.0:
        raise ModelError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if dataset.m < 5:
        raise DataError(f"need at least 5 rows to split, got {dataset.m}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(dataset.m)
    n_test = int(round_half_up(test_fraction * dataset.m))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (
        Dataset(dataset.features[train_idx], dataset.labels[train_idx]),
        Dataset(dataset.features[test_idx], dataset.labels[test_idx]),
    )


# ---------------------------------------------------------------------------
# regression trees on pre-binned features


def _binned(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-feature split thresholds at evenly spaced quantiles, and each value's bin.

    Of the distinct quantiles, only those that some training value's bin
    ends at are kept, so every bin below len(edges) holds a training value
    and a small training set has few bins.  A split at a dropped edge would
    send the same rows left as one at the kept edge below it (or none), so
    its score is that edge's (or fails min_leaf), and the first maximum is
    at a kept edge either way.  Bins are stored feature by feature (features
    x rows), in the smallest integer type that holds bins
    0..HISTOGRAM_BINS - 1.  bin(v) <= b exactly when v <= edges[b], matching
    the x <= thr predicate.
    """
    qs = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)[1:-1]
    edges, bins = [], []
    for f in range(x.shape[1]):
        e = np.unique(np.quantile(x[:, f], qs))
        b = np.searchsorted(e, x[:, f], side="left")
        edges.append(e[np.unique(b[b < e.size])])
        bins.append(np.searchsorted(edges[-1], x[:, f], side="left"))
    return np.array(bins).astype(np.min_scalar_type(HISTOGRAM_BINS - 1)), edges


# A growth step scores its nodes in chunks of at most this many (row,
# candidate feature) pairs and this many histogram cells, so the step's
# temporaries stay bounded, and in L2 cache, however many trees grow together.
_STEP_CELLS = 1 << 14


def _grow_trees(
    bins: np.ndarray,
    edges: list[np.ndarray],
    labels: list[np.ndarray],
    rows: list[np.ndarray],
    max_depth: int,
    min_leaf: int,
    cands: list[_CandidateSets] | None = None,
    train_out: list[np.ndarray] | None = None,
) -> list[dict]:
    """Greedy variance-reduction regression trees over binned features, grown a level at a time.

    Tree t fits labels[t] on the training rows rows[t] (repeats allowed),
    with at least min_leaf >= 1 rows per leaf.  Returns parallel node arrays
    per tree; internal nodes hold a feature index, a threshold and a left
    child (x <= threshold goes to left, else to left + 1), leaves hold
    feature and left -1.  A node may split when its depth is below
    max_depth and it holds at least 2 * min_leaf rows.  With cands, tree t's
    r-th node that may split, in level order (by depth, then by the parent's
    rank, the left child before the right), searches the features of
    cands[t].row(r); without, every feature.  With train_out, each leaf
    value is scattered to train_out[t] at its rows.

    Nodes are settled as they are made, a block (one level of every tree)
    at a time: their totals and values, their ranks, and whether they are
    leaves without a search (unable to split, or pure, below).  The others
    are the next batch, as in XGBoost's depth-wise growth, with their trees,
    ids, depths, sizes, totals and ranks as arrays and their rows and labels
    concatenated.  A batch is scored in chunks, one comparison per chunk
    sends each row to its node's side, and one gather moves every side's
    rows and labels into the children.  A node's rows thus stay in position
    order, so each bin adds the same values in the same order as a bincount
    per node and feature would.  Children are numbered as they are made, and
    at the end every tree is renumbered in its own depth-first order
    (_depth_first), as if grown alone.

    When every label array is integer-valued and max|y| times the most rows
    of a tree is below 2**26, every sum of labels is exact in any order, so
    a block's totals are added in one np.add.reduceat pass; otherwise each
    is NumPy's pairwise sum of the node's labels, which a sequential pass
    would round differently.  Under that rule a node whose labels are all
    equal is a leaf without a search: every sum, square and quotient of its
    scores is then exact, so its best score equals the parent's n*v*v and
    cannot beat it by 1e-12.  It still counts as a node that may split.
    """
    n_trees, n_features = len(rows), bins.shape[0]
    n_cand = cands[0].size if cands else n_features
    all_features = np.arange(n_features)
    # the bins of every feature are padded to the widest
    width = max(e.size for e in edges) + 1
    thresholds = np.zeros((n_features, width))
    for f, e in enumerate(edges):
        thresholds[f, : e.size] = e
    # whether the pure-node rule holds; plant trees share their label arrays
    distinct = {id(y): y for y in labels}.values()
    exact = all(np.array_equal(y, np.floor(y)) for y in distinct) and max(
        float(np.abs(y).max(initial=0.0)) for y in distinct
    ) * max(r.size for r in rows) < 2**26
    if cands:
        # trees share a number when they share a decoder (one per tree index)
        owner = np.unique([id(c) for c in cands], return_inverse=True)[1]
        n_ranked = np.zeros(n_trees, dtype=np.intp)  # per tree, its nodes ranked so far

    # the nodes the last step made, as one block (trees, ids, depths, sizes,
    # places, rows, labels); ids count the nodes made so far, the roots
    # first, and a node's place orders it within its tree's level
    roots, zeros = np.arange(n_trees), np.zeros(n_trees, dtype=np.intp)
    sizes = np.array([r.size for r in rows])
    subs = [y[r] for y, r in zip(labels, rows)]
    made = (roots, roots, zeros, sizes, zeros, np.concatenate(rows), np.concatenate(subs))
    n_ids = n_trees
    # (trees, depths, values) of every node, by id: each block is settled
    # right after it is made, and its ids follow on from the last block's
    nodes: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    splits: list[tuple] = []  # (ids, features, bins, left ids, right ids)
    while True:
        # settle the new nodes: their values, ranks, and which are leaves unsearched
        tree, ids, depth, sizes, place, src, labs = made
        ends = sizes.cumsum()
        starts = ends - sizes
        if exact:
            totals = np.add.reduceat(labs, starts)
        else:
            totals = np.array([float(labs[a:b].sum()) for a, b in zip(starts.tolist(), ends.tolist())])
        values = totals / sizes
        nodes.append((tree, depth, values))
        grow = may = (depth < max_depth) & (sizes >= 2 * min_leaf)
        if exact:  # pure nodes are leaves
            grow = may & (np.minimum.reduceat(labs, starts) != np.maximum.reduceat(labs, starts))
        if train_out is not None and not grow.all():
            _scatter(train_out, ~grow, tree, starts, src, sizes, values)
        if cands:
            # rank the nodes that may split in tree, then place order
            ranked = may.nonzero()[0]
            ranked = ranked[np.lexsort((place[ranked], tree[ranked]))]
            t = tree[ranked]
            rank = np.empty(sizes.size, dtype=np.intp)
            rank[ranked] = n_ranked[t] + np.arange(t.size) - np.searchsorted(t, t)
            n_ranked += np.bincount(t, minlength=n_trees)
        if not grow.any():
            break
        # the batch: every node that grows
        keep = np.repeat(grow, sizes)
        tree, ids, depth, sizes, totals = (x[grow] for x in (tree, ids, depth, sizes, totals))
        src, labs = src[keep], labs[keep]
        if cands:
            # the candidate sets, one gather per tree index
            rank = rank[grow]
            cand = np.empty((sizes.size, n_cand), dtype=np.intp)
            by = np.argsort(owner[tree], kind="stable")
            heads = np.flatnonzero(np.diff(owner[tree[by]], prepend=-1))
            for group in np.split(by, heads[1:]):
                cand[group] = cands[tree[group[0]]].row(rank[group])
        else:
            cand = np.broadcast_to(all_features, (sizes.size, n_features))
        ends = sizes.cumsum()
        starts = ends - sizes
        # score the nodes chunk by chunk, and send every row to its node's side
        split = np.empty(sizes.size, dtype=bool)
        which, at = np.empty(sizes.size, dtype=np.intp), np.empty(sizes.size, dtype=np.intp)
        left = np.empty(src.size, dtype=bool)
        bounds = starts.tolist() + [src.size]
        for lo, hi in _chunks(sizes.tolist(), n_cand, width):
            a, b = bounds[lo], bounds[hi]
            size = sizes[lo:hi]
            split[lo:hi], which[lo:hi], at[lo:hi], binned = _best_splits(
                src[a:b], labs[a:b], size, totals[lo:hi], cand[lo:hi], bins, width, min_leaf
            )
            if hi - lo == 1:  # a large node, alone in its chunk
                np.less_equal(binned[which[lo]], int(at[lo]), out=left[a:b])
            else:
                pick = np.repeat(which[lo:hi] * (b - a), size)
                pick += np.arange(b - a)
                rule = np.repeat(at[lo:hi].astype(binned.dtype), size)
                np.less_equal(binned.take(pick), rule, out=left[a:b])
        if train_out is not None and not split.all():
            _scatter(train_out, ~split, tree, starts, src, sizes, totals / sizes)
        kept = np.repeat(split, sizes)
        right = kept > left
        left &= kept
        s = split.nonzero()[0]
        if not s.size:
            break
        # the children, right ones first, each with its rows and labels in position order
        n_left = np.add.reduceat(left, starts, dtype=np.intp)[s]
        t, d = tree[s], depth[s] + 1
        t, d = np.concatenate([t, t]), np.concatenate([d, d])
        child = np.arange(n_ids, n_ids + 2 * s.size)
        n_ids += 2 * s.size
        splits.append((ids[s], cand[s, which[s]], at[s], child[s.size :], child[: s.size]))
        order = np.concatenate([right.nonzero()[0], left.nonzero()[0]])
        size = np.concatenate([sizes[s] - n_left, n_left])
        # a left child's place is twice its parent's rank, a right child's one more
        place = np.concatenate([2 * rank[s] + 1, 2 * rank[s]]) if cands else None
        made = (t, child, d, size, place, src.take(order), labs.take(order))
    return _depth_first(nodes, splits, thresholds, n_trees)


def _scatter(train_out, leaves, tree, starts, src, sizes, values) -> None:
    """Each leaf's value to train_out[its tree] at the leaf's rows of src, leaf by leaf."""
    for t, a, n, v in zip(*(x[leaves].tolist() for x in (tree, starts, sizes, values))):
        train_out[t][src[a : a + n]] = v


def _depth_first(nodes, splits, thresholds, n_trees) -> list[dict]:
    """Per-tree node arrays, each tree numbered in its own depth-first order.

    nodes lists the (trees, depths, values) of the nodes in id order, and
    splits the (ids, features, bins, left ids, right ids) of the nodes that
    split.  The k-th node of a tree to split, in preorder, numbers its
    children 2k + 1 and 2k + 2.  Counts of split nodes per subtree are summed
    bottom-up, then each split node's preorder rank is passed down, one
    depth at a time.
    """
    tree, depth, value = (np.concatenate(x) for x in zip(*nodes))
    # an empty first part, for a batch of trees none of which split
    node, f, b, lid, rid = (
        np.concatenate(x) for x in zip((np.empty(0, dtype=np.intp),) * 5, *splits)
    )
    inner = np.zeros(tree.size, dtype=np.intp)  # split nodes per subtree
    inner[node] = 1
    order = np.argsort(depth[node], kind="stable")
    levels = np.split(order, np.cumsum(np.bincount(depth[node]))[:-1])
    for at in reversed(levels):
        inner[node[at]] += inner[lid[at]] + inner[rid[at]]
    rank = np.zeros(tree.size, dtype=np.intp)  # among the tree's split nodes, in preorder
    new = np.zeros(tree.size, dtype=np.intp)
    for at in levels:
        k = rank[node[at]]
        new[lid[at]], new[rid[at]] = 2 * k + 1, 2 * k + 2
        rank[lid[at]], rank[rid[at]] = k + 1, k + 1 + inner[lid[at]]
    first = np.cumsum(np.r_[0, 1 + 2 * inner[:n_trees]])
    pos = first[tree] + new
    out = dict(
        feature=np.full(tree.size, -1),
        threshold=np.zeros(tree.size),
        left=np.full(tree.size, -1),
        value=np.empty(tree.size),
    )
    out["value"][pos] = value
    out["feature"][pos[node]] = f
    out["threshold"][pos[node]] = thresholds[f, b]
    out["left"][pos[node]] = new[lid]
    return [{key: arr[lo:hi] for key, arr in out.items()} for lo, hi in zip(first, first[1:])]


def _chunks(sizes: list[int], n_cand: int, width: int):
    """Runs [lo, hi) of nodes within _STEP_CELLS pairs and cells, at least one node each.

    A node takes n_cand * width histogram cells, and width follows the kept
    edges of _binned, so a small training set fits more nodes in a chunk.
    """
    per_chunk = max(1, _STEP_CELLS // (n_cand * width))
    lo = 0
    while lo < len(sizes):
        hi, pairs = lo + 1, sizes[lo] * n_cand
        while hi < len(sizes) and hi - lo < per_chunk and pairs + sizes[hi] * n_cand <= _STEP_CELLS:
            pairs += sizes[hi] * n_cand
            hi += 1
        yield lo, hi
        lo = hi


def _best_splits(src, sub, sizes, totals, cand, bins, width, min_leaf):
    """Best split of each node of a chunk over its candidate features, from one keyed histogram.

    The chunk's k nodes hold sizes[i] rows each, concatenated in src with
    their labels in sub; node i's labels sum to totals[i] and its candidate
    features are cand[i].  Returns per node whether it splits, the chosen
    candidate's index and split bin, and the bins of src for each candidate
    (candidates x rows).  The chosen feature is the first candidate whose
    best score is the maximum; the node splits when that score beats the
    parent's by more than 1e-12.
    """
    k, n_cand = cand.shape
    binned = np.take(bins, np.repeat(cand.T * bins.shape[1], sizes, axis=1) + src)
    # key (node, candidate, bin); each key sees its node's rows in order
    offset = (np.arange(k) * n_cand + np.arange(n_cand)[:, None]) * width
    key = (binned + np.repeat(offset, sizes, axis=1)).ravel()
    weights = np.tile(sub, n_cand)
    cells = k * n_cand * width
    cnt = np.bincount(key, minlength=cells).reshape(k, n_cand, width)
    sums = np.bincount(key, weights=weights, minlength=cells).reshape(k, n_cand, width)
    nl = np.cumsum(cnt[:, :, :-1], axis=2, dtype=np.float64)  # exact; divides faster
    sl = np.cumsum(sums[:, :, :-1], axis=2)
    nr = sizes[:, None, None] - nl
    sr = totals[:, None, None] - sl
    # a padded bin has all the node's rows on its left, so it fails min_leaf
    fails = (nl < min_leaf) | (nr < min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where it fails
        # sl * sl / nl + sr * sr / nr, rounded step by step as written
        score = np.multiply(sl, sl, out=sl)
        score /= nl
        sr *= sr
        sr /= nr
        score += sr
    score[fails] = -np.inf
    score = score.reshape(k, -1)
    best = score.argmax(axis=1)  # first candidate, then first bin, at the maximum
    split = score[np.arange(k), best] > totals * totals / sizes + 1e-12
    which, at = np.divmod(best, width - 1)
    return split, which, at, binned


def _pack(trees: list[dict], bias: np.ndarray, scale: float, divisor: float) -> dict:
    """One packed ensemble from trees grouped by plant, each plant's in fit order.

    The node arrays of all trees are concatenated with left children rebased
    to global indices, and ``roots`` holds each tree's first node.  A plant's
    score is (bias + scale * sum of its trees' leaf values) / divisor.
    """
    sizes = [t["feature"].size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    ens = {key: np.concatenate([t[key] for t in trees]) for key in trees[0]}
    ens["left"] = np.where(ens["left"] >= 0, ens["left"] + np.repeat(roots, sizes), -1)
    ens.update(roots=roots, bias=bias, scale=np.float64(scale), divisor=np.float64(divisor))
    return ens


def _join(parts: list[dict]) -> dict:
    """One packed ensemble from those of consecutive plant groups, in group order.

    _pack rebases each part's left children by the nodes of the parts before
    it, as it would a tree's; the parts' roots move by as much.
    """
    nodes = [{key: p[key] for key in ("feature", "threshold", "left", "value")} for p in parts]
    bias = np.concatenate([p["bias"] for p in parts])
    ens = _pack(nodes, bias, parts[0]["scale"], parts[0]["divisor"])
    ens["roots"] = np.concatenate([p["roots"] + start for p, start in zip(parts, ens["roots"])])
    return ens


# Rows per walk are capped so that about this many (tree, row) pairs descend
# at once, which bounds the walk's memory on large batches.
_WALK_PAIRS = 1 << 18


def _ensemble_scores(ens: dict, xs: np.ndarray) -> np.ndarray:
    """Scores (rows x plants) of a packed ensemble, bit-identical to tree-by-tree sums.

    For a block of rows, all (tree, row) pairs descend together, one
    vectorised step per depth level, until each reaches a leaf.  With divisor
    1 (one tree per plant, or boosting) the scaled leaf values are then
    summed in tree order starting from the bias, by one np.cumsum along the
    tree axis in place, which adds strictly left to right.  Otherwise (a
    forest's mean, bias 0 and scale 1) the sum is NumPy's over the trees, the
    reduction np.mean makes, which is pairwise rather than running for a
    single row.
    """
    feature, threshold, left = ens["feature"], ens["threshold"], ens["left"]
    q, bias, trees = xs.shape[0], ens["bias"], ens["roots"].size
    leaf = np.empty((trees, q))
    rows = max(1, _WALK_PAIRS // trees)
    for i in range(0, q, rows):
        block = xs[i : i + rows]
        node = np.repeat(ens["roots"], len(block))
        live = np.flatnonzero(feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = block[live % len(block), feature[at]] <= threshold[at]
            node[live] = left[at] + ~go_left
            live = live[feature[node[live]] >= 0]
        leaf[:, i : i + rows] = ens["value"][node].reshape(trees, -1)
    leaf = leaf.reshape(bias.size, trees // bias.size, q)
    if ens["divisor"] == 1.0:
        leaf *= ens["scale"]
        leaf[:, 0] += bias[:, None]
        np.cumsum(leaf, axis=1, out=leaf)
        return np.ascontiguousarray(leaf[:, -1]).T
    return ((bias[:, None] + ens["scale"] * leaf.sum(axis=1)) / ens["divisor"]).T


# ---------------------------------------------------------------------------
# model lifecycle


@dataclass
class TrainedModel:
    kind: str
    hyperparams: dict
    mean: np.ndarray
    std: np.ndarray
    params: dict
    seed: int
    train_rows: int

    @property
    def n_plants(self) -> int:
        # the last axis of labels, intercept and bias runs over the plants
        key = {"KNN": "labels", "Linear": "intercept"}.get(self.kind, "bias")
        return self.params[key].shape[-1]


def _check_hyperparams(kind: str, hp: dict) -> dict:
    """Defaults overlaid with hp; each value takes its default's type and is positive."""
    merged = dict(DEFAULT_HYPERPARAMS[kind])
    for key, val in hp.items():
        if key not in merged:
            raise ModelError(f"unknown hyperparameter {key!r} for kind {kind}")
        merged[key] = val
    for key, val in merged.items():
        want = type(DEFAULT_HYPERPARAMS[kind][key])
        number = {bool: bool, int: numbers.Integral, float: numbers.Real}[want]
        ok = isinstance(val, number) and (want is bool or (not isinstance(val, bool) and val > 0))
        if not ok:
            what = "a bool" if want is bool else f"a positive {want.__name__}"
            raise ModelError(f"hyperparameter {key} must be {what}, got {val}")
    return merged


def _standardize(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (features - mean) / std


def fit(kind: str, train: Dataset, seed: int = 0, hyperparams: dict | None = None) -> TrainedModel:
    """Fit one regressor per plant column on standardized features."""
    if kind not in MODEL_KINDS:
        raise ModelError(f"unknown model kind {kind!r}, expected one of {', '.join(MODEL_KINDS)}")
    if train.m == 0:
        raise DataError("training set is empty")
    bad = np.flatnonzero(train.std == 0.0)
    if bad.size:
        raise DataError(f"feature column {FEATURE_NAMES[bad[0]]!r} has zero variance")
    hp = _check_hyperparams(kind, hyperparams or {})
    xs = _standardize(train.features, train.mean, train.std)
    y = train.labels
    if kind == "KNN":
        params = {"points": xs.copy(), "labels": y.copy()}
    elif kind == "Linear":
        params = _fit_linear(xs, y, hp["ridge_lambda"])
    else:
        bins, edges = _binned(xs)
        grow = {
            "DecisionTree": lambda part: _fit_decision_tree(bins, edges, part, hp),
            "RandomForest": lambda part: _fit_forest(bins, edges, part, hp, seed),
            "GradientBoost": lambda part: _fit_gradient_boost(bins, edges, part, hp),
        }[kind]
        # rows x plants x trees per plant (a forest's trees, boosting's rounds, or one)
        small = train.m * y.shape[1] * hp.get("trees", hp.get("rounds", 1)) < _FORK_WORK
        parts = np.array_split(y, max(1, min(1 if small else _cpus(), y.shape[1])), axis=1)
        params = _join(_in_workers(grow, parts))
    return TrainedModel(
        kind=kind,
        hyperparams=hp,
        mean=train.mean.copy(),
        std=train.std.copy(),
        params=params,
        seed=seed,
        train_rows=train.m,
    )


def _fit_linear(xs: np.ndarray, y: np.ndarray, lam: float) -> dict:
    # ridge on the weights only, intercept unregularized, via normal equations
    m, f = xs.shape
    a = np.hstack([xs, np.ones((m, 1))])
    gram = a.T @ a
    gram[np.arange(f), np.arange(f)] += lam
    coef = np.linalg.solve(gram, a.T @ y)
    return {"weights": coef[:f], "intercept": coef[f]}


def _fit_decision_tree(bins: np.ndarray, edges: list, y: np.ndarray, hp: dict) -> dict:
    n_plants = y.shape[1]
    labels = [y[:, j] for j in range(n_plants)]
    rows = [np.arange(y.shape[0])] * n_plants
    trees = _grow_trees(bins, edges, labels, rows, hp["max_depth"], hp["min_leaf"])
    return _pack(trees, np.zeros(n_plants), 1.0, 1.0)


class _CandidateSets:
    """The feature sets that successive rng.choice(pop, size, replace=False) calls draw.

    row(r) equals np.sort(rng.choice(pop, size, replace=False)) on the
    (r+1)-th such call from the generator's state at construction, as uint8,
    and row of an index array those rows; a row once drawn is the same
    whichever caller asks for it first.

    For pop <= 10000 NumPy samples without replacement by Floyd's algorithm
    (Bentley & Floyd, CACM 1987): for j = pop-size .. pop-1 it draws v in
    [0, j] and takes v, or j when v is already taken.  It then shuffles the
    sample (Fisher-Yates) with draws in [0, i] for i = size-1 .. 1, made and
    discarded here, since the rows are sorted.  Given those bounds as an
    array, rng.integers makes the same draws in the same order.
    """

    def __init__(self, rng: np.random.Generator, pop: int, size: int) -> None:
        # uint8 rows; NumPy takes Floyd's branch for every pop up to 10000
        if not 1 <= size < pop <= 256:
            raise ValueError(f"decodes Floyd's branch for 1 <= size < pop <= 256, not {size}, {pop}")
        self.rng, self.pop, self.size = rng, pop, size
        # one call's exclusive bounds: Floyd's, then the shuffle's
        self.bounds = np.r_[pop - size + 1 : pop + 1, size:1:-1]
        self.sets = np.empty((0, size), np.uint8)

    def row(self, r: int | np.ndarray) -> np.ndarray:
        need = int(np.max(r)) + 1 - len(self.sets)
        if need > 0:
            # drawing ahead is safe only while nothing else draws from rng
            # once the sets start, as in a forest's tree-index substream
            n = max(64, len(self.sets), need)
            picked = self.rng.integers(0, np.tile(self.bounds, n)).reshape(n, -1)[:, : self.size]
            for c in range(1, self.size):
                taken = (picked[:, :c] == picked[:, c, None]).any(axis=1)
                picked[:, c] = np.where(taken, self.pop - self.size + c, picked[:, c])
            self.sets = np.concatenate([self.sets, np.sort(picked, axis=1).astype(np.uint8)])
        return self.sets[r]


# A forest grows its trees in groups of whole tree indices, every plant's
# tree of each, whose bootstrap samples hold at most this many rows together
# (or one tree index's), which bounds the rows in flight.
_FOREST_ROWS = 1 << 16


def _fit_forest(bins: np.ndarray, edges: list, y: np.ndarray, hp: dict, seed: int) -> dict:
    m, n_plants = y.shape
    n_sub, n_features = hp["feature_subsample"], bins.shape[0]
    seeds = np.random.SeedSequence(seed).spawn(hp["trees"])
    per_group = max(1, _FOREST_ROWS // (m * n_plants))
    trees = []  # tree-major
    for first in range(0, hp["trees"], per_group):
        rows, cands = [], []
        for child in seeds[first : first + per_group]:
            # one substream per tree index, identical for every plant
            rng = np.random.default_rng(child)
            boot = rng.integers(0, m, size=m) if hp["bootstrap"] else np.arange(m)
            rows += [boot.astype(np.int32)] * n_plants  # int32 halves the rows in flight
            if n_sub < n_features:
                cands += [_CandidateSets(rng, n_features, n_sub)] * n_plants
        labels = [y[:, j] for j in range(n_plants)] * (len(rows) // n_plants)
        trees += _grow_trees(bins, edges, labels, rows, hp["max_depth"], 1, cands=cands or None)
    plant_major = [trees[t * n_plants + j] for j in range(n_plants) for t in range(hp["trees"])]
    return _pack(plant_major, np.zeros(n_plants), 1.0, hp["trees"])


def _fit_gradient_boost(bins: np.ndarray, edges: list, y: np.ndarray, hp: dict) -> dict:
    lr = hp["learning_rate"]
    m, n_plants = y.shape
    # contiguous copies keep the fit bit-identical under column permutation
    cols = [np.ascontiguousarray(y[:, j]) for j in range(n_plants)]
    init = np.array([col.mean() for col in cols])
    residual = np.array(cols) - init[:, None]
    step = np.empty((n_plants, m))
    rows = [np.arange(m)] * n_plants
    rounds = []  # the plants' trees of one round grow together
    for _ in range(hp["rounds"]):
        labels, out = list(residual), list(step)
        rounds.append(_grow_trees(bins, edges, labels, rows, hp["tree_depth"], 1, train_out=out))
        residual = residual - lr * step
    return _pack([grown[j] for j in range(n_plants) for grown in rounds], init, lr, 1.0)


# A tree fit forks only from this much work: below it the fork, the pickled
# reply and the copy-on-write faults after it cost more than a child saves.
_FORK_WORK = 100_000


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _in_workers(grow, parts: list) -> list:
    """[grow(part) for part in parts]: the first inline, every other in a forked child.

    A child sends back its result, or the exception it raised, as one pickle
    over a pipe (_child).  The parent grows the first part meanwhile, then
    reads each pipe to its end and reaps its child, in order.  It re-raises a
    child's exception; a child that ends without a result (killed, or its
    reply would not pickle) raises ChildProcessError.  However the call ends,
    a KeyboardInterrupt included, it kills and reaps every child it has not
    reaped, so none outlives it.
    """
    children = {}  # pid: the read end of its pipe
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(grow, part, r, w)
            os.close(w)
            children[pid] = open(r, "rb")
        out = [grow(parts[0])]
        for pid in list(children):
            reply = children[pid].read()
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"tree worker {pid} ended without a result (exit status {code})")
            ok, result = pickle.loads(reply)
            if not ok:
                raise result
            out.append(result)
        return out
    finally:
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _child(grow, part, r: int, w: int):
    """In a forked child: send (True, grow(part)) or (False, its exception) down w, then exit.

    The child leaves only through os._exit, never back into its caller's
    frames, atexit handlers or stdio buffers; its status is 0 only once the
    whole reply is written.  grow must make no BLAS call, since a forked
    child has none of its parent's BLAS threads; tree growth makes none.
    """
    status = 1
    try:
        os.close(r)
        try:
            reply = (True, grow(part))
        except BaseException as exc:
            reply = (False, exc)
        with open(w, "wb") as pipe:
            pickle.dump(reply, pipe, protocol=5)
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# prediction


def predict_matrix(model: TrainedModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous scores and rounded ratings for a raw feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(FEATURE_NAMES):
        raise DataError(f"features must be q x {len(FEATURE_NAMES)}, got {features.shape}")
    xs = _standardize(features, model.mean, model.std)
    if model.kind == "KNN":
        scores = _knn_scores(xs, model.params, model.hyperparams["k"])
    elif model.kind == "Linear":
        scores = xs @ model.params["weights"] + model.params["intercept"]
    else:
        scores = _ensemble_scores(model.params, xs)
    return scores, to_ratings(scores)


def _knn_scores(xs: np.ndarray, params: dict, k: int) -> np.ndarray:
    points, labels = params["points"], params["labels"]
    k = min(k, points.shape[0])
    d2 = (
        np.sum(xs * xs, axis=1)[:, None]
        - 2.0 * xs @ points.T
        + np.sum(points * points, axis=1)[None, :]
    )
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    return labels[nearest].mean(axis=1)


def predict(model: TrainedModel, soil: SoilProfile) -> tuple[np.ndarray, np.ndarray]:
    """Scores and rounded ratings (each length n_plants) for one soil."""
    scores, rounded = predict_matrix(model, soil.as_array()[None, :])
    return scores[0], rounded[0]


def evaluate(model: TrainedModel, test: Dataset) -> tuple[float, float]:
    """Cell-wise exact-match accuracy of rounded ratings, and MSE of scores."""
    if test.m == 0:
        raise DataError("test set is empty")
    scores, rounded = predict_matrix(model, test.features)
    accuracy = float(np.mean(rounded == test.labels))
    mse = float(np.mean((scores - test.labels) ** 2))
    return accuracy, mse


def recommend_top_n(model: TrainedModel, soil: SoilProfile, n: int) -> list[tuple[int, float]]:
    """Top-n plants by continuous score, ties broken by lower plant index."""
    plants = model.n_plants
    if not 1 <= n <= plants:
        raise ModelError(f"n must be in 1..{plants}, got {n}")
    scores, _ = predict(model, soil)
    order = np.lexsort((np.arange(plants), -scores))
    return [(int(j), float(scores[j])) for j in order[:n]]


# ---------------------------------------------------------------------------
# persistence

# Each array a file stores, by model family, as its shape: a named
# dimension must agree across the family's arrays and be positive.  A tree
# ensemble's scale and divisor are 0-d.
_SHAPES = {
    "KNN": {"points": ("rows", len(FEATURE_NAMES)), "labels": ("rows", "plants")},
    "Linear": {"weights": (len(FEATURE_NAMES), "plants"), "intercept": ("plants",)},
    "ensemble": {
        **dict.fromkeys(("feature", "threshold", "left", "value"), ("nodes",)),
        "roots": ("trees",),
        "bias": ("plants",),
        "scale": (),
        "divisor": (),
    },
}
_INT_ARRAYS = ("feature", "left", "roots")


def _dtype(key: str) -> str:
    """The little-endian dtype an array is stored and held in: 8-byte ints or floats."""
    return "<i8" if key in _INT_ARRAYS else "<f8"


def _layout(kind: str) -> dict:
    """The arrays a file of this kind stores, in file order, each with its shape."""
    family = kind if kind in ("KNN", "Linear") else "ensemble"
    return {**dict.fromkeys(("mean", "std"), (len(FEATURE_NAMES),)), **_SHAPES[family]}


def save_model(model: TrainedModel, path: str | Path) -> None:
    """A JSON header line, then the arrays' raw bytes; load_model(save_model(m)) predicts identically.

    The header holds the format, kind, hyperparameters, seed, training rows
    and each array's dtype and shape, in file order.  Spaces pad its line,
    newline included, to a multiple of 8 bytes, and the arrays' little-endian
    bytes follow it back to back, each in C order.  The file is written to a
    sibling temporary file that then replaces ``path``, so a reader never
    sees a partly written model.
    """
    values = {"mean": model.mean, "std": model.std, **model.params}
    arrays = {key: np.asarray(values[key], dtype=_dtype(key)) for key in _layout(model.kind)}
    header = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "hyperparams": model.hyperparams,
        "seed": model.seed,
        "train_rows": model.train_rows,
        "arrays": {key: {"dtype": _dtype(key), "shape": list(a.shape)} for key, a in arrays.items()},
    }
    line = json.dumps(header, separators=(",", ":")).encode("utf-8")
    line += b" " * (-(len(line) + 1) % 8) + b"\n"
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(line)
            for arr in arrays.values():
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _require(ok, what: str) -> None:
    if not ok:
        raise ModelError(f"malformed model file: {what}")


def _read_arrays(entries, shapes: dict, buf: bytes, start: int) -> dict:
    """The arrays that the header's entries declare, as read-only views of buf from start.

    Every entry's dtype and shape are checked first, in file order; then the
    declared sizes must add up to the bytes after the header, before any
    array is made; last, each array must be finite.
    """
    names = ", ".join(shapes)
    ok = isinstance(entries, dict) and list(entries) == list(shapes)
    _require(ok, f"'arrays' must be {names}, in that order")
    sizes, counts = {}, []
    for key, shape in shapes.items():
        entry, dtype, n = entries[key], _dtype(key), len(shape)
        _require(isinstance(entry, dict), f"{key!r} is not a {{dtype, shape}} object")
        _require(entry.get("dtype") == dtype, f"{key!r} dtype is not {dtype!r}")
        dims = entry.get("shape")
        ok = isinstance(dims, list) and len(dims) == n and all(type(d) is int for d in dims)
        _require(ok, f"{key!r} shape is not a list of {n} ints")
        for dim, size in zip(shape, dims):
            want = dim if isinstance(dim, int) else sizes.setdefault(dim, size)
            _require(size == want and size > 0, f"{key!r} has {size} {dim}, expected {want}")
        counts.append(math.prod(dims))
    want = 8 * sum(counts)
    _require(len(buf) - start == want, f"payload holds {len(buf) - start} bytes, expected {want}")
    out = {}
    for key, count in zip(shapes, counts):
        arr = np.frombuffer(buf, _dtype(key), count, start).reshape(entries[key]["shape"])
        _require(np.isfinite(arr).all(), f"{key!r} is not finite")
        out[key] = arr
        start += 8 * count
    return out


def _check_ensemble(p: dict) -> None:
    """Every walk from a root ends at a leaf of the same tree, in bounds."""
    feature, roots, nodes = p["feature"], p["roots"], p["feature"].size
    _require(roots.size % p["bias"].size == 0, "trees do not divide evenly among plants")
    _require(roots[0] == 0 and (np.diff(roots) > 0).all() and roots[-1] < nodes, "bad 'roots'")
    _require(((feature >= -1) & (feature < len(FEATURE_NAMES))).all(), "feature out of range")
    # a leaf's left is -1; any other node's children, left and left + 1,
    # lie after it, inside its tree (left + 1 could wrap, tree_end - 1 cannot)
    tree_end = np.repeat(np.append(roots[1:], nodes), np.diff(np.append(roots, nodes)))
    left, leaf = p["left"], feature == -1
    ok = leaf & (left == -1) | ~leaf & (np.arange(nodes) < left) & (left < tree_end - 1)
    _require(ok.all(), f"'left' child of node {np.argmin(ok)} is out of place")
    divisor = p["divisor"]
    _require(divisor > 0, "'divisor' must be positive")
    # every score is finite: none exceeds the largest |bias| plus |scale| times
    # the trees per plant times the largest |value|, over the divisor, and a
    # factor of 2 covers the rounding of any order of summation
    with np.errstate(over="ignore"):
        trees = roots.size // p["bias"].size
        top = np.abs(p["bias"]).max() + np.abs(p["scale"]) * trees * np.abs(p["value"]).max()
        bound = 2 * max(top, top / divisor)
    _require(np.isfinite(bound), "scores can overflow")


def load_model(path: str | Path) -> TrainedModel:
    """Read a save_model file; anything malformed raises ModelError."""
    buf = Path(path).read_bytes()
    # the header is the first line (JSON text holds no raw newline), or a
    # whole file that has no newline
    start = buf.find(b"\n") + 1 or len(buf)
    try:
        header = json.loads(buf[:start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelError(f"malformed model file {path}: {exc}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != MODEL_FORMAT:
        raise ModelError(f"unsupported model format {fmt!r}, expected {MODEL_FORMAT!r}")
    for key in ("kind", "hyperparams", "seed", "train_rows", "arrays"):
        _require(key in header, f"missing {key!r}")
    kind = header["kind"]
    if kind not in MODEL_KINDS:
        raise ModelError(f"unknown model kind {kind!r} in file")
    _require(isinstance(header["hyperparams"], dict), "'hyperparams' is not an object")
    for key, low in (("seed", 0), ("train_rows", 1)):
        val = header[key]  # an exact type check, since bool subclasses int
        _require(type(val) is int and val >= low, f"{key!r} must be an int >= {low}, got {val!r}")
    params = _read_arrays(header["arrays"], _layout(kind), buf, start)
    mean, std = params.pop("mean"), params.pop("std")
    _require((std > 0).all(), "scaling 'std' must be positive")
    if kind not in ("KNN", "Linear"):
        _check_ensemble(params)
    return TrainedModel(
        kind=kind,
        hyperparams=_check_hyperparams(kind, header["hyperparams"]),
        mean=mean,
        std=std,
        params=params,
        seed=header["seed"],
        train_rows=header["train_rows"],
    )
