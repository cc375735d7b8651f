"""From-scratch regressors mapping soil features to per-plant ratings.

Five model kinds share one lifecycle: standardize features with the
training-set scaling, fit one independent regressor per plant column,
predict continuous scores, then round and clamp to ratings in 1..5.
Trees number their nodes in level order, as they grow: by depth, then by
the parent's number, the left child before the right.  A RandomForest
draws one substream per tree index t from the master seed, shared by every
plant column: its bootstrap rows, then in one call an index into the table
of feature subsets for each node that may split, as many as a tree of its
rows and depth can have.  Tree t's r-th such node, in level order, searches
the subset of the r-th draw.  So permuting label columns permutes
predictions and nothing else.  The forest grows in groups of whole tree
indices, each with all its plant trees, a level at a time, so a tree
index's rows and draws are made once and dropped with its group.

A tree fit of enough work (_FORK_WORK) splits its plant columns into
consecutive groups, one per CPU the process may run on and at most one per
plant.  The caller grows the first group; every other group grows in a
forked child process, which sends its packed trees back over a pipe
(_in_workers), and the groups' ensembles are joined in plant order.  A
plant's trees depend only on its own column, and a forest's also on the
tree indices' seeds, which every group draws from afresh, so a model's
bytes are the same on any number of CPUs.  A fit run as one task of a
shared _in_workers call (a benchmark sweep's cell) grows in its own
process: the CPUs are already shared among the tasks.
"""

from __future__ import annotations

import itertools
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
    cands: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    train_out: list[np.ndarray] | None = None,
) -> list[dict]:
    """Greedy variance-reduction regression trees over binned features, grown a level at a time.

    Tree t fits labels[t] on the training rows rows[t] (repeats allowed),
    with at least min_leaf >= 1 rows per leaf.  Returns parallel node arrays
    per tree, its nodes numbered in level order: by depth, then by the
    parent's number, the left child before the right.  Internal nodes hold
    a feature index, a threshold and a left child (x <= threshold goes to
    left, else to left + 1), leaves hold feature and left -1.  A node may
    split when its depth is below max_depth and it holds at least
    2 * min_leaf rows.  With cands = (table, draws, owner), tree t's r-th
    node that may split, in level order, searches the features
    table[draws[owner[t], r]]; without, every feature.  With train_out, each
    leaf value is scattered to train_out[t] at its rows.

    Nodes are settled as they are made, a block (one level of every tree)
    at a time: their totals and values, their numbers, and whether they are
    leaves without a search (unable to split, or pure, below).  The others
    are the next batch, as in XGBoost's depth-wise growth, with their trees,
    numbers, sizes and totals as arrays and their rows and labels
    concatenated.  A batch is scored in chunks, one comparison per chunk
    sends each row to its node's side, and one gather moves every side's
    rows and labels into the children.  A node's rows thus stay in position
    order, so each bin adds the same values in the same order as a bincount
    per node and feature would.  A child's place is twice its parent's
    number, one more for a right child, and one lexsort of a block by tree,
    then place, numbers its nodes and ranks those that may split.

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
    n_cand = cands[0].shape[1] if cands else n_features
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
    # per tree, its nodes numbered so far, and of those the ones that may split
    n_made, n_ranked = np.zeros(n_trees, dtype=np.intp), np.zeros(n_trees, dtype=np.intp)

    # the nodes the last step made, all at one depth, as one block (trees,
    # sizes, places, rows, labels)
    sizes = np.array([r.size for r in rows])
    subs = [y[r] for y, r in zip(labels, rows)]
    places = np.zeros(n_trees, dtype=np.intp)
    made = (np.arange(n_trees), sizes, places, np.concatenate(rows), np.concatenate(subs))
    nodes = []  # (trees, numbers, places, values) of every block
    # (trees, numbers, features, bins) of the nodes that split; an empty
    # first part, for a batch of trees none of which split
    splits = [(np.empty(0, dtype=np.intp),) * 4]
    for depth in itertools.count():
        # settle the new nodes: their values, numbers, and which are leaves unsearched
        tree, sizes, place, src, labs = made
        ends = sizes.cumsum()
        starts = ends - sizes
        if exact:
            totals = np.add.reduceat(labs, starts)
        else:
            totals = np.array([float(labs[a:b].sum()) for a, b in zip(starts.tolist(), ends.tolist())])
        values = totals / sizes
        by = np.lexsort((place, tree))
        num = _number(by, tree, n_made)
        nodes.append((tree, num, place, values))
        grow = may = (depth < max_depth) & (sizes >= 2 * min_leaf)
        if exact:  # pure nodes are leaves
            grow = may & (np.minimum.reduceat(labs, starts) != np.maximum.reduceat(labs, starts))
        if train_out is not None and not grow.all():
            _scatter(train_out, ~grow, tree, starts, src, sizes, values)
        if not grow.any():
            break
        # the batch: every node that grows, with its candidate features
        if cands:
            table, draws, owner = cands
            rank = _number(by[may[by]], tree, n_ranked)
            cand = table[draws[owner[tree[grow]], rank[grow]]].astype(np.intp)
        else:
            cand = np.broadcast_to(all_features, (np.count_nonzero(grow), n_features))
        keep = np.repeat(grow, sizes)
        tree, num, sizes, totals = (x[grow] for x in (tree, num, sizes, totals))
        src, labs = src[keep], labs[keep]
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
        splits.append((tree[s], num[s], cand[s, which[s]], at[s]))
        # the children, right ones first, each with its rows and labels in position order
        n_left = np.add.reduceat(left, starts, dtype=np.intp)[s]
        order = np.concatenate([right.nonzero()[0], left.nonzero()[0]])
        size = np.concatenate([sizes[s] - n_left, n_left])
        t = np.concatenate([tree[s], tree[s]])
        place = np.concatenate([2 * num[s] + 1, 2 * num[s]])
        made = (t, size, place, src.take(order), labs.take(order))

    # every tree's nodes, by number, from its own offset
    first = np.r_[0, n_made.cumsum()]
    tree, num, place, value = (np.concatenate(x) for x in zip(*nodes))
    t, k, f, b = (np.concatenate(x) for x in zip(*splits))
    n = first[-1]
    out = dict(feature=np.full(n, -1), threshold=np.zeros(n), left=np.full(n, -1), value=np.empty(n))
    out["value"][first[tree] + num] = value
    out["feature"][first[t] + k] = f
    out["threshold"][first[t] + k] = thresholds[f, b]
    # a left child's place is twice its parent's number; the roots, at place 0, come first
    child = np.flatnonzero(place % 2 == 0)[n_trees:]
    out["left"][first[tree[child]] + place[child] // 2] = num[child]
    return [{key: arr[lo:hi] for key, arr in out.items()} for lo, hi in zip(first, first[1:])]


def _number(order: np.ndarray, tree: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Order's nodes (sorted by tree) numbered in turn per tree, from counts[tree]; counts advance."""
    t = tree[order]
    out = np.empty(tree.size, dtype=np.intp)
    out[order] = counts[t] + np.arange(t.size) - np.searchsorted(t, t)
    counts += np.bincount(t, minlength=counts.size)
    return out


def _scatter(train_out, leaves, tree, starts, src, sizes, values) -> None:
    """Each leaf's value to train_out[its tree] at the leaf's rows of src, leaf by leaf."""
    for t, a, n, v in zip(*(x[leaves].tolist() for x in (tree, starts, sizes, values))):
        train_out[t][src[a : a + n]] = v


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
        alone = _sharing or _fit_work(hp, train) < _FORK_WORK
        parts = np.array_split(y, max(1, min(1 if alone else _cpus(), y.shape[1])), axis=1)
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


# A forest grows its trees in groups of whole tree indices, every plant's
# tree of each, whose bootstrap samples hold at most this many rows together
# (or one tree index's), which bounds the rows in flight.
_FOREST_ROWS = 1 << 16


def _fit_forest(bins: np.ndarray, edges: list, y: np.ndarray, hp: dict, seed: int) -> dict:
    m, n_plants = y.shape
    n_features = bins.shape[0]
    # the feature subsets a node may search: each tree index draws one per node that may split
    size = min(hp["feature_subsample"], n_features)
    table = np.array(list(itertools.combinations(range(n_features), size)), dtype=np.uint8)
    # a tree has at most 2**max_depth - 1 nodes that may split, and at most
    # 3m/2: at most m - 1 split, and each other one holds 2 rows or more
    n_draws = min(3 * m // 2, 2 ** min(hp["max_depth"], m.bit_length() + 1) - 1)
    seeds = np.random.SeedSequence(seed).spawn(hp["trees"])
    per_group = max(1, _FOREST_ROWS // (m * n_plants))
    trees = []  # tree-major
    for first in range(0, hp["trees"], per_group):
        rows, draws = [], []
        for child in seeds[first : first + per_group]:
            # one substream per tree index, identical for every plant
            rng = np.random.default_rng(child)
            boot = rng.integers(0, m, size=m) if hp["bootstrap"] else np.arange(m)
            rows += [boot.astype(np.int32)] * n_plants  # int32 halves the rows in flight
            draws.append(rng.integers(0, len(table), size=n_draws))
        labels = [y[:, j] for j in range(n_plants)] * len(draws)
        owner = np.repeat(np.arange(len(draws)), n_plants)
        cands = (table, np.array(draws), owner)
        trees += _grow_trees(bins, edges, labels, rows, hp["max_depth"], 1, cands=cands)
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


def _fit_work(hp: dict, train: Dataset) -> int:
    """A tree fit's work: rows x plants x trees per plant (a forest's trees, boosting's rounds or 1)."""
    return train.m * train.n_plants * hp.get("trees", hp.get("rounds", 1))


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


# Whether this process runs tasks of an _in_workers call that shares them
# among processes, as its caller or as a forked child.  A fit then grows in
# its own process, since every CPU already has a task.
_sharing = False


def _in_workers(run, tasks: list) -> list:
    """[run(task) for task in tasks], shared among one process per CPU, at most one per task.

    The caller is worker 0; every other worker is a child made with
    os.fork().  Worker w first runs task w, then every worker takes the next
    task left, in order, from one _Queue whenever it finishes one (Graham's
    list scheduling), so tasks given largest first even out the workers'
    loads.  A child sends back its results, or the exception it raised, as
    one pickle over a pipe (_child).  Once its own share is done, the caller
    reads each pipe to its end and reaps its child, in fork order.  It
    re-raises a child's exception; a child that ends without a result
    (killed, or its reply would not pickle) raises ChildProcessError.
    However the call ends, a KeyboardInterrupt included, it kills and reaps
    every child it has not reaped, so none outlives it.
    """
    global _sharing
    workers = min(_cpus(), len(tasks))
    if workers < 2:
        return [run(task) for task in tasks]
    out = [None] * len(tasks)
    queue = _Queue(len(tasks), workers)
    children = {}  # pid: the read end of its pipe
    try:
        _sharing = True
        for first in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(run, tasks, first, queue, r, w)
            os.close(w)
            children[pid] = open(r, "rb")
        for i, result in _share(run, tasks, 0, queue):
            out[i] = result
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
            for i, value in result:
                out[i] = value
        return out
    finally:
        _sharing = False
        queue.close()
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _share(run, tasks: list, first: int, queue: _Queue):
    """(i, run(tasks[i])) for i = first, then for each task number taken from queue."""
    i = first
    while i is not None:
        yield i, run(tasks[i])
        i = queue.take()


# A _Queue's pipe holds task numbers as int32, written at most 512 bytes
# (POSIX's least PIPE_BUF) at a time, so that each write is atomic.
_NUMBER = np.dtype(np.int32)
_PER_WRITE = 512 // _NUMBER.itemsize


class _Queue:
    """The task numbers from workers to tasks - 1, taken in turn by forked workers over a pipe.

    The process that makes the queue writes the numbers without blocking, in
    atomic writes of whole numbers: each lands whole or not at all, so a
    read of one number's bytes always takes one whole number, and a full
    pipe never blocks the writer.  What does not fit yet is written each
    time that process takes a number itself.  While some is left unwritten,
    it takes the first unwritten number instead of reading, since the
    children could empty the pipe before its read and leave it waiting for
    its own writes.  Once every number is written it closes its write end;
    children close theirs on start (leave), so a read that finds the pipe
    empty means every number is taken.
    """

    def __init__(self, tasks: int, workers: int) -> None:
        self._r, self._w = os.pipe()
        os.set_blocking(self._w, False)
        self._next, self._end = workers, tasks
        self._fill()

    def _fill(self) -> None:
        while self._next < self._end:
            chunk = np.arange(self._next, min(self._end, self._next + _PER_WRITE), dtype=_NUMBER)
            try:
                os.write(self._w, chunk)
            except BlockingIOError:
                return
            self._next += chunk.size
        self.leave()

    def take(self) -> int | None:
        """The next task number, or None once every one is taken."""
        if self._w is not None:
            self._fill()
            if self._w is not None:  # no room in the pipe: take the first unwritten number
                self._next += 1
                if self._next == self._end:
                    self.leave()
                return self._next - 1
        record = os.read(self._r, _NUMBER.itemsize)
        return int(np.frombuffer(record, _NUMBER)[0]) if record else None

    def leave(self) -> None:
        """Close this process's write end: it writes no more numbers."""
        if self._w is not None:
            os.close(self._w)
            self._w = None

    def close(self) -> None:
        self.leave()
        os.close(self._r)


def _child(run, tasks: list, first: int, queue: _Queue, r: int, w: int):
    """In a forked child: send (True, its [(i, result)]) or (False, its exception) down w, then exit.

    The child runs task first, then those it takes from queue (_share).  It
    leaves only through os._exit, never back into its caller's frames,
    atexit handlers or stdio buffers; its status is 0 only once the whole
    reply is written.  run must make no BLAS call, since a forked child has
    none of its parent's BLAS threads; tree growth and tree prediction make
    none.
    """
    status = 1
    try:
        os.close(r)
        queue.leave()
        try:
            reply = (True, list(_share(run, tasks, first, queue)))
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
