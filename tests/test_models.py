"""Per-plant regressors: fitting, prediction, persistence, ranking."""

import base64
import collections
import hashlib
import itertools
import json
import math
import os
import re
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microfarm import bench, cli, models
from microfarm.models import (
    DEFAULT_HYPERPARAMS,
    MODEL_KINDS,
    DataError,
    Dataset,
    ModelError,
    dataset_from_soils,
    evaluate,
    fit,
    load_model,
    predict,
    predict_matrix,
    recommend_top_n,
    save_model,
    split,
)
from microfarm.ratings import SoilProfile, generate_dataset


def _dataset(m=60, seed=0):
    soils, truth = generate_dataset(m, seed=seed)
    return dataset_from_soils(soils, truth)


def _soil():
    return SoilProfile(40.0, 50.0, 60.0, 21.0, 6.5)


def test_split_sizes_and_partition():
    data = _dataset(47)
    train, test = split(data, seed=1)
    assert test.m == round(0.2 * 47)
    assert train.m + test.m == 47
    stacked = np.vstack([train.features, test.features])
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, data.features))


def test_split_requires_minimum_rows():
    with pytest.raises(DataError):
        split(_dataset(4))


def test_split_deterministic_per_seed():
    data = _dataset(30)
    a_train, _ = split(data, seed=5)
    b_train, _ = split(data, seed=5)
    c_train, _ = split(data, seed=6)
    assert (a_train.features == b_train.features).all()
    assert not (a_train.features == c_train.features).all()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_constant_labels_reproduced(kind):
    data = _dataset(40)
    const = Dataset(features=data.features, labels=np.full_like(data.labels, 4))
    model = fit(kind, const, seed=0)
    _, rounded = predict(model, _soil())
    assert (rounded == 4).all()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rounded_predictions_in_range(kind):
    train, test = split(_dataset(80), seed=2)
    model = fit(kind, train, seed=2)
    _, rounded = predict_matrix(model, test.features)
    assert rounded.min() >= 1 and rounded.max() <= 5


@pytest.mark.parametrize("kind", ("RandomForest", "GradientBoost"))
def test_seeded_fits_are_identical(kind):
    train, test = split(_dataset(60), seed=3)
    a = fit(kind, train, seed=9)
    b = fit(kind, train, seed=9)
    sa, _ = predict_matrix(a, test.features)
    sb, _ = predict_matrix(b, test.features)
    assert (sa == sb).all()


def test_plant_columns_are_independent():
    train, test = split(_dataset(50), seed=4)
    perm = np.random.default_rng(0).permutation(train.labels.shape[1])
    permuted = Dataset(features=train.features, labels=train.labels[:, perm])
    # every plant's trees grow in one shared histogram, so a leak would show
    for kind in ("DecisionTree", "RandomForest", "GradientBoost"):
        base = fit(kind, train, seed=7)
        swapped = fit(kind, permuted, seed=7)
        sa, _ = predict_matrix(base, test.features)
        sb, _ = predict_matrix(swapped, test.features)
        assert np.array_equal(sa[:, perm], sb), kind


def test_knn_feature_scaling_invariance():
    train, test = split(_dataset(50), seed=5)
    scale = np.array([10.0, 1.0, 1.0, 1.0, 1.0])
    scaled_train = Dataset(features=train.features * scale, labels=train.labels)
    a = fit("KNN", train, seed=0)
    b = fit("KNN", scaled_train, seed=0)
    sa, _ = predict_matrix(a, test.features)
    sb, _ = predict_matrix(b, test.features * scale)
    assert np.allclose(sa, sb)


def test_evaluate_perfect_on_memorizable_data():
    data = _dataset(30)
    model = fit("DecisionTree", data, seed=0, hyperparams={"max_depth": 30, "min_leaf": 1})
    accuracy, mse = evaluate(model, data)
    assert accuracy == 1.0
    assert mse < 0.25


def test_evaluate_rejects_empty_test():
    data = _dataset(20)
    model = fit("Linear", data)
    empty = Dataset(features=data.features[:0], labels=data.labels[:0])
    with pytest.raises(DataError):
        evaluate(model, empty)


def test_unknown_kind_rejected():
    with pytest.raises(ModelError, match="KNN, Linear, DecisionTree"):
        fit("SVM", _dataset(20))


def test_unknown_hyperparams_rejected():
    with pytest.raises(ModelError):
        fit("KNN", _dataset(20), hyperparams={"neighbors": 3})


@pytest.mark.parametrize("k", (2.5, True, "3", 0))
def test_hyperparams_take_the_default_type_and_are_positive(k):
    with pytest.raises(ModelError, match="k must be a positive int"):
        fit("KNN", _dataset(20), hyperparams={"k": k})


def test_default_hyperparams_recorded():
    model = fit("KNN", _dataset(20))
    assert model.hyperparams == DEFAULT_HYPERPARAMS["KNN"]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_save_load_round_trip_predictions(kind, tmp_path):
    train, test = split(_dataset(40), seed=6)
    model = fit(kind, train, seed=6)
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    sa, ra = predict_matrix(model, test.features)
    sb, rb = predict_matrix(restored, test.features)
    assert (sa == sb).all()
    assert (ra == rb).all()


def test_load_rejects_other_documents(tmp_path):
    path = tmp_path / "not_model.json"
    path.write_text('{"format": "something-else/9"}', encoding="utf-8")
    with pytest.raises(ModelError):
        load_model(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "not a seed"),
        ("seed", -1),
        ("seed", True),
        ("seed", 1.0),
        ("train_rows", [1, 2]),
        ("train_rows", 0),
        ("train_rows", None),
    ],
)
def test_load_rejects_bad_seed_and_train_rows(key, value, tmp_path):
    path = tmp_path / "model.json"
    save_model(fit("Linear", _dataset(40), seed=0), path)
    header, payload = _split(path.read_bytes())
    header[key] = value
    path.write_bytes(_joined(header, payload))
    with pytest.raises(ModelError, match=f"'{key}' must be an int"):
        load_model(path)


def test_recommend_returns_sorted_scores():
    model = fit("RandomForest", _dataset(60), seed=1)
    top = recommend_top_n(model, _soil(), 5)
    scores = [s for _, s in top]
    assert scores == sorted(scores, reverse=True)
    assert len(top) == 5


def test_recommend_all_plants_is_permutation():
    model = fit("KNN", _dataset(40), seed=2)
    top = recommend_top_n(model, _soil(), 15)
    assert sorted(j for j, _ in top) == list(range(15))


def test_recommend_ties_break_to_lower_index():
    data = _dataset(30)
    const = Dataset(features=data.features, labels=np.full_like(data.labels, 3))
    model = fit("Linear", const, seed=0)
    top = recommend_top_n(model, _soil(), 4)
    assert [j for j, _ in top] == [0, 1, 2, 3]


def test_recommend_rejects_out_of_range_n():
    model = fit("Linear", _dataset(20))
    for bad in (0, 16, -2):
        with pytest.raises(ModelError):
            recommend_top_n(model, _soil(), bad)


def _split(raw):
    """A saved file's header, and its payload as writable bytes."""
    head, _, payload = raw.partition(b"\n")
    return json.loads(head), bytearray(payload)


def _joined(header, payload):
    """The file of a header and a payload, its line padded to 8 bytes as save_model pads it."""
    line = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return line + b" " * (-(len(line) + 1) % 8) + b"\n" + bytes(payload)


def _decoded(header, payload):
    """Each array the header declares, as a writable view of its bytes in the payload."""
    arrays, at = {}, 0
    for key, entry in header["arrays"].items():
        count = math.prod(entry["shape"])
        arrays[key] = np.frombuffer(payload, entry["dtype"], count, at).reshape(entry["shape"])
        at += 8 * count
    return arrays


def _encoded(header, arrays):
    """The file of a header whose array entries follow arrays, in its order, with their bytes."""
    header["arrays"] = {k: {"dtype": a.dtype.str, "shape": list(a.shape)} for k, a in arrays.items()}
    return _joined(header, b"".join(a.tobytes() for a in arrays.values()))


def _header(edit):
    def apply(header, payload):
        edit(header)
        return _joined(header, payload)

    return apply


def _mutate(key, value):
    def apply(header, payload):
        arr = _decoded(header, payload)[key]
        arr.flat[0] = value(arr)
        return _joined(header, payload)

    return apply


def _edit(key, field, value):
    def apply(header, payload):
        entry = header["arrays"][key]
        entry[field] = value(entry)
        return _joined(header, payload)

    return apply


def _with_right(params, right):
    """params with right(params["left"]) inserted after it, in the /2 and /3 key order."""
    out = {}
    for key, val in params.items():
        out[key] = val
        if key == "left":
            out["right"] = right(val)
    return out


def _right(left):
    """The right children /2 and /3 files stored: each split node's left + 1."""
    return np.where(left >= 0, left + 1, -1)


def _json_document(fmt, header, arrays, encode):
    """The one-line JSON document of the formats before /5, each array written by encode."""
    scaling = {key: encode(arrays.pop(key)) for key in ("mean", "std")}
    doc = {
        "format": fmt,
        "kind": header["kind"],
        "hyperparams": header["hyperparams"],
        "scaling": scaling,
        "seed": header["seed"],
        "train_rows": header["train_rows"],
        "params": {key: encode(arr) for key, arr in arrays.items()},
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _base64(arr):
    """An array as /3 and /4 stored it: {dtype, shape, data}, data the base64 of its bytes."""
    data = base64.b64encode(arr.tobytes()).decode("ascii")
    return {"dtype": arr.dtype.str, "shape": list(arr.shape), "data": data}


def _as_format_4(header, payload):
    """The same model as a microfarm-model/4 document."""
    return _json_document("microfarm-model/4", header, _decoded(header, payload), _base64)


def _as_format_3(header, payload):
    """The same model in the microfarm-model/3 layout, right array included."""
    arrays = _with_right(_decoded(header, payload), _right)
    return _json_document("microfarm-model/3", header, arrays, _base64)


def _as_format_2(header, payload):
    """The same model in the microfarm-model/2 layout: nested lists, not bytes."""
    arrays = _with_right(_decoded(header, payload), _right)
    return _json_document("microfarm-model/2", header, arrays, lambda arr: arr.tolist())


def _left_at_tree_end(header, payload):
    """Node 0's left child moved to the last node of its tree, so left + 1 leaves it."""
    roots = _decoded(header, payload)["roots"]
    return _mutate("left", lambda arr: roots[1] - 1)(header, payload)


def _with_nan(header, payload):
    _decoded(header, payload)["threshold"][1] = np.nan
    return _joined(header, payload)


def _cut_in_half(key):
    """The second half of key's bytes taken out of the payload; the header unchanged."""

    def apply(header, payload):
        arrays = _decoded(header, payload)
        keys = list(arrays)
        end = sum(arrays[k].nbytes for k in keys[: keys.index(key) + 1])
        return _joined(header, payload[: end - arrays[key].nbytes // 2] + payload[end:])

    return apply


def _one_value_longer(key):
    """One more value after key's bytes in the payload; the header unchanged."""

    def apply(header, payload):
        arrays = _decoded(header, payload)
        arrays[key] = np.append(arrays[key], 1.0)
        return _joined(header, b"".join(arr.tobytes() for arr in arrays.values()))

    return apply


def _nodes(count):
    """Every node array's declared length set to count(its length); the payload unchanged."""

    def apply(header, payload):
        for key in ("feature", "threshold", "left", "value"):
            entry = header["arrays"][key]
            entry["shape"] = [count(entry["shape"][0])]
        return _joined(header, payload)

    return apply


def _out_of_order(header, payload):
    """feature and threshold swapped in the header and the payload alike, each array intact."""
    arrays = _decoded(header, payload)
    keys = list(arrays)
    i = keys.index("feature")
    keys[i : i + 2] = keys[i + 1], keys[i]
    return _encoded(header, {key: arrays[key] for key in keys})


# name -> (edit of a saved DecisionTree file, given its header and payload,
# to the bytes of the malformed file; expected error text); node 0 is the
# first tree's root, an internal node
MALFORMED = {
    "missing arrays": (_header(lambda h: h.pop("arrays")), "missing 'arrays'"),
    "child out of range": (_mutate("left", lambda arr: arr.size + 5), "'left'"),
    "self-loop child": (_mutate("left", lambda arr: 0), "'left'"),
    "left child at its tree's last node": (
        _left_at_tree_end,
        "'left' child of node 0 is out of place",
    ),
    "child whose sibling wraps": (_mutate("left", lambda arr: 2**63 - 1), "'left' child of node 0"),
    "format 1": (_header(lambda h: h.update(format="microfarm-model/1")), "microfarm-model/1"),
    "format 2": (_as_format_2, "expected 'microfarm-model/5'"),
    "format 3": (_as_format_3, "unsupported model format 'microfarm-model/3'"),
    "format 4": (_as_format_4, "unsupported model format 'microfarm-model/4'"),
    "text hyperparameter": (
        _header(lambda h: h["hyperparams"].update(max_depth="12")),
        "max_depth",
    ),
    "truncated data": (_cut_in_half("threshold"), "payload holds"),
    "wrong-length data": (_one_value_longer("threshold"), "payload holds"),
    "payload one byte short": (lambda h, p: _joined(h, p[:-1]), "payload holds"),
    "trailing bytes after the payload": (lambda h, p: _joined(h, p + b"\n"), "payload holds"),
    "arrays out of order": (_out_of_order, "'arrays' must be mean, std, feature, threshold"),
    "wrong dtype": (_edit("feature", "dtype", lambda e: "<f8"), "'feature' dtype is not '<i8'"),
    "float shape": (
        _edit("feature", "shape", lambda e: [float(e["shape"][0])]),
        "'feature' shape is not a list of 1 ints",
    ),
    "shape against bytes": (_nodes(lambda n: n + 1), "payload holds"),
    # 2**64 bytes of nodes: refused by the size check, before any array is made
    "shape whose byte count exceeds the file": (_nodes(lambda n: 2**61), "payload holds"),
    "nan threshold": (_with_nan, "'threshold' is not finite"),
    "scale that overflows the scores": (_mutate("scale", lambda arr: 1e308), "scores can overflow"),
}


def write_malformed(tmp_path, name):
    model = fit("DecisionTree", _dataset(40), seed=0)
    assert model.params["feature"][0] >= 0
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_bytes(MALFORMED[name][0](*_split(path.read_bytes())))
    return path


@pytest.mark.parametrize("name", MALFORMED)
def test_load_rejects_malformed_model(name, tmp_path):
    path = write_malformed(tmp_path, name)
    with pytest.raises(ModelError, match=MALFORMED[name][1]):
        load_model(path)


# raw file contents whose header line is not a JSON document
UNREADABLE = {
    "cut mid-header": b'{"format": "microfarm-model/5", "kind"',
    "not UTF-8": b"\xff\xfe",
    "empty": b"",
    "nested 200000 deep": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_load_names_the_file_it_cannot_parse(name, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(UNREADABLE[name])
    with pytest.raises(ModelError, match=re.escape(f"malformed model file {path}: ")):
        load_model(path)


@st.composite
def _fitted(draw):
    """A small fit of any kind, on normal features and fractional or integer labels."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(5, 30))
    labels = rng.uniform(-3.0, 5.0, size=(m, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        labels = np.round(labels)
    hp = {"RandomForest": {"trees": 3}, "GradientBoost": {"rounds": 3}}.get(kind, {})
    return fit(kind, Dataset(rng.normal(size=(m, 5)), labels), seed=m, hyperparams=hp)


@settings(max_examples=60, deadline=None)
@given(model=_fitted())
def test_save_then_load_gives_the_fitted_arrays_bit_for_bit(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("round") / "model.json"
    save_model(model, path)
    raw = path.read_bytes()
    # one JSON line padded to 8 bytes, then every array's bytes in header order
    header, payload = _split(raw)
    assert raw.index(b"\n") % 8 == 7
    fitted = {"mean": model.mean, "std": model.std, **model.params}
    assert list(header["arrays"]) == list(fitted)
    stored = (np.asarray(a, dtype=models._dtype(k)).tobytes() for k, a in fitted.items())
    assert bytes(payload) == b"".join(stored)
    restored = load_model(path)
    for field in ("kind", "hyperparams", "seed", "train_rows"):
        assert getattr(restored, field) == getattr(model, field), field
    loaded = {"mean": restored.mean, "std": restored.std, **restored.params}
    assert list(loaded) == list(fitted)
    for key, arr in loaded.items():
        want = np.asarray(fitted[key])
        assert arr.dtype == want.dtype and arr.shape == want.shape, key
        assert arr.tobytes() == want.tobytes(), key
        # views of the file's bytes, as the header declares them
        assert arr.flags.aligned and not arr.flags.writeable and not arr.flags.owndata, key


@pytest.fixture(scope="module")
def boosted(tmp_path_factory):
    """The bytes of a saved GradientBoost file with several trees per plant, and a scratch path."""
    model = fit("GradientBoost", _dataset(40), seed=0, hyperparams={"rounds": 4, "tree_depth": 2})
    path = tmp_path_factory.mktemp("boosted") / "model.json"
    save_model(model, path)
    return path.read_bytes(), path


def _finite_or_refused(path):
    try:
        model = load_model(path)
    except ModelError:
        return
    scores, _ = predict_matrix(model, _dataset(12, seed=3).features)
    assert np.isfinite(scores).all()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_survives_any_one_corrupted_index(boosted, data):
    raw, path = boosted
    header, payload = _split(raw)
    key = data.draw(st.sampled_from(("feature", "left")))
    values = _decoded(header, payload)[key]
    i = data.draw(st.integers(0, len(values) - 1))
    old = int(values[i])
    values[i] = data.draw(
        st.one_of(st.integers(-2, len(values) + 2), st.integers(-12, 12).map(lambda d: old + d))
    )
    path.write_bytes(_joined(header, payload))
    _finite_or_refused(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_of_a_file_with_any_byte_changed_refuses_it_or_predicts_finite_scores(boosted, data):
    raw, path = boosted
    i = data.draw(st.integers(0, len(raw) - 1))
    new = raw[i] ^ data.draw(st.integers(1, 255))
    path.write_bytes(raw[:i] + bytes([new]) + raw[i + 1 :])
    _finite_or_refused(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_of_a_file_cut_short_raises_model_error(boosted, data):
    raw, path = boosted
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ModelError):
        load_model(path)


@settings(max_examples=100, deadline=None)
@given(tail=st.binary(min_size=1))
def test_load_of_a_file_with_bytes_appended_raises_model_error(boosted, tail):
    raw, path = boosted
    path.write_bytes(raw + tail)
    with pytest.raises(ModelError, match="payload holds"):
        load_model(path)


def test_save_replaces_the_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(fit("Linear", _dataset(20)), path)
    before = path.read_bytes()

    class DiskFull:
        """A file whose writes fail after the first, the header line."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError("disk full")
            return self.fh.write(data)

    # a save that fails mid-write leaves the old file and no temporary behind
    monkeypatch.setattr(models, "open", lambda *args: DiskFull(open(*args)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_model(fit("KNN", _dataset(20)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


# --- tree growth against the one-tree-at-a-time reference ---------------------


def _reference_grow_tree(bins, y, edges, max_depth, min_leaf, sets=None, train_out=None):
    """One greedy variance-reduction tree, node by node; bins is rows x features.

    The reference for _grow_trees: every tree it grows, in any batch, must
    equal this one bit for bit.  Nodes are taken from a FIFO queue and
    numbered as they are made, which is level order, so with sets the r-th
    node that may split searches the features of sets[r].
    """
    n_features = bins.shape[1]
    feature, threshold, left, value = [], [], [], []

    def new_node():
        for arr, v in ((feature, -1), (threshold, 0.0), (left, -1), (value, 0.0)):
            arr.append(v)
        return len(feature) - 1

    queue = collections.deque([(new_node(), np.arange(len(y)), 0)])
    sets = None if sets is None else iter(sets)
    while queue:
        node, idx, depth = queue.popleft()
        sub = y[idx]
        count = idx.size
        total = float(sub.sum())
        value[node] = total / count
        if depth >= max_depth or count < 2 * min_leaf:
            if train_out is not None:
                train_out[idx] = value[node]
            continue
        cand = range(n_features) if sets is None else next(sets)
        parent_score = total * total / count
        best = None  # (score, feature, split bin)
        for f in cand:
            e = edges[f]
            if e.size == 0:
                continue
            b = bins[idx, f]
            cnt = np.bincount(b, minlength=e.size + 1)
            sums = np.bincount(b, weights=sub, minlength=e.size + 1)
            nl = np.cumsum(cnt)[:-1]
            sl = np.cumsum(sums)[:-1]
            nr = count - nl
            sr = total - sl
            ok = (nl >= min_leaf) & (nr >= min_leaf)
            if not ok.any():
                continue
            score = np.where(
                ok, sl * sl / np.maximum(nl, 1) + sr * sr / np.maximum(nr, 1), -np.inf
            )
            pos = int(np.argmax(score))
            if score[pos] > parent_score + 1e-12 and (best is None or score[pos] > best[0]):
                best = (float(score[pos]), int(f), pos)
        if best is None:
            if train_out is not None:
                train_out[idx] = value[node]
            continue
        _, f, split_bin = best
        go_left = bins[idx, f] <= split_bin
        feature[node] = f
        threshold[node] = float(edges[f][split_bin])
        lid, rid = new_node(), new_node()  # so rid is lid + 1
        left[node] = lid
        queue.append((lid, idx[go_left], depth + 1))
        queue.append((rid, idx[~go_left], depth + 1))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "value": np.array(value, dtype=np.float64),
    }


def _feature_subsets(size):
    """Every subset of size of the 5 features, each in ascending order, in lexicographic order."""
    return np.array(list(itertools.combinations(range(5), size)), dtype=np.uint8)


def _reference_fit(kind, bins, edges, y, hp, seed=0):
    """The packed ensemble of a tree kind, each tree grown alone by the reference."""
    bins = bins.T
    m, n_plants = y.shape
    if kind == "DecisionTree":
        trees = [
            _reference_grow_tree(bins, y[:, j], edges, hp["max_depth"], hp["min_leaf"])
            for j in range(n_plants)
        ]
        return models._pack(trees, np.zeros(n_plants), 1.0, 1.0)
    if kind == "RandomForest":
        seeds = np.random.SeedSequence(seed).spawn(hp["trees"])
        table = _feature_subsets(min(hp["feature_subsample"], 5))
        trees = []
        for j in range(n_plants):
            for t in range(hp["trees"]):
                rng = np.random.default_rng(seeds[t])
                rows = rng.integers(0, m, size=m) if hp["bootstrap"] else np.arange(m)
                # no tree has more nodes that may split; a longer call's first
                # draws are those of a shorter one
                sets = table[rng.integers(0, len(table), size=3 * m // 2)]
                trees.append(
                    _reference_grow_tree(bins[rows], y[rows, j], edges, hp["max_depth"], 1, sets=sets)
                )
        return models._pack(trees, np.zeros(n_plants), 1.0, hp["trees"])
    init, trees, step = np.empty(n_plants), [], np.empty(m)
    for j in range(n_plants):
        col = np.ascontiguousarray(y[:, j])
        init[j] = col.mean()
        residual = col - init[j]
        for _ in range(hp["rounds"]):
            trees.append(
                _reference_grow_tree(bins, residual, edges, hp["tree_depth"], 1, train_out=step)
            )
            residual = residual - hp["learning_rate"] * step
    return models._pack(trees, init, hp["learning_rate"], 1.0)


def _assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key


@st.composite
def _raw_problem(draw, plants=st.integers(1, 3)):
    """Features with ties and constant columns, and fractional labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 30))
    levels = draw(st.lists(st.integers(1, 40), min_size=5, max_size=5))
    x = np.column_stack([rng.integers(0, u, m) * rng.normal() for u in levels])
    # integer labels sum exactly in any order, so they could hide an order
    # change; a few repeated fractions make pure nodes whose split scores
    # differ from the parent's only by rounding
    shape = (m, draw(plants))
    y = draw(
        st.sampled_from(
            (
                rng.uniform(-3.0, 5.0, size=shape),
                np.round(rng.uniform(-3.0, 5.0, size=shape), 1),
                rng.choice([0.1, 0.3, 0.7, 2.2], size=shape),
            )
        )
    )
    return x, y


@st.composite
def _binned_problem(draw, plants=st.integers(1, 3)):
    """_raw_problem's features binned by _binned, and its labels."""
    x, y = draw(_raw_problem(plants))
    bins, edges = models._binned(x)
    return bins, edges, y


@settings(max_examples=60, deadline=None)
@given(problem=_binned_problem(), max_depth=st.integers(1, 8), min_leaf=st.integers(1, 4))
def test_grown_decision_trees_equal_the_reference(problem, max_depth, min_leaf):
    bins, edges, y = problem
    m, n_plants = y.shape
    labels = [y[:, j] for j in range(n_plants)]
    got = models._grow_trees(bins, edges, labels, [np.arange(m)] * n_plants, max_depth, min_leaf)
    for j, tree in enumerate(got):
        _assert_same_arrays(
            tree, _reference_grow_tree(bins.T, y[:, j], edges, max_depth, min_leaf)
        )


@settings(max_examples=40, deadline=None)
@given(problem=_binned_problem(), depth=st.integers(1, 4), rounds=st.integers(1, 3))
def test_boosting_rounds_equal_the_reference(problem, depth, rounds):
    bins, edges, y = problem
    m, n_plants = y.shape
    # one round grown together, with the leaf values scattered to train_out
    residual = np.ascontiguousarray(y.T) - 1.25
    got_out, want_out = np.zeros((n_plants, m)), np.zeros((n_plants, m))
    got = models._grow_trees(
        bins, edges, list(residual), [np.arange(m)] * n_plants, depth, 1, train_out=list(got_out)
    )
    for j, tree in enumerate(got):
        want = _reference_grow_tree(bins.T, residual[j], edges, depth, 1, train_out=want_out[j])
        _assert_same_arrays(tree, want)
    assert np.array_equal(got_out, want_out)
    # whole fits: the residuals of each round feed the next
    hp = {"rounds": rounds, "learning_rate": 0.3, "tree_depth": depth}
    _assert_same_arrays(
        models._fit_gradient_boost(bins, edges, y, hp),
        _reference_fit("GradientBoost", bins, edges, y, hp),
    )


@settings(max_examples=40, deadline=None)
@given(
    problem=_binned_problem(),
    trees=st.integers(1, 5),
    max_depth=st.integers(1, 8),
    n_sub=st.integers(1, 5),
    bootstrap=st.booleans(),
    group_trees=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_forests_equal_the_reference_in_any_grouping(
    problem, trees, max_depth, n_sub, bootstrap, group_trees, seed
):
    bins, edges, y = problem
    hp = dict(trees=trees, max_depth=max_depth, feature_subsample=n_sub, bootstrap=bootstrap)
    # groups of group_trees whole tree indices, each with every plant's tree,
    # so that a group ends inside the forest or past its last tree index
    with mock.patch.object(models, "_FOREST_ROWS", group_trees * y.shape[0] * y.shape[1]):
        got = models._fit_forest(bins, edges, y, hp, seed)
    _assert_same_arrays(got, _reference_fit("RandomForest", bins, edges, y, hp, seed))


# --- the pure-node rule: integer labels below 2**26 -------------------------


@st.composite
def _integer_problem(draw, plants=st.integers(1, 3)):
    """_binned_problem's features with small integer labels, so that many nodes are pure."""
    bins, edges, y = draw(_binned_problem(plants))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = draw(st.sampled_from([(1, 6), (-3, 6), (0, 2)]))
    return bins, edges, rng.integers(low, high, size=y.shape).astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(problem=_integer_problem(), max_depth=st.integers(1, 8), min_leaf=st.integers(1, 4))
def test_grown_decision_trees_on_integer_labels_equal_the_reference(problem, max_depth, min_leaf):
    bins, edges, y = problem
    m, n_plants = y.shape
    labels = [y[:, j] for j in range(n_plants)]
    # a pure node that stops early must still scatter its value
    got_out, want_out = np.zeros((n_plants, m)), np.zeros((n_plants, m))
    got = models._grow_trees(
        bins, edges, labels, [np.arange(m)] * n_plants, max_depth, min_leaf, train_out=list(got_out)
    )
    for j, tree in enumerate(got):
        want = _reference_grow_tree(bins.T, y[:, j], edges, max_depth, min_leaf, train_out=want_out[j])
        _assert_same_arrays(tree, want)
    assert np.array_equal(got_out, want_out)


@settings(max_examples=40, deadline=None)
@given(
    problem=_integer_problem(),
    trees=st.integers(1, 5),
    max_depth=st.integers(1, 8),
    n_sub=st.integers(1, 5),
    group_trees=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_forests_on_integer_labels_equal_the_reference(
    problem, trees, max_depth, n_sub, group_trees, seed
):
    bins, edges, y = problem
    hp = dict(trees=trees, max_depth=max_depth, feature_subsample=n_sub, bootstrap=True)
    # a pure node that stops early must still take its candidate set
    with mock.patch.object(models, "_FOREST_ROWS", group_trees * y.shape[0] * y.shape[1]):
        got = models._fit_forest(bins, edges, y, hp, seed)
    _assert_same_arrays(got, _reference_fit("RandomForest", bins, edges, y, hp, seed))


# --- chunk edges inside a batch ----------------------------------------------

# chunks of one node (16) or of a few (64, 256): a level of these
# small problems then spans several chunks, whose edges fall between nodes
# of different trees
_SMALL_CELLS = st.sampled_from([16, 64, 256])


@settings(max_examples=60, deadline=None)
@given(
    problem=st.one_of(_binned_problem(), _integer_problem()),
    max_depth=st.integers(1, 8),
    min_leaf=st.integers(1, 4),
    cells=_SMALL_CELLS,
)
def test_decision_trees_grown_in_small_chunks_equal_the_reference(problem, max_depth, min_leaf, cells):
    bins, edges, y = problem
    m, n_plants = y.shape
    labels = [y[:, j] for j in range(n_plants)]
    got_out, want_out = np.zeros((n_plants, m)), np.zeros((n_plants, m))
    with mock.patch.object(models, "_STEP_CELLS", cells):
        got = models._grow_trees(
            bins, edges, labels, [np.arange(m)] * n_plants, max_depth, min_leaf, train_out=list(got_out)
        )
    for j, tree in enumerate(got):
        want = _reference_grow_tree(bins.T, y[:, j], edges, max_depth, min_leaf, train_out=want_out[j])
        _assert_same_arrays(tree, want)
    assert np.array_equal(got_out, want_out)


@settings(max_examples=40, deadline=None)
@given(problem=_binned_problem(), depth=st.integers(1, 4), rounds=st.integers(1, 3), cells=_SMALL_CELLS)
def test_boosting_rounds_grown_in_small_chunks_equal_the_reference(problem, depth, rounds, cells):
    bins, edges, y = problem
    m, n_plants = y.shape
    residual = np.ascontiguousarray(y.T) - 1.25
    got_out, want_out = np.zeros((n_plants, m)), np.zeros((n_plants, m))
    hp = {"rounds": rounds, "learning_rate": 0.3, "tree_depth": depth}
    with mock.patch.object(models, "_STEP_CELLS", cells):
        got = models._grow_trees(
            bins, edges, list(residual), [np.arange(m)] * n_plants, depth, 1, train_out=list(got_out)
        )
        fitted = models._fit_gradient_boost(bins, edges, y, hp)
    for j, tree in enumerate(got):
        want = _reference_grow_tree(bins.T, residual[j], edges, depth, 1, train_out=want_out[j])
        _assert_same_arrays(tree, want)
    assert np.array_equal(got_out, want_out)
    _assert_same_arrays(fitted, _reference_fit("GradientBoost", bins, edges, y, hp))


@settings(max_examples=40, deadline=None)
@given(
    problem=st.one_of(_binned_problem(), _integer_problem()),
    trees=st.integers(1, 5),
    max_depth=st.integers(1, 8),
    n_sub=st.integers(1, 5),
    group_trees=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    cells=_SMALL_CELLS,
)
def test_forests_grown_in_small_chunks_equal_the_reference(
    problem, trees, max_depth, n_sub, group_trees, seed, cells
):
    bins, edges, y = problem
    hp = dict(trees=trees, max_depth=max_depth, feature_subsample=n_sub, bootstrap=True)
    with mock.patch.object(models, "_FOREST_ROWS", group_trees * y.shape[0] * y.shape[1]):
        with mock.patch.object(models, "_STEP_CELLS", cells):
            got = models._fit_forest(bins, edges, y, hp, seed)
    _assert_same_arrays(got, _reference_fit("RandomForest", bins, edges, y, hp, seed))


@settings(max_examples=40, deadline=None)
@given(
    problem=_raw_problem(plants=st.integers(2, 4)),
    integer=st.booleans(),
    trees=st.integers(1, 5),
    max_depth=st.integers(1, 8),
    n_sub=st.integers(1, 4),
    group_trees=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_permuting_a_forests_plant_columns_permutes_its_predictions(
    problem, integer, trees, max_depth, n_sub, group_trees, seed, data
):
    x, y = problem
    y = np.round(y) if integer else y
    perm = data.draw(st.permutations(range(y.shape[1])))
    bins, edges = models._binned(x)
    hp = dict(trees=trees, max_depth=max_depth, feature_subsample=n_sub, bootstrap=True)
    with mock.patch.object(models, "_FOREST_ROWS", group_trees * y.shape[0] * y.shape[1]):
        base = models._fit_forest(bins, edges, y, hp, seed)
        swapped = models._fit_forest(bins, edges, y[:, perm], hp, seed)
    want = models._ensemble_scores(base, x)[:, perm]
    assert np.array_equal(models._ensemble_scores(swapped, x), want)


def _pure_root(n, value, seed=0):
    """Binned normal features of n rows, and whether the full search splits n labels of value."""
    bins, edges = models._binned(np.random.default_rng(seed).normal(size=(n, 5)))
    width = max(e.size for e in edges) + 1
    sub = np.full(n, value)
    all_features = np.arange(5)[None, :]
    split, *_ = models._best_splits(
        np.arange(n), sub, np.array([n]), np.array([float(sub.sum())]), all_features, bins, width, 1
    )
    return bins, edges, split == [True]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4000), data=st.data(), seed=st.integers(0, 2**16))
def test_the_full_search_never_splits_a_pure_node_inside_the_rule(n, data, seed):
    bound = (2**26 - 1) // n
    value = data.draw(st.integers(-bound, bound))
    _, _, splits = _pure_root(n, float(value), seed)
    assert not splits


# pure nodes whose scores round above the parent's, so that the full search
# splits them: fractional labels, and integer labels past the 2**26 bound
@pytest.mark.parametrize("n, value", [(1442, 3.3), (81, 876605000099.0)])
def test_pure_nodes_outside_the_rule_keep_the_full_search(n, value):
    bins, edges, splits = _pure_root(n, value)
    assert splits
    y = np.full(n, value)
    got = models._grow_trees(bins, edges, [y], [np.arange(n)], 3, 1)
    _assert_same_arrays(got[0], _reference_grow_tree(bins.T, y, edges, 3, 1))


# --- kept edges: only the quantile edges some training value's bin ends at ---


def _all_quantile_bins(x):
    """Quantile binning that keeps every distinct quantile as an edge, occupied or not."""
    qs = np.linspace(0.0, 1.0, models.HISTOGRAM_BINS + 1)[1:-1]
    edges = [np.unique(np.quantile(x[:, f], qs)) for f in range(x.shape[1])]
    bins = np.array([np.searchsorted(e, x[:, f], side="left") for f, e in enumerate(edges)])
    return bins.astype(np.uint8), edges


@st.composite
def _wide_problem(draw):
    """_raw_problem, or up to 300 rows of normal features: many quantiles fall between values."""
    if draw(st.booleans()):
        return draw(_raw_problem())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 300))
    x = rng.normal(size=(m, 5))
    return x, rng.uniform(-3.0, 5.0, size=(m, draw(st.integers(1, 3))))


@settings(max_examples=60, deadline=None)
@given(problem=_wide_problem())
def test_kept_edges_each_hold_a_training_value_and_split_as_thresholds(problem):
    x, _ = problem
    bins, edges = models._binned(x)
    _, all_edges = _all_quantile_bins(x)
    assert bins.dtype == np.uint8 and bins.shape == x.T.shape
    for f, e in enumerate(edges):
        assert set(e.tolist()) <= set(all_edges[f].tolist())
        assert np.all(np.diff(e) > 0)
        # every bin below len(edges) is occupied, and one more holds the rest
        assert set(np.unique(bins[f][bins[f] < e.size]).tolist()) == set(range(e.size))
        assert bins[f].max() <= e.size
        for b in range(e.size):
            assert np.array_equal(bins[f] <= b, x[:, f] <= e[b])


@settings(max_examples=40, deadline=None)
@given(
    problem=_wide_problem(),
    max_depth=st.integers(1, 8),
    min_leaf=st.integers(1, 4),
    trees=st.integers(1, 4),
    n_sub=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_trees_on_kept_edges_equal_the_reference_on_every_quantile(
    problem, max_depth, min_leaf, trees, n_sub, seed
):
    x, y = problem
    m, n_plants = y.shape
    bins, edges = models._binned(x)
    all_bins, all_edges = _all_quantile_bins(x)
    rows = [np.arange(m)] * n_plants
    got = models._grow_trees(bins, edges, list(y.T), rows, max_depth, min_leaf)
    for j, tree in enumerate(got):
        _assert_same_arrays(
            tree, _reference_grow_tree(all_bins.T, y[:, j], all_edges, max_depth, min_leaf)
        )
    # a boosting round, with the leaf values scattered to train_out
    residual = np.ascontiguousarray(y.T) - 1.25
    depth = min(max_depth, 4)
    got_out, want_out = np.zeros((n_plants, m)), np.zeros((n_plants, m))
    got = models._grow_trees(bins, edges, list(residual), rows, depth, 1, train_out=list(got_out))
    for j, tree in enumerate(got):
        want = _reference_grow_tree(
            all_bins.T, residual[j], all_edges, depth, 1, train_out=want_out[j]
        )
        _assert_same_arrays(tree, want)
    assert np.array_equal(got_out, want_out)
    hp = {"rounds": 2, "learning_rate": 0.3, "tree_depth": depth}
    _assert_same_arrays(
        models._fit_gradient_boost(bins, edges, y, hp),
        _reference_fit("GradientBoost", all_bins, all_edges, y, hp),
    )
    hp = dict(trees=trees, max_depth=max_depth, feature_subsample=n_sub, bootstrap=True)
    _assert_same_arrays(
        models._fit_forest(bins, edges, y, hp, seed),
        _reference_fit("RandomForest", all_bins, all_edges, y, hp, seed),
    )


def test_kept_edges_narrow_the_histogram_of_a_small_training_set():
    train, _, _ = bench.cell(100, 0, seed=0)
    xs = (train.features - train.mean) / train.std
    _, edges = models._binned(xs)
    _, all_edges = _all_quantile_bins(xs)
    # 80 rows occupy at most 80 bins of a feature, not its 255 quantiles
    assert max(e.size for e in all_edges) == models.HISTOGRAM_BINS - 1
    assert max(e.size for e in edges) < train.m


# --- candidate sets drawn from the table of feature subsets -----------------


@settings(max_examples=30, deadline=None)
@given(problem=_binned_problem(plants=st.integers(2, 3)), seed=st.integers(0, 2**16))
def test_shared_candidate_sets_serve_every_plant_tree_alike(problem, seed):
    bins, edges, y = problem
    m, n_plants = y.shape
    table = _feature_subsets(2)
    draws = np.random.default_rng(seed).integers(0, len(table), size=(1, 3 * m // 2))

    def grow(order):
        # one row of draws, which every plant tree owns
        labels = [y[:, j] for j in order]
        cands = (table, draws, np.zeros(len(order), dtype=np.intp))
        trees = models._grow_trees(bins, edges, labels, [np.arange(m)] * len(order), 8, 1, cands=cands)
        return dict(zip(order, trees))

    alone = {}
    for j in range(n_plants):
        alone.update(grow([j]))
    for order in (list(range(n_plants)), list(reversed(range(n_plants)))):
        shared = grow(order)
        for j in range(n_plants):
            _assert_same_arrays(shared[j], alone[j])


@settings(max_examples=30, deadline=None)
@given(problem=_binned_problem(), n_sub=st.integers(1, 5), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("max_depth", [40, 10**6])
def test_deep_forests_draw_as_many_candidate_sets_as_their_rows_allow(problem, max_depth, n_sub, seed):
    # 2**max_depth - 1 draws could never be made, so the count must follow the rows
    bins, edges, y = problem
    hp = dict(trees=3, max_depth=max_depth, feature_subsample=n_sub, bootstrap=True)
    got = models._fit_forest(bins, edges, y, hp, seed)
    _assert_same_arrays(got, _reference_fit("RandomForest", bins, edges, y, hp, seed))


def _fractional_dataset(m, seed):
    soils, truth = generate_dataset(m, seed=seed)
    data = dataset_from_soils(soils, truth)
    noise = np.random.default_rng(seed).uniform(-0.5, 0.5, data.labels.shape)
    return Dataset(features=data.features, labels=data.labels + noise)


def test_default_forest_spanning_groups_equals_the_reference():
    data = _fractional_dataset(100, seed=8)
    hp = {"trees": 50, "max_depth": 3, "feature_subsample": 2, "bootstrap": True}
    # 15 plants x 50 trees of 100 bootstrap rows exceed one group's rows
    assert 15 * hp["trees"] * data.m > models._FOREST_ROWS
    model = fit("RandomForest", data, seed=3, hyperparams=hp)
    bins, edges = models._binned((data.features - data.mean) / data.std)
    _assert_same_arrays(
        model.params, _reference_fit("RandomForest", bins, edges, data.labels, model.hyperparams, 3)
    )


# sha256 of the save_model (microfarm-model/5) file of default fits on
# _fractional_dataset(60, seed=5), every tree numbered in level order
SAVED_FILE_DIGESTS = {
    "DecisionTree": "07865d5d0ab0d24067e0a818cf8ad77838b5adbc7887b384eec5729dfbef8f4a",
    "RandomForest": "94d676dcd276a0c00c732ea6aa6ac48d45e60359a657b85d702359f51c3cf115",
    "GradientBoost": "738aa30bda7114995b0c5e108a54d1fc2e8818b45170f264222bd4012a8d9869",
}

# sha256 of the predict_matrix scores of the same DecisionTree and
# GradientBoost fits on the dataset's own rows, recorded from the grower that
# renumbered every tree in its own depth-first order, so that a tree's
# numbering cannot change a bit of what it predicts
SAVED_SCORE_DIGESTS = {
    "DecisionTree": "61ea39e4fb07400d7bbc898ad18db3dff5525661b8e773c9fbcc86e0bc30d969",
    "GradientBoost": "7c97bea9a7f4caf0bd821bac7ca9118748b1d78c2a3ef607391f5b8c4a635830",
}


@pytest.mark.parametrize("kind", SAVED_FILE_DIGESTS)
def test_saved_tree_models_match_pinned_digests(kind, tmp_path):
    path = tmp_path / "model.json"
    save_model(fit(kind, _fractional_dataset(60, seed=5), seed=11), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_FILE_DIGESTS[kind]


@pytest.mark.parametrize("kind", SAVED_SCORE_DIGESTS)
def test_tree_predictions_match_pinned_digests(kind):
    data = _fractional_dataset(60, seed=5)
    scores, _ = predict_matrix(fit(kind, data, seed=11), data.features)
    assert hashlib.sha256(scores.tobytes()).hexdigest() == SAVED_SCORE_DIGESTS[kind]


# sha256 of the save_model file of the default RandomForest fit on the
# size-500 cell (400 training rows) of benchmark(sizes=(100, 500), seed=0)
SAVED_FOREST_500_DIGEST = "26667ee7798b70ad945c452531e0c4eb8304003b9448d921b06118377d62c2bb"


def test_forest_of_a_benchmark_cell_matches_its_pinned_digest(tmp_path):
    train, _, fit_seed = bench.cell(500, 1, seed=0)
    assert train.m == 400
    path = tmp_path / "model.json"
    save_model(fit("RandomForest", train, seed=fit_seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_FOREST_500_DIGEST


# sha256 of the predict_matrix scores, on its test rows, of the default
# GradientBoost fit on the same size-500 cell (400 rows, 256 bins wide),
# recorded from the grower that renumbered every tree depth-first
SAVED_BOOST_500_DIGEST = "a62d1c8366a08c5488a8e9b768613e45811180f2895523627e44b9e57eec86ac"


def test_boosting_of_a_benchmark_cell_matches_its_pinned_digest():
    train, test, fit_seed = bench.cell(500, 1, seed=0)
    assert train.m == 400
    scores, _ = predict_matrix(fit("GradientBoost", train, seed=fit_seed), test.features)
    assert hashlib.sha256(scores.tobytes()).hexdigest() == SAVED_BOOST_500_DIGEST


# sha256 of curve.csv for benchmark(sizes=(100, 500), seed=0): every kind's
# accuracy and MSE at both sizes, the forest's rows from candidate sets drawn
# from a table of feature subsets
SAVED_CURVE_DIGEST = "1076a393ba363e64d2915315a21f63f7e367694aaa773c9ff43daf042ac1946a"


def test_curve_of_the_small_benchmark_matches_its_pinned_digest(tmp_path):
    path = tmp_path / "curve.csv"
    bench.write_curve_csv(path, bench.benchmark(sizes=(100, 500), seed=0))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_CURVE_DIGEST


# --- fits spread over worker processes ---------------------------------------

_TREE_KINDS = ("DecisionTree", "RandomForest", "GradientBoost")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on_cpus(n):
    """Tree fits on n CPUs, forking however small the fit."""
    return mock.patch.multiple(models, _cpus=lambda: n, _FORK_WORK=0)


def _fit_with_workers(workers, *args, **kwargs):
    with _on_cpus(workers):
        model = fit(*args, **kwargs)
    _assert_no_child_left()
    return model


@pytest.mark.parametrize("kind", _TREE_KINDS)
def test_fits_of_a_benchmark_cell_are_bitwise_equal_over_any_worker_count(kind):
    train, _, fit_seed = bench.cell(500, 1, seed=0)
    want = _fit_with_workers(1, kind, train, seed=fit_seed).params
    for workers in (2, 3, 15):
        _assert_same_arrays(_fit_with_workers(workers, kind, train, seed=fit_seed).params, want)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(_TREE_KINDS),
    m=st.integers(5, 60),
    plants=st.integers(1, 6),
    integer=st.booleans(),
    workers=st.sampled_from([2, 3, 15]),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_fits_are_bitwise_equal_over_any_worker_count(kind, m, plants, integer, workers, seed):
    rng = np.random.default_rng(seed)
    labels = rng.uniform(-3.0, 5.0, size=(m, plants))
    data = Dataset(rng.normal(size=(m, 5)), np.round(labels) if integer else labels)
    hp = {"RandomForest": {"trees": 7}, "GradientBoost": {"rounds": 4}}.get(kind, {})
    want = _fit_with_workers(1, kind, data, seed=m, hyperparams=hp).params
    _assert_same_arrays(_fit_with_workers(workers, kind, data, seed=m, hyperparams=hp).params, want)


def test_small_fits_stay_in_the_caller_and_large_ones_fork():
    with mock.patch.object(models, "_cpus", lambda: 2), mock.patch.object(os, "fork", wraps=os.fork) as forks:
        fit("DecisionTree", bench.cell(500, 1, seed=0)[0])
        assert forks.call_count == 0
        fit("GradientBoost", bench.cell(100, 0, seed=0)[0])
        assert forks.call_count == 1
    _assert_no_child_left()


def _failing_in(where, action):
    """A stand-in for _fit_decision_tree that calls action() in the parent or in a child."""
    parent, grow = os.getpid(), models._fit_decision_tree

    def fit_part(*args):
        if (os.getpid() == parent) == (where == "parent"):
            action()
        return grow(*args)

    return mock.patch.object(models, "_fit_decision_tree", fit_part)


# runs that share tree work among 3 processes: a fit's plant columns, and a
# sweep's 3 DecisionTree cells, one per process, each fit growing in its own
_SHARED_RUNS = {
    "fit": lambda: fit("DecisionTree", _dataset()),
    "sweep": lambda: bench.benchmark(kinds=("DecisionTree",), sizes=(100, 300, 500)),
}


@pytest.mark.parametrize("shared", _SHARED_RUNS)
def test_a_child_exception_is_raised_in_the_parent_with_its_type(shared):
    def fail():
        raise ValueError("raised in a tree worker")

    with _failing_in("child", fail), _on_cpus(3):
        with pytest.raises(ValueError, match="raised in a tree worker"):
            _SHARED_RUNS[shared]()
    _assert_no_child_left()


# one tree cell, which forks inside its fit, and three, shared by the sweep
@pytest.mark.parametrize("sizes", ["100", "100,300,500"])
def test_a_child_killed_without_a_result_is_a_child_process_error(sizes, tmp_path, capsys):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    with _failing_in("child", die), _on_cpus(3):
        with pytest.raises(ChildProcessError, match="without a result"):
            fit("DecisionTree", _dataset())
        _assert_no_child_left()
        argv = ["bench", "--sizes", sizes, "--kinds", "DecisionTree", "--out", str(tmp_path), "--quiet"]
        assert cli.main(argv) != 0
    _assert_no_child_left()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: tree worker "), lines


@pytest.mark.parametrize("shared", _SHARED_RUNS)
@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_a_parent_failing_inline_kills_and_reaps_every_child(exc, shared):
    def fail():
        raise exc("raised in the parent's own group")

    # the children would sleep a minute unless killed
    slow = _failing_in("child", lambda: time.sleep(60))
    start = time.monotonic()
    with slow, _failing_in("parent", fail), _on_cpus(3):
        with pytest.raises(exc, match="parent's own group"):
            _SHARED_RUNS[shared]()
    _assert_no_child_left()
    assert time.monotonic() - start < 30


def _sweep_on(cpus, **kwargs):
    """benchmark(**kwargs) on cpus CPUs: its rows, the rows given to progress, and the forks made.

    KNN and Linear call BLAS, which a forked child must not: one run in a child fails the sweep.
    """
    parent = os.getpid()

    def in_caller(blas):
        def call(*args):
            if os.getpid() != parent:
                raise AssertionError(f"{blas.__name__} ran in a forked child")
            return blas(*args)

        return call

    seen = []
    blas = {name: in_caller(getattr(models, name)) for name in ("_fit_linear", "_knn_scores")}
    counted = mock.patch.object(os, "fork", wraps=os.fork)
    with _on_cpus(cpus), mock.patch.multiple(models, **blas), counted as forks:
        rows = bench.benchmark(progress=seen.append, **kwargs)
    _assert_no_child_left()
    return rows, seen, forks.call_count


def test_a_sweep_gives_the_same_rows_on_any_number_of_cpus_and_forks_no_fit():
    sizes = (100, 300, 500)
    want = None
    for cpus in (1, 2, 3, 4):
        rows, seen, forks = _sweep_on(cpus, sizes=sizes)
        assert seen == rows  # one call per row, in cell order
        got = [(r.kind, r.size, r.accuracy, r.mse) for r in rows]
        assert [cell[:2] for cell in got] == [(kind, size) for size in sizes for kind in MODEL_KINDS]
        want = want or got
        assert got == want
        # nine tree cells: the caller shares them with cpus - 1 children, and no fit forks
        assert forks == cpus - 1


def test_a_sweep_of_fewer_tree_cells_than_cpus_forks_one_child_per_cell_but_one():
    rows, seen, forks = _sweep_on(4, kinds=("KNN", "DecisionTree", "Linear"), sizes=(100, 300))
    assert seen == rows and [(r.kind, r.size) for r in rows] == [
        (kind, size) for size in (100, 300) for kind in ("KNN", "DecisionTree", "Linear")
    ]
    assert forks == 1


def test_a_queue_longer_than_a_pipe_buffer_cannot_block():
    # 400 KB of task numbers, against a pipe that holds 64 KiB
    tasks = list(range(100_000))

    def blocked(signum, frame):
        raise TimeoutError("the task queue blocked")

    handler = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(60)
    try:
        with _on_cpus(3):
            assert models._in_workers(lambda i: i * i, tasks) == [i * i for i in tasks]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    _assert_no_child_left()
