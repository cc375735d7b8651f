"""Per-plant regressors: fitting, prediction, persistence, ranking."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    base = fit("RandomForest", train, seed=7)
    swapped = fit("RandomForest", permuted, seed=7)
    sa, _ = predict_matrix(base, test.features)
    sb, _ = predict_matrix(swapped, test.features)
    assert np.allclose(sa[:, perm], sb)


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


def _mutate(key, value):
    def apply(doc):
        doc["params"][key][0] = value(doc)

    return apply


# name -> (edit of a saved DecisionTree document, expected error text);
# node 0 is the first tree's root, an internal node
MALFORMED = {
    "missing params": (lambda doc: doc.pop("params"), "missing 'params'"),
    "child out of range": (_mutate("left", lambda doc: len(doc["params"]["left"]) + 5), "'left'"),
    "self-loop child": (_mutate("left", lambda doc: 0), "'left'"),
    "format 1": (lambda doc: doc.update(format="microfarm-model/1"), "microfarm-model/1"),
    "text hyperparameter": (lambda doc: doc["hyperparams"].update(max_depth="12"), "max_depth"),
}


def write_malformed(tmp_path, name):
    model = fit("DecisionTree", _dataset(40), seed=0)
    assert model.params["feature"][0] >= 0
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    MALFORMED[name][0](doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", MALFORMED)
def test_load_rejects_malformed_model(name, tmp_path):
    path = write_malformed(tmp_path, name)
    with pytest.raises(ModelError, match=MALFORMED[name][1]):
        load_model(path)


@pytest.fixture(scope="module")
def boosted(tmp_path_factory):
    """A saved GradientBoost document with several trees per plant, and a scratch path."""
    model = fit("GradientBoost", _dataset(40), seed=0, hyperparams={"rounds": 4, "tree_depth": 2})
    path = tmp_path_factory.mktemp("boosted") / "model.json"
    save_model(model, path)
    return path.read_text(), path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_survives_any_one_corrupted_index(boosted, data):
    text, path = boosted
    doc = json.loads(text)
    values = doc["params"][data.draw(st.sampled_from(("feature", "left", "right")))]
    i = data.draw(st.integers(0, len(values) - 1))
    old = values[i]
    values[i] = data.draw(
        st.one_of(st.integers(-2, len(values) + 2), st.integers(-12, 12).map(lambda d: old + d))
    )
    path.write_text(json.dumps(doc))
    try:
        model = load_model(path)
    except ModelError:
        return
    scores, _ = predict_matrix(model, _dataset(12, seed=3).features)
    assert np.isfinite(scores).all()
