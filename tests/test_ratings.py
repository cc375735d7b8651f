"""Rating matrices: similarity, masking, completion, CSV/JSON interfaces."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microfarm.ratings as ratings
from microfarm.ratings import (
    ConfigurationError,
    ConfusionMatrix5,
    DimensionError,
    FullRatingMatrix,
    SoilProfile,
    SparseRatingMatrix,
    complete_matrix,
    cosine_similarity,
    evaluate_completion,
    generate_dataset,
    mask,
    read_full_csv,
    read_soils_csv,
    read_sparse_csv,
    round_half_up,
    similarity_matrix,
    write_confusion_json,
    write_rating_csv,
    write_soils_csv,
)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3  # bankers' rounding would give 2
    assert round_half_up(2.4) == 2
    assert round_half_up(-0.5) == 0


def test_cosine_identity_and_symmetry():
    x = np.array([3, 4, 0, 5])
    y = np.array([1, 0, 2, 4])
    assert cosine_similarity(x, x) == pytest.approx(1.0)
    assert cosine_similarity(x, y) == pytest.approx(cosine_similarity(y, x))


def test_cosine_hand_value():
    assert cosine_similarity(np.array([3, 4]), np.array([4, 3])) == pytest.approx(24 / 25)


def test_cosine_disjoint_support_is_zero():
    assert cosine_similarity(np.array([5, 0, 0]), np.array([0, 2, 3])) == 0.0


def test_cosine_zero_norm_is_zero():
    assert cosine_similarity(np.zeros(3), np.array([1, 2, 3])) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(DimensionError):
        cosine_similarity(np.array([1, 2]), np.array([1, 2, 3]))


def test_cosine_positive_scaling_invariance():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 5, size=8)
    others = rng.uniform(0, 5, size=(6, 8))
    sims = [cosine_similarity(x, o) for o in others]
    scaled = [cosine_similarity(3.7 * x, o) for o in others]
    assert sims == pytest.approx(scaled)
    assert np.argsort(sims).tolist() == np.argsort(scaled).tolist()


def test_similarity_matrix_shape_and_diagonal():
    s = SparseRatingMatrix(np.array([[1, 2], [1, 2], [0, 0]]))
    sim = similarity_matrix(s)
    assert sim.shape == (3, 3)
    assert sim[0, 1] == pytest.approx(1.0)  # identical rows
    assert sim[0, 0] == pytest.approx(1.0)
    assert sim[2, 2] == 0.0  # empty row has no similarity, even to itself
    assert np.allclose(sim, sim.T)


def test_mask_count_and_floors():
    truth = FullRatingMatrix(np.full((10, 6), 3))
    sparse = mask(truth, 0.3, seed=1)
    assert int((sparse.values == 0).sum()) == round(0.3 * 60)
    assert (sparse.values != 0).any(axis=1).all()
    assert (sparse.values != 0).any(axis=0).all()


def test_mask_zero_sparsity_is_identity():
    truth = FullRatingMatrix(np.full((4, 4), 2))
    assert (mask(truth, 0.0).values == truth.values).all()


def test_mask_unsatisfiable_raises():
    truth = FullRatingMatrix(np.full((2, 2), 3))
    with pytest.raises(ConfigurationError):
        mask(truth, 0.9, seed=0)  # would need 4 removals, floors allow 2


def test_mask_rejects_bad_sparsity():
    truth = FullRatingMatrix(np.full((3, 3), 3))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigurationError):
            mask(truth, bad)


def test_mask_paper_scale_arithmetic():
    _, truth = generate_dataset(10626, seed=42)
    sparse = mask(truth, 0.7, seed=42)
    assert int((sparse.values == 0).sum()) == 111573  # round(0.7 * 10626 * 15)


def test_complete_preserves_observed_and_range():
    rng = np.random.default_rng(3)
    truth = FullRatingMatrix(rng.integers(1, 6, size=(40, 8)))
    sparse = mask(truth, 0.5, seed=3)
    completed = complete_matrix(sparse)
    observed = sparse.values != 0
    assert (completed.values[observed] == sparse.values[observed]).all()
    assert completed.values.min() >= 1 and completed.values.max() <= 5


def test_complete_full_input_is_identity():
    values = np.array([[1, 5], [2, 4]])
    completed = complete_matrix(SparseRatingMatrix(values))
    assert (completed.values == values).all()
    assert completed.observed.all()


def test_complete_worked_example_most_similar_rater_wins():
    # rows: r0=[4,5], r1=[4,-], r2=[1,1]; zero-filled cosine gives
    # cos(r1,r2)=0.707 > cos(r1,r0)=0.625, so with k=1 the prediction
    # for cell (1,1) comes from r2 and is 1, not r0's 5.
    s = SparseRatingMatrix(np.array([[4, 5], [4, 0], [1, 1]]))
    completed = complete_matrix(s, k=1)
    assert completed.values[1, 1] == 1


def test_complete_similarity_tie_breaks_to_lower_row():
    # rows 0 and 1 are equally similar to row 2 but rate plant 1 differently
    s = SparseRatingMatrix(np.array([[4, 5, 3], [4, 3, 5], [4, 0, 0]]))
    completed = complete_matrix(s, k=1)
    assert completed.values[2, 1] == 5


def test_complete_single_rater_column_propagates_value():
    s = SparseRatingMatrix(np.array([[3, 4], [3, 0], [3, 0]]))
    completed = complete_matrix(s, k=5)
    assert (completed.values[:, 1] == 4).all()


def test_complete_column_mean_fallback_without_positive_similarity():
    # row 2 shares no rated plant with anyone, so its similarities are 0 and
    # the prediction falls back to the column mean round((5+4)/2) = 5
    s = SparseRatingMatrix(
        np.array(
            [
                [2, 0, 5],
                [3, 0, 4],
                [0, 1, 0],
            ]
        )
    )
    completed = complete_matrix(s, k=3)
    assert completed.values[2, 2] == 5


def test_complete_empty_column_gets_midscale():
    s = SparseRatingMatrix(np.array([[2, 0], [3, 0]]))
    completed = complete_matrix(s, k=2)
    assert (completed.values[:, 1] == 3).all()


def test_complete_rejects_bad_k():
    s = SparseRatingMatrix(np.array([[1, 2]]))
    with pytest.raises(ConfigurationError):
        complete_matrix(s, k=0)


# --- completion against the per-cell reference -------------------------------


def _reference_top_k(cand_sims, cand_vals, k):
    """Similarity-weighted mean over the top-k positive-similarity candidates.

    Candidates arrive in ascending row order; ties at the k-th similarity go
    to the lower row index.  Returns (estimate, near_tie); the estimate is
    None when no candidate has positive similarity, and near_tie says that
    the k-th and (k+1)-th positive similarities lie within 1e-12.
    """
    pos = cand_sims > 0.0
    if not pos.any():
        return None, False
    sims = cand_sims[pos]
    vals = cand_vals[pos]
    near_tie = False
    if sims.size > k:
        ordered = np.sort(sims)
        kth = ordered[sims.size - k]
        near_tie = kth - ordered[sims.size - k - 1] <= 1e-12
        above = np.flatnonzero(sims > kth)
        at = np.flatnonzero(sims == kth)[: k - above.size]
        sel = np.concatenate([above, at])
        sims = sims[sel]
        vals = vals[sel]
    return float(np.dot(sims, vals) / sims.sum()), near_tie


def _reference_complete(s, k):
    """complete_matrix cell by cell, as it was before the column pass.

    Returns the completed values and the cells where the column pass may
    legitimately differ, because the same similarities computed in another
    matrix-product shape, or summed in another order, may differ in the last
    bit: a near tie at the k-th similarity (see _reference_top_k), or an
    estimate within 1e-9 of a half-integer.
    """
    r = s.values.astype(float)
    m, n = r.shape
    observed = s.values != 0
    out = s.values.copy()
    exempt = np.zeros(r.shape, dtype=bool)

    norms = np.linalg.norm(r, axis=1)
    unit = np.divide(r, norms[:, None], out=np.zeros_like(r), where=norms[:, None] > 0)
    col_raters = [np.flatnonzero(observed[:, j]) for j in range(n)]
    col_means = []
    for j in range(n):
        raters = col_raters[j]
        col_means.append(float(r[raters, j].mean()) if raters.size else None)

    chunk = max(1, min(m, 8_000_000 // max(m, 1)))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        sims_block = unit[lo:hi] @ unit.T
        for i in range(lo, hi):
            missing = np.flatnonzero(~observed[i])
            if missing.size == 0:
                continue
            sims_row = sims_block[i - lo]
            for j in missing:
                raters = col_raters[j]
                if raters.size:
                    est, near_tie = _reference_top_k(sims_row[raters], r[raters, j], k)
                    if est is not None:
                        half = abs(est - math.floor(est) - 0.5) <= 1e-9
                        exempt[i, j] = near_tie or half
                    else:
                        est = col_means[j]
                else:
                    est = None
                pred = ratings.FALLBACK_RATING if est is None else round_half_up(est)
                out[i, j] = min(max(pred, ratings.RATING_MIN), ratings.RATING_MAX)
    return out, exempt


@st.composite
def _tied_ratings(draw, exact=False):
    """Small sparse matrices full of ties.

    Ratings come from one or two values, and half the distinct rows (all of
    them when ``exact``) hold one value throughout, so that rows on one
    pattern are parallel.  Rows are duplicated, some columns and rows are
    empty, and high sparsity leaves rows that share no rated plant with
    anyone.  With ``exact`` every row rates 0, 1 or 4 plants, so each unit
    row holds only 0, 1/2 or 1, and every similarity, weighted sum and mean
    is exact in any summation order: ties are real ties.  Half of those
    start with a row that rates plant 0 alone and 13 raters of plants 0..3,
    all at similarity 1/2 to it, the ones rating 1 before those rating 5:
    more raters than any k tie at the k-th, and which k it keeps decides
    its estimates.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 6))
    levels = draw(st.sampled_from(((3,), (1, 2), (2, 4), (1, 5), (2, 3), (4,))))
    distinct = int(rng.integers(1, m + 1))
    values = rng.choice(levels, size=(distinct, n))
    flat = np.ones(distinct, dtype=bool) if exact else rng.random(distinct) < 0.5
    values[flat] = rng.choice(levels, size=(int(flat.sum()), 1))
    if exact:
        rated = rng.choice([c for c in (0, 1, 4) if c <= n], size=distinct)
        keep = np.argsort(rng.random((distinct, n)), axis=1) < rated[:, None]
        values[~keep] = 0
    else:
        sparsity = draw(st.sampled_from((0.2, 0.5, 0.8)))
        values[rng.random((distinct, n)) < sparsity] = 0
    values = values[rng.integers(0, distinct, m)]
    values[rng.random(m) < 0.1] = 0
    if not exact:
        values[:, rng.random(n) < 0.2] = 0
    elif draw(st.booleans()):
        tied = np.zeros((14, max(n, 4)), dtype=values.dtype)
        tied[0, 0] = 3
        tied[1:, :4] = np.where(np.arange(13) < draw(st.integers(1, 12)), 1, 5)[:, None]
        values = np.vstack([tied, np.pad(values, ((0, 0), (0, tied.shape[1] - n)))])
    return SparseRatingMatrix(values)


@settings(max_examples=300, deadline=None)
@given(s=_tied_ratings(), k=st.integers(1, 12))
def test_column_pass_equals_the_per_cell_reference(s, k):
    want, exempt = _reference_complete(s, k)
    got = complete_matrix(s, k=k)
    assert np.array_equal(got.observed, s.values != 0)
    differ = got.values != want
    assert not (differ & ~exempt).any(), np.argwhere(differ & ~exempt).tolist()


@settings(max_examples=300, deadline=None)
@given(s=_tied_ratings(exact=True), k=st.integers(1, 12))
def test_column_pass_equals_the_reference_on_exact_ties(s, k):
    # no cell is exempt here: the tie rule and the fallbacks are checked on every cell
    want, _ = _reference_complete(s, k)
    assert np.array_equal(complete_matrix(s, k=k).values, want)


# sha256 of write_rating_csv(complete_matrix(mask(truth, s, seed=42), k=20)) for
# criterion 9's corpus, generate_dataset(2000, seed=42), recorded from the
# per-cell loop
COMPLETED_DIGESTS = {
    0.1: "f48394ac8718f83a050602f1428915e6a1f61c1764e42afffe9d5d7177da3fe1",
    0.4: "f2062a1be6724c62e0df21f0960f4e00e5499aa54bf2b1cdf68c8a74a13648f5",
    0.7: "bed2c63c9111b88bbf70bb5ca60b017e5cef0cd4ce2468be0062314d9b22ebe3",
}


@pytest.fixture(scope="module")
def criterion_9_truth():
    return generate_dataset(2000, seed=42)[1]


@pytest.mark.parametrize("sparsity", sorted(COMPLETED_DIGESTS))
def test_completed_corpus_matches_pinned_digest(sparsity, criterion_9_truth, tmp_path):
    full = complete_matrix(mask(criterion_9_truth, sparsity, seed=42), k=20)
    write_rating_csv(tmp_path / "full.csv", full)
    digest = hashlib.sha256((tmp_path / "full.csv").read_bytes()).hexdigest()
    assert digest == COMPLETED_DIGESTS[sparsity]


def test_evaluate_completion_masked_cells_only():
    truth = FullRatingMatrix(np.array([[1, 2], [3, 4]]))
    completed = FullRatingMatrix(np.array([[1, 5], [3, 4]]))
    masked = np.array([[False, True], [False, True]])
    cm = evaluate_completion(truth, completed, masked)
    assert cm.total == 2
    assert cm.counts[1, 4] == 1  # true 2 predicted 5
    assert cm.counts[3, 3] == 1
    assert cm.accuracy == pytest.approx(0.5)


def test_evaluate_completion_perfect_match():
    truth = FullRatingMatrix(np.full((3, 3), 4))
    cm = evaluate_completion(truth, truth, np.ones((3, 3), dtype=bool))
    assert cm.accuracy == 1.0
    assert cm.counts[3, 3] == 9


def test_evaluate_completion_shape_mismatch():
    truth = FullRatingMatrix(np.full((2, 2), 3))
    other = FullRatingMatrix(np.full((2, 3), 3))
    with pytest.raises(DimensionError):
        evaluate_completion(truth, other, np.ones((2, 2), dtype=bool))


def test_soil_profile_validation_names_offending_field():
    with pytest.raises(ConfigurationError, match="ph"):
        SoilProfile(10, 10, 10, 20, 15.0)
    with pytest.raises(ConfigurationError, match="k_ppm"):
        SoilProfile(10, 10, -1, 20, 7.0)


def test_generate_dataset_deterministic_and_plant_ideal_rates_5():
    soils_a, truth_a = generate_dataset(50, seed=11)
    soils_b, truth_b = generate_dataset(50, seed=11)
    assert soils_a == soils_b
    assert (truth_a.values == truth_b.values).all()
    ideal = ratings._truth_ratings(ratings.PLANT_MU)
    assert (np.diag(ideal) == 5).all()


def test_generate_dataset_class_mix_at_scale():
    _, truth = generate_dataset(2000, seed=0)
    values = truth.values
    hist = {c: int((values == c).sum()) for c in range(1, 6)}
    assert all(hist[c] > 0 for c in range(1, 6))
    assert hist[2] + hist[3] >= 0.5 * values.size


def test_generate_dataset_validates_arguments():
    with pytest.raises(ConfigurationError):
        generate_dataset(0)
    with pytest.raises(ConfigurationError):
        generate_dataset(10, num_plants=16)


def test_rating_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    truth = FullRatingMatrix(rng.integers(1, 6, size=(12, 4)))
    sparse = mask(truth, 0.4, seed=5)
    write_rating_csv(tmp_path / "truth.csv", truth)
    write_rating_csv(tmp_path / "sparse.csv", sparse)
    assert (read_full_csv(tmp_path / "truth.csv").values == truth.values).all()
    assert (read_sparse_csv(tmp_path / "sparse.csv").values == sparse.values).all()
    header = (tmp_path / "truth.csv").read_text().splitlines()[0]
    assert header == "plant_0,plant_1,plant_2,plant_3"


def test_soils_csv_round_trip(tmp_path):
    soils, _ = generate_dataset(20, seed=9)
    write_soils_csv(tmp_path / "soils.csv", soils)
    assert read_soils_csv(tmp_path / "soils.csv") == soils


def test_confusion_json_includes_extras(tmp_path):
    import json

    cm = ConfusionMatrix5(np.eye(5, dtype=int) * 2)
    write_confusion_json(tmp_path / "cm.json", cm, sparsity=0.4, seed=7, k=20)
    doc = json.loads((tmp_path / "cm.json").read_text())
    assert doc["accuracy"] == 1.0
    assert doc["sparsity"] == 0.4
    assert doc["seed"] == 7
    assert doc["k"] == 20
    assert np.array(doc["counts"]).shape == (5, 5)
