"""Sparse soil-by-plant rating matrices and cosine-similarity completion.

A rating matrix holds integer scores 1..5 of how well each plant suits each
soil; missing cells are 0 internally and empty fields in CSV.  Completion
fills a missing cell from the k most cosine-similar soils that rated the
same plant, using a similarity-weighted average.  A seeded generator builds
synthetic soils plus a ground-truth matrix from fixed per-plant ideal
profiles, and the evaluator tallies a 5x5 confusion matrix over masked
cells.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATING_MIN = 1
RATING_MAX = 5
DEFAULT_NEIGHBORS = 20
FALLBACK_RATING = 3  # mid-scale, used when a plant has no ratings at all

# Soil feature sampling ranges: N, P, K in ppm, temperature in deg C, pH.
FEATURE_NAMES = ("n_ppm", "p_ppm", "k_ppm", "temp_c", "ph")
FEATURE_LOW = np.array([0.0, 0.0, 0.0, 8.0, 3.5])
FEATURE_HIGH = np.array([140.0, 140.0, 140.0, 43.0, 9.9])


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class ConfigurationError(ValueError):
    """Requested dataset or mask parameters cannot be satisfied."""


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero toward +inf."""
    return int(math.floor(x + 0.5))


def to_ratings(scores: np.ndarray) -> np.ndarray:
    """Round continuous scores half up and clamp them to ratings 1..5."""
    return np.clip(np.floor(scores + 0.5), RATING_MIN, RATING_MAX).astype(np.int64)


@dataclass(frozen=True)
class SoilProfile:
    """One soil sample: macro-nutrients in ppm, temperature, pH."""

    n_ppm: float
    p_ppm: float
    k_ppm: float
    temp_c: float
    ph: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.ph <= 14.0:
            raise ConfigurationError(f"ph must be in [0, 14], got {self.ph}")
        for name in ("n_ppm", "p_ppm", "k_ppm"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.n_ppm, self.p_ppm, self.k_ppm, self.temp_c, self.ph])


class SparseRatingMatrix:
    """m x n integer ratings with 0 marking a missing cell."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 2:
            raise DimensionError("rating matrix must be 2-D")
        present = values[values != 0]
        if present.size and (present.min() < RATING_MIN or present.max() > RATING_MAX):
            raise ConfigurationError("present ratings must be in 1..5")
        if values.min() < 0:
            raise ConfigurationError("missing cells are encoded as 0, negatives invalid")
        self.values = values

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def sparsity(self) -> float:
        return float(np.count_nonzero(self.values == 0)) / self.values.size


class FullRatingMatrix:
    """Completed matrix: every cell rated, with per-cell provenance.

    ``observed`` is True where the value came straight from the source
    sparse matrix, False where it was predicted.
    """

    def __init__(self, values: np.ndarray, observed: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 2:
            raise DimensionError("rating matrix must be 2-D")
        if values.min() < RATING_MIN or values.max() > RATING_MAX:
            raise ConfigurationError("full matrix cells must all be in 1..5")
        if observed is None:
            observed = np.ones(values.shape, dtype=bool)
        observed = np.asarray(observed, dtype=bool)
        if observed.shape != values.shape:
            raise DimensionError("observed mask must match value shape")
        self.values = values
        self.observed = observed

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass
class ConfusionMatrix5:
    """5x5 counts, rows = true rating, columns = predicted rating."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (5, 5):
            raise DimensionError("confusion matrix must be 5x5")
        if self.counts.min() < 0:
            raise ConfigurationError("confusion counts must be >= 0")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total if self.total else 0.0

    def to_json_obj(self, **extra) -> dict:
        obj = {"counts": self.counts.tolist(), "accuracy": self.accuracy}
        obj.update(extra)
        return obj


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """cos(x, y) = x.y / (|x||y|) with missing entries zero-filled; 0 if a norm is 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("rows must be 1-D and of equal length")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def _unit_rows(r: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; an all-zero row stays all zero."""
    norms = np.linalg.norm(r, axis=1)[:, None]
    return np.divide(r, norms, out=np.zeros_like(r), where=norms > 0)


def similarity_matrix(s: SparseRatingMatrix) -> np.ndarray:
    """All-pairs row cosine similarities; empty rows get a zero diagonal."""
    unit = _unit_rows(s.values.astype(float))
    sim = unit @ unit.T
    np.fill_diagonal(sim, np.where(unit.any(axis=1), 1.0, 0.0))
    return sim


# Upper bound on (missing row, rater) similarities held at once by complete_matrix.
_BLOCK_CELLS = 1 << 18


def complete_matrix(s: SparseRatingMatrix, k: int = DEFAULT_NEIGHBORS) -> FullRatingMatrix:
    """Fill every missing cell from the k most similar soils that rated that plant.

    Prediction = similarity-weighted average of the neighbors' ratings,
    rounded half-up and clamped to 1..5; only positive similarities count,
    and at the k-th similarity the lower row index wins.  Fallbacks: the
    plant's mean rating when no neighbor has positive similarity, then
    mid-scale 3 when the plant has no ratings at all.  Observed cells are
    copied unchanged.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    k = min(k, s.values.shape[0])  # no column has more raters; keeps k an int64
    r = s.values.astype(float)
    observed = s.values != 0
    out = s.values.copy()
    unit = _unit_rows(r)
    for j in range(r.shape[1]):
        raters = np.flatnonzero(observed[:, j])
        missing = np.flatnonzero(~observed[:, j])
        if raters.size == 0:
            out[missing, j] = FALLBACK_RATING
            continue
        vals = r[raters, j]
        rater_units = unit[raters].T
        step = max(1, _BLOCK_CELLS // raters.size)
        kth_at = max(raters.size - k, 0)  # with k or fewer raters every positive one is kept
        for lo in range(0, missing.size, step):
            rows = missing[lo : lo + step]
            sims = unit[rows] @ rater_units  # ratings are >= 0, so similarities are too
            kth = np.partition(sims, kth_at, axis=1)[:, kth_at, None]
            keep = sims >= kth
            # rows keeping more than k: ties at a positive k-th keep their lowest rows
            over = np.flatnonzero((np.count_nonzero(keep, axis=1) > k) & (kth[:, 0] > 0))
            if over.size:
                top, edge = sims[over], kth[over]
                tied = top == edge
                room = k - np.count_nonzero(top > edge, axis=1)[:, None]
                keep[over] = (top > edge) | tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room)
            w = np.multiply(sims, keep, out=sims)
            total = w.sum(axis=1)
            est = np.divide(w @ vals, total, out=np.full(rows.size, vals.mean()), where=total > 0)
            out[rows, j] = to_ratings(est)
    return FullRatingMatrix(out, observed)


# Fixed per-plant ideal soil profiles (mu) and tolerances (sigma), columns in
# FEATURE_NAMES order.  Values were tuned offline so that the rating
# distribution concentrates in classes 2 and 3 with every class populated,
# and so that distinct plants respond to visibly different soil regions.
PLANT_MU = np.array([
    [17.4, 86.9, 123.0, 20.0, 3.8],
    [125.7, 42.1, 15.9, 31.4, 8.3],
    [105.8, 4.9, 48.6, 32.2, 6.8],
    [54.3, 105.6, 22.1, 12.7, 9.9],
    [38.0, 35.3, 79.1, 25.8, 9.9],
    [38.7, 50.7, 128.9, 30.7, 3.5],
    [102.2, 68.9, 12.7, 31.5, 8.4],
    [20.9, 78.9, 116.2, 20.8, 7.4],
    [88.3, 89.7, 16.4, 33.5, 4.2],
    [40.5, 114.2, 48.7, 24.3, 6.9],
    [126.7, 52.2, 84.2, 14.2, 9.9],
    [14.8, 119.3, 62.1, 13.4, 6.1],
    [107.3, 36.7, 126.6, 25.5, 9.1],
    [112.0, 97.4, 111.8, 39.7, 9.9],
    [18.0, 136.6, 2.0, 27.4, 9.9],
])
PLANT_SIGMA = np.array([
    [60.0, 29.9, 29.9, 20.7, 3.4],
    [60.0, 29.9, 29.9, 20.7, 3.4],
    [29.9, 60.0, 29.9, 20.7, 1.3],
    [60.0, 29.9, 60.0, 7.5, 1.3],
    [29.9, 60.0, 60.0, 7.5, 1.3],
    [60.0, 60.0, 29.9, 7.5, 3.4],
    [60.0, 29.9, 60.0, 7.5, 3.4],
    [29.9, 29.9, 60.0, 20.7, 1.3],
    [29.9, 60.0, 29.9, 20.7, 3.4],
    [29.9, 60.0, 29.9, 20.7, 1.3],
    [60.0, 60.0, 60.0, 7.5, 1.3],
    [29.9, 60.0, 60.0, 7.5, 3.4],
    [29.9, 29.9, 60.0, 7.5, 3.4],
    [60.0, 29.9, 29.9, 7.5, 3.4],
    [29.9, 29.9, 60.0, 20.7, 1.3],
])
RATING_ALPHA = 0.95

# Soils are sampled as jittered members of a fixed number of archetype bands
# inside the feature ranges: real plots cluster around recurring soil types,
# and the completion stage needs genuinely similar soils to exist.  The
# archetype centers sit exactly on the plant ideals, so every rating class,
# including 5, is populated.
N_ARCHETYPES = 15
ARCHETYPE_JITTER = 0.003  # stddev of member noise, as a fraction of each span

# The most soils generate_dataset makes: about 1.5 KB a soil, so a call stays
# near 150 MB, while paper scale (10626 soils) is admitted.
MAX_SOILS = 100_000


def _truth_ratings(features: np.ndarray) -> np.ndarray:
    """clamp(round(5 - alpha*d), 1, 5) with d the sigma-normalized distance."""
    # (m, plants, features) deviations
    dev = (features[:, None, :] - PLANT_MU[None, :, :]) / PLANT_SIGMA[None, :, :]
    d = np.sqrt((dev**2).sum(axis=2))
    return to_ratings(5.0 - RATING_ALPHA * d)


def generate_dataset(
    num_soils: int, num_plants: int = 15, seed: int = 0
) -> tuple[list[SoilProfile], FullRatingMatrix]:
    """Seeded synthetic soils plus their ground-truth rating matrix.

    Soils are drawn around the plant ideal profiles (one tight cluster per
    plant, quantized to 3 decimals so CSV round-trips are exact); the rating
    of soil i for plant j falls off with the sigma-normalized distance from
    plant j's ideal profile.  Only up to 15 plant profiles are defined.
    """
    if not 1 <= num_soils <= MAX_SOILS:
        raise ConfigurationError(f"num_soils must be in 1..{MAX_SOILS}, got {num_soils}")
    if not 1 <= num_plants <= PLANT_MU.shape[0]:
        raise ConfigurationError(f"num_plants must be in 1..{PLANT_MU.shape[0]}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centers = rng.uniform(FEATURE_LOW, FEATURE_HIGH, size=(N_ARCHETYPES, 5))
    n_ideal = min(PLANT_MU.shape[0], N_ARCHETYPES)
    centers[:n_ideal] = PLANT_MU[:n_ideal]
    member = rng.integers(0, N_ARCHETYPES, size=num_soils)
    noise = rng.normal(0.0, 1.0, size=(num_soils, 5)) * (
        (FEATURE_HIGH - FEATURE_LOW) * ARCHETYPE_JITTER
    )
    raw = np.clip(centers[member] + noise, FEATURE_LOW, FEATURE_HIGH)
    features = np.round(raw, 3)
    ratings = _truth_ratings(features)[:, :num_plants]
    soils = [SoilProfile(*row) for row in features.tolist()]
    return soils, FullRatingMatrix(ratings)


def mask(truth: FullRatingMatrix, sparsity: float, seed: int = 0) -> SparseRatingMatrix:
    """Remove round(sparsity*m*n) seeded-random cells, keeping every row and
    column at least one rating.  Raises when that many cells cannot be
    removed without breaking the floor."""
    if not 0.0 <= sparsity < 1.0:
        raise ConfigurationError(f"sparsity must be in [0, 1), got {sparsity}")
    m, n = truth.m, truth.n
    target = round_half_up(sparsity * m * n)
    values = truth.values.copy()
    if target == 0:
        return SparseRatingMatrix(values)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(m * n)
    row_left = np.full(m, n)
    col_left = np.full(n, m)
    removed = 0
    for cell in order:
        if removed == target:
            break
        i, j = divmod(int(cell), n)
        if row_left[i] <= 1 or col_left[j] <= 1:
            continue
        values[i, j] = 0
        row_left[i] -= 1
        col_left[j] -= 1
        removed += 1
    if removed < target:
        raise ConfigurationError(
            f"cannot reach sparsity {sparsity} on a {m}x{n} matrix with the row/column floor"
        )
    return SparseRatingMatrix(values)


def evaluate_completion(
    truth: FullRatingMatrix, completed: FullRatingMatrix, masked_cells: np.ndarray
) -> ConfusionMatrix5:
    """Confusion over the masked (predicted) cells only; rows true, columns predicted."""
    if truth.values.shape != completed.values.shape:
        raise DimensionError("truth and completed shapes differ")
    masked_cells = np.asarray(masked_cells, dtype=bool)
    if masked_cells.shape != truth.values.shape:
        raise DimensionError("masked_cells shape must match the matrices")
    t = truth.values[masked_cells]
    p = completed.values[masked_cells]
    counts = np.zeros((5, 5), dtype=np.int64)
    np.add.at(counts, (t - 1, p - 1), 1)
    return ConfusionMatrix5(counts)


# ---------------------------------------------------------------------------
# file formats


def rating_header(n: int) -> list[str]:
    return [f"plant_{j}" for j in range(n)]


def write_rating_csv(path: str | Path, matrix: SparseRatingMatrix | FullRatingMatrix) -> None:
    rows = matrix.values.tolist()
    if isinstance(matrix, SparseRatingMatrix):  # a missing cell is an empty field
        rows = [[v or "" for v in row] for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rating_header(matrix.n))
        writer.writerows(rows)


def read_sparse_csv(path: str | Path) -> SparseRatingMatrix:
    return SparseRatingMatrix(_read_csv(path, None, lambda cell: int(cell or 0)))


def read_full_csv(path: str | Path) -> FullRatingMatrix:
    return FullRatingMatrix(_read_csv(path, None, int))


def write_soils_csv(path: str | Path, soils: list[SoilProfile]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FEATURE_NAMES)
        for s in soils:
            writer.writerow([s.n_ppm, s.p_ppm, s.k_ppm, s.temp_c, s.ph])


def read_soils_csv(path: str | Path) -> list[SoilProfile]:
    return [SoilProfile(*row) for row in _read_csv(path, FEATURE_NAMES, float).tolist()]


def _read_csv(path: str | Path, header: tuple[str, ...] | None, parse) -> np.ndarray:
    """The data rows of a CSV with the given header, as a float64 array.

    With header None it is a rating CSV instead: header plant_0..plant_{n-1}
    for some n, and int64 cells.  Each cell is read by parse; one it refuses,
    or that the array cannot hold, raises ConfigurationError naming the file
    and the data row.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, [])
        want = list(header or rating_header(len(names))) or ["plant_0", "..."]
        if names != want:
            raise ConfigurationError(f"{path}: expected header {','.join(want)}")
        rows = [row for row in reader if row]
    if not rows:
        raise ConfigurationError(f"{path}: no data rows")
    if any(len(row) != len(names) for row in rows):
        raise ConfigurationError(f"{path}: ragged rows")
    values = np.empty((len(rows), len(names)), dtype=np.float64 if header else np.int64)
    for i, row in enumerate(rows):
        try:
            values[i] = [parse(cell) for cell in row]
        except (ValueError, OverflowError):
            msg = f"{path}: data row {i + 1} is not all {values.dtype}: {','.join(row)}"
            raise ConfigurationError(msg) from None
    return values


def write_confusion_json(path: str | Path, cm: ConfusionMatrix5, **extra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cm.to_json_obj(**extra), fh, indent=2, sort_keys=True)
        fh.write("\n")
