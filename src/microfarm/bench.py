"""Benchmark harness producing accuracy/MSE/timing learning curves.

For each dataset size a fresh synthetic dataset is generated with complete
rating knowledge (sparsity 0), split 80/20, and every requested model kind
is fitted and evaluated.  Timing columns are wall clock and vary between
runs; the accuracy and MSE columns are deterministic per seed.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .models import MODEL_KINDS, Dataset, ModelError, dataset_from_soils, evaluate, fit, split
from .ratings import MAX_SOILS, generate_dataset

DEFAULT_SIZES = tuple(range(100, 10101, 1000))

BENCH_COLUMNS = ("kind", "size", "accuracy", "mse", "train_ms", "infer_ms")
CURVE_COLUMNS = ("kind", "size", "accuracy", "mse")


@dataclass(frozen=True)
class BenchRow:
    kind: str
    size: int
    accuracy: float
    mse: float
    train_ms: float
    infer_ms: float


def benchmark(
    kinds=MODEL_KINDS,
    sizes=DEFAULT_SIZES,
    seed: int = 0,
    progress=None,
) -> list[BenchRow]:
    """One BenchRow per (kind, size), sizes outermost, kinds in given order.

    train_ms times fit; infer_ms times evaluate, which scores the test set.
    Every size must be in 5..MAX_SOILS; a ModelError names the first that is not.
    """
    kinds = tuple(kinds)
    unknown = [k for k in kinds if k not in MODEL_KINDS]
    if unknown:
        raise ModelError(
            f"unknown model kind {unknown[0]!r}, expected one of {', '.join(MODEL_KINDS)}"
        )
    if not kinds or not sizes:
        raise ModelError("kinds and sizes must be non-empty")
    # refused before the first fit, not after the sizes before it; split needs 5 rows
    bad = [s for s in sizes if not 5 <= s <= MAX_SOILS]
    if bad:
        raise ModelError(f"sizes must be in 5..{MAX_SOILS}, got {bad[0]}")
    rows = []
    for i, size in enumerate(sizes):
        train, test, fit_seed = cell(size, i, seed)
        for kind in kinds:
            start = time.perf_counter()
            model = fit(kind, train, seed=fit_seed)
            fitted = time.perf_counter()
            accuracy, mse = evaluate(model, test)
            train_ms, infer_ms = (fitted - start) * 1000.0, (time.perf_counter() - fitted) * 1000.0
            rows.append(BenchRow(kind, size, accuracy, mse, train_ms, infer_ms))
            if progress is not None:
                progress(rows[-1])
    return rows


def cell(size: int, index: int, seed: int = 0) -> tuple[Dataset, Dataset, int]:
    """The train and test sets and the fit seed of the sweep's index-th size.

    Each index has independent substreams, so cells never share random draws.
    """
    children = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).spawn(3)
    data_seed, split_seed, fit_seed = (int(c.generate_state(1)[0]) for c in children)
    soils, truth = generate_dataset(size, seed=data_seed)
    train, test = split(dataset_from_soils(soils, truth), seed=split_seed)
    return train, test, fit_seed


def write_bench_csv(path: str | Path, rows: list[BenchRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.kind, r.size, repr(r.accuracy), repr(r.mse), f"{r.train_ms:.3f}", f"{r.infer_ms:.3f}"]
            )


def write_bench_json(path: str | Path, rows: list[BenchRow], seed: int) -> None:
    doc = {"seed": seed, "rows": [asdict(r) for r in rows]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_curve_csv(path: str | Path, rows: list[BenchRow]) -> None:
    """Timing-free learning-curve table; byte-identical for a fixed seed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_COLUMNS)
        for r in rows:
            writer.writerow([r.kind, r.size, repr(r.accuracy), repr(r.mse)])
