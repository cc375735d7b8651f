"""Command-line front end.

Subcommands: ``lora-sim``, ``gen-data``, ``complete``, ``bench``,
``recommend``, ``pipeline-demo``.  The flags ``--seed``, ``--out`` and
``--quiet`` are accepted both before and after the subcommand.

Every command exits 0 on success; any failure prints one line starting with
``error: `` to stderr and exits nonzero.  For a fixed seed and identical
flags the primary output files are byte-identical between runs (benchmark
timing columns are wall-clock measurements and live in separate files from
the deterministic learning curve).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__, pipeline
from .bench import (
    DEFAULT_SIZES,
    benchmark,
    write_bench_csv,
    write_bench_json,
    write_curve_csv,
)
from .channel import format_summary, load_scenario, result_to_dict, run_scenario
from .models import MODEL_KINDS, ModelError, load_model, recommend_top_n
from .ratings import (
    DEFAULT_NEIGHBORS,
    ConfigurationError,
    DimensionError,
    SoilProfile,
    complete_matrix,
    evaluate_completion,
    generate_dataset,
    mask,
    read_full_csv,
    read_soils_csv,
    read_sparse_csv,
    write_confusion_json,
    write_rating_csv,
    write_soils_csv,
)

# Every error the package raises for bad input subclasses one of these
# (StorageError is an OSError; the config, model, data and codec errors are
# ValueErrors).
USER_ERRORS = (OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    """Argument errors become the same single-line format as runtime errors."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="master random seed (default 0; for lora-sim, the scenario file's own seed)",
    )
    p.add_argument(
        "--out",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="output directory (default current directory)",
    )
    p.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="suppress informational stdout; artifacts are still written",
    )
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and reused by each main call."""
    common = _common_flags()
    parser = _Parser(
        prog="microfarm",
        description="Desk-scale microfarm toolkit: LoRa channel simulation, "
        "soil telemetry, rating completion and plant recommendation.",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser(
        "lora-sim",
        parents=[common],
        help="run one channel contention scenario from a JSON config",
    )
    p.add_argument("config", help="scenario JSON file (see fixtures/)")
    p.add_argument(
        "--no-events",
        action="store_true",
        help="omit the per-packet event log from result.json",
    )
    p.set_defaults(func=_cmd_lora_sim)

    p = sub.add_parser(
        "gen-data",
        parents=[common],
        help="generate soils.csv, truth.csv and a masked sparse.csv",
    )
    p.add_argument("--num-soils", type=int, default=2000, help="rows to generate (default 2000)")
    p.add_argument(
        "--num-plants", type=int, default=15, help="plant columns, at most 15 (default 15)"
    )
    p.add_argument(
        "--sparsity",
        type=float,
        default=0.4,
        help="fraction of cells removed from truth.csv (default 0.4)",
    )
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser(
        "complete",
        parents=[common],
        help="fill the missing cells of a sparse rating CSV",
    )
    p.add_argument("sparse", help="sparse rating CSV (empty cells = missing)")
    p.add_argument(
        "-k",
        type=int,
        default=DEFAULT_NEIGHBORS,
        help=f"neighbors per prediction (default {DEFAULT_NEIGHBORS})",
    )
    p.add_argument(
        "--truth",
        metavar="CSV",
        help="ground-truth rating CSV; adds completion_report.json with the confusion counts",
    )
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser(
        "bench",
        parents=[common],
        help="learning-curve benchmark over dataset sizes and model kinds",
    )
    p.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated dataset sizes (default 100..10100 step 1000)",
    )
    p.add_argument(
        "--kinds",
        default=",".join(MODEL_KINDS),
        help=f"comma-separated model kinds (default {','.join(MODEL_KINDS)})",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "recommend",
        parents=[common],
        help="rank the best plants for one soil with a saved model",
    )
    p.add_argument("model", help="model file written by pipeline-demo or save_model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--soil",
        nargs=5,
        type=float,
        metavar=("N", "P", "K", "TEMP", "PH"),
        help="soil as five values: N, P, K in ppm, temperature degC, pH",
    )
    group.add_argument("--soils-csv", metavar="CSV", help="take the soil from this soils CSV")
    p.add_argument(
        "--row", type=int, default=0, help="0-based row of --soils-csv to use (default 0)"
    )
    p.add_argument("-n", type=int, default=3, help="how many plants to rank (default 3)")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser(
        "pipeline-demo",
        parents=[common],
        help="run the full six-stage demo: encode, channel, edge, cloud, complete, recommend",
    )
    p.add_argument(
        "--retrain-period",
        type=int,
        default=100,
        metavar="T",
        help="recommendations accumulated between retrains (default 100)",
    )
    p.set_defaults(func=_cmd_pipeline_demo)
    return parser


def _resolve(args) -> tuple[int | None, Path, bool]:
    seed = getattr(args, "seed", None)
    out = Path(getattr(args, "out", "."))
    quiet = bool(getattr(args, "quiet", False))
    out.mkdir(parents=True, exist_ok=True)
    return seed, out, quiet


def _say(quiet: bool, line: str) -> None:
    if not quiet:
        print(line)


def _cmd_lora_sim(args) -> int:
    seed, out, quiet = _resolve(args)
    config = load_scenario(args.config, seed_override=seed)
    result = run_scenario(config)
    path = out / "result.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result, include_events=not args.no_events), fh, indent=2)
        fh.write("\n")
    _say(quiet, format_summary(result))
    _say(quiet, f"wrote {path}")
    return 0


def _cmd_gen_data(args) -> int:
    seed, out, quiet = _resolve(args)
    seed = 0 if seed is None else seed
    soils, truth = generate_dataset(args.num_soils, num_plants=args.num_plants, seed=seed)
    sparse = mask(truth, args.sparsity, seed=seed)
    write_soils_csv(out / "soils.csv", soils)
    write_rating_csv(out / "truth.csv", truth)
    write_rating_csv(out / "sparse.csv", sparse)
    missing = int((sparse.values == 0).sum())
    _say(
        quiet,
        f"wrote {out / 'soils.csv'}, {out / 'truth.csv'}, {out / 'sparse.csv'} "
        f"({args.num_soils} soils x {truth.n} plants, {missing} cells masked)",
    )
    return 0


def _cmd_complete(args) -> int:
    seed, out, quiet = _resolve(args)
    sparse = read_sparse_csv(args.sparse)
    # every input is read and checked before any output is written
    truth = read_full_csv(args.truth) if args.truth else None
    if truth is not None and truth.values.shape != sparse.values.shape:
        shapes = " and ".join("x".join(map(str, m.values.shape)) for m in (truth, sparse))
        raise DimensionError(f"--truth and the sparse matrix differ in shape: {shapes}")
    completed = complete_matrix(sparse, k=args.k)
    write_rating_csv(out / "full.csv", completed)
    _say(quiet, f"wrote {out / 'full.csv'} (k={args.k})")
    if truth is not None:
        masked = sparse.values == 0
        cm = evaluate_completion(truth, completed, masked)
        measured = float(masked.mean())
        report = out / "completion_report.json"
        write_confusion_json(report, cm, sparsity=measured, k=args.k)
        _say(
            quiet,
            f"wrote {report} (accuracy {cm.accuracy:.4f} over {int(masked.sum())} masked cells)",
        )
    return 0


def _cmd_bench(args) -> int:
    seed, out, quiet = _resolve(args)
    seed = 0 if seed is None else seed
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        raise ModelError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    progress = None
    if not quiet:

        def progress(row):
            print(
                f"{row.kind:<14} size={row.size:<6} accuracy={row.accuracy:.4f} "
                f"mse={row.mse:.4f} train={row.train_ms:.1f}ms infer={row.infer_ms:.1f}ms"
            )

    rows = benchmark(kinds=kinds, sizes=sizes, seed=seed, progress=progress)
    write_bench_csv(out / "bench.csv", rows)
    write_bench_json(out / "bench.json", rows, seed)
    write_curve_csv(out / "curve.csv", rows)
    _say(quiet, f"wrote {out / 'bench.csv'}, {out / 'bench.json'}, {out / 'curve.csv'}")
    return 0


def _cmd_recommend(args) -> int:
    seed, out, quiet = _resolve(args)
    model = load_model(args.model)
    if args.soil is not None:
        soil = SoilProfile(*args.soil)
    else:
        soils = read_soils_csv(args.soils_csv)
        if not 0 <= args.row < len(soils):
            raise ConfigurationError(f"--row must be in 0..{len(soils) - 1}, got {args.row}")
        soil = soils[args.row]
    top = recommend_top_n(model, soil, args.n)
    doc = {
        "model_kind": model.kind,
        "soil": list(soil.as_array()),
        "n": args.n,
        "ranking": [{"rank": i + 1, "plant": j, "score": s} for i, (j, s) in enumerate(top)],
    }
    path = out / "recommendation.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    log = out / "recommendations.jsonl"
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
    _say(quiet, f"{'rank':<6}{'plant':<8}score")
    for i, (j, s) in enumerate(top):
        _say(quiet, f"{i + 1:<6}plant_{j:<2} {s:.4f}")
    _say(quiet, f"wrote {path}, appended to {log}")
    return 0


def _cmd_pipeline_demo(args) -> int:
    seed, out, quiet = _resolve(args)
    seed = 0 if seed is None else seed
    pipeline.run_demo(
        out,
        seed=seed,
        retrain_period=args.retrain_period,
        log=None if quiet else print,
    )
    _say(quiet, f"wrote artifacts under {out} (report: {out / 'pipeline_report.json'})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
