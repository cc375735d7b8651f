"""Run one benchmark workload against the microfarm package in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Before every pass it sets the workload up afresh (imports the package and
builds the inputs from the seed), repeats passes until about S seconds
have been measured, checks every output and prints the metrics named in
BENCHMARK.json.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
passes alternate between untraced and traced, and the metrics are the
per-layer ones plus the tracing overhead.  A record of the run (metadata,
counts, output digests, every sample) goes to ``.perfbench/runs/`` and, when
traced, its spans next to it.  The exit code is nonzero when any check
fails or the package cannot be found.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from benchstats import failure_share
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TRACED_PASSES = 2  # at least, in a traced run; the untraced ones keep their own minimum


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path):
    """Import microfarm from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "microfarm" / "__init__.py").is_file():
        raise ProgramMissing(f"no microfarm package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import microfarm

    if Path(microfarm.__file__).resolve().parent != (src / "microfarm").resolve():
        raise ProgramMissing(f"imported microfarm from {microfarm.__file__}, not {src}")
    return microfarm


def set_up(name: str, seed: int):
    """Import the package afresh and build the workload's inputs from the seed.

    Any earlier import of the package is dropped from ``sys.modules`` first,
    so every call pays the whole import again.  The harness and NumPy are
    imported already and are not timed.  Returns the workload and the
    seconds the set-up took.
    """
    for module in [m for m in sys.modules if m.split(".")[0] == "microfarm"]:
        del sys.modules[module]
    began = time.perf_counter()
    load_program(ROOT)
    workload = WORKLOADS[name](seed)
    return workload, time.perf_counter() - began


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def process_threads():
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(microfarm) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(ROOT),
        "microfarm": microfarm.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(args, workload, setup_s: float, work: Path):
    """Repeat set-up and pass until ``args.seconds`` are spent and each side has enough passes.

    ``workload`` and ``setup_s`` come from the first set-up; every later pass
    gets a set-up of its own, so the set-up samples span the whole run.
    Traced runs start untraced and then alternate, so that traced and
    untraced passes see the same drift in the host's speed.
    """
    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else None
    runs = []  # (traced, PassResult, seconds the pass took, spans index range)
    setup_samples = [setup_s]
    patch_s = []
    rss_untraced = None
    start = time.perf_counter()
    while True:
        index = len(runs)
        if index:
            workload, setup_s = set_up(args.workload, args.seed)
            setup_samples.append(setup_s)
        traced = bool(args.trace) and index % 2 == 1
        pass_dir = work / f"pass-{index}"
        began = time.perf_counter()
        if traced:
            first = len(tracer.spans)
            t = time.perf_counter()
            with tracer.patched():
                patch_s.append(time.perf_counter() - t)
                with tracer.span("bench.pass", request=f"pass-{index}"):
                    result = workload.run_pass(pass_dir, tracer)
            span_range = (first, len(tracer.spans))
        else:
            result = workload.run_pass(pass_dir, NullTracer())
            span_range = None
            if rss_untraced is None:
                rss_untraced = peak_rss_mb()
        took = time.perf_counter() - began
        shutil.rmtree(pass_dir, ignore_errors=True)
        runs.append((traced, result, took, span_range))
        n_traced = sum(1 for r in runs if r[0])
        enough = len(runs) - n_traced >= workload.min_passes and (
            not args.trace or n_traced >= TRACED_PASSES
        )
        if enough and time.perf_counter() - start + took > args.seconds:
            return runs, setup_samples, tracer, patch_s, rss_untraced


def consistency_problems(results) -> list[str]:
    """Every pass runs the same inputs, so counts and digests must repeat exactly."""
    problems = []
    first = results[0]
    for i, r in enumerate(results[1:], start=1):
        for what in ("counts", "digests"):
            a, b = getattr(first, what), getattr(r, what)
            diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            if diff:
                problems.append(f"pass {i} {what} differ from pass 0: {diff}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, setup_s = set_up(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = metadata(sys.modules["microfarm"])
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        runs, setup_samples, tracer, patch_s, rss_untraced = run_passes(
            args, workload, setup_s, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["threads"] = process_threads()

    results = [r[1] for r in runs]
    problems = [f"pass {i}: {p}" for i, r in enumerate(results) for p in r.problems]
    problems += consistency_problems(results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if problems and failed == 0:
        failed = 1  # a failed check that no single operation owns still fails the run
    untraced = [r[1] for r in runs if not r[0]]
    values = {
        "wall_s": median(r.wall_s for r in untraced),
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    named = {name: (value, units[name]) for name, value in values.items()}
    named.update(WORKLOADS[args.workload].figures(untraced))
    named["ops_failed_share"] = (failure_share(failed, attempted), "ratio")

    if args.trace:
        from layers import layer_metrics

        traced = [r for r in runs if r[0]]
        spans = [s for r in traced for s in tracer.spans[r[3][0]:r[3][1]]]
        values = layer_metrics(spans, [r[1].counts for r in traced], len(traced))
        values["trace.overhead_setup_s"] = median(patch_s)
        values["trace.overhead_wall_s"] = median(r[1].wall_s for r in traced) - named["wall_s"][0]
        values["trace.overhead_peak_rss_mb"] = peak_rss_mb() - rss_untraced
        values["trace.spans_per_pass"] = len(spans) / len(traced)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": meta,
        "setup_samples_s": setup_samples,
        "passes": [
            {"traced": t, "wall_s": r.wall_s, "pass_s": took, "timings": r.timings}
            for t, r, took, _ in runs
        ],
        "figures": {name: value for name, (value, _) in named.items()},
        "metrics": metrics,
        "layer_metrics": values if args.trace else None,
        "counts": results[0].counts,
        "digests": results[0].digests,
        "problems": problems,
    }
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(runs_dir / f"{stem}-spans.jsonl")

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(runs)} "
        + " ".join(f"{k}={v}" for k, v in meta.items())
    )
    print("counts " + json.dumps(results[0].counts, separators=(",", ":")))
    print("digests " + json.dumps(results[0].digests, separators=(",", ":")))
    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(f"record {runs_dir.relative_to(ROOT) / (stem + '.json')}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
