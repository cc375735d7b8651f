"""Run-to-run spread of every end-to-end metric, over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S] [--out FILE]

Runs ``run.py`` once per (seed, workload), seeds outermost so that slow
drift in the host's speed falls on every workload alike, and reports for
each metric the median, the quartiles and the spread: the distance between
the quartiles as a share of the median (``statistics.quantiles``, n=4).
Besides the BENCHMARK.json metrics it covers the workload figures each run
prints by name (``telemetry_frames_per_s``, ``recommend_p50_ms``, ...).
A spread at or above a third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchstats import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        detail = done.stderr[-2000:]
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{detail}")
    result = json.loads(lines[-1])
    record_line = next(line for line in lines if line.startswith("record "))
    record = json.loads((ROOT / record_line.split(" ", 1)[1]).read_text(encoding="utf-8"))
    return {"result": result, "figures": record["figures"], "passes": len(record["passes"])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", help="write the samples and spreads here as JSON")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            run = run_once(w, seed, args.seconds)
            if not run["result"]["correct"] or run["result"]["failed"]:
                raise RuntimeError(f"{w} seed {seed} failed its checks")
            values = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            values.update({k: v for k, v in run["figures"].items() if k not in values})
            for name, value in values.items():
                samples[w].setdefault(name, []).append(value)
            print(f"{w} seed {seed}: passes={run['passes']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    flagged = 0
    for w in workloads:
        report["workloads"][w] = {}
        for name, xs in samples[w].items():
            if name == "ops_failed_share":
                continue
            q1, mid, q3 = quartiles(xs)
            row = {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(mid),
                   "bound": bounds.get(name), "samples": xs}
            # set-up time is judged by its median only, so its spread is not flagged
            flag = (
                name != "setup_s"
                and row["bound"] is not None
                and row["spread"] >= row["bound"] / 3
            )
            flagged += flag
            report["workloads"][w][name] = row
            print(f"{w:16} {name:24} median {row['median']:<12.5g} spread {row['spread']:.4f}"
                  + (f" bound {row['bound']}" if row["bound"] is not None else "")
                  + ("  <- at or above a third of the bound" if flag else ""))
    print(f"{flagged} spreads at or above a third of their bound")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
