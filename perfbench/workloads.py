"""The benchmark's three workloads.

Each workload builds its inputs from the seed when it is constructed
(with the package import, the set-up the benchmark times as ``setup_s``),
then runs any number of identical passes.  A pass times the workload's chain of layer calls,
checks the program's outputs and returns a ``PassResult``.  Passes call
the program through module attributes (``self.tel.encode_reading``), so a
traced pass sees the span wrappers that ``spans.Tracer.patched`` installs.

Why these three, and which layers each one loads, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from benchstats import percentile


@dataclass
class PassResult:
    wall_s: float  # the workload's timed chain
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # deterministic for a seed
    digests: dict = field(default_factory=dict)  # sha256 of deterministic outputs
    timings: dict = field(default_factory=dict)  # other wall-clock figures


def _child_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _record_rows(records) -> list[str]:
    """Edge records in a canonical, order-free form, for comparing two stores."""
    return sorted(json.dumps(r.to_json_obj(), sort_keys=True) for r in records)


def _log_bytes(edge_dir: Path) -> int:
    return sum(p.stat().st_size for p in edge_dir.glob("device_*.ndjson"))


# --- field-telemetry ---------------------------------------------------------

FIELD_DEVICES = 300
FIELD_FRAMES = 20  # per device
FIELD_CAD_SHARE = 0.8  # devices with channel activity detection on
FIELD_INTERVAL_MS = 20_000.0  # dense: about 80 % of frames survive the channel
FIELD_JITTER_MS = 500.0
FORWARD_EVERY = 200  # arrivals between forwarding passes
RETRANSMIT_EVERY = 10  # as in pipeline-demo: every 10th arrival comes twice
NACK_SHARE = 0.04  # uplink sends dropped before the cloud stores them
LOST_ACK_SHARE = 0.02  # uplink sends stored by the cloud whose ack is lost
FINAL_FORWARD_LIMIT = 10  # forwarding passes allowed after the last arrival


class FlakyUplink:
    """Cloud sink wrapper that nacks a seeded share of sends.

    A nack either drops the envelope or, for the lost-ack share, comes after
    the wrapped sink stored it.  Sends, acks and retries are counted by the
    traced run's sink probe; this wrapper counts only the faults it injects.
    """

    def __init__(self, sink, seed: int) -> None:
        self.sink = sink
        self._rng = random.Random(seed)
        self.nacks = self.lost_acks = 0

    def send(self, envelope) -> bool:
        r = self._rng.random()
        if r < NACK_SHARE:
            self.nacks += 1
            return False
        stored = self.sink.send(envelope)
        if r < NACK_SHARE + LOST_ACK_SHARE:
            self.lost_acks += 1
            return False
        return stored


class FieldTelemetry:
    """Radio to channel to edge to cloud for a dense field, then a gateway restart."""

    name = "field-telemetry"
    min_passes = 3

    def __init__(self, seed: int) -> None:
        from microfarm import channel, lora, telemetry

        self.channel = channel
        self.tel = telemetry
        device_seed, reading_seed, scenario_seed, self.uplink_seed = _child_seeds(seed, 4)

        rng = np.random.default_rng(device_seed)
        devices = []
        for idx in range(FIELD_DEVICES):
            link = lora.LinkProfile(
                mean_rssi=float(rng.uniform(-112.0, -50.0)),
                rssi_stddev=2.0,
                mean_snr=float(rng.uniform(-5.0, 10.0)),
                snr_stddev=1.0,
            )
            devices.append(
                channel.DeviceConfig(
                    device_id=idx + 1,
                    payload_len=telemetry.codec.FRAME_LEN,
                    link_profile=link,
                    packet_count=FIELD_FRAMES,
                    send_interval_ms=FIELD_INTERVAL_MS,
                    start_offset_ms=None,
                    start_offset_window_ms=FIELD_INTERVAL_MS,
                    interval_jitter_ms=FIELD_JITTER_MS,
                    cad_enabled=bool(rng.random() < FIELD_CAD_SHARE),
                )
            )
        self.scenario = channel.ScenarioConfig(
            radio=lora.RadioConfig(), devices=tuple(devices), seed=scenario_seed, name=self.name
        )

        rng = np.random.default_rng(reading_seed)
        # N, P, K in ppm, temperature in 0.01 degC, pH in 0.01: a fixed plot plus drift
        low, high = [20, 20, 20, 500, 400], [140, 140, 140, 3500, 900]
        base = rng.uniform(low, high, (FIELD_DEVICES, 1, 5))
        drift = rng.normal(0.0, [2, 2, 2, 40, 10], (FIELD_DEVICES, FIELD_FRAMES, 5))
        values = np.rint(base + drift).astype(int).tolist()
        self.readings = [
            telemetry.SensorReading(dev + 1, seq, *values[dev][seq])
            for dev in range(FIELD_DEVICES)
            for seq in range(FIELD_FRAMES)
        ]

    @staticmethod
    def figures(results: list[PassResult]) -> dict:
        return {
            "telemetry_frames_per_s": (
                median(r.timings["telemetry_frames_per_s"] for r in results), "1/s"
            ),
            "gateway_restart_s": (median(r.timings["gateway_restart_s"] for r in results), "s"),
        }

    def run_pass(self, work: Path, tracer) -> PassResult:
        tel = self.tel
        forward_sleeps: list[float] = []  # the forwarder's backoff sleeps, recorded, not slept
        start = time.perf_counter()
        frames = {(r.device_id, r.seq): tel.encode_reading(r) for r in self.readings}
        result = self.channel.run_scenario(self.scenario)
        links = {
            (st.device_id, seq): (rssi, snr)
            for st in result.devices
            for seq, rssi, snr in zip(st.received_seqs, st.rssi_received, st.snr_received)
        }
        arrivals = [(e.device_id, e.seq) for e in result.events if e.kind == "received"]
        store = tel.EdgeStore(work / "edge")
        uplink = FlakyUplink(tel.FileCloudSink(work / "cloud.jsonl"), self.uplink_seed)
        offered = []
        forward_passes = 0
        for i, key in enumerate(arrivals, start=1):
            copies = 2 if i % RETRANSMIT_EVERY == 0 else 1
            for _ in range(copies):
                store.ingest(frames[key], links[key])
                offered.append(key)
            if i % FORWARD_EVERY == 0:
                tel.forward_batch(store, uplink, sleep=forward_sleeps.append)
                forward_passes += 1
        for _ in range(FINAL_FORWARD_LIMIT):
            tel.forward_batch(store, uplink, sleep=forward_sleeps.append)
            forward_passes += 1
            if not store.unforwarded():
                break
        wall = time.perf_counter() - start

        with tracer.span("bench.restart"):
            restart_start = time.perf_counter()
            reopened = tel.EdgeStore(work / "edge")
            cloud = tel.FileCloudSink(work / "cloud.jsonl")
            recovered = len(reopened)
            owed = reopened.unforwarded()
            cloud_ids = cloud.ids()
            restart_s = time.perf_counter() - restart_start

        problems = []
        received = set(arrivals)
        stored = Counter(
            (obj["device_id"], obj["seq"])
            for obj in map(json.loads, (work / "cloud.jsonl").read_text().splitlines())
        )
        missing, extra = received - stored.keys(), stored.keys() - received
        repeated = {key for key, n in stored.items() if n > 1}
        bad = missing | repeated
        if missing or extra or repeated or cloud_ids != stored.keys():
            problems.append(
                f"cloud log misses {len(missing)} received pairs, holds {len(extra)} unreceived "
                f"and {len(repeated)} repeated ones; the reopened sink reports {len(cloud_ids)}"
            )
        before, after = _record_rows(store), _record_rows(reopened)
        if before != after:
            problems.append(f"restart recovered {recovered} of {len(store)} records unchanged")
            changed = map(json.loads, set(before) ^ set(after))
            bad |= {(obj["device_id"], obj["seq"]) for obj in changed}
        if owed:
            problems.append(f"{len(owed)} records left unforwarded after the restart")
            bad |= {(r.reading.device_id, r.reading.seq) for r in owed}
        failed = sum(1 for key in offered if key in bad) + len(extra)

        counts = {
            "frames_offered_by_devices": len(self.readings),
            "frames_sent": sum(d.packets_sent for d in result.devices),
            "frames_received": len(arrivals),
            "collision_groups": result.collision_count,
            "edge_ingests": len(store),
            "edge_duplicates": sum(1 for r in store if r.duplicate),
            "edge_log_bytes": _log_bytes(work / "edge"),
            "forward_passes": forward_passes,
            "uplink_nacks": uplink.nacks,
            "uplink_lost_acks": uplink.lost_acks,
            "backoff_requested_s": sum(forward_sleeps),
            "cloud_records": len(cloud_ids),
            "records_recovered": recovered,
        }
        return PassResult(
            wall_s=wall + restart_s,
            attempted=len(offered),
            failed=min(failed, len(offered)),
            problems=problems,
            counts=counts,
            digests={"cloud.jsonl": _sha256(work / "cloud.jsonl")},
            timings={
                "telemetry_frames_per_s": len(self.readings) / wall,
                "gateway_restart_s": restart_s,
            },
        )


# --- pipeline-demo -----------------------------------------------------------

DEMO_RETRAIN_PERIOD = 20  # recommendations served inside run_demo
REQUESTS_PER_PASS = 60  # closed loop, one client, against the demo's model
TOP_N = 3
PLANTS = 15


class PipelineDemo:
    """pipeline.run_demo, then a one-client closed loop of CLI recommend requests."""

    name = "pipeline-demo"
    min_passes = 2  # 120 requests, so that ten lie beyond p90

    def __init__(self, seed: int) -> None:
        from microfarm import cli, pipeline, ratings

        self.cli = cli
        self.pipeline = pipeline
        self.demo_seed, request_seed = _child_seeds(seed, 2)
        soils, _ = ratings.generate_dataset(REQUESTS_PER_PASS, seed=request_seed)
        self.requests = [[repr(float(v)) for v in s.as_array()] for s in soils]

    @staticmethod
    def figures(results: list[PassResult]) -> dict:
        latencies = [ms for r in results for ms in r.timings["recommend_ms"]]
        return {
            "demo_wall_s": (median(r.timings["demo_wall_s"] for r in results), "s"),
            "recommend_p50_ms": (percentile(latencies, 50), "ms"),
            "recommend_p90_ms": (percentile(latencies, 90), "ms"),
        }

    def run_pass(self, work: Path, tracer) -> PassResult:
        out = work / "demo"
        start = time.perf_counter()
        report = self.pipeline.run_demo(
            out, seed=self.demo_seed, retrain_period=DEMO_RETRAIN_PERIOD
        )
        demo_wall = time.perf_counter() - start

        problems = []
        demo_failed = 0
        doc = json.loads((out / "pipeline_report.json").read_text(encoding="utf-8"))
        unique = doc["edge_ingests"] - doc["edge_duplicates"]
        if doc["cloud_records"] != unique or report.cloud_records != unique:
            problems.append(f"cloud holds {doc['cloud_records']} records, {unique} unique ingests")
            demo_failed = 1

        model = out / "model.json"
        answers = work / "requests"
        latencies_ms = []
        ranking_log = hashlib.sha256()
        bad_requests = 0
        for i, soil in enumerate(self.requests):
            argv = ["recommend", str(model), "--soil", *soil, "-n", str(TOP_N)]
            argv += ["--quiet", "--out", str(answers)]
            with tracer.span("bench.request", request=f"request-{i}"):
                begin = time.perf_counter()
                code = self.cli.main(argv)
                latencies_ms.append((time.perf_counter() - begin) * 1000.0)
            problem = None
            if code != 0:
                problem = f"recommend exited {code}"
            else:
                ranking = json.loads((answers / "recommendation.json").read_text())["ranking"]
                ranking_log.update(json.dumps(ranking).encode())
                problem = _ranking_problem(ranking)
            if problem:
                bad_requests += 1
                problems.append(f"request {i}: {problem}")
        wall = demo_wall + sum(latencies_ms) / 1000.0  # the harness's checks are left out

        counts = {
            key: doc[key]
            for key in (
                "frames_encoded",
                "frames_received",
                "edge_ingests",
                "edge_duplicates",
                "cloud_records",
                "recommendations",
                "retrain_counts",
            )
        }
        counts["completion_accuracy"] = doc["completion_accuracy"]
        counts["edge_log_bytes"] = _log_bytes(out / "edge")
        counts["model_bytes"] = model.stat().st_size
        counts["requests"] = len(self.requests)
        digests = {
            name: _sha256(out / name)
            for name in ("cloud.jsonl", "full.csv", "model.json", "pipeline_report.json")
        }
        digests["recommendations.jsonl"] = _sha256(out / "recommendations.jsonl")
        digests["request_rankings"] = ranking_log.hexdigest()
        return PassResult(
            wall_s=wall,
            attempted=1 + len(self.requests),
            failed=demo_failed + bad_requests,
            problems=problems,
            counts=counts,
            digests=digests,
            timings={"demo_wall_s": demo_wall, "recommend_ms": latencies_ms},
        )


def _ranking_problem(ranking: list) -> str | None:
    plants = [entry["plant"] for entry in ranking]
    scores = [entry["score"] for entry in ranking]
    if len(plants) != TOP_N or len(set(plants)) != TOP_N:
        return f"expected {TOP_N} distinct plants, got {plants}"
    if not all(isinstance(p, int) and 0 <= p < PLANTS for p in plants):
        return f"plant index out of range in {plants}"
    if not all(isinstance(s, float) and math.isfinite(s) for s in scores):
        return f"non-finite score in {scores}"
    if scores != sorted(scores, reverse=True):
        return f"scores not ranked: {scores}"
    return None


# --- corpus-refresh ----------------------------------------------------------

REFRESH_SOILS = 2000
REFRESH_SPARSITY = 0.4
REFRESH_NEIGHBORS = 20
REFRESH_SIZES = (100, 500)  # bench sweep sizes, every model kind at each
COMPLETION_ACCURACY_FLOOR = 0.55  # exact-match share of masked cells


class CorpusRefresh:
    """The work of the ``complete`` and ``bench`` subcommands on a fresh corpus."""

    name = "corpus-refresh"
    min_passes = 3

    def __init__(self, seed: int) -> None:
        from microfarm import bench, models, ratings

        self.bench = bench
        self.ratings = ratings
        self.kinds = models.MODEL_KINDS
        self.data_seed, self.mask_seed, self.bench_seed = _child_seeds(seed, 3)

    @staticmethod
    def figures(results: list[PassResult]) -> dict:
        return {"refresh_wall_s": (median(r.wall_s for r in results), "s")}

    def run_pass(self, work: Path, tracer) -> PassResult:
        ratings, bench = self.ratings, self.bench
        work.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        soils, truth = ratings.generate_dataset(REFRESH_SOILS, seed=self.data_seed)
        sparse = ratings.mask(truth, REFRESH_SPARSITY, seed=self.mask_seed)
        completed = ratings.complete_matrix(sparse, k=REFRESH_NEIGHBORS)
        masked = sparse.values == 0
        cm = ratings.evaluate_completion(truth, completed, masked)
        ratings.write_rating_csv(work / "full.csv", completed)
        rows = bench.benchmark(kinds=self.kinds, sizes=REFRESH_SIZES, seed=self.bench_seed)
        bench.write_curve_csv(work / "curve.csv", rows)
        wall = time.perf_counter() - start

        problems = []
        completion_failed = 0
        values = completed.values
        if values.min() < 1 or values.max() > 5:
            problems.append("completed cells outside 1..5")
            completion_failed = 1
        if not np.array_equal(values[~masked], sparse.values[~masked]):
            problems.append("completion changed observed cells")
            completion_failed = 1
        if not cm.accuracy >= COMPLETION_ACCURACY_FLOOR:
            problems.append(f"completion accuracy {cm.accuracy} below {COMPLETION_ACCURACY_FLOOR}")
            completion_failed = 1
        expected = {(k, s) for s in REFRESH_SIZES for k in self.kinds}
        good = {
            (r.kind, r.size)
            for r in rows
            if 0.0 <= r.accuracy <= 1.0 and math.isfinite(r.mse) and r.mse >= 0.0
        }
        if good != expected or len(rows) != len(expected):
            problems.append(f"bench cells failing checks: {sorted(expected - good)}")

        counts = {
            "soils": REFRESH_SOILS,
            "cells_completed": int(masked.sum()),
            "completion_accuracy": cm.accuracy,
            "curve": [[r.kind, r.size, r.accuracy, r.mse] for r in rows],
        }
        return PassResult(
            wall_s=wall,
            attempted=1 + len(expected),
            failed=completion_failed + len(expected - good),
            problems=problems,
            counts=counts,
            digests={name: _sha256(work / name) for name in ("full.csv", "curve.csv")},
        )


WORKLOADS = {w.name: w for w in (FieldTelemetry, PipelineDemo, CorpusRefresh)}
