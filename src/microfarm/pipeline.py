"""End-to-end desk demo wiring both workflows together.

Data collection: two sensor devices encode soil readings into fixed 17-byte
frames, contend for one LoRa channel, and whatever the gateway hears is
ingested into the edge store (with a few application-level retransmissions
thrown in) and forwarded exactly once to a cloud log.

Recommendation: a synthetic rating corpus is sparsified and completed, a
model is trained on the completed matrix, and a stream of ``retrain_period``
recommendation requests is served; the accepted recommendations are then
folded back into the training data, and the model is refitted and saved.

Every stage draws from substreams of one master seed, the edge store runs
on its virtual clock, and the forwarder sleeps through a no-op, so a fixed
seed reproduces every artifact byte for byte in a fresh ``out_dir``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .channel import DeviceConfig, ScenarioConfig, result_to_dict, run_scenario
from .lora import LinkProfile, RadioConfig
from .models import dataset_from_soils, fit, recommend_top_n, save_model
from .ratings import (
    FEATURE_HIGH,
    FEATURE_LOW,
    MAX_SOILS,
    FullRatingMatrix,
    SoilProfile,
    complete_matrix,
    evaluate_completion,
    generate_dataset,
    mask,
    to_ratings,
    write_confusion_json,
    write_rating_csv,
    write_soils_csv,
)
from .telemetry import EdgeStore, FileCloudSink, SensorReading, encode_reading, forward_batch
from .telemetry.codec import FRAME_LEN

STAGES = ("encode", "channel", "edge", "cloud", "complete", "recommend")

DEMO_PACKETS = 60  # frames per device
DEMO_SOILS = 600
DEMO_SPARSITY = 0.4
DEMO_NEIGHBORS = 20
DEMO_MODEL_KIND = "GradientBoost"
DEMO_TOP_N = 3
RETRANSMIT_EVERY = 10  # every 10th received frame arrives twice at the edge

_LINKS = (
    LinkProfile(mean_rssi=-48.0, rssi_stddev=1.2, mean_snr=9.0, snr_stddev=0.7),
    LinkProfile(mean_rssi=-61.0, rssi_stddev=1.5, mean_snr=7.0, snr_stddev=0.8),
)


@dataclass
class PipelineReport:
    """Counts and outcomes of one demo run, one field per checkable claim."""

    seed: int
    retrain_period: int
    frames_encoded: int = 0
    frames_received: int = 0
    edge_ingests: int = 0
    edge_duplicates: int = 0
    cloud_records: int = 0
    completion_accuracy: float = 0.0
    recommendations: int = 0
    retrain_counts: list[int] = field(default_factory=list)
    stages: tuple[str, ...] = STAGES


def _child_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def _device_readings(device_id: int, count: int, rng: np.random.Generator) -> list[SensorReading]:
    """One device's packet stream: a fixed plot plus small per-sample drift."""
    span = FEATURE_HIGH - FEATURE_LOW
    base = rng.uniform(FEATURE_LOW + 0.1 * span, FEATURE_HIGH - 0.1 * span)
    readings = []
    for seq in range(count):
        feat = np.clip(base + rng.normal(0.0, 0.01, size=5) * span, FEATURE_LOW, FEATURE_HIGH)
        readings.append(
            SensorReading(
                device_id=device_id,
                seq=seq,
                n_ppm=int(np.floor(feat[0] + 0.5)),
                p_ppm=int(np.floor(feat[1] + 0.5)),
                k_ppm=int(np.floor(feat[2] + 0.5)),
                temp_centi_c=int(np.floor(feat[3] * 100.0 + 0.5)),
                ph_centi=int(np.floor(feat[4] * 100.0 + 0.5)),
            )
        )
    return readings


def run_demo(
    out_dir: str | Path,
    seed: int = 0,
    retrain_period: int = 100,
    log=None,
) -> PipelineReport:
    """Run all six stages, write artifacts under ``out_dir``, return the report.

    Before writing anything, raises ValueError unless ``retrain_period`` is
    in 1..MAX_SOILS, and FileExistsError if ``out_dir`` already holds
    ``edge/`` or ``cloud.jsonl``: appending to an earlier run's logs would
    change the counts and every telemetry artifact.
    """
    if not 1 <= retrain_period <= MAX_SOILS:
        raise ValueError(f"retrain_period must be in 1..{MAX_SOILS}, got {retrain_period}")
    out = Path(out_dir)
    for earlier in (out / "edge", out / "cloud.jsonl"):
        if earlier.exists():
            raise FileExistsError(f"{earlier} already exists; run the demo into a fresh directory")
    out.mkdir(parents=True, exist_ok=True)
    emit = log if log is not None else (lambda line: None)
    report = PipelineReport(seed=seed, retrain_period=retrain_period)
    reading_seed, scenario_seed, data_seed, mask_seed, fit_seed, request_seed = _child_seeds(
        seed, 6
    )

    # stage 1: encode readings into wire frames
    rng = np.random.default_rng(reading_seed)
    frames: dict[int, dict[int, bytes]] = {}
    for idx in range(len(_LINKS)):
        device_id = idx + 1
        frames[device_id] = {
            r.seq: encode_reading(r) for r in _device_readings(device_id, DEMO_PACKETS, rng)
        }
    report.frames_encoded = sum(len(f) for f in frames.values())
    emit(
        f"[1/6] encode: {report.frames_encoded} readings framed "
        f"({FRAME_LEN} B each, {len(frames)} devices)"
    )

    # stage 2: contend for the channel (CAD keeps the two devices apart)
    scenario = ScenarioConfig(
        radio=RadioConfig(),
        devices=tuple(
            DeviceConfig(
                device_id=idx + 1,
                payload_len=FRAME_LEN,
                link_profile=link,
                packet_count=DEMO_PACKETS,
                send_interval_ms=400.0,
                start_offset_ms=float(150 * idx),
                cad_enabled=True,
            )
            for idx, link in enumerate(_LINKS)
        ),
        seed=scenario_seed,
        name="pipeline-demo",
    )
    result = run_scenario(scenario)
    with open(out / "channel_result.json", "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result), fh, indent=2)
        fh.write("\n")
    link_by_frame = {}
    for stats in result.devices:
        for seq, rssi, snr in zip(stats.received_seqs, stats.rssi_received, stats.snr_received):
            link_by_frame[(stats.device_id, seq)] = (rssi, snr)
    arrivals = [e for e in result.events if e.kind == "received"]
    report.frames_received = len(arrivals)
    emit(
        f"[2/6] channel: {report.frames_received}/{report.frames_encoded} frames received, "
        f"{result.collision_count} collisions"
    )

    # stage 3: edge ingest in arrival order, with injected retransmissions
    store = EdgeStore(out / "edge")
    for i, event in enumerate(arrivals):
        payload = frames[event.device_id][event.seq]
        link = link_by_frame[(event.device_id, event.seq)]
        store.ingest(payload, link)
        if (i + 1) % RETRANSMIT_EVERY == 0:
            store.ingest(payload, link)
    report.edge_ingests = len(store)
    report.edge_duplicates = sum(1 for rec in store if rec.duplicate)
    emit(
        f"[3/6] edge: {report.edge_ingests} ingests, "
        f"{report.edge_duplicates} flagged duplicate"
    )

    # stage 4: forward to the cloud log, exactly once
    sink = FileCloudSink(out / "cloud.jsonl")
    forwarded = forward_batch(store, sink, sleep=lambda s: None)
    report.cloud_records = len(sink)
    emit(f"[4/6] cloud: {forwarded} records forwarded, {report.cloud_records} stored")

    # stage 5: sparsify and complete the rating corpus
    soils, truth = generate_dataset(DEMO_SOILS, seed=data_seed)
    sparse = mask(truth, DEMO_SPARSITY, seed=mask_seed)
    completed = complete_matrix(sparse, k=DEMO_NEIGHBORS)
    cm = evaluate_completion(truth, completed, sparse.values == 0)
    write_soils_csv(out / "soils.csv", soils)
    write_rating_csv(out / "truth.csv", truth)
    write_rating_csv(out / "sparse.csv", sparse)
    write_rating_csv(out / "full.csv", completed)
    write_confusion_json(
        out / "completion_report.json",
        cm,
        sparsity=DEMO_SPARSITY,
        seed=mask_seed,
        k=DEMO_NEIGHBORS,
    )
    report.completion_accuracy = cm.accuracy
    emit(
        f"[5/6] complete: {DEMO_SOILS}x{truth.n} matrix at sparsity {DEMO_SPARSITY:.0%}, "
        f"exact-match accuracy {cm.accuracy:.4f} on masked cells"
    )

    # stage 6: train on the completed matrix, serve recommendations, retrain at T
    model = fit(DEMO_MODEL_KIND, dataset_from_soils(soils, completed), seed=fit_seed)
    request_soils, _ = generate_dataset(retrain_period, seed=request_seed)
    accepted = []
    with open(out / "recommendations.jsonl", "w", encoding="utf-8") as fh:
        for count, soil in enumerate(request_soils, start=1):
            # one prediction per request: rank every plant, then cut the top
            ranking = recommend_top_n(model, soil, model.n_plants)
            fh.write(
                json.dumps(
                    {
                        "count": count,
                        "soil": list(soil.as_array()),
                        "top": [{"plant": j, "score": s} for j, s in ranking[:DEMO_TOP_N]],
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            # the recommendation joins the full-ratings file the next model sees
            accepted.append(to_ratings(np.array([score for _, score in sorted(ranking)])))
    # the stream is exactly retrain_period requests long, so the one retrain
    # comes after its last request, and only the retrained model is saved
    grown = FullRatingMatrix(np.vstack([completed.values, *accepted]))
    model = fit(DEMO_MODEL_KIND, dataset_from_soils(soils + request_soils, grown), seed=fit_seed)
    save_model(model, out / "model.json")
    report.retrain_counts.append(retrain_period)
    report.recommendations = retrain_period
    emit(
        f"[6/6] recommend: {report.recommendations} requests served with {DEMO_MODEL_KIND}, "
        f"retrained at counts {report.retrain_counts}"
    )

    with open(out / "pipeline_report.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
