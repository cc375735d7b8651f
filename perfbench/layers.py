"""Per-layer metrics, derived from the spans of a traced run.

Sums of time and counts are given per traced pass (their mean over the
traced passes); latencies are percentiles pooled over every traced call.
A layer that the workload does not call reads 0.  ``counts`` holds the
workload's own deterministic counts for each traced pass; the few metrics
that no span can see (bytes on disk, records recovered, accuracy) come
from there.
"""

from __future__ import annotations

from collections import defaultdict

from benchstats import percentile, self_time
from microfarm.models import MODEL_KINDS

# Each pipeline.run_demo stage begins with the first call into the layer
# that starts it; the demo runs its stages in this order.
DEMO_STAGES = (
    ("encode", None),  # from the start of run_demo
    ("channel", "channel.run_scenario"),
    ("edge", "edge.open"),
    ("cloud", "cloud.open"),
    ("complete", "ratings.generate_dataset"),
    ("recommend", "models.fit"),
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _pctl(samples: list[float], q: float) -> float:
    return percentile(samples, q) if samples else 0.0


def layer_metrics(spans, counts: list[dict], passes: int) -> dict[str, float]:
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    names = {s.sid: s.name for s in spans}

    def total(name, where=None):
        return sum(s.duration for s in by_name[name] if where is None or where(s))

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name])

    def under(parent_name):
        return lambda s: names.get(s.parent) == parent_name

    def count_mean(key):
        return _ratio(sum(c.get(key, 0) for c in counts), len(counts))

    def self_s(span):
        return self_time(span.start, span.end, [(c.start, c.end) for c in children[span.sid]])

    per_pass = 1.0 / passes
    m: dict[str, float] = {}

    encode_s = total("codec.encode_reading")
    encodes = len(by_name["codec.encode_reading"])
    m["codec.encode_s"] = encode_s * per_pass
    m["codec.encode_us_per_frame"] = _ratio(encode_s, encodes, 1e6)
    m["codec.frames_encoded"] = encodes * per_pass

    channel_s = total("channel.run_scenario")
    sent = attr_sum("channel.run_scenario", "frames_sent")
    received = attr_sum("channel.run_scenario", "frames_received")
    m["channel.run_scenario_s"] = channel_s * per_pass
    m["channel.frames_per_busy_s"] = _ratio(sent, channel_s)
    m["channel.frames_sent"] = sent * per_pass
    m["channel.frames_received"] = received * per_pass
    for key in ("collision_groups", "backoff_events"):
        m[f"channel.{key}"] = attr_sum("channel.run_scenario", key) * per_pass
    m["channel.delivered_ratio"] = _ratio(received, sent)

    ingest_s = total("edge.ingest")
    ingests = len(by_name["edge.ingest"])
    m["edge.ingest_s"] = ingest_s * per_pass
    m["edge.ingest_us_per_record"] = _ratio(ingest_s, ingests, 1e6)
    m["edge.ingests"] = ingests * per_pass
    m["edge.duplicates"] = attr_sum("edge.ingest", "duplicate") * per_pass
    m["edge.log_bytes_per_record"] = _ratio(
        count_mean("edge_log_bytes"), count_mean("edge_ingests")
    )
    m["edge.reopen_s"] = total("edge.open", under("bench.restart")) * per_pass
    m["edge.records_recovered"] = count_mean("records_recovered")

    forward_s = total("cloud.forward_batch")
    sends = by_name["cloud.send"]
    acks = sum(1 for s in sends if s.attrs["ack"])
    m["cloud.forward_s"] = forward_s * per_pass
    m["cloud.forward_us_per_record"] = _ratio(forward_s, acks, 1e6)
    m["cloud.forward_passes"] = len(by_name["cloud.forward_batch"]) * per_pass
    m["cloud.sends"] = len(sends) * per_pass
    m["cloud.acks"] = acks * per_pass
    m["cloud.retries"] = sum(1 for s in sends if s.attrs["attempt"] > 1) * per_pass
    m["cloud.backoff_requested_s"] = attr_sum("cloud.forward_batch", "backoff_s") * per_pass
    m["cloud.records"] = count_mean("cloud_records")
    m["cloud.reopen_s"] = total("cloud.open", under("bench.restart")) * per_pass

    complete_s = total("ratings.complete_matrix")
    cells = attr_sum("ratings.complete_matrix", "cells")
    evaluations = by_name["ratings.evaluate_completion"]
    m["ratings.complete_s"] = complete_s * per_pass
    m["ratings.cells_completed"] = cells * per_pass
    m["ratings.complete_cells_per_s"] = _ratio(cells, complete_s)
    m["ratings.mask_s"] = total("ratings.mask") * per_pass
    m["ratings.generate_s"] = total("ratings.generate_dataset") * per_pass
    m["ratings.completion_accuracy"] = _ratio(
        sum(s.attrs["accuracy"] for s in evaluations), len(evaluations)
    )

    swept = list(filter(under("bench.benchmark"), by_name["models.predict_matrix"]))
    for kind in MODEL_KINDS:
        fits = total("models.fit", lambda s: s.attrs["kind"] == kind)
        m[f"models.fit_s.{kind}"] = fits * per_pass
        mine = [s for s in swept if s.attrs["kind"] == kind]
        m[f"models.predict_us_per_row.{kind}"] = _ratio(
            sum(s.duration for s in mine), sum(s.attrs["rows"] for s in mine), 1e6
        )
    recommend_ms = [s.duration * 1e3 for s in by_name["models.recommend_top_n"]]
    demo_predicts = filter(under("pipeline.run_demo"), by_name["models.predict"])
    demo_predict_ms = [s.duration * 1e3 for s in demo_predicts]
    m["models.recommend_ms_p50"] = _pctl(recommend_ms, 50)
    m["models.recommend_ms_p90"] = _pctl(recommend_ms, 90)
    m["models.predict_ms_p50"] = _pctl(demo_predict_ms, 50)
    m["models.save_model_s"] = total("models.save_model") * per_pass
    m["models.load_model_ms"] = _pctl([s.duration * 1e3 for s in by_name["models.load_model"]], 50)
    m["models.model_bytes"] = count_mean("model_bytes")
    m["bench.benchmark_s"] = total("bench.benchmark") * per_pass
    m["cli.recommend_self_ms"] = _pctl([self_s(s) * 1e3 for s in by_name["cli.main"]], 50)

    stage_s = dict.fromkeys((stage for stage, _ in DEMO_STAGES), 0.0)
    demo_self_s = 0.0
    for demo in by_name["pipeline.run_demo"]:
        firsts = {}
        for child in children[demo.sid]:
            firsts.setdefault(child.name, child.start)
        bounds = [demo.start] + [firsts[name] for _, name in DEMO_STAGES[1:]] + [demo.end]
        for (stage, _), begin, end in zip(DEMO_STAGES, bounds, bounds[1:]):
            stage_s[stage] += end - begin
        demo_self_s += self_s(demo)
    for stage, seconds in stage_s.items():
        m[f"pipeline.stage_s.{stage}"] = seconds * per_pass
    m["pipeline.self_s"] = demo_self_s * per_pass
    return m
