"""Tests for the benchmark's own arithmetic and span bookkeeping.

    python3 -m pytest -q perfbench
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchstats import failure_share, percentile, quartiles, self_time, spread
from layers import layer_metrics
from spans import Span, Tracer


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 101), 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(20), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0] * 20  # unsorted, with ties
    assert percentile(values, 50) == 3.0
    xs = [float(i) for i in range(200)]
    assert percentile(xs, 90) == pytest.approx(179.1)
    with pytest.raises(ValueError):
        percentile(xs, 99)  # only two samples would lie beyond it
    with pytest.raises(ValueError):
        percentile(xs, 100)


def test_spread_is_interquartile_range_over_median():
    xs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert quartiles(xs) == (q1, statistics.median(xs), q3)
    assert spread(xs) == pytest.approx((q3 - q1) / statistics.median(xs))
    assert spread([3.0] * 10) == 0.0
    with pytest.raises(ValueError):
        spread([0.0, 0.0, 0.0])


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    # overlapping children count once, and only inside the parent
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    assert self_time(2.0, 4.0, [(0.0, 10.0)]) == 0.0
    with pytest.raises(ValueError):
        self_time(5.0, 4.0, [])


def test_failure_share():
    assert failure_share(0, 120) == 0.0
    assert failure_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        failure_share(0, 0)
    with pytest.raises(ValueError):
        failure_share(5, 4)


def test_tracer_records_parents_requests_and_restores_functions():
    import microfarm.models as models
    import microfarm.pipeline as pipeline

    original = models.recommend_top_n
    tracer = Tracer()
    with tracer.patched():
        assert pipeline.recommend_top_n is not original
        assert models.recommend_top_n is pipeline.recommend_top_n
        with tracer.span("bench.request", request="r1"):
            with tracer.span("inner"):
                pass
    assert models.recommend_top_n is original and pipeline.recommend_top_n is original
    outer, inner = tracer.spans
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.request == outer.request == "r1"
    assert outer.start <= inner.start <= inner.end <= outer.end


def _span(sid, name, parent, start, end, attrs=None):
    s = Span(sid, name, parent, None, start)
    s.end = end
    s.attrs = attrs
    return s


def test_layer_metrics_per_pass_and_demo_stages():
    spans = [
        _span(0, "pipeline.run_demo", None, 0.0, 10.0),
        _span(1, "codec.encode_reading", 0, 0.5, 1.0),
        _span(2, "channel.run_scenario", 0, 1.0, 2.0, {"frames_sent": 4, "frames_received": 3}),
        _span(3, "edge.open", 0, 2.5, 3.0),
        _span(4, "cloud.open", 0, 4.0, 4.5),
        _span(5, "ratings.generate_dataset", 0, 5.0, 5.5),
        _span(6, "models.fit", 0, 7.0, 9.0, {"kind": "GradientBoost"}),
    ]
    m = layer_metrics(spans, [{"model_bytes": 100}], passes=1)
    assert m["pipeline.stage_s.encode"] == 1.0
    assert m["pipeline.stage_s.channel"] == 1.5
    assert m["pipeline.stage_s.edge"] == 1.5
    assert m["pipeline.stage_s.cloud"] == 1.0
    assert m["pipeline.stage_s.complete"] == 2.0
    assert m["pipeline.stage_s.recommend"] == 3.0
    assert m["pipeline.self_s"] == pytest.approx(10.0 - 5.0)
    assert m["channel.delivered_ratio"] == 0.75
    assert m["models.fit_s.GradientBoost"] == 2.0
    assert m["models.fit_s.KNN"] == 0.0
    assert m["models.model_bytes"] == 100
    halved = layer_metrics(spans, [{"model_bytes": 100}] * 2, passes=2)
    assert halved["channel.frames_sent"] == 2.0 and halved["channel.delivered_ratio"] == 0.75
