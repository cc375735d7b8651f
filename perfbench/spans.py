"""In-memory spans around the calls into each layer of the program.

The traced run replaces each public layer function, wherever a module of
the package imported it, with a wrapper that records a span: name, start,
end, the span that was open when it was called (its parent) and the
request it belongs to.  Classes get the same treatment for the methods
listed in ``LAYER_CALLS``.  Nothing in the program's source changes; the
originals are put back when ``Tracer.patched`` exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end", "attrs")

    def __init__(self, sid, name, parent, request, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_obj(self, epoch: float) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "request": self.request,
            "start_s": self.start - epoch,
            "end_s": self.end - epoch,
            "attrs": self.attrs,
        }


class Tracer:
    """Span recorder; one per traced run, single-threaded like the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[Span] = []
        self.epoch = time.perf_counter()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self.request, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        """A span around benchmark-level work, optionally starting a request."""
        outer = self.request
        if request is not None:
            self.request = request
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.request = outer

    def wrap(self, name: str, func, observe=None, rewrite=None):
        """``func`` recording a span per call.

        ``observe(args, kwargs, result)`` returns the span's attributes and
        runs after the span has closed, so its cost is not counted.
        ``rewrite(span, args, kwargs)`` may swap arguments before the call.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if rewrite is not None:
                    args, kwargs = rewrite(span, args, kwargs)
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                attrs = observe(args, kwargs, result)
                if attrs:
                    span.attrs = {**(span.attrs or {}), **attrs}
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install a span wrapper for every entry of LAYER_CALLS, then undo it."""
        undo = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "microfarm"]
        try:
            for name, where, attr, observe, rewrite in LAYER_CALLS:
                owner = sys.modules.get(where)
                if owner is None:
                    continue  # the workload never imported this layer
                rewrite = rewrite(self) if rewrite is not None else None
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original, observe, rewrite))
                    continue
                original = getattr(owner, attr)
                traced = self.wrap(name, original, observe, rewrite)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, traced)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_obj(self.epoch), separators=(",", ":")) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        yield None


# --- what each layer call records -------------------------------------------


def _channel_counts(args, kwargs, result):
    sent = sum(d.packets_sent for d in result.devices)
    received = sum(d.packets_received for d in result.devices)
    backoffs = sum(1 for e in result.events if e.kind == "backoff")
    return {
        "frames_sent": sent,
        "frames_received": received,
        "collision_groups": result.collision_count,
        "backoff_events": backoffs,
    }


def _ingest_flags(args, kwargs, result):
    return {"duplicate": 1} if result.duplicate else None


def _forward_acks(args, kwargs, result):
    return {"acks": result}


def _forward_rewrite(tracer: Tracer):
    """Observe forward_batch's sink and sleep at the call boundary."""
    signature = inspect.signature(sys.modules["microfarm.telemetry.cloud"].forward_batch)

    def rewrite(span, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        bound.arguments["cloud_sink"] = _SinkProbe(tracer, bound.arguments["cloud_sink"])
        sleep = bound.arguments["sleep"]

        def recorded_sleep(seconds):
            attrs = span.attrs if span.attrs is not None else {}
            attrs["backoff_s"] = attrs.get("backoff_s", 0.0) + seconds
            span.attrs = attrs
            sleep(seconds)

        bound.arguments["sleep"] = recorded_sleep
        return bound.args, bound.kwargs

    return rewrite


class _SinkProbe:
    """Forwards to the real sink, recording one span per send."""

    def __init__(self, tracer: Tracer, sink) -> None:
        self._tracer = tracer
        self._sink = sink

    def send(self, envelope) -> bool:
        span = self._tracer._open("cloud.send")
        try:
            ack = self._sink.send(envelope)
        finally:
            self._tracer._close(span)
        span.attrs = {"attempt": envelope.attempt, "ack": bool(ack)}
        return ack


def _fit_kind(args, kwargs, result):
    return {"kind": result.kind}


def _predict_rows(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    features = args[1] if len(args) > 1 else kwargs["features"]
    return {"kind": model.kind, "rows": int(len(features))}


def _missing_cells(args, kwargs, result):
    observed = result.observed
    return {"cells": int(observed.size - observed.sum())}


def _accuracy(args, kwargs, result):
    return {"accuracy": result.accuracy}


# (span name, module, function or Class.method, observe, rewrite factory)
LAYER_CALLS = (
    ("channel.run_scenario", "microfarm.channel", "run_scenario", _channel_counts, None),
    ("codec.encode_reading", "microfarm.telemetry.codec", "encode_reading", None, None),
    ("edge.open", "microfarm.telemetry.edge", "EdgeStore.__init__", None, None),
    ("edge.ingest", "microfarm.telemetry.edge", "EdgeStore.ingest", _ingest_flags, None),
    ("edge.unforwarded", "microfarm.telemetry.edge", "EdgeStore.unforwarded", None, None),
    ("edge.mark_forwarded", "microfarm.telemetry.edge", "EdgeStore.mark_forwarded", None, None),
    ("cloud.open", "microfarm.telemetry.cloud", "FileCloudSink.__init__", None, None),
    (
        "cloud.forward_batch",
        "microfarm.telemetry.cloud",
        "forward_batch",
        _forward_acks,
        _forward_rewrite,
    ),
    ("ratings.generate_dataset", "microfarm.ratings", "generate_dataset", None, None),
    ("ratings.mask", "microfarm.ratings", "mask", None, None),
    ("ratings.complete_matrix", "microfarm.ratings", "complete_matrix", _missing_cells, None),
    ("ratings.evaluate_completion", "microfarm.ratings", "evaluate_completion", _accuracy, None),
    ("models.fit", "microfarm.models", "fit", _fit_kind, None),
    ("models.predict_matrix", "microfarm.models", "predict_matrix", _predict_rows, None),
    ("models.predict", "microfarm.models", "predict", None, None),
    ("models.recommend_top_n", "microfarm.models", "recommend_top_n", None, None),
    ("models.save_model", "microfarm.models", "save_model", None, None),
    ("models.load_model", "microfarm.models", "load_model", None, None),
    ("bench.benchmark", "microfarm.bench", "benchmark", None, None),
    ("pipeline.run_demo", "microfarm.pipeline", "run_demo", None, None),
    ("cli.main", "microfarm.cli", "main", None, None),
)
