"""Crash recovery of the telemetry logs, the duplicate window and exactly-once delivery."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microfarm.telemetry import (
    CloudEnvelope,
    EdgeStore,
    FileCloudSink,
    InMemoryCloudSink,
    SensorReading,
    StorageError,
    encode_reading,
    forward_batch,
)
from microfarm.telemetry.cloud import make_envelope
from microfarm.telemetry.edge import DUP_WINDOW, SEQ_MOD

LINK = (-60.0, 8.0)


def _frame(device_id, seq):
    return encode_reading(SensorReading(device_id, seq, 10, 20, 30, 2000, 700))


def _key(rec):
    return (rec.reading.device_id, rec.reading.seq)


# --- torn tails ---------------------------------------------------------------

LOGS = ("edge/forwarded.log", "edge/device_12.ndjson", "cloud.jsonl")


def _reopen_and_append(root, log):
    """Reopen the store or sink owning ``log``; return what it recovered, then append once."""
    if log == "cloud.jsonl":
        sink = FileCloudSink(root / log)
        recovered = (sink.torn_tails, sorted(sink.ids()))
        sink.send(CloudEnvelope((12, 999), {}))
        return recovered
    store = EdgeStore(root / "edge")
    if log == "edge/forwarded.log":
        recovered = (store.torn_tails, sorted(_key(r) for r in store.records() if r.forwarded))
        store.mark_forwarded(12, 999)
    else:
        recovered = (store.torn_tails, [r.to_json_obj() for r in store.records()])
        store.ingest(_frame(12, 999), LINK)
    return recovered


@settings(max_examples=15, deadline=None)
@given(
    seqs=st.lists(st.integers(0, 40), min_size=1, max_size=3),
    marks=st.integers(1, 3),
)
@example(seqs=[34, 3], marks=1)  # forwarded.log "12 34\n" cut to "12 3"
def test_torn_tail_at_every_offset_reopens_to_the_complete_lines(seqs, marks):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = EdgeStore(root / "edge")
        for seq in seqs:
            store.ingest(_frame(12, seq), LINK)
        sink = FileCloudSink(root / "cloud.jsonl")
        marked = []
        for rec in store.unforwarded()[:marks]:
            assert sink.send(make_envelope(rec))
            store.mark_forwarded(*_key(rec))
            marked.append(_key(rec))
        records = [r.to_json_obj() for r in store.records()]
        for log in LOGS:
            path = root / log
            full = path.read_bytes()
            for cut in range(len(full) + 1):
                path.write_bytes(full[:cut])
                boundary = full.rfind(b"\n", 0, cut) + 1
                kept = full[:boundary].count(b"\n")
                torn = int(boundary < cut)
                want = records[:kept] if log.endswith(".ndjson") else sorted(marked[:kept])
                assert _reopen_and_append(root, log) == (torn, want), cut
                data = path.read_bytes()
                # the append starts on a fresh line right after the complete ones
                assert data[:boundary] == full[:boundary]
                assert data[boundary:].count(b"\n") == 1 and data.endswith(b"\n")
            path.write_bytes(full)


@pytest.mark.parametrize("log", LOGS)
@pytest.mark.parametrize("garbage", (b"garbage", b"[1, 2]", b"\xff\xfe"))
def test_corrupt_complete_line_raises_storage_error_naming_file_and_line(tmp_path, log, garbage):
    store = EdgeStore(tmp_path / "edge")
    sink = FileCloudSink(tmp_path / "cloud.jsonl")
    for seq in (1, 2):
        rec = store.ingest(_frame(12, seq), LINK)
        sink.send(make_envelope(rec))
        store.mark_forwarded(12, seq)
    path = tmp_path / log
    path.write_bytes(path.read_bytes() + garbage + b"\n")
    with pytest.raises(StorageError, match=rf"{path.name} line 3: "):
        _reopen_and_append(tmp_path, log)


# --- duplicate window ---------------------------------------------------------


class _WindowReference:
    """Brute-force duplicate flags: every seq seen per device, pruned to the window."""

    def __init__(self):
        self.seen = {}
        self.anchor = {}

    def flag(self, dev, seq):
        in_window = lambda s: (self.anchor[dev] - s) % SEQ_MOD < DUP_WINDOW  # noqa: E731
        if dev in self.anchor and seq in self.seen[dev] and in_window(seq):
            return True
        seen = self.seen.setdefault(dev, set())
        seen.add(seq)
        if dev not in self.anchor or not in_window(seq):
            self.anchor[dev] = seq
        self.seen[dev] = {s for s in seen if in_window(s)}
        return False


_STEP = st.one_of(
    st.integers(-3, 3),
    st.integers(-DUP_WINDOW, DUP_WINDOW),
    st.sampled_from((DUP_WINDOW, DUP_WINDOW + 1, -DUP_WINDOW, 1 - DUP_WINDOW, SEQ_MOD - 1)),
)


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(0, SEQ_MOD - 1),
    steps=st.lists(st.tuples(st.integers(1, 3), _STEP), min_size=1, max_size=40),
    split=st.integers(0, 40),
)
def test_duplicate_flags_match_brute_force_live_and_reopened(start, steps, split):
    last, stream = {}, []
    for dev, step in steps:
        last[dev] = (last.get(dev, start) + step) % SEQ_MOD
        stream.append((dev, last[dev]))
    ref = _WindowReference()
    want = [ref.flag(dev, seq) for dev, seq in stream]
    with tempfile.TemporaryDirectory() as tmp:
        live = EdgeStore(Path(tmp) / "live")
        assert [live.ingest(_frame(*pair), LINK).duplicate for pair in stream] == want
        store = EdgeStore(Path(tmp) / "reopened")
        got = [store.ingest(_frame(*pair), LINK).duplicate for pair in stream[:split]]
        store = EdgeStore(Path(tmp) / "reopened")
        got += [store.ingest(_frame(*pair), LINK).duplicate for pair in stream[split:]]
        assert got == want


# --- exactly once -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nack_rate=st.floats(0.0, 0.5),
    store_then_nack_rate=st.floats(0.0, 0.4),
    pairs=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 30)), min_size=1, max_size=60),
    chunk=st.integers(1, 20),
)
def test_cloud_holds_each_unique_ingest_once_across_reopens(
    seed, nack_rate, store_then_nack_rate, pairs, chunk
):
    sink = InMemoryCloudSink(
        nack_rate=nack_rate, store_then_nack_rate=store_then_nack_rate, seed=seed
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = EdgeStore(root)
        for i in range(0, len(pairs), chunk):
            for pair in pairs[i : i + chunk]:
                store.ingest(_frame(*pair), LINK)
            forward_batch(store, sink, sleep=lambda s: None)
            store = EdgeStore(root)
        passes = 0
        while store.unforwarded():
            passes += 1
            assert passes < 100
            forward_batch(store, sink, sleep=lambda s: None)
            store = EdgeStore(root)
        unique = {_key(r) for r in store.records() if not r.duplicate}
        assert unique == set(pairs)
        assert sorted(e.envelope_id for e in sink.envelopes) == sorted(unique)
        assert all(r.forwarded != r.duplicate for r in store.records())
