"""Crash recovery of the telemetry logs, the duplicate window, record identity
across a seq wrap and exactly-once delivery."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memory_sink import InMemoryCloudSink
from microfarm.telemetry import (
    CloudEnvelope,
    EdgeStore,
    FileCloudSink,
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


# --- torn tails ---------------------------------------------------------------

LOGS = ("edge/forwarded.log", "edge/device_12.ndjson", "cloud.jsonl")


def _reopen_and_append(root, log):
    """Reopen the store or sink owning ``log``; return what it recovered, then append once."""
    if log == "cloud.jsonl":
        sink = FileCloudSink(root / log)
        recovered = (sink.torn_tails, sorted(sink.ids()))
        sink.send(CloudEnvelope({"device_id": 12, "position": 999}))
        return recovered
    store = EdgeStore(root / "edge")
    if log == "edge/forwarded.log":
        recovered = (store.torn_tails, sorted(r.key for r in store.records() if r.forwarded))
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
            store.mark_forwarded(*rec.key)
            marked.append(rec.key)
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


# --- record identity across a seq wrap -----------------------------------------


def _no_sleep(seconds):
    pass


class _Cloud:
    """One cloud sink of either kind; ``reopen`` rebuilds a file sink from its log."""

    def __init__(self, kind, root):
        self.kind, self.path = kind, root / "cloud.jsonl"
        self.sink = InMemoryCloudSink() if kind == "memory" else FileCloudSink(self.path)

    def reopen(self):
        if self.kind == "file":
            self.sink = FileCloudSink(self.path)
        return self.sink


@pytest.mark.parametrize("reopen", (False, True), ids=("live", "reopened"))
@pytest.mark.parametrize("kind", ("memory", "file"))
def test_seq_reused_after_a_wrap_reaches_the_cloud(tmp_path, kind, reopen):
    """Seq 0 and 32768 forwarded, then seq 0 again: the third reading is new and owed."""
    cloud = _Cloud(kind, tmp_path)
    store = EdgeStore(tmp_path / "edge")
    for seq in (0, DUP_WINDOW):
        store.ingest(_frame(12, seq), LINK)
    assert forward_batch(store, cloud.sink, sleep=_no_sleep) == 2
    if reopen:
        store = EdgeStore(tmp_path / "edge")
        cloud.reopen()
    again = store.ingest(_frame(12, 0), LINK)
    assert not again.duplicate and again.key == (12, SEQ_MOD)
    assert store.unforwarded() == [again]
    assert forward_batch(store, cloud.sink, sleep=_no_sleep) == 1
    assert store.ingest(_frame(12, 0), LINK).duplicate
    if reopen:
        store = EdgeStore(tmp_path / "edge")
        cloud.reopen()
    assert store.unforwarded() == []
    assert sorted(cloud.sink.ids()) == [(12, 0), (12, DUP_WINDOW), (12, SEQ_MOD)]
    assert [r.forwarded for r in store.records()] == [True, True, True, False]
    log = (tmp_path / "edge" / "forwarded.log").read_text(encoding="utf-8")
    assert log == f"12 0\n12 {DUP_WINDOW}\n12 {SEQ_MOD}\n"


@pytest.mark.parametrize("kind", ("memory", "file"))
def test_seq_behind_the_first_gets_a_negative_position_and_forwards_once(tmp_path, kind):
    cloud = _Cloud(kind, tmp_path)
    store = EdgeStore(tmp_path / "edge")
    keys = [store.ingest(_frame(5, seq), LINK).key for seq in (10, SEQ_MOD - 6)]
    assert keys == [(5, 10), (5, -6)]
    assert forward_batch(store, cloud.sink, sleep=_no_sleep) == 2
    store, sink = EdgeStore(tmp_path / "edge"), cloud.reopen()
    assert store.unforwarded() == [] and forward_batch(store, sink, sleep=_no_sleep) == 0
    assert store.ingest(_frame(5, SEQ_MOD - 6), LINK).duplicate
    assert sorted(sink.ids()) == [(5, -6), (5, 10)]
    assert (tmp_path / "edge" / "forwarded.log").read_text(encoding="utf-8") == "5 10\n5 -6\n"


def test_cloud_line_is_the_record_plus_its_position(tmp_path):
    store = EdgeStore(tmp_path / "edge")
    rec = store.ingest(_frame(5, 7), LINK)
    path = tmp_path / "cloud.jsonl"
    sink = FileCloudSink(path)
    sink.send(make_envelope(rec))
    with pytest.raises(KeyError):  # a body without its key is never written
        sink.send(CloudEnvelope({"device_id": 5, "seq": 8}))
    line = json.loads(path.read_text(encoding="utf-8"))
    logged = rec.to_json_obj()
    del logged["forwarded"], logged["duplicate"]
    assert line == {**logged, "position": 7}
    assert list(line)[:2] == ["device_id", "seq"]
    assert FileCloudSink(path).ids() == {(5, 7)}


def test_old_format_cloud_line_raises_storage_error(tmp_path):
    body = {"device_id": 1, "seq": 0, "n_ppm": 48, "p_ppm": 66, "k_ppm": 88}
    body.update(temp_centi_c=2522, ph_centi=705, received_at_ms=1.0, rssi_dbm=-48.4)
    body.update(snr_db=8.9, forwarded=False, duplicate=False)
    old = {"device_id": 1, "seq": 0, "body": body}
    path = tmp_path / "cloud.jsonl"
    path.write_text(json.dumps(old, separators=(",", ":")) + "\n", encoding="utf-8")
    with pytest.raises(StorageError, match=r"cloud\.jsonl line 1: "):
        FileCloudSink(path)


# --- exactly once -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nack_rate=st.floats(0.0, 0.5),
    store_then_nack_rate=st.floats(0.0, 0.4),
    start=st.integers(SEQ_MOD - 40, SEQ_MOD - 1),
    steps=st.lists(st.tuples(st.integers(1, 3), _STEP), min_size=1, max_size=60),
    chunk=st.integers(1, 20),
)
def test_cloud_holds_each_unique_ingest_once_across_reopens(
    seed, nack_rate, store_then_nack_rate, start, steps, chunk
):
    last, stream = {}, []
    for dev, step in steps:
        last[dev] = (last.get(dev, start) + step) % SEQ_MOD
        stream.append((dev, last[dev]))
    ref = _WindowReference()
    fresh = [pair for pair in stream if not ref.flag(*pair)]
    sink = InMemoryCloudSink(
        nack_rate=nack_rate, store_then_nack_rate=store_then_nack_rate, seed=seed
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = EdgeStore(root)
        for i in range(0, len(stream), chunk):
            for pair in stream[i : i + chunk]:
                store.ingest(_frame(*pair), LINK)
            forward_batch(store, sink, sleep=_no_sleep)
            store = EdgeStore(root)
        passes = 0
        while store.unforwarded():
            passes += 1
            assert passes < 100
            forward_batch(store, sink, sleep=_no_sleep)
            store = EdgeStore(root)
        held = [r.key for r in store.records() if not r.duplicate]
        assert len(set(held)) == len(held) == len(fresh)
        assert sorted(e.envelope_id for e in sink.envelopes) == sorted(held)
        assert sorted((e.body["device_id"], e.body["seq"]) for e in sink.envelopes) == sorted(fresh)
        assert all(r.forwarded != r.duplicate for r in store.records())
