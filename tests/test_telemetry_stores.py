"""Edge store ingestion/durability and at-least-once cloud forwarding."""

import pytest

from memory_sink import InMemoryCloudSink
from microfarm.telemetry import (
    EdgeStore,
    FileCloudSink,
    ForwardBusyError,
    IntegrityError,
    SensorReading,
    StorageError,
    encode_reading,
    forward_batch,
)
from microfarm.telemetry.cloud import BACKOFF_BASE_S, BACKOFF_FACTOR, MAX_ATTEMPTS, make_envelope


def _frame(device_id=1, seq=0, n=10):
    return encode_reading(
        SensorReading(
            device_id=device_id, seq=seq, n_ppm=n, p_ppm=20, k_ppm=30,
            temp_centi_c=2000, ph_centi=700,
        )
    )


def _fill(store, device_id=1, count=5):
    for seq in range(count):
        store.ingest(_frame(device_id=device_id, seq=seq), (-60.0, 8.0))


def test_ingest_returns_record_with_metadata(tmp_path):
    store = EdgeStore(tmp_path)
    rec = store.ingest(_frame(seq=3), (-61.5, 7.25))
    assert rec.reading.seq == 3
    assert rec.rssi_dbm == -61.5
    assert rec.snr_db == 7.25
    assert not rec.forwarded and not rec.duplicate


def test_virtual_clock_is_monotonic_per_device(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=4)
    _fill(store, device_id=2, count=5)
    # a reopened store resumes the clock where its log left off
    store = EdgeStore(tmp_path)
    for seq in range(4, 8):
        store.ingest(_frame(device_id=1, seq=seq), (-60.0, 8.0))
    for device_id in (1, 2):
        stamps = [r.received_at_ms for r in EdgeStore(tmp_path).records(device_id)]
        assert all(a < b for a, b in zip(stamps, stamps[1:])), stamps


@pytest.mark.parametrize("stamp", ["Infinity", "-Infinity", "NaN", '"9"'])
def test_unusable_receive_time_raises_storage_error(tmp_path, stamp):
    store = EdgeStore(tmp_path)
    _fill(store, count=2)
    path = tmp_path / "device_1.ndjson"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"received_at_ms":2.0', f'"received_at_ms":{stamp}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StorageError, match=r"device_1\.ndjson line 2: "):
        EdgeStore(tmp_path)


def test_decode_errors_propagate_and_store_nothing(tmp_path):
    store = EdgeStore(tmp_path)
    bad = bytearray(_frame())
    bad[-1] ^= 0x01
    with pytest.raises(IntegrityError):
        store.ingest(bytes(bad), (-60.0, 8.0))
    assert len(store) == 0


def test_repeat_seq_is_flagged_duplicate(tmp_path):
    store = EdgeStore(tmp_path)
    first = store.ingest(_frame(seq=5), (-60.0, 8.0))
    again = store.ingest(_frame(seq=5), (-60.0, 8.0))
    assert not first.duplicate
    assert again.duplicate
    assert len(store) == 2  # append-only log keeps both
    assert [r.reading.seq for r in store.unforwarded()] == [5]  # but only one forwards


def test_duplicate_tracking_is_per_device(tmp_path):
    store = EdgeStore(tmp_path)
    a = store.ingest(_frame(device_id=1, seq=9), (-60.0, 8.0))
    b = store.ingest(_frame(device_id=2, seq=9), (-60.0, 8.0))
    assert not a.duplicate and not b.duplicate


def test_store_reloads_records_and_forward_marks(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=3)
    store.mark_forwarded(1, 0)
    store.mark_forwarded(1, 0)  # idempotent
    reopened = EdgeStore(tmp_path)
    assert len(reopened) == 3
    flags = {r.reading.seq: r.forwarded for r in reopened.records(1)}
    assert flags == {0: True, 1: False, 2: False}
    assert [r.reading.seq for r in reopened.unforwarded()] == [1, 2]


def test_forward_batch_acks_everything_against_clean_sink(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=6)
    sink = InMemoryCloudSink()
    assert forward_batch(store, sink, sleep=lambda s: None) == 6
    assert store.unforwarded() == []
    assert len(sink.ids()) == 6


def test_forward_batch_is_single_flight(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=1)
    store.forward_lock.acquire()
    try:
        with pytest.raises(ForwardBusyError):
            forward_batch(store, InMemoryCloudSink(), sleep=lambda s: None)
    finally:
        store.forward_lock.release()


def test_forward_batch_retries_with_exponential_backoff(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=1)
    sink = InMemoryCloudSink(fail_first_attempts=2)
    naps = []
    assert forward_batch(store, sink, sleep=naps.append) == 1
    assert naps == [BACKOFF_BASE_S, BACKOFF_BASE_S * BACKOFF_FACTOR]
    assert sink.send_calls == 3


def test_forward_batch_gives_up_after_max_attempts(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=1)
    sink = InMemoryCloudSink(fail_first_attempts=MAX_ATTEMPTS + 5)
    assert forward_batch(store, sink, sleep=lambda s: None) == 0
    assert sink.send_calls == MAX_ATTEMPTS
    assert len(store.unforwarded()) == 1  # still eligible for the next pass


class _StoreThenNackOnce:
    """Stores the envelope but loses the first ack, like a timed-out response."""

    def __init__(self):
        self.ids = []
        self.sends = 0

    def send(self, envelope):
        self.sends += 1
        if envelope.envelope_id not in self.ids:
            self.ids.append(envelope.envelope_id)
            return False  # stored, ack lost
        return True


def test_lost_ack_is_retried_without_cloud_duplicate(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=1)
    sink = _StoreThenNackOnce()
    assert forward_batch(store, sink, sleep=lambda s: None) == 1
    assert sink.ids == [(1, 0)]  # exactly one copy despite the resend
    assert store.unforwarded() == []
    assert sink.sends == 2


def test_forward_batch_respects_max_batch(tmp_path):
    store = EdgeStore(tmp_path)
    _fill(store, count=5)
    sink = InMemoryCloudSink()
    assert forward_batch(store, sink, max_batch=2, sleep=lambda s: None) == 2
    assert len(store.unforwarded()) == 3


def test_file_cloud_sink_deduplicates_across_reopen(tmp_path):
    store = EdgeStore(tmp_path / "edge")
    _fill(store, count=2)
    records = store.records()
    path = tmp_path / "cloud.jsonl"
    sink = FileCloudSink(path)
    assert sink.send(make_envelope(records[0]))
    assert sink.send(make_envelope(records[0]))  # same id acked, not re-stored
    reopened = FileCloudSink(path)
    assert reopened.send(make_envelope(records[0]))
    assert reopened.send(make_envelope(records[1]))
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
    assert len(lines) == 2
    assert len(reopened) == 2
