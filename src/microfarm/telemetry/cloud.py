"""Edge-to-cloud forwarding with at-least-once delivery and cloud dedup.

The sink contract is a single ``send(envelope) -> bool`` (ack/nack).  The
forwarder retries each envelope with exponential backoff until acked or the
per-call attempt cap is hit; a record is marked forwarded only after an ack.
Sinks deduplicate by envelope_id, the record's (device_id, position) key, so
however often delivery is retried the cloud holds each reading exactly once.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Protocol

from .edge import EdgeRecord, EdgeStore, append_line, read_log

BACKOFF_BASE_S = 0.1
BACKOFF_FACTOR = 2.0
MAX_ATTEMPTS = 5


class ForwardBusyError(RuntimeError):
    """Another forwarding pass already holds the store's forward lock."""


@dataclass(frozen=True)
class CloudEnvelope:
    """At-least-once delivery of one cloud line (``body``); ``attempt`` climbs from 1."""

    body: dict
    attempt: int = 1

    def __post_init__(self) -> None:
        if self.attempt < 1:
            raise ValueError("attempt must be >= 1")

    @property
    def envelope_id(self) -> tuple[int, int]:
        """The record's key: (device_id, position)."""
        return (self.body["device_id"], self.body["position"])


class CloudSink(Protocol):
    def send(self, envelope: CloudEnvelope) -> bool:
        """Deliver one envelope; True = ack, False = nack."""
        ...


class FileCloudSink:
    """Durable sink: one append-only NDJSON log plus a dedup index.

    Each line is an envelope body.  The index of (device_id, position) keys
    is rebuilt from the log's complete lines on open, so reopening never
    readmits an envelope_id that was already stored.  A torn last line is cut
    off the log (see edge.read_log) and counted in ``torn_tails``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        ids, self.torn_tails = read_log(self.path, _envelope_id)
        self._ids = set(ids)

    def send(self, envelope: CloudEnvelope) -> bool:
        if envelope.envelope_id not in self._ids:
            append_line(self.path, json.dumps(envelope.body, separators=(",", ":")))
            self._ids.add(envelope.envelope_id)
        return True

    def ids(self) -> set[tuple[int, int]]:
        return set(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def _envelope_id(line: str) -> tuple[int, int]:
    return CloudEnvelope(json.loads(line)).envelope_id


def make_envelope(record: EdgeRecord) -> CloudEnvelope:
    """A record's cloud line: its logged fields less the edge-only flags, plus its position."""
    body = record.to_json_obj()
    del body["forwarded"], body["duplicate"]
    body["position"] = record.position
    return CloudEnvelope(body)


def forward_batch(
    store: EdgeStore,
    cloud_sink: CloudSink,
    max_batch: int | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Forward up to ``max_batch`` unforwarded records; returns the ack count.

    Each envelope gets at most MAX_ATTEMPTS sends per call, sleeping
    base * factor**(attempt-1) after each nack.  Unacked records stay
    unforwarded and remain eligible for the next call.  Single-flight: a
    concurrent call on the same store raises ForwardBusyError.
    """
    if not store.forward_lock.acquire(blocking=False):
        raise ForwardBusyError("a forwarding pass is already running for this store")
    try:
        forwarded = 0
        for record in store.unforwarded(max_batch):
            envelope = make_envelope(record)
            while True:
                if cloud_sink.send(envelope):
                    store.mark_forwarded(*envelope.envelope_id)
                    forwarded += 1
                    break
                if envelope.attempt >= MAX_ATTEMPTS:
                    break
                sleep(BACKOFF_BASE_S * BACKOFF_FACTOR ** (envelope.attempt - 1))
                envelope = replace(envelope, attempt=envelope.attempt + 1)
        return forwarded
    finally:
        store.forward_lock.release()
