"""Append-only edge store for decoded sensor readings.

One newline-delimited JSON file per device plus a small append-only sidecar
(``forwarded.log``) marking which records have been acknowledged by the
cloud.  Records are never rewritten in place.  Only newline-terminated
lines count: reopening a store after a crash recovers every record whose
line was complete, and cuts a torn last line off its log (see
``read_log``).  The sidecar is the one record of forwarded state; the
``forwarded`` flag of a record is read from it.

Record identity: a record's ``key`` is (device_id, position), where the
position is its 16-bit seq unwrapped against the device's newest position
(RFC 1982 serial-number arithmetic: up to 2^15 ahead counts as ahead, the
rest as behind).  The position is derived again on replay and never logged
in a device log; ``forwarded.log`` holds one "<device_id> <position>" line
per acknowledged record.  A frame whose key a non-duplicate record already
holds is still appended, but flagged ``duplicate`` and never forwarded.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, fields, replace
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .codec import SensorReading, decode_reading

SEQ_MOD = 1 << 16
DUP_WINDOW = 1 << 15


class StorageError(OSError):
    """Edge store could not be read or appended."""


T = TypeVar("T")


def read_log(path: Path, parse: Callable[[str], T]) -> tuple[list[T], int]:
    """The parsed complete lines of an append-only newline-delimited log.

    A crash mid-append can leave an unterminated last line.  It is cut off
    the file, so the next append starts on a fresh line.  Returns
    ``parse(line)`` for each complete line, without its newline, and the
    number of torn tails cut (0 or 1).  A missing file reads as empty.  A
    complete line that is not UTF-8 or that ``parse`` rejects (ValueError,
    KeyError, TypeError or OverflowError) raises StorageError naming the
    file and line.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    end = data.rfind(b"\n") + 1
    if end < len(data):
        os.truncate(path, end)
    parsed = []
    for number, raw in enumerate(data[:end].split(b"\n")[:-1], start=1):
        try:
            parsed.append(parse(raw.decode("utf-8")))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            what = f"{path} line {number}: unreadable record {raw[:60]!r}"
            raise StorageError(f"{what} ({exc})") from exc
    return parsed, int(end < len(data))


def append_line(path: Path, line: str) -> None:
    """Append ``line`` and its newline to a log with one O_APPEND write."""
    data = memoryview((line + "\n").encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


@dataclass(frozen=True)
class EdgeRecord:
    """One ingested reading plus its reception metadata."""

    reading: SensorReading
    received_at_ms: float
    rssi_dbm: float
    snr_db: float
    forwarded: bool = False
    duplicate: bool = False
    position: int = 0  # seq unwrapped on the device's axis; not logged

    @property
    def key(self) -> tuple[int, int]:
        """The record's identity: (device_id, position)."""
        return (self.reading.device_id, self.position)

    def to_json_obj(self) -> dict:
        obj = {name: getattr(self.reading, name) for name in _READING_FIELDS}
        for name in _RECORD_FIELDS:
            obj[name] = getattr(self, name)
        return obj

    @staticmethod
    def from_json_obj(obj: dict, position: int) -> "EdgeRecord":
        reading = SensorReading(**{name: obj[name] for name in _READING_FIELDS})
        rest = {name: obj[name] for name in _RECORD_FIELDS}
        return EdgeRecord(reading, position=position, **rest)


# JSON keys of a logged record, in log order: the reading's fields, then the rest.
_READING_FIELDS = tuple(f.name for f in fields(SensorReading))
_RECORD_FIELDS = tuple(f.name for f in fields(EdgeRecord) if f.name not in ("reading", "position"))


def _forward_id(line: str) -> tuple[int, int]:
    dev, position = line.split()
    return int(dev), int(position)


class EdgeStore:
    """Durable per-device record logs under one directory.

    Records are stamped by a virtual clock that advances 1 ms per ingest, so
    tests and demo runs are deterministic.  A reopened store resumes it from
    the largest logged ``received_at_ms``, rounded down, so receive times
    keep rising across reopens.  Appends and the owed records are guarded by
    an internal lock; forwarding passes take ``forward_lock`` (single-flight,
    see cloud.forward_batch).  ``torn_tails`` counts the logs whose torn last
    line was cut on open.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create store directory {self.root}: {exc}") from exc
        self._ticks = 0  # the virtual clock: ms of the latest stamp
        self._write_lock = threading.Lock()
        self.forward_lock = threading.Lock()
        self._forward_log = self.root / "forwarded.log"
        self._records: list[EdgeRecord] = []  # as logged, forwarded=False
        self._anchor: dict[int, int] = {}  # each device's newest non-duplicate position
        self._held: set[tuple[int, int]] = set()  # keys of non-duplicate records
        self._forwarded: set[tuple[int, int]] = set()  # keys in forwarded.log
        self._owed: dict[tuple[int, int], EdgeRecord] = {}  # held, not forwarded, in log order
        self._paths: dict[int, Path] = {}  # each device's log, built once
        self.torn_tails = 0
        self._load()

    def _device_path(self, device_id: int) -> Path:
        path = self._paths.get(device_id)
        if path is None:
            path = self._paths[device_id] = self.root / f"device_{device_id}.ndjson"
        return path

    def _load(self) -> None:
        ids, self.torn_tails = read_log(self._forward_log, _forward_id)
        self._forwarded.update(ids)
        for path in sorted(self.root.glob("device_*.ndjson")):
            self.torn_tails += read_log(path, self._replay)[1]

    def _replay(self, line: str) -> None:
        """Keep one logged record; its position follows from the device's earlier ones."""
        obj = json.loads(line)
        self._ticks = max(self._ticks, math.floor(obj["received_at_ms"]))
        self._keep(EdgeRecord.from_json_obj(obj, self._position(obj["device_id"], obj["seq"])))

    def _position(self, device_id: int, seq: int) -> int:
        """Where ``seq`` lies on the device's unwrapped axis."""
        anchor = self._anchor.get(device_id, seq)
        ahead = (seq - anchor) % SEQ_MOD
        return anchor + ahead if ahead <= DUP_WINDOW else anchor + ahead - SEQ_MOD

    def _keep(self, rec: EdgeRecord) -> None:
        dev, key = rec.reading.device_id, rec.key
        if not rec.duplicate:
            self._anchor[dev] = max(self._anchor.get(dev, rec.position), rec.position)
            self._held.add(key)
            if key not in self._forwarded:
                self._owed[key] = rec
        self._records.append(rec)

    def _view(self, rec: EdgeRecord) -> EdgeRecord:
        if rec.duplicate or rec.key not in self._forwarded:
            return rec
        return replace(rec, forwarded=True)

    def ingest(self, frame_payload: bytes, link: tuple[float, float]) -> EdgeRecord:
        """Decode one frame, stamp it with the edge clock, append it.

        Decode errors propagate unchanged; write failures raise StorageError.
        """
        reading = decode_reading(frame_payload)
        with self._write_lock:
            self._ticks += 1
            position = self._position(reading.device_id, reading.seq)
            rec = EdgeRecord(
                reading=reading,
                received_at_ms=float(self._ticks),
                rssi_dbm=float(link[0]),
                snr_db=float(link[1]),
                duplicate=(reading.device_id, position) in self._held,
                position=position,
            )
            line = json.dumps(rec.to_json_obj(), separators=(",", ":"))
            try:
                append_line(self._device_path(reading.device_id), line)
            except OSError as exc:
                raise StorageError(f"append failed: {exc}") from exc
            self._keep(rec)
            return rec

    def records(self, device_id: int | None = None) -> list[EdgeRecord]:
        return [
            self._view(r)
            for r in self._records
            if device_id is None or r.reading.device_id == device_id
        ]

    def unforwarded(self, limit: int | None = None) -> list[EdgeRecord]:
        """Records still owed to the cloud, in log order: not forwarded, not duplicates."""
        with self._write_lock:
            return list(islice(self._owed.values(), limit))

    def mark_forwarded(self, device_id: int, position: int) -> None:
        key = (device_id, position)
        with self._write_lock:
            if key in self._forwarded:
                return
            try:
                append_line(self._forward_log, f"{device_id} {position}")
            except OSError as exc:
                raise StorageError(f"forward mark failed: {exc}") from exc
            self._forwarded.add(key)
            self._owed.pop(key, None)

    def __iter__(self) -> Iterator[EdgeRecord]:
        return map(self._view, self._records)

    def __len__(self) -> int:
        return len(self._records)
