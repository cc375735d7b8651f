"""Sensor telemetry pipeline: wire codec, edge ingestion store, cloud forwarding.

Data path: a device encodes one soil reading into a fixed 17-byte frame
(codec), the edge decodes and appends it to a per-device log (edge), and a
forwarding pass ships unforwarded records to a cloud sink with at-least-once
retries while the cloud deduplicates, so cloud contents are exactly-once
(cloud).
"""

from .codec import (
    CodecError,
    FramingError,
    IntegrityError,
    SensorReading,
    ValidationError,
    VersionError,
    crc16_ccitt_false,
    decode_reading,
    encode_reading,
)
from .edge import EdgeRecord, EdgeStore, StorageError
from .cloud import (
    CloudEnvelope,
    CloudSink,
    FileCloudSink,
    ForwardBusyError,
    forward_batch,
)

__all__ = [
    "CodecError",
    "FramingError",
    "IntegrityError",
    "ValidationError",
    "VersionError",
    "SensorReading",
    "crc16_ccitt_false",
    "encode_reading",
    "decode_reading",
    "EdgeRecord",
    "EdgeStore",
    "StorageError",
    "CloudEnvelope",
    "CloudSink",
    "FileCloudSink",
    "ForwardBusyError",
    "forward_batch",
]
