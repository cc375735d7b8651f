"""Fixed 17-byte wire codec for soil sensor readings.

Frame layout, all multi-byte fields big-endian:

    version u8 = 0x01 | device_id u16 | seq u16 | n u16 | p u16 | k u16
    | temp i16 | ph u16 | crc u16

The trailing CRC is CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF,
no reflection, xorout 0x0000) over the first 15 bytes.  Temperature is in
hundredths of a degree Celsius, pH in hundredths of a pH unit, N/P/K in ppm.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass

FRAME_VERSION = 0x01
FRAME_LEN = 17
_BODY = struct.Struct(">BHHHHHhH")  # 15 bytes
_CRC = struct.Struct(">H")

TEMP_CENTI_RANGE = (-4000, 8500)
PH_CENTI_RANGE = (0, 1400)
_U16 = (0, 0xFFFF)


class CodecError(ValueError):
    """Base class for frame encode/decode failures."""


class FramingError(CodecError):
    """Frame has the wrong length."""


class VersionError(CodecError):
    """Frame carries an unsupported version byte."""


class IntegrityError(CodecError):
    """Frame CRC does not match its contents."""


class ValidationError(CodecError):
    """Reading field outside its allowed range."""


@dataclass(frozen=True)
class SensorReading:
    """One soil measurement as produced by a device.

    ``temp_centi_c`` must lie in [-4000, 8500] and ``ph_centi`` in [0, 1400];
    the remaining fields are plain 16-bit unsigned values.  Timestamps are
    deliberately absent: devices are clockless, the edge stamps on ingest.
    """

    device_id: int
    seq: int
    n_ppm: int
    p_ppm: int
    k_ppm: int
    temp_centi_c: int
    ph_centi: int

    def __post_init__(self) -> None:
        for name in ("device_id", "seq", "n_ppm", "p_ppm", "k_ppm"):
            v = getattr(self, name)
            if not _U16[0] <= v <= _U16[1]:
                raise ValidationError(f"{name} must be in 0..65535, got {v}")
        if not TEMP_CENTI_RANGE[0] <= self.temp_centi_c <= TEMP_CENTI_RANGE[1]:
            raise ValidationError(
                f"temp_centi_c must be in {TEMP_CENTI_RANGE}, got {self.temp_centi_c}"
            )
        if not PH_CENTI_RANGE[0] <= self.ph_centi <= PH_CENTI_RANGE[1]:
            raise ValidationError(f"ph_centi must be in {PH_CENTI_RANGE}, got {self.ph_centi}")


def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, xorout 0."""
    return binascii.crc_hqx(data, 0xFFFF)


def encode_reading(r: SensorReading) -> bytes:
    """Serialize a reading into its 17-byte frame."""
    body = _BODY.pack(
        FRAME_VERSION,
        r.device_id,
        r.seq,
        r.n_ppm,
        r.p_ppm,
        r.k_ppm,
        r.temp_centi_c,
        r.ph_centi,
    )
    return body + _CRC.pack(crc16_ccitt_false(body))


def decode_reading(frame: bytes) -> SensorReading:
    """Parse and verify a 17-byte frame; exact inverse of encode_reading."""
    if len(frame) != FRAME_LEN:
        raise FramingError(f"frame must be {FRAME_LEN} bytes, got {len(frame)}")
    body, crc_bytes = frame[:-2], frame[-2:]
    if crc16_ccitt_false(body) != _CRC.unpack(crc_bytes)[0]:
        raise IntegrityError("frame CRC mismatch")
    version, device_id, seq, n, p, k, temp, ph = _BODY.unpack(body)
    if version != FRAME_VERSION:
        raise VersionError(f"unsupported frame version {version:#04x}")
    return SensorReading(
        device_id=device_id,
        seq=seq,
        n_ppm=n,
        p_ppm=p,
        k_ppm=k,
        temp_centi_c=temp,
        ph_centi=ph,
    )
