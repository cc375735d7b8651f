"""LoRa physical-layer model: radio configuration, frame timing, link sampling.

Airtime follows the standard LoRa modem equation: a frame is a preamble of
``preamble_symbols + 4.25`` symbols followed by ``8 + ceil(...) * CR`` payload
symbols, with the symbol time set by ``2**SF / BW``.  There is no propagation
model here: link quality is sampled from a per-device Gaussian profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np


class ConfigError(ValueError):
    """Invalid radio or scenario configuration."""


def check_numbers(obj, ints: tuple[str, ...] = (), finite: tuple[str, ...] = ()) -> None:
    """Require the named fields of ``obj`` to be integers (``ints``) or finite
    numbers (``finite``); bools and strings are neither."""
    for name in ints + finite:
        value = getattr(obj, name)
        kind = Integral if name in ints else Real
        if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
            what = "an integer" if name in ints else "a finite number"
            raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class RadioConfig:
    """Modem settings shared by every device in a scenario.

    Defaults are the lab setup this artifact reproduces: SF7, 125 kHz,
    CR 4/5 at 870 MHz.  ``coding_rate_denominator`` is the full denominator
    (CR 4/5 -> 5).  ``frequency_hz`` is informational only.
    """

    spreading_factor: int = 7
    bandwidth_hz: float = 125_000.0
    coding_rate_denominator: int = 5
    frequency_hz: float = 870_000_000.0
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_enabled: bool = True
    low_data_rate_optimize: bool = False

    def __post_init__(self) -> None:
        check_numbers(
            self,
            ints=("spreading_factor", "coding_rate_denominator", "preamble_symbols"),
            finite=("bandwidth_hz", "frequency_hz"),
        )
        for name in ("explicit_header", "crc_enabled", "low_data_rate_optimize"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        if not 6 <= self.spreading_factor <= 12:
            raise ConfigError(f"spreading_factor must be in 6..12, got {self.spreading_factor}")
        if self.bandwidth_hz <= 0:
            raise ConfigError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if not 5 <= self.coding_rate_denominator <= 8:
            raise ConfigError(
                f"coding_rate_denominator must be in 5..8, got {self.coding_rate_denominator}"
            )
        if self.preamble_symbols < 1:
            raise ConfigError(f"preamble_symbols must be >= 1, got {self.preamble_symbols}")


def radio_config_from_dict(doc: dict) -> RadioConfig:
    """Build a RadioConfig from a JSON-style dict; unknown keys are rejected."""
    unknown = set(doc) - {f.name for f in fields(RadioConfig)}
    if unknown:
        raise ConfigError(f"unknown radio config keys: {sorted(unknown)}")
    return RadioConfig(**doc)


@dataclass(frozen=True)
class LinkProfile:
    """Gaussian RSSI/SNR statistics of one device -> receiver link."""

    mean_rssi: float
    rssi_stddev: float
    mean_snr: float
    snr_stddev: float

    def __post_init__(self) -> None:
        check_numbers(self, finite=("mean_rssi", "rssi_stddev", "mean_snr", "snr_stddev"))
        if self.rssi_stddev < 0 or self.snr_stddev < 0:
            raise ConfigError("link profile stddevs must be >= 0")


@dataclass(frozen=True)
class LoRaFrame:
    """One in-flight transmission, occupying [start_time, start_time + airtime)."""

    sender_id: object
    payload_len: int
    start_time: float  # ms since scenario start
    airtime: float  # ms
    rssi: float  # dBm
    snr: float  # dB
    seq: int = 0  # per-device packet index

    @property
    def end_time(self) -> float:
        return self.start_time + self.airtime


def time_on_air(config: RadioConfig, payload_len: int) -> float:
    """Frame duration in ms for a payload of ``payload_len`` bytes.

    Symbol time T_sym = 2**SF / BW; preamble takes preamble_symbols + 4.25
    symbols; the payload takes
    ``8 + max(ceil((8*PL - 4*SF + 28 + 16*CRC - 20*IH) / (4*(SF - 2*DE))) * CR, 0)``
    symbols with CRC/IH/DE in {0,1}.
    """
    if not 0 <= payload_len <= 255:
        raise ConfigError(f"payload_len must be in 0..255, got {payload_len}")
    sf = config.spreading_factor
    crc = 1 if config.crc_enabled else 0
    ih = 0 if config.explicit_header else 1
    de = 1 if config.low_data_rate_optimize else 0

    t_sym_ms = (2**sf) / config.bandwidth_hz * 1000.0
    t_preamble = (config.preamble_symbols + 4.25) * t_sym_ms
    numerator = 8 * payload_len - 4 * sf + 28 + 16 * crc - 20 * ih
    n_payload = 8 + max(
        math.ceil(numerator / (4 * (sf - 2 * de))) * config.coding_rate_denominator, 0
    )
    return t_preamble + n_payload * t_sym_ms


def sample_link(profile: LinkProfile, rng: np.random.Generator) -> tuple[float, float]:
    """Draw one (rssi, snr) pair from the profile's Gaussians."""
    rssi = float(rng.normal(profile.mean_rssi, profile.rssi_stddev))
    snr = float(rng.normal(profile.mean_snr, profile.snr_stddev))
    return rssi, snr
