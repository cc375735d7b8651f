"""Frame airtime math and radio/link configuration."""

import numpy as np
import pytest

from microfarm.lora import (
    ConfigError,
    LinkProfile,
    RadioConfig,
    radio_config_from_dict,
    sample_link,
    time_on_air,
)

DEFAULT = RadioConfig()  # SF7, 125 kHz, CR 4/5, explicit header, CRC on, preamble 8


def test_airtime_reference_values():
    # hand-checked against the standard modem airtime equation
    assert time_on_air(DEFAULT, 3) == pytest.approx(30.976, abs=1e-3)
    assert time_on_air(DEFAULT, 50) == pytest.approx(97.536, abs=1e-3)
    assert time_on_air(DEFAULT, 250) == pytest.approx(389.376, abs=1e-3)


def test_airtime_monotone_in_payload():
    times = [time_on_air(DEFAULT, n) for n in range(1, 256)]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_airtime_grows_with_spreading_factor():
    prev = 0.0
    for sf in range(7, 13):
        t = time_on_air(RadioConfig(spreading_factor=sf), 50)
        assert t > prev
        prev = t


def test_airtime_grows_with_coding_rate():
    t5 = time_on_air(RadioConfig(coding_rate_denominator=5), 50)
    t8 = time_on_air(RadioConfig(coding_rate_denominator=8), 50)
    assert t8 > t5


def test_airtime_doubles_when_bandwidth_halves():
    t125 = time_on_air(RadioConfig(bandwidth_hz=125_000), 50)
    t250 = time_on_air(RadioConfig(bandwidth_hz=250_000), 50)
    assert t125 == pytest.approx(2 * t250, rel=1e-9)


def test_radio_config_validation():
    with pytest.raises(ConfigError):
        RadioConfig(spreading_factor=5)
    with pytest.raises(ConfigError):
        RadioConfig(spreading_factor=13)
    with pytest.raises(ConfigError):
        RadioConfig(coding_rate_denominator=4)
    with pytest.raises(ConfigError):
        RadioConfig(coding_rate_denominator=9)


def test_radio_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        radio_config_from_dict({"spreading_factor": 7, "sf": 7})


def test_radio_config_from_dict_round_trip():
    cfg = RadioConfig(spreading_factor=9, coding_rate_denominator=6)
    doc = {
        "spreading_factor": 9,
        "bandwidth_hz": 125000,
        "coding_rate_denominator": 6,
        "frequency_hz": 870000000,
        "preamble_symbols": 8,
        "explicit_header": True,
        "crc_enabled": True,
        "low_data_rate_optimize": False,
    }
    assert radio_config_from_dict(doc) == cfg


def test_sample_link_statistics():
    profile = LinkProfile(mean_rssi=-60.0, rssi_stddev=0.0, mean_snr=8.0, snr_stddev=0.0)
    rssi, snr = sample_link(profile, np.random.default_rng(0))
    assert rssi == -60.0 and snr == 8.0


def test_sample_link_deterministic_per_seed():
    profile = LinkProfile(mean_rssi=-60.0, rssi_stddev=2.0, mean_snr=8.0, snr_stddev=1.0)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    a = [sample_link(profile, rng_a) for _ in range(5)]
    b = [sample_link(profile, rng_b) for _ in range(5)]
    assert a == b
    assert len({rssi for rssi, _ in a}) > 1  # nonzero spread actually varies
