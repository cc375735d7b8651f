"""Shared-channel contention simulator behavior."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from microfarm.channel import (
    EVENT_KINDS,
    MAX_PACKETS,
    DeviceConfig,
    ScenarioConfig,
    format_summary,
    load_scenario,
    resolve_overlaps,
    result_to_dict,
    run_scenario,
    scenario_from_dict,
    summarize,
)
from microfarm.lora import ConfigError, LinkProfile, LoRaFrame, RadioConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

STRONG = LinkProfile(mean_rssi=-50.0, rssi_stddev=1.0, mean_snr=9.0, snr_stddev=0.5)
WEAK = LinkProfile(mean_rssi=-70.0, rssi_stddev=1.0, mean_snr=6.0, snr_stddev=0.5)


def _frame(rssi, start=0.0, airtime=50.0, sender="d", seq=0):
    return LoRaFrame(
        sender_id=sender, payload_len=10, start_time=start, airtime=airtime, rssi=rssi,
        snr=8.0, seq=seq,
    )


def _two_device_config(cad, offset_window=0.0, seed=0, packets=40, interval=120.0):
    devices = tuple(
        DeviceConfig(
            device_id=i + 1,
            payload_len=50,
            link_profile=profile,
            packet_count=packets,
            send_interval_ms=interval,
            start_offset_ms=None if offset_window else 0.0,
            start_offset_window_ms=offset_window,
            cad_enabled=cad,
        )
        for i, profile in enumerate((STRONG, WEAK))
    )
    return ScenarioConfig(radio=RadioConfig(), devices=devices, seed=seed, name="t")


def test_resolve_overlaps_empty_and_singleton():
    assert resolve_overlaps([], 6.0) is None
    lone = _frame(-80.0)
    assert resolve_overlaps([lone], 6.0) is lone


def test_resolve_overlaps_capture_margin():
    strong, weak = _frame(-50.0), _frame(-57.0)
    assert resolve_overlaps([strong, weak], 6.0) is strong
    # under the margin nobody survives
    assert resolve_overlaps([_frame(-50.0), _frame(-55.0)], 6.0) is None


def test_resolve_overlaps_tie_destroys_both():
    assert resolve_overlaps([_frame(-50.0), _frame(-50.0)], 6.0) is None


def test_resolve_overlaps_needs_margin_over_every_frame():
    frames = [_frame(-50.0), _frame(-55.5), _frame(-80.0)]
    assert resolve_overlaps(frames, 6.0) is None  # -55.5 is only 5.5 dB down
    frames = [_frame(-50.0), _frame(-56.0), _frame(-80.0)]
    assert resolve_overlaps(frames, 6.0) is frames[0]  # exactly at the margin


def test_single_device_loses_nothing():
    config = ScenarioConfig(
        radio=RadioConfig(),
        devices=(
            DeviceConfig(
                device_id=1, payload_len=50, link_profile=STRONG, packet_count=100,
                send_interval_ms=100.0,
            ),
        ),
        seed=3,
        name="solo",
    )
    result = run_scenario(config)
    (stats,) = result.devices
    assert stats.packets_sent == 100
    assert stats.packets_received == 100
    assert result.collision_count == 0
    assert stats.received_seqs == list(range(100))


def test_aligned_devices_without_cad_collide():
    result = run_scenario(_two_device_config(cad=False))
    assert result.collision_count > 0


def test_cad_prevents_aligned_collisions():
    result = run_scenario(_two_device_config(cad=True))
    assert result.collision_count == 0
    assert all(st.packets_received == st.packets_sent for st in result.devices)
    assert any(e.kind == "backoff" for e in result.events)


def _aligned_pair(offset):
    return tuple(
        DeviceConfig(
            device_id=i, payload_len=20, link_profile=STRONG, packet_count=5,
            start_offset_ms=offset,
        )
        for i in range(2)
    )


def test_a_schedule_past_the_limit_is_refused():
    # at 1e20 ms a frame's airtime rounds away, so these aligned frames
    # would no longer overlap and both would be received
    result = run_scenario(ScenarioConfig(radio=RadioConfig(), devices=_aligned_pair(0.0)))
    assert result.collision_count == 5
    with pytest.raises(ConfigError, match=r"2\*\*40 ms"):
        _aligned_pair(1e20)
    last = (2**40 - 1) - 5 * 5000.0
    assert _aligned_pair(last)[0].start_offset_ms == last
    for far in (2.0**40, -(2.0**40), 1e308):
        with pytest.raises(ConfigError, match="start_offset_ms"):
            DeviceConfig(device_id=0, payload_len=20, link_profile=STRONG, start_offset_ms=far)
    with pytest.raises(ConfigError, match="send_interval_ms"):
        DeviceConfig(
            device_id=0, payload_len=20, link_profile=STRONG, packet_count=10,
            send_interval_ms=2.0**37,
        )


def test_a_scenario_beyond_the_packet_cap_is_refused():
    # configs are only built: a scenario near the cap is never run
    def devices(count, n=1):
        return tuple(
            DeviceConfig(
                device_id=i, payload_len=20, link_profile=STRONG, packet_count=count,
                send_interval_ms=1e-3,
            )
            for i in range(n)
        )

    # 10**12 packets 1e-3 ms apart end at 1e9 ms, inside the schedule limit
    with pytest.raises(ConfigError, match="packet_count over all devices is 1000000000000"):
        ScenarioConfig(radio=RadioConfig(), devices=devices(10**12))
    half = MAX_PACKETS // 2
    assert ScenarioConfig(radio=RadioConfig(), devices=devices(half, n=2))
    with pytest.raises(ConfigError, match=f"above {MAX_PACKETS}"):
        ScenarioConfig(radio=RadioConfig(), devices=devices(half + 1, n=2))


def test_steps_that_no_longer_advance_time_are_refused():
    # a frame too short for its instant, from a hostile bandwidth
    fast = RadioConfig(bandwidth_hz=1e18)
    far = _aligned_pair(1e5)
    with pytest.raises(ConfigError, match="frame no longer advances"):
        run_scenario(ScenarioConfig(radio=fast, devices=far))
    # a CAD re-check that would requeue at the same instant forever
    devices = _two_device_config(cad=True).devices
    config = ScenarioConfig(radio=RadioConfig(), devices=devices, cad_recheck_interval_ms=1e-300)
    with pytest.raises(ConfigError, match="cad_recheck_interval_ms"):
        run_scenario(config)


def test_deterministic_per_seed():
    a = run_scenario(_two_device_config(cad=False, offset_window=200.0, seed=9))
    b = run_scenario(_two_device_config(cad=False, offset_window=200.0, seed=9))
    assert a.events == b.events
    c = run_scenario(_two_device_config(cad=False, offset_window=200.0, seed=10))
    assert a.events != c.events


def test_stronger_device_survives_contention():
    result = run_scenario(_two_device_config(cad=False, offset_window=60.0, seed=1))
    by_id = {st.device_id: st for st in result.devices}
    assert by_id[1].prr >= by_id[2].prr


def test_summarize_shape():
    rows = summarize(run_scenario(_two_device_config(cad=True)))
    assert len(rows) == 2
    assert rows[0]["prr"].endswith("%")
    assert rows[0]["payload"] == "50 B"
    assert rows[0]["mean_rssi"].endswith("dBm")


def test_scenario_from_dict_round_trip(tmp_path):
    doc = {
        "name": "json-built",
        "seed": 5,
        "capture_threshold_db": 6.0,
        "devices": [
            {
                "device_id": 1,
                "payload_len": 3,
                "packet_count": 10,
                "send_interval_ms": 500.0,
                "link_profile": {
                    "mean_rssi": -60.0, "rssi_stddev": 1.0, "mean_snr": 8.0, "snr_stddev": 0.5,
                },
            }
        ],
    }
    config = scenario_from_dict(doc)
    assert config.name == "json-built"
    assert config.seed == 5
    assert config.devices[0].payload_len == 3

    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_scenario(path) == config
    assert load_scenario(path, seed_override=11).seed == 11


def test_scenario_from_dict_rejects_bad_radio():
    doc = {
        "radio": {"spreading_factor": 99},
        "devices": [],
    }
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_seed_override_changes_link_draws_not_clean_prr():
    base = load_scenario(FIXTURES / "scenario1.json")
    a = run_scenario(base)
    b = run_scenario(load_scenario(FIXTURES / "scenario1.json", seed_override=base.seed + 1))
    assert a.devices[0].prr == b.devices[0].prr == 1.0
    assert a.devices[0].rssi_received != b.devices[0].rssi_received


def test_scenario_from_dict_defaults_match_scenario_config():
    doc = {"devices": [{"device_id": 1, "payload_len": 3, "link_profile": vars(STRONG)}]}
    config = scenario_from_dict(doc)
    assert config == ScenarioConfig(radio=RadioConfig(), devices=config.devices)
    assert scenario_from_dict({**doc, "name": 7}).name == "7"


# sha256 of json.dumps(result_to_dict(r), indent=2) plus format_summary(r) for
# every run, in order; pinned from the simulator before its single-loop rewrite
FIXTURE_DIGESTS = {
    "scenario1.json": "6321ad45340a18c82c7c4eebe1e11603554e1f779a1b3550da2adc224578aaf0",
    "scenario1_250B.json": "e578e2833cf91420fc483260b308bce80359bf45f27ee1e0ab19aa9a60daad39",
    "scenario1_50B.json": "5c9fd4da7ef9fcc36cbaf54b3288830a02c47c516f466a252385123380036b75",
    "scenario2.json": "b484591ae173f78704923f7a5fbed47980117376f7f52bf4551e733af24d5072",
    "scenario2_250B.json": "77123d0bc25f9242b48c9fc4d0e58a7bdff6fe1c12b70b1bceae425d8ecf929d",
    "scenario2_50B.json": "233a4772988183ff6ef4923b7bc59d601c138a359a450b3e060e2290ea447c4b",
    "scenario3.json": "017a4e7f488ee9a59e4b827aecdbdc0d753cad5e91a9f2dca2d0ba39a48dc8a3",
    "scenario3_250B.json": "f81057e0ae3595e68a3d6af23f8de2777ca1c744fdfbe0d8789a9361d49caabb",
    "scenario3_50B.json": "244dd81e1d818882171ea68aa7b7f74ff9d55fce30d559fd11885830fd986b76",
}
RANDOM_DIGESTS = {
    "mixed": "0cde2992036b11958cf1ea84114c0cfbc3313b3ddf71d56912d988ba2b84a6f4",
    "cad-saturated": "4634add328894c992ed0bf317623caff95be708341478bd5b4d92ca22eee63d3",
    "capture-zero": "07559b1854448b9da2c07d9df031e22d6280ccfc174297d1b1a8fda93ace3339",
    "shared-str-ids": "bed85d00f2287912edf382c4995cbaff4c0a91983c6e0bc76c2a9cc2a1398c4d",
}
RANDOM_PER_FAMILY = 25


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(json.dumps(result_to_dict(r), indent=2).encode())
        h.update(format_summary(r).encode())
    return h.hexdigest()


def _random_scenario(family: str, index: int) -> ScenarioConfig:
    """A small seeded scenario; ``family`` forces the case it is named after.

    cad-saturated: every device senses, and together they mostly offer more
    airtime than the channel holds.  capture-zero: threshold 0, and some links have no spread,
    so equal RSSI decides.  shared-str-ids: devices 1 and "1" send the same
    schedule, so their events tie on (t_ms, str(device_id), seq, kind).
    """
    rng = np.random.default_rng([list(RANDOM_DIGESTS).index(family), index])
    saturated = family == "cad-saturated"
    n = int(rng.integers(4 if saturated else 1, 11))
    devices = []
    for i in range(n):
        drawn_offset = rng.random() < 0.3
        devices.append(
            DeviceConfig(
                device_id=f"d{i}" if rng.random() < 0.5 else 100 + i,
                payload_len=int(rng.integers(1, 61)),
                link_profile=LinkProfile(
                    mean_rssi=float(rng.integers(-80, -50)),
                    rssi_stddev=float(rng.choice([0.0, 1.0, 4.0])),
                    mean_snr=float(rng.uniform(0.0, 10.0)),
                    snr_stddev=1.0,
                ),
                packet_count=int(rng.integers(1, 21)),
                send_interval_ms=float(rng.uniform(20.0, 150.0 if saturated else 600.0)),
                start_offset_ms=None if drawn_offset else float(rng.uniform(-200.0, 300.0)),
                start_offset_window_ms=float(rng.uniform(1.0, 500.0)),
                interval_jitter_ms=float(rng.choice([0.0, rng.uniform(0.0, 80.0)])),
                cad_enabled=saturated or bool(rng.random() < 0.5),
            )
        )
    if family == "shared-str-ids":
        twin = dict(
            payload_len=int(rng.integers(1, 61)),
            link_profile=LinkProfile(-60.0, 0.0, 8.0, 0.0),
            packet_count=int(rng.integers(5, 21)),
            send_interval_ms=float(rng.uniform(100.0, 300.0)),
            cad_enabled=bool(rng.random() < 0.3),
        )
        at = int(rng.integers(0, n + 1))
        devices[at:at] = [DeviceConfig(device_id=1, **twin), DeviceConfig(device_id="1", **twin)]
    return ScenarioConfig(
        radio=RadioConfig(),
        devices=tuple(devices),
        capture_threshold_db=0.0 if family == "capture-zero" else float(rng.choice([0.0, 6.0, 12.0])),
        cad_max_backoff_ms=float(rng.uniform(1.0, 60.0 if saturated else 2000.0)),
        cad_recheck_interval_ms=float(rng.uniform(1.0, 30.0 if saturated else 200.0)),
        seed=index,
        name=f"{family}-{index}",
    )


def _has_event_tie(result) -> bool:
    keys = [(e.t_ms, str(e.device_id), e.seq, EVENT_KINDS.index(e.kind)) for e in result.events]
    return any(a == b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("name", FIXTURE_DIGESTS)
def test_fixture_results_match_pinned_digests(name):
    seeds = (None, *range(10))
    results = [run_scenario(load_scenario(FIXTURES / name, seed_override=s)) for s in seeds]
    assert _digest(results) == FIXTURE_DIGESTS[name]


@pytest.mark.parametrize("family", RANDOM_DIGESTS)
def test_random_scenarios_match_pinned_digests(family):
    results = [run_scenario(_random_scenario(family, i)) for i in range(RANDOM_PER_FAMILY)]
    # each family must really hold the case it pins
    if family == "cad-saturated":
        assert all(any(e.kind == "backoff" for e in r.events) for r in results)
    if family == "shared-str-ids":
        assert sum(_has_event_tie(r) for r in results) >= RANDOM_PER_FAMILY // 2
    assert _digest(results) == RANDOM_DIGESTS[family]
