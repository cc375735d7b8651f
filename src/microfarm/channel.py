"""Single-channel contention simulator for multiple LoRa transmitters.

Discrete-event simulation over virtual time: every transmission occupies
[t, t + airtime) on the one shared channel toward one receiver.  Devices
either transmit blindly on their schedule or, with CAD enabled, draw a
random back-off and then sense the channel until it is free.  Reception is
resolved per maximal group of time-overlapping frames: a lone frame is
received; in a collision the strongest frame survives only if it beats
every other frame by the capture threshold.

Everything is deterministic for a fixed scenario seed; all per-device
randomness is pre-drawn from per-device substreams so event interleaving
cannot change the outcome.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .lora import ConfigError, LinkProfile, LoRaFrame, RadioConfig, check_numbers
from .lora import radio_config_from_dict, sample_link, time_on_air

EVENT_KINDS = ("sent", "received", "collided", "backoff")


@dataclass(frozen=True)
class DeviceConfig:
    """One transmitter's schedule and link quality.

    ``start_offset_ms`` may be None, in which case the offset is drawn
    uniformly from [0, start_offset_window_ms) at scenario setup.
    ``interval_jitter_ms`` adds a uniform [0, jitter) delay to every
    inter-packet gap (accumulating), modelling device loop timing slack.
    """

    device_id: object
    payload_len: int
    link_profile: LinkProfile
    packet_count: int = 100
    send_interval_ms: float = 5000.0
    start_offset_ms: float | None = 0.0
    start_offset_window_ms: float = 0.0
    interval_jitter_ms: float = 0.0
    cad_enabled: bool = False

    def __post_init__(self) -> None:
        offset = () if self.start_offset_ms is None else ("start_offset_ms",)
        timings = ("send_interval_ms", "start_offset_window_ms", "interval_jitter_ms") + offset
        check_numbers(self, ints=("packet_count", "payload_len"), finite=timings)
        if self.packet_count < 1:
            raise ConfigError("packet_count must be >= 1")
        if self.send_interval_ms <= 0:
            raise ConfigError("send_interval_ms must be > 0")
        if not 1 <= self.payload_len <= 255:
            raise ConfigError(f"payload_len must be in 1..255, got {self.payload_len}")
        if self.start_offset_ms is None and self.start_offset_window_ms <= 0:
            raise ConfigError("start_offset_window_ms must be > 0 when start_offset_ms is None")
        if self.interval_jitter_ms < 0:
            raise ConfigError("interval_jitter_ms must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    radio: RadioConfig
    devices: tuple[DeviceConfig, ...]
    capture_threshold_db: float = 6.0
    cad_max_backoff_ms: float = 2000.0
    cad_recheck_interval_ms: float = 100.0
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        limits = ("capture_threshold_db", "cad_max_backoff_ms", "cad_recheck_interval_ms")
        check_numbers(self, ints=("seed",), finite=limits)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.devices:
            raise ConfigError("scenario needs at least one device")
        if self.capture_threshold_db < 0:
            raise ConfigError("capture_threshold_db must be >= 0")
        if self.cad_max_backoff_ms <= 0:
            raise ConfigError("cad_max_backoff_ms must be > 0")
        if self.cad_recheck_interval_ms <= 0:
            raise ConfigError("cad_recheck_interval_ms must be > 0")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ConfigError("device_id values must be unique")


@dataclass(frozen=True)
class Event:
    t_ms: float
    device_id: object
    kind: str  # sent | received | collided | backoff
    seq: int


@dataclass
class DeviceStats:
    device_id: object
    cad_enabled: bool
    payload_len: int
    packets_sent: int = 0
    packets_received: int = 0
    rssi_received: list[float] = field(default_factory=list)
    snr_received: list[float] = field(default_factory=list)
    received_seqs: list[int] = field(default_factory=list)

    @property
    def prr(self) -> float:
        return self.packets_received / self.packets_sent if self.packets_sent else 0.0

    @property
    def mean_rssi(self) -> float | None:
        return float(np.mean(self.rssi_received)) if self.rssi_received else None

    @property
    def mean_snr(self) -> float | None:
        return float(np.mean(self.snr_received)) if self.snr_received else None


@dataclass
class ScenarioResult:
    name: str
    seed: int
    devices: list[DeviceStats]
    collision_count: int
    events: list[Event]


def resolve_overlaps(frames: list[LoRaFrame], capture_threshold_db: float) -> LoRaFrame | None:
    """Pick the surviving frame of one overlap group, or None.

    A singleton always survives.  Otherwise the strongest frame survives iff
    it is the unique RSSI maximum and beats every other frame by at least the
    capture threshold.
    """
    if not frames:
        return None
    if len(frames) == 1:
        return frames[0]
    best = max(frames, key=lambda f: f.rssi)
    for other in frames:
        if other is best:
            continue
        margin = best.rssi - other.rssi
        if margin < capture_threshold_db or margin <= 0:
            return None
    return best


def _group_overlaps(frames: list[LoRaFrame]) -> list[list[LoRaFrame]]:
    """Maximal transitive groups of time-overlapping frames (half-open intervals)."""
    groups: list[list[LoRaFrame]] = []
    current: list[LoRaFrame] = []
    current_end = -np.inf
    for f in sorted(frames, key=lambda f: (f.start_time, str(f.sender_id), f.seq)):
        if current and f.start_time < current_end:
            current.append(f)
            current_end = max(current_end, f.end_time)
        else:
            if current:
                groups.append(current)
            current = [f]
            current_end = f.end_time
    if current:
        groups.append(current)
    return groups


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Simulate the whole scenario and resolve reception per overlap group."""
    root = np.random.SeedSequence(config.seed)
    streams = root.spawn(len(config.devices) + 1)
    scenario_rng = np.random.default_rng(streams[0])

    airtimes = {d.device_id: time_on_air(config.radio, d.payload_len) for d in config.devices}

    # Pre-draw all per-device randomness in packet order so that the event
    # interleaving cannot perturb the streams.
    plans = []
    for idx, dev in enumerate(config.devices):
        rng = np.random.default_rng(streams[idx + 1])
        if dev.start_offset_ms is None:
            offset = float(scenario_rng.uniform(0.0, dev.start_offset_window_ms))
        else:
            offset = float(dev.start_offset_ms)
        n = dev.packet_count
        jitter = (
            rng.uniform(0.0, dev.interval_jitter_ms, size=n)
            if dev.interval_jitter_ms > 0
            else np.zeros(n)
        )
        backoffs = (
            rng.uniform(0.0, config.cad_max_backoff_ms, size=n) if dev.cad_enabled else np.zeros(n)
        )
        links = [sample_link(dev.link_profile, rng) for _ in range(n)]
        desired = offset + np.arange(n) * dev.send_interval_ms + np.cumsum(jitter)
        plans.append({"dev": dev, "desired": desired, "backoffs": backoffs, "links": links})

    # Attempt heap: (time, tiebreak, device index, packet seq).  A CAD attempt
    # that senses a busy channel is re-queued recheck_ms later; frames are
    # scheduled at pop time, so every scheduled frame starts at or before any
    # instant still being sensed.
    heap: list[tuple[float, int, int, int]] = []
    tiebreak = 0
    for idx, plan in enumerate(plans):
        dev = plan["dev"]
        first = plan["desired"][0] + (plan["backoffs"][0] if dev.cad_enabled else 0.0)
        heapq.heappush(heap, (first, tiebreak, idx, 0))
        tiebreak += 1

    frames: list[LoRaFrame] = []
    backoff_events: list[Event] = []
    max_busy_end = -np.inf  # all scheduled frames start <= current pop time

    def schedule_next(idx: int, seq: int, prev_end: float) -> None:
        nonlocal tiebreak
        plan = plans[idx]
        dev = plan["dev"]
        if seq + 1 >= dev.packet_count:
            return
        # A device transmits sequentially: the next packet cannot start
        # before the previous transmission has ended.
        desired = max(plan["desired"][seq + 1], prev_end)
        t = desired + (plan["backoffs"][seq + 1] if dev.cad_enabled else 0.0)
        heapq.heappush(heap, (t, tiebreak, idx, seq + 1))
        tiebreak += 1

    while heap:
        t, _, idx, seq = heapq.heappop(heap)
        plan = plans[idx]
        dev = plan["dev"]
        if dev.cad_enabled and max_busy_end > t:
            # Channel busy at the sensing instant: try again one recheck later.
            heapq.heappush(heap, (t + config.cad_recheck_interval_ms, tiebreak, idx, seq))
            tiebreak += 1
            continue
        rssi, snr = plan["links"][seq]
        frame = LoRaFrame(
            sender_id=dev.device_id,
            payload_len=dev.payload_len,
            start_time=t,
            airtime=airtimes[dev.device_id],
            rssi=rssi,
            snr=snr,
            seq=seq,
        )
        frames.append(frame)
        max_busy_end = max(max_busy_end, frame.end_time)
        if dev.cad_enabled and t > plan["desired"][seq]:
            backoff_events.append(Event(float(plan["desired"][seq]), dev.device_id, "backoff", seq))
        schedule_next(idx, seq, frame.end_time)

    stats = {
        d.device_id: DeviceStats(d.device_id, d.cad_enabled, d.payload_len) for d in config.devices
    }
    events: list[Event] = list(backoff_events)
    collision_count = 0
    for group in _group_overlaps(frames):
        if len(group) > 1:
            collision_count += 1
        survivor = resolve_overlaps(group, config.capture_threshold_db)
        for f in group:
            st = stats[f.sender_id]
            st.packets_sent += 1
            events.append(Event(f.start_time, f.sender_id, "sent", f.seq))
            if f is survivor:
                st.packets_received += 1
                st.rssi_received.append(f.rssi)
                st.snr_received.append(f.snr)
                st.received_seqs.append(f.seq)
                events.append(Event(f.end_time, f.sender_id, "received", f.seq))
            else:
                events.append(Event(f.end_time, f.sender_id, "collided", f.seq))

    events.sort(key=lambda e: (e.t_ms, str(e.device_id), e.seq, EVENT_KINDS.index(e.kind)))
    return ScenarioResult(
        name=config.name,
        seed=config.seed,
        devices=[stats[d.device_id] for d in config.devices],
        collision_count=collision_count,
        events=events,
    )


def summarize(result: ScenarioResult) -> list[dict]:
    """One row per device, shaped like the reception-statistics table."""
    rows = []
    for st in result.devices:
        rows.append(
            {
                "scenario": result.name,
                "cad": "Yes" if st.cad_enabled else "No",
                "prr": f"{round(st.prr * 100)} %",
                "payload": f"{st.payload_len} B",
                "mean_rssi": "/" if st.mean_rssi is None else f"{round(st.mean_rssi)} dBm",
                "mean_snr": "/" if st.mean_snr is None else f"{round(st.mean_snr)} dB",
            }
        )
    return rows


def format_summary(result: ScenarioResult) -> str:
    header = ("Sc.", "CAD", "PRR", "Payload", "Mean RSSI", "Mean SNR")
    rows = [
        (r["scenario"], r["cad"], r["prr"], r["payload"], r["mean_rssi"], r["mean_snr"])
        for r in summarize(result)
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def scenario_from_dict(doc: dict, seed_override: int | None = None) -> ScenarioConfig:
    """Parse a scenario JSON document (see fixtures/ for the shape)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario must be a JSON object, got {type(doc).__name__}")
    try:
        radio = radio_config_from_dict(doc.get("radio", {}))
        devices = []
        for dd in doc["devices"]:
            dd = dict(dd)
            lp = dd.pop("link_profile")
            devices.append(DeviceConfig(link_profile=LinkProfile(**lp), **dd))
        seed = doc.get("seed", 0) if seed_override is None else seed_override
        return ScenarioConfig(
            radio=radio,
            devices=tuple(devices),
            capture_threshold_db=doc.get("capture_threshold_db", 6.0),
            cad_max_backoff_ms=doc.get("cad_max_backoff_ms", 2000.0),
            cad_recheck_interval_ms=doc.get("cad_recheck_interval_ms", 100.0),
            seed=seed,
            name=str(doc.get("name", "")),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario config missing key: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc


def load_scenario(path, seed_override: int | None = None) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh), seed_override)


def result_to_dict(result: ScenarioResult, include_events: bool = True) -> dict:
    doc = {
        "name": result.name,
        "seed": result.seed,
        "devices": [
            {
                "device_id": st.device_id,
                "sent": st.packets_sent,
                "received": st.packets_received,
                "prr": st.prr,
                "mean_rssi": st.mean_rssi,
                "mean_snr": st.mean_snr,
            }
            for st in result.devices
        ],
        "collisions": result.collision_count,
    }
    if include_events:
        doc["events"] = [
            {"t_ms": e.t_ms, "device_id": e.device_id, "kind": e.kind, "seq": e.seq}
            for e in result.events
        ]
    return doc
