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
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .lora import ConfigError, LinkProfile, LoRaFrame, RadioConfig, check_numbers
from .lora import radio_config_from_dict, sample_link, time_on_air

EVENT_KINDS = ("sent", "received", "collided", "backoff")

# A device's schedule must end before this many ms of virtual time.  Near
# it one ulp is 2**-12 ms, so every frame's airtime still moves time on.
MAX_SCHEDULE_MS = 2.0**40

# Packets over all of a scenario's devices, all held in memory at once by
# run_scenario: 50,000 peaked 60 MB (no CAD) to 89 MB (CAD) above import.
MAX_PACKETS = 500_000


@dataclass(frozen=True)
class DeviceConfig:
    """One transmitter's schedule and link quality.

    ``start_offset_ms`` may be None, in which case the offset is drawn
    uniformly from [0, start_offset_window_ms) at scenario setup.
    ``interval_jitter_ms`` adds a uniform [0, jitter) delay to every
    inter-packet gap (accumulating), modelling device loop timing slack.
    The schedule, |offset| (or the window) plus ``packet_count`` times the
    interval and jitter, must end before ``MAX_SCHEDULE_MS``.
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
        offset = self.start_offset_ms
        start = self.start_offset_window_ms if offset is None else abs(offset)
        end = start + self.packet_count * (self.send_interval_ms + self.interval_jitter_ms)
        if not end < MAX_SCHEDULE_MS:
            raise ConfigError(
                "start_offset_ms (or start_offset_window_ms) + packet_count * (send_interval_ms"
                f" + interval_jitter_ms) is {end:g} ms, not below the 2**40 ms limit"
            )


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
        total = sum(d.packet_count for d in self.devices)
        if total > MAX_PACKETS:
            raise ConfigError(f"packet_count over all devices is {total}, above {MAX_PACKETS}")


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


def _settle(group: list[LoRaFrame], capture_threshold_db: float, stats: dict, events: list) -> None:
    """Count one closed overlap group and log its sent/received/collided events."""
    survivor = resolve_overlaps(group, capture_threshold_db)
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


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Simulate the whole scenario in one pass over a heap of send attempts.

    Every frame starts at the instant its attempt pops, and attempts pop in
    time order: a CAD re-check is queued one recheck interval later, and a
    device's next packet no earlier than the end of its current frame.  So
    frames start in pop order, and the latest frame end so far, ``busy_until``,
    is both what CAD senses and the end of the overlap group being gathered.
    The first attempt at or after that instant closes the group.
    """
    streams = np.random.SeedSequence(config.seed).spawn(len(config.devices) + 1)
    scenario_rng = np.random.default_rng(streams[0])

    # Pre-draw all per-device randomness in packet order so that the event
    # interleaving cannot perturb the streams.
    desired, backoffs, links = [], [], []
    for dev, stream in zip(config.devices, streams[1:]):
        rng = np.random.default_rng(stream)
        offset = dev.start_offset_ms
        if offset is None:
            offset = scenario_rng.uniform(0.0, dev.start_offset_window_ms)
        n = dev.packet_count
        jitter = np.zeros(n)
        if dev.interval_jitter_ms > 0:
            jitter = rng.uniform(0.0, dev.interval_jitter_ms, size=n)
        cad_max = config.cad_max_backoff_ms
        backoffs.append(rng.uniform(0.0, cad_max, size=n) if dev.cad_enabled else np.zeros(n))
        links.append([sample_link(dev.link_profile, rng) for _ in range(n)])
        desired.append(float(offset) + np.arange(n) * dev.send_interval_ms + np.cumsum(jitter))
    airtimes = [time_on_air(config.radio, d.payload_len) for d in config.devices]

    # Attempt heap: (time, tiebreak, device index, packet seq); the first
    # attempts break ties by device index, later pushes in push order.
    heap = [(d[0] + b[0], i, i, 0) for i, (d, b) in enumerate(zip(desired, backoffs))]
    heapq.heapify(heap)
    tiebreak = itertools.count(len(heap))
    stats = {
        d.device_id: DeviceStats(d.device_id, d.cad_enabled, d.payload_len) for d in config.devices
    }
    events: list[Event] = []
    group: list[LoRaFrame] = []
    busy_until = -np.inf
    collision_count = 0
    while heap:
        t, _, idx, seq = heapq.heappop(heap)
        dev = config.devices[idx]
        if t < busy_until:
            if dev.cad_enabled:
                # Channel busy at the sensing instant: try again one recheck later.
                retry = t + config.cad_recheck_interval_ms
                if retry <= t:  # it would requeue at t forever
                    raise ConfigError(f"cad_recheck_interval_ms no longer advances {t:g} ms")
                heapq.heappush(heap, (retry, next(tiebreak), idx, seq))
                continue
        elif group:
            collision_count += len(group) > 1
            _settle(group, config.capture_threshold_db, stats, events)
            group = []
        rssi, snr = links[idx][seq]
        frame = LoRaFrame(dev.device_id, dev.payload_len, t, airtimes[idx], rssi, snr, seq)
        end = frame.end_time
        if end <= t:  # it would overlap no frame that starts at t
            raise ConfigError(f"a {frame.airtime:g} ms frame no longer advances {t:g} ms")
        group.append(frame)
        busy_until = max(busy_until, end)
        if dev.cad_enabled and t > desired[idx][seq]:
            events.append(Event(float(desired[idx][seq]), dev.device_id, "backoff", seq))
        if seq + 1 < dev.packet_count:
            # A device transmits sequentially: the next packet cannot start
            # before the previous transmission has ended.
            start = max(desired[idx][seq + 1], end) + backoffs[idx][seq + 1]
            heapq.heappush(heap, (start, next(tiebreak), idx, seq + 1))
    collision_count += len(group) > 1
    _settle(group, config.capture_threshold_db, stats, events)

    events.sort(key=lambda e: (e.t_ms, str(e.device_id), e.seq, EVENT_KINDS.index(e.kind)))
    return ScenarioResult(
        name=config.name,
        seed=config.seed,
        devices=list(stats.values()),
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
    rows = [tuple(r.values()) for r in summarize(result)]
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
        keys = ("capture_threshold_db", "cad_max_backoff_ms", "cad_recheck_interval_ms", "seed")
        given = {key: doc[key] for key in keys if key in doc}
        if seed_override is not None:
            given["seed"] = seed_override
        if "name" in doc:
            given["name"] = str(doc["name"])
        return ScenarioConfig(radio=radio, devices=tuple(devices), **given)
    except KeyError as exc:
        raise ConfigError(f"scenario config missing key: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc


def load_scenario(path, seed_override: int | None = None) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ConfigError(f"scenario config {path} nests too deeply to parse") from None
    return scenario_from_dict(doc, seed_override)


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
