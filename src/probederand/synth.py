"""Synthetic labeled probe-request traffic with known ground truth.

Devices are modeled by an IE template, a per-burst channel sweep driven
by their preferred-network list, burst length and interval
distributions, and a MAC policy (a fresh locally-administered address
per burst, or one fixed address). The idealized capture model hands a
frame to the sniffer tuned to the frame's DS channel only, mirroring
the partial observability of a three-sniffer deployment; a lossless
sniffer set covering channels 1-13 is available for exact-recovery
checks.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .pcap import (
    FC_PROBE_REQUEST,
    IE_DS_PARAMETER_SET,
    IE_EXTENDED_CAPABILITIES,
    IE_HT_CAPABILITIES,
    IE_SSID,
    IE_VENDOR_SPECIFIC,
    LINKTYPE_RADIOTAP,
    FrameTable,
)
from .randomness import DEFAULT_SEED, STREAM_GENERATION, substream

# Fixed n, or uniform over [a, b] as a pair.
LengthSpec = Union[int, tuple[int, int]]
IntervalSpec = Union[float, tuple[float, float]]

SNIFFERS_DEFAULT = (1, 6, 11)
SNIFFERS_LOSSLESS = tuple(range(1, 14))

_CHANNEL_FLAGS_2GHZ = 0x0080


@dataclass(frozen=True)
class IeTemplate:
    """Concrete IE bodies a device stamps on every frame (None = absent)."""

    ht: Optional[bytes] = None
    extended: Optional[bytes] = None
    vendor: tuple[bytes, ...] = ()

    def __post_init__(self) -> None:
        if any(len(body or b"") > 255 for body in (self.ht, self.extended, *self.vendor)):
            raise ValueError("an IE body holds at most 255 bytes")


@dataclass(frozen=True)
class DeviceProfile:
    device_id: str
    ie_template: IeTemplate
    pnl_pattern: tuple[int, ...]
    burst_length: LengthSpec = 8
    inter_burst_interval: IntervalSpec = 10.0
    intra_burst_gap: float = 0.005
    randomize_mac: bool = True
    channel_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.device_id in ("", ".", "..") or "/" in self.device_id or "\\" in self.device_id:
            raise ValueError(f"device_id must name one directory, got {self.device_id!r}")
        if not self.pnl_pattern:
            raise ValueError("pnl_pattern must not be empty")
        if any(not 1 <= c <= 13 for c in self.pnl_pattern):
            raise ValueError("pnl_pattern entries must be channels 1..13")
        if not 0.0 <= self.channel_jitter <= 1.0:
            raise ValueError("channel_jitter must be a probability")
        if not 0 < self.intra_burst_gap < math.inf:
            raise ValueError("intra_burst_gap must be positive and finite")
        for name in ("burst_length", "inter_burst_interval"):
            bounds = _spec_bounds(getattr(self, name))
            if not all(0 < bound < math.inf for bound in bounds):
                raise ValueError(f"{name} bounds must be positive and finite, got {list(bounds)}")
            if bounds[0] > bounds[-1]:
                raise ValueError(f"{name} uniform bounds must be low <= high, got {list(bounds)}")


@dataclass(frozen=True)
class Scenario:
    profiles: tuple[DeviceProfile, ...]
    duration: float
    seed: int = DEFAULT_SEED
    sniffer_channels: tuple[int, ...] = SNIFFERS_DEFAULT

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if any(not 1 <= c <= 13 for c in self.sniffer_channels):
            raise ValueError("sniffer_channels entries must be channels 1..13")
        names = [p.device_id for p in self.profiles]
        if len(set(names)) != len(names):
            raise ValueError("device ids must be distinct")


def _spec_bounds(spec) -> tuple[float, ...]:
    return tuple(spec) if isinstance(spec, tuple) else (spec,)


def _draw_length(spec: LengthSpec, rng: np.random.Generator) -> int:
    if isinstance(spec, tuple):
        return int(rng.integers(spec[0], spec[1] + 1))
    return int(spec)


def _draw_interval(spec: IntervalSpec, rng: np.random.Generator) -> float:
    if isinstance(spec, tuple):
        return float(rng.uniform(spec[0], spec[1]))
    return float(spec)


def _random_mac(rng: np.random.Generator, locally_administered: bool) -> bytes:
    raw = bytearray(int(b) for b in rng.integers(0, 256, size=6))
    raw[0] &= 0xFE  # never multicast
    if locally_administered:
        raw[0] |= 0x02
    else:
        raw[0] &= 0xFD
    return bytes(raw)


def _quantize(seconds: float) -> float:
    return round(seconds * 1e6) / 1e6


def _frame_ies(template: IeTemplate, channel: int) -> bytes:
    """TLV bytes: wildcard SSID, DS Parameter Set, then the template's IEs."""
    elements = [(IE_SSID, b""), (IE_DS_PARAMETER_SET, bytes([channel]))]
    if template.ht is not None:
        elements.append((IE_HT_CAPABILITIES, template.ht))
    if template.extended is not None:
        elements.append((IE_EXTENDED_CAPABILITIES, template.extended))
    elements += [(IE_VENDOR_SPECIFIC, body) for body in template.vendor]
    return b"".join(bytes([ie_id, len(body)]) + body for ie_id, body in elements)


def generate_device(profile: DeviceProfile, duration: float, rng: np.random.Generator) -> FrameTable:
    """The frames one device sends over ``duration``, in time order.

    Bursts start at t=0 and recur at drawn intervals while t stays
    below the duration. Each burst walks the PNL pattern cyclically for
    the drawn length, optionally perturbing one entry, and stamps a
    fresh random MAC when the randomization policy is on. A frame's
    capture channel is its DS channel, and sequence numbers count up
    by one per frame, modulo 4096, from a drawn start. The frames carry
    no label: the caller knows them as ``profile.device_id``.
    """
    timestamps, macs, capture_channels, regions = [], [], [], []
    first_sequence = int(rng.integers(4096))
    fixed_mac = None if profile.randomize_mac else _random_mac(rng, locally_administered=False)
    ies_of = {channel: _frame_ies(profile.ie_template, channel) for channel in range(1, 14)}
    t = 0.0
    while t < duration - 1e-12:
        length = _draw_length(profile.burst_length, rng)
        channels = [profile.pnl_pattern[i % len(profile.pnl_pattern)] for i in range(length)]
        if rng.random() < profile.channel_jitter:
            slot = int(rng.integers(length))
            alternatives = [c for c in range(1, 14) if c != channels[slot]]
            channels[slot] = alternatives[int(rng.integers(len(alternatives)))]
        if profile.randomize_mac:
            mac = _random_mac(rng, locally_administered=True)
        else:
            mac = fixed_mac
        timestamps += [_quantize(t + i * profile.intra_burst_gap) for i in range(length)]
        macs += [mac] * length
        capture_channels += channels
        regions += [ies_of[channel] for channel in channels]
        t += _draw_interval(profile.inter_burst_interval, rng)
    sequence_numbers = (first_sequence + np.arange(len(timestamps))) % 4096
    return FrameTable(timestamps, macs, capture_channels, sequence_numbers, regions)


def assign_to_sniffers(frames: FrameTable, sniffer_channels: Sequence[int]) -> dict[int, FrameTable]:
    """Idealized capture: the table of the frames each sniffer channel
    hears, which are exactly the rows whose ``capture_channel`` is that
    channel (``generate_device`` sets it to the DS channel), in their
    order; every other row is lost. Each table is one boolean-mask
    ``take`` of the rows, all five columns together."""
    return {s: frames.take(frames.capture_channels == s) for s in sniffer_channels}


# Record header, then a 12-byte Radiotap header carrying only the channel
# field, then the 802.11 management header of a Probe Request.
_RECORD = struct.Struct(
    "<IIII"  # ts_sec, ts_usec, incl_len, orig_len
    "BBHIHH"  # Radiotap: version, pad, length, presence (Channel), frequency, flags
    "BB2s6s6s6sH"  # Frame Control, Duration, Address 1-3, Sequence Control
)
_BROADCAST = b"\xff" * 6


def write_capture(frames: FrameTable, path) -> None:
    """Write a table's rows as a pcap file (link type 127, minimal
    Radiotap, channel field only); ``read_capture`` of the file equals
    the table when its timestamps lie on the 1 us grid and each IE region
    holds whole elements. A row with a MAC other than 6 bytes, a channel
    outside 1..13, a sequence number outside 0..4095, a timestamp below
    the one before, or a timestamp whose rounded microseconds fall
    outside a record's unsigned 32-bit seconds (negative, 2**32 s or
    more, NaN or infinite) raises ``ValueError``, and no file is written.
    """
    out = bytearray(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_RADIOTAP))
    previous = -math.inf
    rows = zip(
        frames.timestamps.tolist(),
        frames.source_macs.tolist(),
        frames.capture_channels.tolist(),
        frames.sequence_numbers.tolist(),
        frames.ies.tolist(),
    )
    for timestamp, mac, channel, sequence, ies in rows:
        if len(mac) != 6:
            raise ValueError("source_mac must be exactly 6 bytes")
        if not 1 <= channel <= 13:
            raise ValueError(f"capture_channel out of range: {channel}")
        if not 0 <= sequence <= 4095:
            raise ValueError(f"sequence_number out of range: {sequence}")
        if timestamp < previous:
            raise ValueError("frames must be time-ordered")
        previous = timestamp
        ticks = round(timestamp * 1e6) if math.isfinite(timestamp) else -1
        if not 0 <= ticks < 2**32 * 1_000_000:  # pcap's seconds are unsigned 32-bit
            raise ValueError(f"timestamp out of range: {timestamp}")
        sec, usec = divmod(ticks, 1_000_000)
        size = _RECORD.size - 16 + len(ies)
        out += _RECORD.pack(
            sec, usec, size, size,
            0, 0, 12, 1 << 3, 2407 + 5 * channel, _CHANNEL_FLAGS_2GHZ,
            FC_PROBE_REQUEST, 0, bytes(2), _BROADCAST, mac, _BROADCAST, sequence << 4,
        )
        out += ies
    Path(path).write_bytes(out)


def _dedupe_macs(per_device: list[FrameTable], seed: int) -> None:
    """Re-draw the rare colliding burst MAC so labels stay unambiguous,
    remapping each device's ``source_macs`` column in place."""
    seen: set[bytes] = set()
    repair = substream(seed, STREAM_GENERATION, 0xFFFF)
    for frames in per_device:
        macs = frames.source_macs.tolist()
        owned: set[bytes] = set()
        remap: dict[bytes, bytes] = {}
        for mac in dict.fromkeys(macs):
            if mac in seen:
                replacement = _random_mac(repair, locally_administered=True)
                while replacement in seen or replacement in owned:
                    replacement = _random_mac(repair, locally_administered=True)
                remap[mac] = replacement
            owned.add(remap.get(mac, mac))
        if remap:
            frames.source_macs[:] = [remap.get(mac, mac) for mac in macs]
        seen |= owned


def generate_scenario(scenario: Scenario, root, overwrite: bool = False) -> Path:
    """Materialize a scenario as a labeled dataset tree.

    Writes one pcap per device and sniffer channel under
    ``<root>/<device_id>/<channel>.pcap`` plus a manifest echoing the
    scenario and seed. Refuses a non-empty root unless ``overwrite``;
    overwriting first removes the captures that the root's manifest
    lists, and each device directory that this leaves empty, and
    nothing else. When a capture cannot be written, the captures this
    call wrote or began and the device directories it made are removed
    and the error is raised again; a ``ValueError`` from a row names
    the device and the channel.
    """
    root = Path(root)
    if root.exists() and any(root.iterdir()) and not overwrite:
        raise FileExistsError(f"{root} exists and is not empty (pass overwrite)")
    old_manifest = root / "manifest.json"
    if old_manifest.is_file():
        old = _read_scenario(old_manifest, lambda document: document["scenario"])
        for profile in old.profiles:
            device_dir = root / profile.device_id
            for channel in old.sniffer_channels:
                (device_dir / f"{channel}.pcap").unlink(missing_ok=True)
            if device_dir.is_dir() and not any(device_dir.iterdir()):
                device_dir.rmdir()
    root.mkdir(parents=True, exist_ok=True)

    per_device = [
        generate_device(profile, scenario.duration, substream(scenario.seed, STREAM_GENERATION, i))
        for i, profile in enumerate(scenario.profiles)
    ]
    _dedupe_macs(per_device, scenario.seed)

    made_dirs: list[Path] = []
    made_captures: list[Path] = []  # written, or begun
    try:
        for profile, frames in zip(scenario.profiles, per_device):
            device_dir = root / profile.device_id
            if not device_dir.is_dir():
                device_dir.mkdir()
                made_dirs.append(device_dir)
            for channel, captured in assign_to_sniffers(frames, scenario.sniffer_channels).items():
                made_captures.append(device_dir / f"{channel}.pcap")
                try:
                    write_capture(captured, made_captures[-1])
                except ValueError as exc:
                    raise ValueError(f"device {profile.device_id}, channel {channel}: {exc}") from None
    except BaseException:
        for path in made_captures:
            path.unlink(missing_ok=True)
        for path in made_dirs:
            path.rmdir()
        raise

    manifest = {
        "generator": {"name": "probederand", "version": __version__},
        "seed": scenario.seed,
        "scenario": scenario_to_dict(scenario),
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return root


def _spec_to_json(spec):
    if isinstance(spec, tuple):
        return {"uniform": list(spec)}
    return {"fixed": spec}


def json_typed(key: str, value, kind: type):
    """``value``, read from JSON for ``key``, if it is of type ``kind``:
    a bool is only a bool, and an int stands for a float within a
    float's range. Any other value raises ValueError naming ``key``."""
    if type(value) is kind or (kind is float and type(value) is int and abs(value) <= sys.float_info.max):
        return value
    name = kind.__name__
    article = "an" if name[0] in "aeiou" else "a"
    raise ValueError(f"{key} must be {article} {name}, not {value!r}")


def _value_from_json(value, key: str, kind: type):
    """One document value of type ``kind``; a float field's is a float."""
    return kind(json_typed(key, value, kind))


def _tuple_from_json(value, key: str, kind: type):
    return tuple(_value_from_json(v, key, kind) for v in json_typed(key, value, list))


def _spec_from_json(value, key: str, kind: type):
    if isinstance(value, dict):
        if "fixed" in value:
            return _value_from_json(value["fixed"], key, kind)
        if "uniform" in value and len(value["uniform"]) == 2:
            a, b = value["uniform"]
            return (_value_from_json(a, key, kind), _value_from_json(b, key, kind))
        raise ValueError(f"{key} must be {{'fixed': x}} or {{'uniform': [a, b]}}, got {value}")
    return _value_from_json(value, key, kind)


# The reader and type of each optional document key; an absent key keeps
# its default.
_PROFILE_FIELDS = {
    "burst_length": (_spec_from_json, int),
    "inter_burst_interval": (_spec_from_json, float),
    "intra_burst_gap": (_value_from_json, float),
    "randomize_mac": (_value_from_json, bool),
    "channel_jitter": (_value_from_json, float),
}
_SCENARIO_FIELDS = {"seed": (_value_from_json, int), "sniffer_channels": (_tuple_from_json, int)}


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "duration": scenario.duration,
        "seed": scenario.seed,
        "sniffer_channels": list(scenario.sniffer_channels),
        "profiles": [
            {
                "device_id": p.device_id,
                "ie": {
                    "ht": p.ie_template.ht.hex() if p.ie_template.ht is not None else None,
                    "extended": (
                        p.ie_template.extended.hex()
                        if p.ie_template.extended is not None
                        else None
                    ),
                    "vendor": [v.hex() for v in p.ie_template.vendor],
                },
                "pnl_pattern": list(p.pnl_pattern),
                "burst_length": _spec_to_json(p.burst_length),
                "inter_burst_interval": _spec_to_json(p.inter_burst_interval),
                "intra_burst_gap": p.intra_burst_gap,
                "randomize_mac": p.randomize_mac,
                "channel_jitter": p.channel_jitter,
            }
            for p in scenario.profiles
        ],
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("a scenario must be a JSON object")
    profiles = []
    for entry in data["profiles"]:
        ie = entry.get("ie", {})
        template = IeTemplate(
            ht=bytes.fromhex(ie["ht"]) if ie.get("ht") is not None else None,
            extended=bytes.fromhex(ie["extended"]) if ie.get("extended") is not None else None,
            vendor=tuple(bytes.fromhex(v) for v in ie.get("vendor", ())),
        )
        profiles.append(
            DeviceProfile(
                device_id=_value_from_json(entry["device_id"], "device_id", str),
                ie_template=template,
                pnl_pattern=_tuple_from_json(entry["pnl_pattern"], "pnl_pattern", int),
                **{k: read(entry[k], k, kind) for k, (read, kind) in _PROFILE_FIELDS.items() if k in entry},
            )
        )
    return Scenario(
        profiles=tuple(profiles),
        duration=_value_from_json(data["duration"], "duration", float),
        **{k: read(data[k], k, kind) for k, (read, kind) in _SCENARIO_FIELDS.items() if k in data},
    )


def load_scenario(path) -> Scenario:
    """Read a scenario description from a JSON document; a document that
    does not describe a scenario raises ValueError naming the file."""
    return _read_scenario(path, lambda document: document)


def _read_scenario(path, pick) -> Scenario:
    """The scenario ``pick`` takes from the JSON at ``path``; ValueError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return scenario_from_dict(pick(json.load(fh)))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {exc}") from None
