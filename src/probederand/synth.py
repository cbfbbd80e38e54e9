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
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .pcap import (
    IE_DS_PARAMETER_SET,
    IE_EXTENDED_CAPABILITIES,
    IE_HT_CAPABILITIES,
    IE_SSID,
    IE_VENDOR_SPECIFIC,
    LINKTYPE_RADIOTAP,
    ProbeRequestFrame,
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
        if self.intra_burst_gap <= 0:
            raise ValueError("intra_burst_gap must be positive")
        for bound in _spec_bounds(self.burst_length) + _spec_bounds(self.inter_burst_interval):
            if bound <= 0:
                raise ValueError("distribution bounds must be positive")


@dataclass(frozen=True)
class Scenario:
    profiles: tuple[DeviceProfile, ...]
    duration: float
    seed: int = DEFAULT_SEED
    sniffer_channels: tuple[int, ...] = SNIFFERS_DEFAULT

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
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


def generate_device(
    profile: DeviceProfile, duration: float, rng: np.random.Generator
) -> list[tuple[ProbeRequestFrame, str]]:
    """Emit (frame, device label) pairs for one device over ``duration``.

    Bursts start at t=0 and recur at drawn intervals while t stays
    below the duration. Each burst walks the PNL pattern cyclically for
    the drawn length, optionally perturbing one entry, and stamps a
    fresh random MAC when the randomization policy is on.
    """
    pairs: list[tuple[ProbeRequestFrame, str]] = []
    sequence = int(rng.integers(4096))
    fixed_mac = None if profile.randomize_mac else _random_mac(rng, locally_administered=False)
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
        for i, channel in enumerate(channels):
            frame = ProbeRequestFrame(
                timestamp=_quantize(t + i * profile.intra_burst_gap),
                source_mac=mac,
                capture_channel=channel,
                sequence_number=sequence,
                ies=_frame_ies(profile.ie_template, channel),
            )
            sequence = (sequence + 1) % 4096
            pairs.append((frame, profile.device_id))
        t += _draw_interval(profile.inter_burst_interval, rng)
    return pairs


def assign_to_sniffers(
    frames: Sequence[ProbeRequestFrame], sniffer_channels: Sequence[int]
) -> dict[int, list[ProbeRequestFrame]]:
    """Idealized capture: a sniffer hears exactly the frames sent on its
    channel (``capture_channel``, which ``generate_device`` sets to the
    frame's DS channel); everything else is lost."""
    captured: dict[int, list[ProbeRequestFrame]] = {s: [] for s in sniffer_channels}
    for frame in frames:
        if frame.capture_channel in captured:
            captured[frame.capture_channel].append(frame)
    return captured


def write_capture(frames: Sequence[ProbeRequestFrame], path) -> None:
    """Serialize frames as a pcap file (link type 127, minimal Radiotap).

    The Radiotap header carries only the channel field, set to each
    frame's ``capture_channel``; reading the file back reproduces
    timestamps (to 1 us), MACs, channels, sequence numbers and IE bytes
    exactly.
    """
    out = bytearray()
    out += struct.pack(
        "<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_RADIOTAP
    )
    previous = None
    for frame in frames:
        if previous is not None and frame.timestamp < previous:
            raise ValueError("frames must be time-ordered")
        previous = frame.timestamp
        radiotap = struct.pack(
            "<BBHIHH", 0, 0, 12, 1 << 3, 2407 + 5 * frame.capture_channel, _CHANNEL_FLAGS_2GHZ
        )
        dot11 = bytearray()
        dot11 += bytes([0x40, 0x00])  # Frame Control: Probe Request
        dot11 += bytes(2)  # Duration
        dot11 += b"\xff" * 6  # Address 1: broadcast
        dot11 += frame.source_mac
        dot11 += b"\xff" * 6  # Address 3: wildcard BSSID
        dot11 += struct.pack("<H", (frame.sequence_number << 4) & 0xFFFF)
        dot11 += frame.ies
        total_us = round(frame.timestamp * 1e6)
        sec, usec = divmod(total_us, 1_000_000)
        record = radiotap + dot11
        out += struct.pack("<IIII", sec, usec, len(record), len(record))
        out += record
    Path(path).write_bytes(bytes(out))


def _dedupe_macs(
    per_device: list[list[tuple[ProbeRequestFrame, str]]], seed: int
) -> None:
    """Re-draw the rare colliding burst MAC so labels stay unambiguous."""
    seen: set[bytes] = set()
    repair = substream(seed, STREAM_GENERATION, 0xFFFF)
    for pairs in per_device:
        owned: set[bytes] = set()
        remap: dict[bytes, bytes] = {}
        for frame, _ in pairs:
            mac = frame.source_mac
            if mac in remap:
                continue
            if mac in seen and mac not in owned:
                replacement = _random_mac(repair, locally_administered=True)
                while replacement in seen or replacement in owned:
                    replacement = _random_mac(repair, locally_administered=True)
                remap[mac] = replacement
                owned.add(replacement)
            else:
                owned.add(mac)
        if remap:
            for i, (frame, label) in enumerate(pairs):
                if frame.source_mac in remap:
                    pairs[i] = (replace(frame, source_mac=remap[frame.source_mac]), label)
        seen |= {f.source_mac for f, _ in pairs}


def generate_scenario(scenario: Scenario, root, overwrite: bool = False) -> Path:
    """Materialize a scenario as a labeled dataset tree.

    Writes one pcap per device and sniffer channel under
    ``<root>/<device_id>/<channel>.pcap`` plus a manifest echoing the
    scenario and seed. Refuses a non-empty root unless ``overwrite``.
    """
    root = Path(root)
    if root.exists() and any(root.iterdir()) and not overwrite:
        raise FileExistsError(f"{root} exists and is not empty (pass overwrite)")
    root.mkdir(parents=True, exist_ok=True)

    per_device = [
        generate_device(profile, scenario.duration, substream(scenario.seed, STREAM_GENERATION, i))
        for i, profile in enumerate(scenario.profiles)
    ]
    _dedupe_macs(per_device, scenario.seed)

    for profile, pairs in zip(scenario.profiles, per_device):
        device_dir = root / profile.device_id
        device_dir.mkdir(exist_ok=True)
        frames = [frame for frame, _ in pairs]
        captured = assign_to_sniffers(frames, scenario.sniffer_channels)
        for channel in scenario.sniffer_channels:
            write_capture(captured[channel], device_dir / f"{channel}.pcap")

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


def _spec_from_json(value, key: str, cast):
    if isinstance(value, dict):
        if "fixed" in value:
            return cast(value["fixed"])
        if "uniform" in value and len(value["uniform"]) == 2:
            a, b = value["uniform"]
            return (cast(a), cast(b))
        raise ValueError(f"{key} must be {{'fixed': x}} or {{'uniform': [a, b]}}, got {value}")
    return cast(value)


# Casts of the optional document keys; an absent key keeps its default.
_PROFILE_FIELDS = {
    "burst_length": lambda v: _spec_from_json(v, "burst_length", int),
    "inter_burst_interval": lambda v: _spec_from_json(v, "inter_burst_interval", float),
    "intra_burst_gap": float,
    "randomize_mac": bool,
    "channel_jitter": float,
}
_SCENARIO_FIELDS = {"seed": int, "sniffer_channels": lambda v: tuple(int(c) for c in v)}


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
                device_id=str(entry["device_id"]),
                ie_template=template,
                pnl_pattern=tuple(int(c) for c in entry["pnl_pattern"]),
                **{k: cast(entry[k]) for k, cast in _PROFILE_FIELDS.items() if k in entry},
            )
        )
    return Scenario(
        profiles=tuple(profiles),
        duration=float(data["duration"]),
        **{k: cast(data[k]) for k, cast in _SCENARIO_FIELDS.items() if k in data},
    )


def load_scenario(path) -> Scenario:
    """Read a scenario description from a JSON document; a document that
    does not describe a scenario raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return scenario_from_dict(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
