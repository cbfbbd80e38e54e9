"""Burst construction and feature encoding for probe-request streams.

Frames are grouped into per-MAC bursts; each burst carries a numeric
fingerprint of its Information Elements (HT Capabilities, Extended
Capabilities, Vendor-Specific tags) and the multi-channel arrival-order
vector used by the fine clustering stage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .pcap import ProbeRequestFrame, ie_fields, mac_from_str, mac_to_str

DEFAULT_BURST_GAP = 2.0


@dataclass(frozen=True)
class Burst:
    """A maximal run of frames sharing one source MAC.

    ``channel_vector`` records the DS Channel of each frame in arrival
    order, or its capture channel when the DS Parameter Set is missing
    or says channel 0.
    ``ie_stable`` is False when a later frame's IE features differ from
    the first frame's; bursts loaded back from a feature file are stable.
    """

    burst_id: int
    source_mac: bytes
    ie_features: tuple[float, float, float]
    channel_vector: tuple[int, ...]
    truth_device: Optional[str] = None
    ie_stable: bool = True

    def __post_init__(self) -> None:
        if len(self.channel_vector) < 1:
            raise ValueError("a burst holds at least one frame")

    @property
    def length(self) -> int:
        return len(self.channel_vector)


def group_bursts(
    frames: Sequence[ProbeRequestFrame],
    gap_seconds: float = DEFAULT_BURST_GAP,
    truths: Optional[Sequence[str]] = None,
) -> list[Burst]:
    """Partition a time-ordered frame stream into bursts.

    Frames are split by source MAC; within one MAC a new burst starts
    whenever the inter-frame gap exceeds ``gap_seconds`` (devices that
    never randomize reuse one MAC across many bursts). Burst IE
    features are taken from the first frame of the burst. Each channel
    vector entry is the frame's DS channel, else (no DS channel, or a DS
    channel of 0) its capture channel.
    """
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    if truths is not None and len(truths) != len(frames):
        raise ValueError("truths must parallel frames")

    groups: list[list[int]] = []
    open_group: dict[bytes, int] = {}
    last_seen: dict[bytes, float] = {}
    # one walk per distinct IE region; frames from read_capture share
    # their region objects, so most lookups are identity hits
    walked: dict[bytes, tuple] = {}
    previous_ts = None
    for idx, frame in enumerate(frames):
        if previous_ts is not None and frame.timestamp < previous_ts:
            raise ValueError("frames must be sorted by timestamp")
        previous_ts = frame.timestamp
        if frame.ies not in walked:
            walked[frame.ies] = ie_fields(frame.ies)
        mac = frame.source_mac
        if mac in open_group and frame.timestamp - last_seen[mac] <= gap_seconds:
            groups[open_group[mac]].append(idx)
        else:
            open_group[mac] = len(groups)
            groups.append([idx])
        last_seen[mac] = frame.timestamp

    bursts = []
    for burst_id, indices in enumerate(groups):
        fields = [walked[frames[i].ies] for i in indices]
        features = fields[0][0]
        bursts.append(
            Burst(
                burst_id=burst_id,
                source_mac=frames[indices[0]].source_mac,
                ie_features=features,
                channel_vector=tuple(
                    channel or frames[i].capture_channel
                    for (_, channel, _), i in zip(fields, indices)
                ),
                truth_device=truths[indices[0]] if truths is not None else None,
                ie_stable=all(f == features for f, _, _ in fields),
            )
        )
    return bursts


def ie_stability_violations(bursts: Sequence[Burst]) -> list[int]:
    """Burst ids whose frames disagree with the first frame's IE features.

    The fingerprint is expected to be stable within a burst; violations
    are reported for auditing rather than treated as fatal.
    """
    return [burst.burst_id for burst in bursts if not burst.ie_stable]


def pad_matrix(vectors: Sequence[Sequence[int]]) -> np.ndarray:
    """Zero-pad channel vectors to the maximum observed length."""
    if len(vectors) == 0:
        raise ValueError("no bursts to pad")
    if any(len(v) == 0 for v in vectors):
        raise ValueError("channel vectors must be non-empty")
    width = max(len(v) for v in vectors)
    matrix = np.zeros((len(vectors), width), dtype=float)
    for row, vector in zip(matrix, vectors):
        row[: len(vector)] = vector
    return matrix


def normalize_ie_matrix(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-dimension min-max scaling into [0, 1]; constant dimensions map to 0."""
    matrix = np.asarray(vectors, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("expected a non-empty matrix of feature vectors")
    low = matrix.min(axis=0)
    span = matrix.max(axis=0) - low
    scaled = np.zeros_like(matrix)
    varying = span > 0
    scaled[:, varying] = (matrix[:, varying] - low[varying]) / span[varying]
    return scaled


FEATURE_FIELDS = (
    "burst_id",
    "source_mac",
    "truth_device",
    "L",
    "ie_ht",
    "ie_extcap",
    "ie_vendor",
    "channel_vector",
)


def _format_number(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def write_table(path, fields: Sequence[str], rows, header_comment: str | None = None) -> None:
    """Write a UTF-8 CSV table: an optional ``# comment`` line, the field
    names, then ``rows`` (csv's default ``\\r\\n`` row endings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def write_feature_file(bursts: Sequence[Burst], path, header_comment: str | None = None) -> None:
    """Write the per-burst intermediate feature file (CSV, UTF-8)."""
    rows = (
        [
            burst.burst_id,
            mac_to_str(burst.source_mac),
            burst.truth_device or "",
            burst.length,
            _format_number(burst.ie_features[0]),
            _format_number(burst.ie_features[1]),
            _format_number(burst.ie_features[2]),
            ";".join(str(c) for c in burst.channel_vector),
        ]
        for burst in bursts
    )
    write_table(path, FEATURE_FIELDS, rows, header_comment)


def read_feature_file(path) -> list[Burst]:
    """Load bursts back from a feature file, reporting bad rows (and a
    ``burst_id`` that repeats an earlier row's) by line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        numbered = [
            (lineno, line)
            for lineno, line in enumerate(fh, start=1)
            if line.strip() and not line.startswith("#")
        ]
    if not numbered:
        raise ValueError(f"{path}: no header row found")
    header = next(csv.reader([numbered[0][1]]))
    if tuple(header) != FEATURE_FIELDS:
        raise ValueError(f"{path}:{numbered[0][0]}: unexpected header {header}")
    bursts = []
    first_line = {}  # burst_id -> line it first appears on
    for lineno, line in numbered[1:]:
        row = next(csv.reader([line]))
        try:
            if len(row) != len(FEATURE_FIELDS):
                raise ValueError(f"expected {len(FEATURE_FIELDS)} fields, got {len(row)}")
            channel_vector = tuple(int(c) for c in row[7].split(";") if c != "")
            if channel_vector and (min(channel_vector) < 0 or max(channel_vector) == 0):
                raise ValueError(
                    f"channel_vector needs a positive entry and no negative one, got {row[7]!r}"
                )
            ie_features = (float(row[4]), float(row[5]), float(row[6]))
            if not all(math.isfinite(x) for x in ie_features):
                raise ValueError(f"IE features must be finite, got {ie_features}")
            burst = Burst(
                burst_id=int(row[0]),
                source_mac=mac_from_str(row[1]),
                ie_features=ie_features,
                channel_vector=channel_vector,
                truth_device=row[2] or None,
            )
            if burst.length != int(row[3]):
                raise ValueError("L column disagrees with channel_vector")
            if burst.burst_id in first_line:
                raise ValueError(
                    f"burst_id {burst.burst_id} repeats line {first_line[burst.burst_id]}"
                )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        first_line[burst.burst_id] = lineno
        bursts.append(burst)
    return bursts
