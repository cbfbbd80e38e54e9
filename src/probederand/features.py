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

from .pcap import FrameTable, ie_fields, mac_from_str, mac_to_str

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
    frames: FrameTable,
    gap_seconds: float = DEFAULT_BURST_GAP,
    truths: Optional[Sequence[str]] = None,
) -> list[Burst]:
    """Partition a time-ordered frame table into bursts.

    Frames are split by source MAC; within one MAC a new burst starts
    whenever the inter-frame gap exceeds ``gap_seconds`` (devices that
    never randomize reuse one MAC across many bursts). Bursts are
    numbered in the order of their first frames. Burst IE features are
    taken from the first frame of the burst, and ``ie_stable`` says that
    every frame has them. Each channel vector entry is the frame's DS
    channel, else (no DS channel, or a DS channel of 0) its capture
    channel. ``truths[i]``, when given, labels row i; a burst takes its
    first frame's label.

    The cut is made with array operations, each exact: a stable sort by
    MAC keeps every MAC's frames in time order, so each frame's
    predecessor in that order is the previous frame of its MAC, and the
    float64 gap is the same subtraction Python makes.
    """
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    n = len(frames)
    if truths is not None and len(truths) != n:
        raise ValueError("truths must parallel frames")
    timestamps = np.array(frames.timestamps, dtype=float)
    if np.any(timestamps[1:] < timestamps[:-1]):
        raise ValueError("frames must be sorted by timestamp")
    if n == 0:
        return []

    order, starts = _burst_starts(frames.source_macs, timestamps, gap_seconds)
    begin = np.flatnonzero(starts)
    end = np.append(begin[1:], n)

    fingerprints, fingerprint_of, channel_of = _frame_codes(frames)
    vectors = channel_of[order].tolist()
    codes = fingerprint_of[order]
    stable = np.ones(len(begin), dtype=bool)
    burst_of = np.cumsum(starts) - 1
    stable[burst_of[codes != codes[begin][burst_of]]] = False

    # number the bursts by the row of their first frame
    first_rows = order[begin]
    by_first = np.argsort(first_rows)
    first = first_rows[by_first]
    macs = frames.source_macs
    return [
        Burst(
            burst_id=burst_id,
            source_mac=macs[i],
            ie_features=fingerprints[code],
            channel_vector=tuple(vectors[lo:hi]),
            truth_device=truths[i] if truths is not None else None,
            ie_stable=is_stable,
        )
        for burst_id, (i, code, lo, hi, is_stable) in enumerate(
            zip(
                first.tolist(),
                fingerprint_of[first].tolist(),
                begin[by_first].tolist(),
                end[by_first].tolist(),
                stable[by_first].tolist(),
            )
        )
    ]


def _burst_starts(
    macs: Sequence[bytes], timestamps: np.ndarray, gap_seconds: float
) -> tuple[np.ndarray, np.ndarray]:
    """The frames' stable order by MAC, and a flag at each position of it
    where a burst starts: the MAC changes, or the gap to the previous
    frame, of the same MAC, exceeds ``gap_seconds``."""
    padded = np.zeros((len(macs), 8), dtype=np.uint8)
    padded[:, :6] = np.frombuffer(b"".join(macs), dtype=np.uint8).reshape(-1, 6)
    keys = padded.view(np.uint64).ravel()  # one integer per distinct MAC
    order = np.argsort(keys, kind="stable")
    keys, timestamps = keys[order], timestamps[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = ~((keys[1:] == keys[:-1]) & (timestamps[1:] - timestamps[:-1] <= gap_seconds))
    return order, starts


def _frame_codes(frames: FrameTable) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """(distinct fingerprints, each frame's fingerprint code, each frame's
    channel-vector entry), after one walk per distinct IE region.

    The entry is the frame's DS channel where it is > 0, else its
    capture channel.
    """
    region_rows: dict[bytes, int] = {}
    region_of = np.array([region_rows.setdefault(ies, len(region_rows)) for ies in frames.ies])
    fingerprint_codes: dict[tuple, int] = {}
    region_fingerprint, region_ds = [], []
    for region in region_rows:
        fingerprint, ds_channel, _ = ie_fields(region)
        region_fingerprint.append(fingerprint_codes.setdefault(fingerprint, len(fingerprint_codes)))
        region_ds.append(ds_channel or 0)
    ds_of = np.array(region_ds)[region_of]
    channel_of = np.where(ds_of > 0, ds_of, np.array(frames.capture_channels))
    return list(fingerprint_codes), np.array(region_fingerprint)[region_of], channel_of


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
            if channel_vector and (min(channel_vector) < 0 or not 0 < max(channel_vector) <= 255):
                raise ValueError(
                    f"channel_vector needs entries in 0..255 and a positive one, got {row[7]!r}"
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
