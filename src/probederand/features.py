"""Burst construction and feature encoding for probe-request streams.

Frames are grouped into per-MAC bursts; each burst carries a numeric
fingerprint of its Information Elements (HT Capabilities, Extended
Capabilities, Vendor-Specific tags) and the multi-channel arrival-order
vector used by the fine clustering stage. Bursts travel as one
:class:`BurstTable` of columns, in burst-id order by construction.
"""

from __future__ import annotations

import csv
import io
import math
import os
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .pcap import FrameTable, ie_fields, mac_from_str, mac_to_str

DEFAULT_BURST_GAP = 2.0


class BurstTable:
    """Bursts as columns, row i the burst with the i-th smallest id.

    ``ids`` strictly increase. ``source_macs`` (6-byte ``bytes``) and
    ``truth_devices`` (a device name, or None when unlabelled) are
    object arrays, ``ie_features`` the n x 3 fingerprint matrix. Burst
    i's channel vector is ``channels[offsets[i]:offsets[i + 1]]``, at
    least one entry: the DS Channel of each frame in arrival order, or
    its capture channel when the DS Parameter Set is missing or says
    channel 0. ``ie_stable[i]`` is False when a later frame's IE
    features differ from the first frame's; bursts loaded back from a
    feature file are stable.
    """

    def __init__(self, ids, source_macs, truth_devices, ie_features, channels, offsets, ie_stable):
        self.ids = np.asarray(ids, dtype=np.int64)
        n = len(self.ids)
        self.source_macs = np.asarray(source_macs, dtype=object)
        self.truth_devices = np.asarray(truth_devices, dtype=object)
        self.ie_features = np.asarray(ie_features, dtype=float).reshape(n, 3)
        self.channels = np.asarray(channels, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.ie_stable = np.asarray(ie_stable, dtype=bool)
        if any(c.shape != (n,) for c in (self.source_macs, self.truth_devices, self.ie_stable)):
            raise ValueError("every column needs one entry per burst")
        if self.offsets.shape != (n + 1,) or self.offsets[0] != 0 or self.offsets[-1] != len(self.channels):
            raise ValueError("offsets must run from 0 to len(channels), one per burst and one more")
        if np.any(self.ids[1:] <= self.ids[:-1]):
            raise ValueError("burst ids must strictly increase")
        if np.any(np.diff(self.offsets) < 1):
            raise ValueError("a burst holds at least one frame")

    def __len__(self) -> int:
        return len(self.ids)


def group_bursts(
    frames: FrameTable,
    gap_seconds: float = DEFAULT_BURST_GAP,
    truths: Optional[Sequence[str]] = None,
) -> BurstTable:
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
    if not gap_seconds > 0:
        raise ValueError("gap_seconds must be positive")
    n = len(frames)
    if truths is not None and len(truths) != n:
        raise ValueError("truths must parallel frames")
    timestamps = frames.timestamps
    if np.any(timestamps[1:] < timestamps[:-1]):
        raise ValueError("frames must be sorted by timestamp")
    if n == 0:
        return BurstTable([], [], [], [], [], [0], [])

    order, starts = _burst_starts(frames.source_macs, timestamps, gap_seconds)
    # number the bursts by the row of their first frame
    first_rows = order[starts]
    by_first = np.argsort(first_rows)
    first = first_rows[by_first]
    burst_of = np.empty(n, dtype=np.int64)
    burst_of[order] = np.argsort(by_first)[np.cumsum(starts) - 1]
    fingerprints, fingerprint_of, channel_of = _frame_codes(frames)
    stable = np.ones(len(first), dtype=bool)
    stable[burst_of[fingerprint_of != fingerprint_of[first][burst_of]]] = False
    labels = np.full(n, None) if truths is None else np.array(truths, dtype=object)
    return BurstTable(
        ids=np.arange(len(first)),
        source_macs=frames.source_macs[first],
        truth_devices=labels[first],
        ie_features=np.array(fingerprints, dtype=float)[fingerprint_of[first]],
        # a stable sort by burst keeps each burst's frames in arrival order
        channels=channel_of[np.argsort(burst_of, kind="stable")],
        offsets=np.concatenate(([0], np.cumsum(np.bincount(burst_of)))),
        ie_stable=stable,
    )


def _burst_starts(
    macs: np.ndarray, timestamps: np.ndarray, gap_seconds: float
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
    region_of = np.array([region_rows.setdefault(ies, len(region_rows)) for ies in frames.ies.tolist()])
    fingerprint_codes: dict[tuple, int] = {}
    region_fingerprint, region_ds = [], []
    for region in region_rows:
        fingerprint, ds_channel, _ = ie_fields(region)
        region_fingerprint.append(fingerprint_codes.setdefault(fingerprint, len(fingerprint_codes)))
        region_ds.append(ds_channel or 0)
    ds_of = np.array(region_ds)[region_of]
    channel_of = np.where(ds_of > 0, ds_of, frames.capture_channels)
    return list(fingerprint_codes), np.array(region_fingerprint)[region_of], channel_of


def ie_stability_violations(table: BurstTable) -> list[int]:
    """Burst ids whose frames disagree with the first frame's IE features.

    The fingerprint is expected to be stable within a burst; violations
    are reported for auditing rather than treated as fatal.
    """
    return table.ids[~table.ie_stable].tolist()


def pad_matrix(table: BurstTable) -> np.ndarray:
    """The channel vectors as rows, zero-padded to the longest."""
    if len(table) == 0:
        raise ValueError("no bursts to pad")
    lengths = np.diff(table.offsets)
    matrix = np.zeros((len(table), lengths.max()))
    # row-major order of the mask is the order of the flat column
    matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = table.channels
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
    """Write a UTF-8 CSV table: an optional one-line ``# comment``, the
    field names, then ``rows``. Every field is a text as ``csv.writer``
    writes it, quoted already where it must be; each row is its fields
    joined with ``,`` and ended with ``\\r\\n``, as ``csv.writer`` ends
    its rows."""
    if header_comment and ("\n" in header_comment or "\r" in header_comment):
        raise ValueError("a header comment is one line")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.writelines(",".join(row) + "\r\n" for row in chain([fields], rows))


def write_burst_rows(
    table: BurstTable, path, fields: Sequence[str], columns: Sequence[list[str]], header_comment: str | None = None
) -> None:
    """``write_table`` of one row per burst: its id, MAC and truth name
    (empty when None), then the texts of ``columns``. The text of each
    MAC and truth name is made once per distinct value. Raises
    ValueError, before the file is opened, for a truth name holding a
    NUL character."""
    ids = list(map(str, table.ids.tolist()))
    macs = _texts(table.source_macs.tolist(), mac_to_str)
    truths = _texts(table.truth_devices.tolist(), _csv_field)
    write_table(path, fields, zip(ids, macs, truths, *columns), header_comment)


def _texts(values: list, text: Callable[[object], str]) -> list[str]:
    """``text(value)`` for each of ``values``, called once per distinct value."""
    memo = {value: text(value) for value in set(values)}
    return list(map(memo.__getitem__, values))


def _csv_field(value: Optional[str]) -> str:
    """``value``, None read as empty, as ``csv.writer`` writes it among
    other fields: quoted where it holds a comma, a quote or a line break.
    A NUL character is refused: ``csv.reader`` before Python 3.11 cannot
    read it back."""
    if not value:
        return ""
    if "\x00" in value:
        raise ValueError(f"truth device {value!r} holds a NUL character")
    buffer = io.StringIO()
    csv.writer(buffer).writerow([value])
    return buffer.getvalue()[: -len("\r\n")]


def write_feature_file(table: BurstTable, path, header_comment: str | None = None) -> None:
    """Write the per-burst intermediate feature file (CSV, UTF-8).

    Each L and IE number is formatted once per distinct value, and each
    channel entry is taken from a table of the distinct channel values'
    texts, so the only per-burst work is joining its entries with ``;``.
    """
    values, value_of = np.unique(table.channels, return_inverse=True)
    entries = np.array(list(map(str, values.tolist())), dtype=object)[value_of].tolist()
    bounds = table.offsets.tolist()
    write_burst_rows(
        table,
        path,
        FEATURE_FIELDS,
        [
            _texts(np.diff(table.offsets).tolist(), str),
            *(_texts(column, _format_number) for column in table.ie_features.T.tolist()),
            [";".join(entries[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
        ],
        header_comment,
    )


def read_feature_file(path) -> BurstTable:
    """Load the bursts of a feature file in burst-id order, reporting
    bad rows (and a ``burst_id`` that repeats an earlier row's) by the
    line their record starts on. Blank and ``#`` lines before the header
    are skipped; after it every csv record is a row but a blank one."""
    rows = []
    first_line = {}  # burst_id -> line its record starts on
    # No field is longer than the file's byte size, so with csv's limit
    # raised to that every channel vector reads back.
    limit = csv.field_size_limit()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            csv.field_size_limit(max(limit, os.fstat(fh.fileno()).st_size))
            for skipped, line in enumerate(fh):
                if line.strip() and not line.startswith("#"):
                    break
            else:
                raise ValueError(f"{path}: no header row found")
            reader = csv.reader(chain([line], fh))
            lineno = skipped + 1  # the line the next record starts on
            try:
                header = next(reader)
                if tuple(header) != FEATURE_FIELDS:
                    raise ValueError(f"unexpected header {header}")
                lineno = skipped + reader.line_num + 1
                for row in reader:
                    if len(row) > 1 or "".join(row).strip():  # blank: no field, or one of whitespace
                        rows.append(_feature_row(row))
                        burst_id = rows[-1][0]
                        if burst_id in first_line:
                            raise ValueError(f"burst_id {burst_id} repeats line {first_line[burst_id]}")
                        if not -(2**63) <= burst_id < 2**63:
                            raise ValueError(f"burst_id {burst_id} is outside the signed 64-bit range")
                        first_line[burst_id] = lineno
                    lineno = skipped + reader.line_num + 1
            except UnicodeDecodeError:
                raise
            except (ValueError, csv.Error) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: not UTF-8 text (cannot decode byte 0x{byte:02x}: {exc.reason})") from None
    finally:
        csv.field_size_limit(limit)
    rows.sort(key=lambda row: row[0])
    ids, macs, truths, ie_features, vectors = zip(*rows) if rows else ([],) * 5
    return BurstTable(
        ids, macs, truths, ie_features,
        channels=np.fromiter(chain.from_iterable(vectors), np.int64),
        offsets=np.cumsum([0, *map(len, vectors)]),
        ie_stable=np.ones(len(rows), dtype=bool),
    )


def _feature_row(row: list[str]) -> tuple:
    """(burst_id, source MAC, truth device or None, IE features, channel
    vector) of one feature-file row, checked field by field."""
    if len(row) != len(FEATURE_FIELDS):
        raise ValueError(f"expected {len(FEATURE_FIELDS)} fields, got {len(row)}")
    channel_vector = tuple([int(c) for c in row[7].split(";") if c != ""])
    if channel_vector and (min(channel_vector) < 0 or not 0 < max(channel_vector) <= 255):
        raise ValueError(f"channel_vector needs entries in 0..255 and a positive one, got {row[7]!r}")
    ie_features = (float(row[4]), float(row[5]), float(row[6]))
    if not all(math.isfinite(x) for x in ie_features):
        raise ValueError(f"IE features must be finite, got {ie_features}")
    burst_id, source_mac = int(row[0]), mac_from_str(row[1])
    if not channel_vector:
        raise ValueError("a burst holds at least one frame")
    if len(channel_vector) != int(row[3]):
        raise ValueError("L column disagrees with channel_vector")
    return burst_id, source_mac, row[2] or None, ie_features, channel_vector
