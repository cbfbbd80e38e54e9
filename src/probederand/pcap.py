"""pcap / Radiotap / 802.11 parsing for Probe Request traffic.

Reads classic pcap files (libpcap format, both byte orders, microsecond
and nanosecond timestamp magic) with link type 127 (Radiotap over
802.11) or 105 (bare 802.11), keeps only Probe Request frames, and
merges per-channel sniffer captures into one time-ordered stream.
:func:`read_capture` alone gives a frame its capture channel: the
Radiotap channel field, else the channel the file declares.

Frames travel as one :class:`FrameTable` of numpy columns, never as an
object per frame: the parser decodes one with array operations after a
single walk over the record offsets, :func:`merge_captures` orders the
rows of several with one ``take``, and ``synth.write_capture`` writes
one.

Only the fields the burst pipeline consumes are decoded: capture
timestamp, source MAC (Address 2), capture channel, sequence number,
and the tagged Information Elements, kept as raw bytes and read by
:func:`ie_fields`. No FCS validation is attempted; frames that Radiotap
flags as FCS-bad are dropped.

pcap global header (24 bytes): magic, version major/minor, thiszone,
sigfigs, snaplen, network. Record header (16 bytes): ts_sec, ts_frac,
incl_len, orig_len.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_RADIOTAP = 127
LINKTYPE_DOT11 = 105

# Information Element ids used by the pipeline.
IE_SSID = 0
IE_DS_PARAMETER_SET = 3
IE_HT_CAPABILITIES = 45
IE_EXTENDED_CAPABILITIES = 127
IE_VENDOR_SPECIFIC = 221

# Frame Control byte 0 of a Probe Request: version 0, type 00
# (management), subtype 0100.
FC_PROBE_REQUEST = 0x40

# Radiotap flags field bits.
RT_FLAG_HAS_FCS = 0x10
RT_FLAG_BAD_FCS = 0x40

_MGMT_HEADER_LEN = 24


class Error(Exception):
    """Base class for capture-processing failures."""


class FormatError(Error):
    """Input bytes are not a capture this reader understands."""


class TruncationError(Error):
    """A declared length runs past the available bytes."""


class ChannelResolutionError(Error):
    """A frame has no Radiotap channel and its file declares none."""


class FrameTable:
    """Probe Requests as columns: row i of every column is frame i.

    ``timestamps`` (float64) are seconds, ``source_macs`` 6 bytes
    (Address 2), ``capture_channels`` (int64) the sniffer channel 1..13,
    ``sequence_numbers`` (int64) the 12-bit field 0..4095, and ``ies``
    the raw tagged-parameter region, whole elements only. ``source_macs``
    and ``ies`` are object arrays of ``bytes``: numpy's fixed-width
    bytes dtype would strip trailing NUL bytes.
    """

    def __init__(self, timestamps=(), source_macs=(), capture_channels=(), sequence_numbers=(), ies=()):
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.source_macs = np.asarray(source_macs, dtype=object)
        self.capture_channels = np.asarray(capture_channels, dtype=np.int64)
        self.sequence_numbers = np.asarray(sequence_numbers, dtype=np.int64)
        self.ies = np.asarray(ies, dtype=object)
        if any(column.shape != (len(self.timestamps),) for column in vars(self).values()):
            raise ValueError("every column needs one entry per frame")

    def __len__(self) -> int:
        return len(self.timestamps)

    def take(self, rows) -> FrameTable:
        """The table of the given rows: indices, or a boolean mask."""
        return FrameTable(**{name: column[rows] for name, column in vars(self).items()})


@dataclass
class CaptureMeta:
    """Per-file capture metadata."""

    path: str
    declared_channel: Optional[int] = None


@dataclass
class ParseDiagnostics:
    """Tallies of everything a parse skipped or repaired."""

    records_total: int = 0
    probe_requests: int = 0
    skipped_other: int = 0
    skipped_fcs_bad: int = 0
    skipped_truncated: int = 0
    skipped_bad_radiotap: int = 0
    ie_overruns: int = 0
    truncated_tail: int = 0
    empty_files: list[str] = field(default_factory=list)


_MAC_TEXT = re.compile(r"[0-9A-Fa-f]{2}(?::[0-9A-Fa-f]{2}){5}")


def mac_to_str(mac: bytes) -> str:
    """6 raw bytes to lowercase colon-separated form."""
    return mac.hex(":")


def mac_from_str(text: str) -> bytes:
    """Six colon-separated octets of two hex digits, in either case, to 6 raw bytes."""
    if not _MAC_TEXT.fullmatch(text):
        raise ValueError(f"not a MAC address: {text!r}")
    return bytes.fromhex(text.replace(":", ""))


def ie_fields(ies: bytes) -> tuple[tuple[int, int, int], Optional[int], int]:
    """One TLV walk over a tagged-parameter region.

    Returns the IE fingerprint ``(ht, extended, vendor)``, the DS channel
    and the end of the last whole element. Each fingerprint entry is a
    byte sum: the first HT Capabilities and the first Extended
    Capabilities element count (0 when absent), and every Vendor-Specific
    element is summed. The DS channel is the first byte of the first DS
    Parameter Set with a body, else None. The walk stops at an element
    whose declared length overruns the region.
    """
    ht = ext = channel = None
    vendor = 0
    i, n = 0, len(ies)
    while i + 2 <= n:
        tag, end = ies[i], i + 2 + ies[i + 1]
        if end > n:
            break
        if tag == IE_HT_CAPABILITIES:
            if ht is None:
                ht = sum(ies[i + 2 : end])
        elif tag == IE_EXTENDED_CAPABILITIES:
            if ext is None:
                ext = sum(ies[i + 2 : end])
        elif tag == IE_VENDOR_SPECIFIC:
            vendor += sum(ies[i + 2 : end])
        elif tag == IE_DS_PARAMETER_SET and channel is None and end > i + 2:
            channel = ies[i + 2]
        i = end
    return (ht or 0, ext or 0, vendor), channel, i


# Radiotap fields preceding (and including) the channel field, in
# presence-bit order: (bit, alignment, size). Alignment is relative to
# the start of the Radiotap header.
_RT_FIELD_LAYOUT = (
    (0, 8, 8),  # TSFT
    (1, 1, 1),  # Flags
    (2, 1, 1),  # Rate
    (3, 2, 4),  # Channel: u16 frequency MHz + u16 channel flags
)

# 2.4 GHz centre frequency (MHz) -> channel 1..13, for every u16; 0
# where the frequency names no 2.4 GHz channel
_CHANNEL_OF_FREQ = np.zeros(1 << 16, dtype=np.uint8)
_CHANNEL_OF_FREQ[2407 + 5 * np.arange(1, 14)] = np.arange(1, 14)

_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from


def _radiotap_layout(
    buf: bytes, start: int, size: int
) -> tuple[int, Optional[int], Optional[int]]:
    """(header_length, flags position, channel position) of the Radiotap
    header that opens the ``size`` bytes at ``buf[start:]``.

    Walks the presence bitmap chain (bit 31 marks an extension word)
    and the aligned field area far enough to reach the channel field.
    Positions are relative to the header's start, None for an absent
    field. They depend only on the presence words and the header length.
    """
    if size < 8:
        raise FormatError("buffer shorter than the fixed Radiotap header")
    if buf[start] != 0:
        raise FormatError(f"unknown Radiotap version {buf[start]}")
    header_len = _U16(buf, start + 2)[0]
    if header_len > size:
        raise TruncationError(
            f"Radiotap header declares {header_len} bytes, {size} available"
        )
    if header_len < 8:
        raise FormatError(f"Radiotap header length {header_len} below minimum")

    # Only the first presence word names fields this parser reads; step
    # over the extension words (bit 31 set on the word before).
    present = word = _U32(buf, start + 4)[0]
    pos = 8
    while word & 0x80000000:
        if pos + 4 > header_len:
            raise FormatError("Radiotap presence bitmap overruns the header")
        word = _U32(buf, start + pos)[0]
        pos += 4
    flags_pos: Optional[int] = None
    channel_pos: Optional[int] = None
    for bit, align, width in _RT_FIELD_LAYOUT:
        if not (present >> bit) & 1:
            continue
        pos = (pos + align - 1) & ~(align - 1)
        if pos + width > header_len:
            break  # declared field does not fit; treat the rest as absent
        if bit == 1:
            flags_pos = pos
        elif bit == 3:
            channel_pos = pos
        pos += width
    return header_len, flags_pos, channel_pos


def _radiotap_columns(
    data: bytes, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(header length, flags byte, 2.4 GHz channel, bad header) of the
    Radiotap header that opens each record, the records starting at
    ``starts`` and holding ``sizes`` bytes.

    A header with one presence word is decoded by :func:`_radiotap_layout`
    once per distinct 8-byte fixed header: those bytes hold the version,
    the length and the presence word, all the layout depends on. A record
    shorter than 8 bytes or than its header length, and a header with
    extension words, is decoded on its own, so it is bad exactly when its
    own decode raises. An absent flags field reads 0, and an absent
    channel field or a frequency outside the 2.4 GHz map reads channel 0.
    """
    # a header that decodes has its 8 fixed bytes; a bad one reads in bounds
    base = np.minimum(starts, len(data) - 8)
    fixed = _windows(data, "<u8")[base]
    shared = (sizes >= 8) & (fixed >> 63 == 0) & ((fixed >> 16 & 0xFFFF).astype(np.int64) <= sizes)
    shared_rows = shared.nonzero()[0]
    # each distinct prefix opens a run of equal ones among the shared rows
    heads = shared_rows[_run_starts(fixed[shared_rows])]
    row_of_prefix = dict(zip(fixed[heads].tolist(), heads.tolist()))
    distinct = sorted(row_of_prefix)
    # one layout per distinct prefix, then a placeholder for the rows
    # decoded on their own, which the loop below overwrites
    layouts = [_layout_or_bad(data, starts[row], sizes[row]) for row in map(row_of_prefix.get, distinct)]
    layouts.append((-1, 0, 0))
    prefix_of = np.searchsorted(np.array(distinct, dtype=np.uint64), fixed)
    layout = np.array(layouts, dtype=np.int64)[np.where(shared, prefix_of, len(distinct))]
    for row in (~shared).nonzero()[0].tolist():
        layout[row] = _layout_or_bad(data, starts[row], sizes[row])
    header_len, flags_pos, channel_pos = layout.T
    flags = np.frombuffer(data, np.uint8)[base + flags_pos]
    channels = _CHANNEL_OF_FREQ[_windows(data, "<u2")[base + channel_pos]]
    return header_len, flags, channels, header_len < 0


def _layout_or_bad(data: bytes, start, size) -> tuple[int, int, int]:
    """``_radiotap_layout`` of one record, or (-1, 0, 0) when its header is
    bad. An absent field is at position 0, the version byte: 0 in every
    header that decodes, so absent flags read 0; read as a u16, with the
    next byte above it, a multiple of 256, which no 2.4 GHz frequency is."""
    try:
        header_len, flags_pos, channel_pos = _radiotap_layout(data, int(start), int(size))
    except Error:
        return -1, 0, 0
    return header_len, flags_pos or 0, channel_pos or 0


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal ``values`` starts."""
    starts = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _windows(data: bytes, dtype: str) -> np.ndarray:
    """Row i is the ``dtype`` value whose bytes start at ``data[i]``: a
    view, so indexing it by offsets gathers one value per offset."""
    width = np.dtype(dtype).itemsize
    return np.ndarray((len(data) - width + 1,), dtype, data, 0, (1,))


def _unpack_global_header(data: bytes) -> tuple[str, bool, int]:
    """(byte-order char, nanosecond flag, link type) from a pcap header."""
    if len(data) < 24:
        raise FormatError("truncated pcap global header")
    magic_le = struct.unpack_from("<I", data, 0)[0]
    magic_be = struct.unpack_from(">I", data, 0)[0]
    if magic_le == PCAP_MAGIC_US:
        order, nanos = "<", False
    elif magic_le == PCAP_MAGIC_NS:
        order, nanos = "<", True
    elif magic_be == PCAP_MAGIC_US:
        order, nanos = ">", False
    elif magic_be == PCAP_MAGIC_NS:
        order, nanos = ">", True
    else:
        raise FormatError(f"unrecognized pcap magic 0x{magic_le:08X}")
    network = struct.unpack_from(order + "I", data, 20)[0]
    if network not in (LINKTYPE_RADIOTAP, LINKTYPE_DOT11):
        raise FormatError(
            f"unsupported link type {network} (expected 127 Radiotap or 105 802.11)"
        )
    return order, nanos, network


def read_capture(
    data: bytes,
    meta: CaptureMeta,
    diagnostics: Optional[ParseDiagnostics] = None,
) -> FrameTable:
    """Parse the bytes of a pcap file into a table of its Probe Requests.

    Non-probe frames are skipped silently; truncated or FCS-bad frames
    are skipped and tallied. A record header promising more bytes than
    remain stops the walk with the partial result. A frame's IE region
    is cut after its last whole element, and the cut is tallied as an
    ``ie_overrun``. Each distinct IE region is walked once per call, and
    rows with equal regions share one kept bytes object. A frame's
    capture channel is its Radiotap channel, else
    ``meta.declared_channel``; a frame with neither raises
    :class:`ChannelResolutionError` naming ``meta.path``, and a declared
    channel outside 1..13 raises ``ValueError`` when a frame takes it.
    When a frame raises, ``diagnostics`` holds the tallies of the records
    up to and including it, as a walk that stops at that frame has them.
    A file with no whole record is listed in ``empty_files``.

    Every row is in its column's range by construction: the MAC is 6
    bytes of the frame, the sequence number a 12-bit field, and a
    Radiotap channel comes from the 2.4 GHz map of channels 1..13.
    Consecutive rows with one MAC share one bytes object.

    One Python loop walks the record headers for their offsets; the
    rest is decoded with array operations over all records at once.
    Each record is checked in the order a per-record loop checks it
    (bad Radiotap header, FCS-bad, empty body, not a Probe Request,
    short header), and its first failed check is the one tallied.
    Radiotap layouts are decoded as :func:`_radiotap_columns` says.
    """
    diag = diagnostics if diagnostics is not None else ParseDiagnostics()
    order, nanos, network = _unpack_global_header(data)

    incl_len_at = struct.Struct(order + "8xI").unpack_from
    offsets = []
    add_offset = offsets.append
    offset, total = 24, len(data)
    while offset + 16 <= total:
        end = offset + 16 + incl_len_at(data, offset)[0]
        if end > total:
            break
        add_offset(offset)
        offset = end

    at = np.array(offsets, dtype=np.int64)
    ts_sec, ts_frac, sizes = _windows(data, order + "u4")[at[:, None] + (0, 4, 8)].astype(np.int64).T
    usec = ts_frac // 1000 if nanos else ts_frac
    timestamps = (ts_sec * 1_000_000 + usec) / 1e6
    starts = at + 16
    ends = starts + sizes

    if network == LINKTYPE_RADIOTAP:
        header_len, flags, channels, bad = _radiotap_columns(data, starts, sizes)
    else:
        header_len = flags = channels = np.zeros(len(at), dtype=np.int64)
        bad = np.zeros(len(at), dtype=bool)
    bodies = starts + header_len
    ends -= 4 * ((flags & RT_FLAG_HAS_FCS != 0) & (ends - bodies >= 4))
    # skip code: 0 kept, 1 bad Radiotap, 2 FCS-bad, 3 truncated, 4 not a
    # probe. The checks are set from the last to the first, so a record
    # keeps the code of the first check it fails.
    lengths = ends - bodies
    frame_control = np.frombuffer(data, np.uint8)[np.minimum(bodies, total - 1)]
    skip = np.where((lengths > 0) & (frame_control != FC_PROBE_REQUEST), 4, 3 * (lengths < _MGMT_HEADER_LEN))
    skip[flags & RT_FLAG_BAD_FCS != 0] = 2
    skip[bad] = 1
    kept = (skip == 0).nonzero()[0]
    channels = channels[kept]
    failure = None
    unresolved = (channels == 0).nonzero()[0]
    if len(unresolved):
        declared = meta.declared_channel
        if declared is not None and 1 <= declared <= 13:
            channels[unresolved] = declared
        else:
            # the walk stops at this frame, tallies and all
            kept = kept[: unresolved[0] + 1]
            skip = skip[: kept[-1] + 1]
            if declared is None:
                failure = ChannelResolutionError(
                    f"frame in {meta.path} has no Radiotap channel and the file declares none"
                )
            else:
                failure = ValueError(f"capture_channel out of range: {declared}")

    bodies = bodies[kept]
    regions = [data[lo:hi] for lo, hi in zip((bodies + _MGMT_HEADER_LEN).tolist(), ends[kept].tolist())]
    region_rows = {region: row for row, region in enumerate(dict.fromkeys(regions))}
    region_of = np.fromiter(map(region_rows.__getitem__, regions), np.int64, len(regions))
    kept_regions, cut = [], []
    for region in region_rows:
        whole = ie_fields(region)[2]
        kept_regions.append(region[:whole] if whole < len(region) else region)
        cut.append(whole < len(region))

    tallies = np.bincount(skip, minlength=5).tolist()
    diag.records_total += len(skip)
    diag.skipped_bad_radiotap += tallies[1]
    diag.skipped_fcs_bad += tallies[2]
    diag.skipped_truncated += tallies[3]
    diag.skipped_other += tallies[4]
    diag.ie_overruns += int(np.count_nonzero(np.array(cut, dtype=bool)[region_of]))
    if failure is not None:
        diag.probe_requests += len(kept) - 1
        raise failure
    diag.probe_requests += len(kept)
    diag.truncated_tail += int(offset < total)
    if not offsets:
        diag.empty_files.append(meta.path)

    # Address 2, the 6 bytes at offset 10, as the low bytes of a u64;
    # one bytes object per run of frames with one MAC
    macs = _windows(data, "<u8")[bodies + 10] & 0xFFFF_FFFF_FFFF
    run_starts = _run_starts(macs)
    run_macs = np.array([mac.to_bytes(8, "little")[:6] for mac in macs[run_starts].tolist()], dtype=object)
    return FrameTable(
        timestamps[kept],
        run_macs[np.cumsum(run_starts) - 1],
        channels,
        _windows(data, "<u2")[bodies + 22] >> 4,
        np.array(kept_regions, dtype=object)[region_of],
    )


def merge_captures(
    streams: Iterable[tuple[FrameTable, object]],
) -> tuple[FrameTable, list]:
    """One time-ordered table from per-sniffer (table, tag) captures, and
    the tag of each merged row.

    Rows are ordered by timestamp, ties by capture channel ascending,
    then by input order. ``np.lexsort`` gives exactly that order: it is
    stable, and its float64 and int64 comparisons equal Python's on
    finite timestamps and channel numbers. The merged ``source_macs``
    and ``ies`` hold the input tables' own ``bytes`` objects.
    """
    streams = list(streams)
    if not streams:
        return FrameTable(), []
    tables = [table for table, _ in streams]
    merged = FrameTable(
        np.concatenate([table.timestamps for table in tables]),
        np.concatenate([table.source_macs for table in tables]),
        np.concatenate([table.capture_channels for table in tables]),
        np.concatenate([table.sequence_numbers for table in tables]),
        np.concatenate([table.ies for table in tables]),
    )
    order = np.lexsort((merged.capture_channels, merged.timestamps))
    stream_of = np.repeat(np.arange(len(streams)), [len(table) for table in tables])[order]
    return merged.take(order), [streams[i][1] for i in stream_of.tolist()]


def _channel_sort_key(path: Path) -> tuple[int, str]:
    stem = path.stem
    return (int(stem), stem) if stem.isdigit() else (1 << 16, stem)


def iter_dataset_files(root: Path) -> Iterator[tuple[str, Path, Optional[int]]]:
    """Yield (device label, pcap path, declared channel) for a dataset tree.

    Layout: ``<root>/<device-id>/<channel>.pcap`` with the directory
    name as ground-truth label and the file stem as sniffer channel.
    """
    device_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    for ddir in device_dirs:
        for path in sorted(ddir.glob("*.pcap"), key=_channel_sort_key):
            declared = None
            if path.stem.isdigit() and 1 <= int(path.stem) <= 13:
                declared = int(path.stem)
            yield ddir.name, path, declared


def read_dataset(
    root, diagnostics: Optional[ParseDiagnostics] = None
) -> tuple[FrameTable, list[str]]:
    """Parse and merge every capture under a labeled dataset tree.

    Returns one time-ordered :class:`FrameTable` across all devices and
    sniffer channels, ordered as :func:`merge_captures` orders it, and
    the device label of each row. Duplicate frames captured by several
    sniffers are kept.
    """
    root = Path(root)
    if not root.is_dir():
        raise FormatError(f"dataset root {root} is not a directory")
    streams = []
    for label, path, declared in iter_dataset_files(root):
        meta = CaptureMeta(str(path), declared_channel=declared)
        streams.append((read_capture(path.read_bytes(), meta, diagnostics), label))
    if not streams:
        raise FormatError(
            f"no captures under {root}; expected <root>/<device-id>/<channel>.pcap"
        )
    return merge_captures(streams)
