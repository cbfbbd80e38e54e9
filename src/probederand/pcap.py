"""pcap / Radiotap / 802.11 parsing for Probe Request traffic.

Reads classic pcap files (libpcap format, both byte orders, microsecond
and nanosecond timestamp magic) with link type 127 (Radiotap over
802.11) or 105 (bare 802.11), keeps only Probe Request frames, and
merges per-channel sniffer captures into one time-ordered stream.
:func:`read_capture` alone gives a frame its capture channel: the
Radiotap channel field, else the channel the file declares.

Frames travel as one :class:`FrameTable` of columns, never as an
object per frame: the parser fills one, and ``synth.write_capture``
writes one.

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


@dataclass
class FrameTable:
    """Probe Requests as columns: row i of every list is frame i.

    ``timestamps`` are seconds, ``source_macs`` 6 bytes (Address 2),
    ``capture_channels`` the sniffer channel 1..13, ``sequence_numbers``
    the 12-bit field 0..4095, and ``ies`` the raw tagged-parameter
    region, whole elements only.
    """

    timestamps: list[float] = field(default_factory=list)
    source_macs: list[bytes] = field(default_factory=list)
    capture_channels: list[int] = field(default_factory=list)
    sequence_numbers: list[int] = field(default_factory=list)
    ies: list[bytes] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timestamps)


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


def mac_to_str(mac: bytes) -> str:
    """6 raw bytes to lowercase colon-separated form."""
    return mac.hex(":")


def mac_from_str(text: str) -> bytes:
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError(f"not a MAC address: {text!r}")
    return bytes(int(p, 16) for p in parts)


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

# 2.4 GHz centre frequency (MHz) -> channel 1..13
_CHANNEL_OF_FREQ = {2407 + 5 * channel: channel for channel in range(1, 14)}

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


def _radiotap_read(
    buf: bytes, start: int, flags_pos: Optional[int], channel_pos: Optional[int]
) -> tuple[Optional[int], Optional[int]]:
    """(2.4 GHz channel or None, flags byte or None) of the Radiotap
    header at ``buf[start:]``, read at the positions its layout gives."""
    flags = None if flags_pos is None else buf[start + flags_pos]
    if channel_pos is None:
        return None, flags
    return _CHANNEL_OF_FREQ.get(_U16(buf, start + channel_pos)[0]), flags


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

    Every row is in its column's range by construction: the MAC is a
    6-byte slice, the sequence number a 12-bit field, and a Radiotap
    channel comes from the 2.4 GHz map of channels 1..13.

    Records are read in place: only the source MAC and the IE region are
    copied out of ``data``. The Radiotap layout (header length, flags and
    channel positions) of a header with one presence word is decoded
    once per distinct 8-byte fixed header per call; those bytes hold the
    version, the length and the presence word, all the layout depends
    on. The TSFT, flags and channel values lie past them, and the flags
    and channel are read for each frame. A record shorter than its
    memoised header length is decoded in full, and so dropped as a bad
    Radiotap header. Headers with extension words are decoded in full
    for each frame.
    """
    diag = diagnostics if diagnostics is not None else ParseDiagnostics()
    order, nanos, network = _unpack_global_header(data)

    unpack_record = struct.Struct(order + "IIII").unpack_from
    radiotap = network == LINKTYPE_RADIOTAP
    declared = meta.declared_channel
    # fixed Radiotap header with one presence word -> its layout
    layouts: dict[bytes, tuple[int, Optional[int], Optional[int]]] = {}
    # raw IE region -> the region kept for it
    kept_regions: dict[bytes, bytes] = {}
    table = FrameTable()
    add_timestamp = table.timestamps.append
    add_mac = table.source_macs.append
    add_channel = table.capture_channels.append
    add_sequence = table.sequence_numbers.append
    add_ies = table.ies.append
    offset = 24
    total = len(data)
    while offset < total:
        if offset + 16 > total:
            diag.truncated_tail += 1
            break
        ts_sec, ts_frac, incl_len, _orig_len = unpack_record(data, offset)
        start = offset + 16
        if incl_len > total - start:
            diag.truncated_tail += 1
            break
        offset = end = start + incl_len
        diag.records_total += 1

        usec = ts_frac // 1000 if nanos else ts_frac
        timestamp = (ts_sec * 1_000_000 + usec) / 1e6

        channel: Optional[int] = None
        body = start
        if radiotap:
            key = layout = None
            if incl_len >= 8 and not data[start + 7] & 0x80:
                key = data[start : start + 8]
                layout = layouts.get(key)
            if layout is None or layout[0] > incl_len:
                try:
                    layout = _radiotap_layout(data, start, incl_len)
                except Error:
                    diag.skipped_bad_radiotap += 1
                    continue
                if key is not None:
                    layouts[key] = layout
            header_len, flags_pos, channel_pos = layout
            channel, flags = _radiotap_read(data, start, flags_pos, channel_pos)
            if flags is not None and flags & RT_FLAG_BAD_FCS:
                diag.skipped_fcs_bad += 1
                continue
            body += header_len
            if flags is not None and flags & RT_FLAG_HAS_FCS and end - body >= 4:
                end -= 4

        if body == end:
            diag.skipped_truncated += 1
            continue
        if data[body] != FC_PROBE_REQUEST:
            diag.skipped_other += 1
            continue
        if end - body < _MGMT_HEADER_LEN:
            diag.skipped_truncated += 1
            continue

        region = data[body + _MGMT_HEADER_LEN : end]
        ies = kept_regions.get(region)
        if ies is None:
            whole = ie_fields(region)[2]
            ies = kept_regions[region] = region[:whole] if whole < len(region) else region
        if len(ies) < len(region):
            diag.ie_overruns += 1
        if channel is None:
            if declared is None:
                raise ChannelResolutionError(
                    f"frame in {meta.path} has no Radiotap channel and the file declares none"
                )
            if not 1 <= declared <= 13:
                raise ValueError(f"capture_channel out of range: {declared}")
            channel = declared
        add_timestamp(timestamp)
        add_mac(data[body + 10 : body + 16])
        add_channel(channel)
        add_sequence(_U16(data, body + 22)[0] >> 4)
        add_ies(ies)
        diag.probe_requests += 1
    if diag.records_total == 0:
        diag.empty_files.append(meta.path)
    return table


def merge_captures(
    streams: Iterable[tuple[FrameTable, object]],
) -> tuple[FrameTable, list]:
    """One time-ordered table from per-sniffer (table, tag) captures, and
    the tag of each merged row.

    Rows are ordered by timestamp, ties by capture channel ascending,
    then by input order. ``np.lexsort`` gives exactly that order: it is
    stable, and its float64 and integer comparisons equal Python's on
    finite timestamps and channel numbers. The merged columns hold the
    input tables' own value objects.
    """
    streams = list(streams)
    tables = [table for table, _ in streams]
    sizes = [len(table) for table in tables]

    def concatenated(name: str) -> np.ndarray:
        column = np.empty(sum(sizes), dtype=object)
        start = 0
        for table, size in zip(tables, sizes):
            column[start : start + size] = getattr(table, name)
            start += size
        return column

    timestamps = concatenated("timestamps")
    channels = concatenated("capture_channels")
    order = np.lexsort((channels.astype(np.int64), timestamps.astype(float)))
    merged = FrameTable(
        timestamps[order].tolist(),
        concatenated("source_macs")[order].tolist(),
        channels[order].tolist(),
        concatenated("sequence_numbers")[order].tolist(),
        concatenated("ies")[order].tolist(),
    )
    stream_of = np.repeat(np.arange(len(streams)), sizes)[order]
    return merged, [streams[i][1] for i in stream_of.tolist()]


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
