"""Capture parsing, Radiotap decoding and multi-sniffer merging."""

import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probederand import pcap
from probederand.features import group_bursts
from probederand.pcap import (
    CaptureMeta,
    ChannelResolutionError,
    Error,
    FormatError,
    FrameTable,
    ParseDiagnostics,
    TruncationError,
    ie_fields,
    iter_dataset_files,
    mac_from_str,
    mac_to_str,
    merge_captures,
    read_capture,
    read_dataset,
)

from oracles import (
    Frame,
    decorated_merge,
    frame_table,
    parse_radiotap_fields,
    reference_ds_channel,
    reference_ie_features,
    reference_parse_ies,
    reference_read_capture,
    table_frames,
)


def pcap_header(order="<", nanos=False, linktype=127, snaplen=65535):
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    return struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)


def pcap_record(body, ts_sec=0, ts_frac=0, order="<"):
    return struct.pack(order + "IIII", ts_sec, ts_frac, len(body), len(body)) + body


def radiotap_header(present, tsft=0, flags=0, freq=2437, extension_words=0, length=None, version=0, pad=0):
    """Radiotap header with the fields of presence ``present`` (bits 0..3:
    TSFT, Flags, Rate, Channel), each at its alignment, after
    ``extension_words`` extra presence words. ``length`` overrides the
    declared length; a header declared shorter than its fields is cut
    to its declared length, but never below the 8 fixed bytes. ``pad``
    is the byte after the version."""
    words = [present] + [0] * extension_words
    for i in range(extension_words):
        words[i] |= 0x80000000
    buf = bytearray(struct.pack("<BBH", version, pad, 0))
    for word in words:
        buf += struct.pack("<I", word)
    if present & 1:
        buf += bytes(-len(buf) % 8) + struct.pack("<Q", tsft)
    if present & 2:
        buf.append(flags)
    if present & 4:
        buf.append(2)  # Rate
    if present & 8:
        buf += bytes(len(buf) % 2) + struct.pack("<HH", freq, 0x0080)
    if length is None:
        length = len(buf)
    elif length > len(buf):
        buf += bytes(length - len(buf))
    struct.pack_into("<H", buf, 2, length)
    return bytes(buf[: max(8, length)])


def radiotap_channel(channel, flags=None):
    """Minimal Radiotap header carrying a channel (and optionally flags)."""
    present = 0b1000 if flags is None else 0b1010
    return radiotap_header(present, flags=flags or 0, freq=2407 + 5 * channel)


def dot11_probe(mac=b"\x02\x00\x00\x00\x00\x01", seq=7, ies=b"", fc0=0x40):
    return (
        bytes([fc0, 0x00])
        + bytes(2)
        + b"\xff" * 6
        + mac
        + b"\xff" * 6
        + struct.pack("<H", seq << 4)
        + ies
    )


RADIOTAP_NO_CHANNEL = struct.pack("<BBHI", 0, 0, 8, 0)


def meta(channel=None):
    return CaptureMeta("test.pcap", declared_channel=channel)


class TestReadCapture:
    def test_probe_request_accepted(self):
        data = pcap_header() + pcap_record(radiotap_channel(6) + dot11_probe())
        frames = table_frames(read_capture(data, meta()))
        assert len(frames) == 1
        assert frames[0].capture_channel == 6
        assert frames[0].source_mac == b"\x02\x00\x00\x00\x00\x01"
        assert frames[0].sequence_number == 7

    def test_beacon_skipped(self):
        diag = ParseDiagnostics()
        data = pcap_header() + pcap_record(radiotap_channel(6) + dot11_probe(fc0=0x80))
        assert len(read_capture(data, meta(), diag)) == 0
        assert diag.skipped_other == 1

    def test_empty_capture(self):
        diag = ParseDiagnostics()
        assert len(read_capture(pcap_header(), meta(), diag)) == 0
        assert diag.records_total == 0
        assert diag.empty_files == ["test.pcap"]

    def test_empty_capture_after_frames_listed(self, tmp_path):
        """A file is empty by its own records, not by the tallies that
        earlier files left in shared diagnostics."""
        for device, channel, data in (
            ("a", 1, pcap_header() + pcap_record(radiotap_channel(1) + dot11_probe())),
            ("b", 6, pcap_header()),
        ):
            (tmp_path / device).mkdir()
            (tmp_path / device / f"{channel}.pcap").write_bytes(data)
        diag = ParseDiagnostics()
        frames, _ = read_dataset(tmp_path, diag)
        assert len(frames) == 1
        assert diag.records_total == 1
        assert diag.empty_files == [str(tmp_path / "b" / "6.pcap")]

    def test_bad_magic_is_fatal(self):
        with pytest.raises(FormatError):
            read_capture(b"\x00" * 64, meta())

    def test_unsupported_linktype(self):
        with pytest.raises(FormatError):
            read_capture(pcap_header(linktype=1), meta())

    def test_byte_swapped_pcap(self):
        data = pcap_header(order=">") + pcap_record(
            radiotap_channel(1) + dot11_probe(), ts_sec=3, ts_frac=250, order=">"
        )
        frames = table_frames(read_capture(data, meta()))
        assert len(frames) == 1
        assert frames[0].timestamp == pytest.approx(3.000250, abs=1e-9)

    def test_nanosecond_timestamps(self):
        data = pcap_header(nanos=True) + pcap_record(
            radiotap_channel(1) + dot11_probe(), ts_sec=1, ts_frac=500_001_000
        )
        frames = table_frames(read_capture(data, meta()))
        assert frames[0].timestamp == pytest.approx(1.500001, abs=1e-9)

    def test_record_overrunning_file_stops_with_partial_result(self):
        diag = ParseDiagnostics()
        good = pcap_record(radiotap_channel(6) + dot11_probe())
        bad = struct.pack("<IIII", 0, 0, 10_000, 10_000) + b"\x00" * 4
        frames = read_capture(pcap_header() + good + bad, meta(), diag)
        assert len(frames) == 1
        assert diag.truncated_tail == 1

    def test_truncated_body_skipped_and_counted(self):
        diag = ParseDiagnostics()
        short = dot11_probe()[:20]  # probe FC but body below header size
        data = pcap_header() + pcap_record(radiotap_channel(6) + short)
        assert len(read_capture(data, meta(), diag)) == 0
        assert diag.skipped_truncated == 1

    def test_fcs_bad_frame_dropped(self):
        diag = ParseDiagnostics()
        data = pcap_header() + pcap_record(radiotap_channel(6, flags=0x40) + dot11_probe())
        assert len(read_capture(data, meta(), diag)) == 0
        assert diag.skipped_fcs_bad == 1

    def test_fcs_present_flag_strips_trailer(self):
        body = radiotap_channel(6, flags=0x10) + dot11_probe(ies=b"\x03\x01\x0b") + b"\xde\xad\xbe\xef"
        frames = table_frames(read_capture(pcap_header() + pcap_record(body), meta()))
        assert frames[0].ies == b"\x03\x01\x0b"
        assert [ie_id for ie_id, _ in reference_parse_ies(frames[0].ies)[0]] == [3]

    def test_declared_channel_fallback(self):
        data = pcap_header() + pcap_record(RADIOTAP_NO_CHANNEL + dot11_probe())
        frames = table_frames(read_capture(data, meta(channel=11)))
        assert frames[0].capture_channel == 11

    def test_declared_channel_inherited(self):
        """Only the frame without a Radiotap channel takes the declared one."""
        data = (
            pcap_header()
            + pcap_record(radiotap_channel(1) + dot11_probe())
            + pcap_record(RADIOTAP_NO_CHANNEL + dot11_probe(), ts_sec=1)
        )
        frames = table_frames(read_capture(data, CaptureMeta("x.pcap", declared_channel=6)))
        assert [f.capture_channel for f in frames] == [1, 6]

    def test_unresolvable_channel_names_file(self):
        data = pcap_header() + pcap_record(RADIOTAP_NO_CHANNEL + dot11_probe())
        with pytest.raises(ChannelResolutionError, match="orphan.pcap"):
            read_capture(data, CaptureMeta("orphan.pcap"))

    def test_out_of_range_declared_channel_rejected_when_used(self):
        """A declared channel is checked against 1..13 by the first frame
        that takes it."""
        with_channel = pcap_header() + pcap_record(radiotap_channel(6) + dot11_probe())
        assert read_capture(with_channel, meta(channel=14)).capture_channels.tolist() == [6]
        data = with_channel + pcap_record(RADIOTAP_NO_CHANNEL + dot11_probe(), ts_sec=1)
        with pytest.raises(ValueError, match="capture_channel out of range: 14"):
            read_capture(data, meta(channel=14))
        with pytest.raises(ValueError, match="capture_channel out of range: 14"):
            reference_read_capture(data, meta(channel=14))

    def test_bare_dot11_linktype(self):
        data = pcap_header(linktype=105) + pcap_record(dot11_probe(ies=b"\x00\x00"))
        frames = table_frames(read_capture(data, meta(channel=1)))
        assert frames[0].capture_channel == 1
        assert frames[0].ies == b"\x00\x00"


class TestMacText:
    @given(st.binary(min_size=6, max_size=6))
    def test_round_trip(self, mac):
        assert mac_from_str(mac_to_str(mac)) == mac

    def test_either_case(self):
        assert mac_from_str("0A:1b:2C:3d:4E:5f") == bytes.fromhex("0a1b2c3d4e5f")

    @pytest.mark.parametrize(
        "text",
        [
            "0x1a:02:03:04:05:06",
            "1_0:02:03:04:05:06",
            "+1a:02:03:04:05:06",
            " 1a:02:03:04:05:06",
            "1a:02:03:04:05: 6",
            "-0:02:03:04:05:06",
            "1:02:03:04:05:06",
            "001:02:03:04:05:06",
            "1g:02:03:04:05:06",
            "\uff11a:02:03:04:05:06",
            "01:02:03:04:05",
            "01:02:03:04:05:06:07",
            "01:02:03:04:05:06\n",
            "01-02-03-04-05-06",
            "010203040506",
            "",
        ],
    )
    def test_anything_but_six_two_digit_hex_octets_rejected(self, text):
        with pytest.raises(ValueError, match=f"^not a MAC address: {re.escape(repr(text))}$"):
            mac_from_str(text)


class TestRadiotap:
    def test_minimal_header(self):
        assert parse_radiotap_fields(bytes.fromhex("0000080000000000")) == (8, None, None)

    def test_channel_2437_is_6(self):
        assert parse_radiotap_fields(radiotap_channel(6)) == (12, 6, None)

    def test_channel_2412_is_1(self):
        assert parse_radiotap_fields(radiotap_channel(1))[1] == 1

    def test_non_2ghz_frequency_yields_no_channel(self):
        buf = struct.pack("<BBHIHH", 0, 0, 12, 1 << 3, 5180, 0x0100)
        assert parse_radiotap_fields(buf) == (12, None, None)

    def test_extended_presence_bitmap_shifts_fields(self):
        # Extension bit set: channel data starts after the second word.
        buf = struct.pack("<BBHIIHH", 0, 0, 16, (1 << 3) | (1 << 31), 0, 2437, 0x0080)
        assert parse_radiotap_fields(buf) == (16, 6, None)

    def test_alignment_after_tsft_and_flags(self):
        # TSFT (8 bytes, align 8) + flags + rate, then channel aligned to 2.
        present = (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3)
        buf = struct.pack("<BBHIQBBHH", 0, 0, 22, present, 42, 0, 2, 2462, 0x0080)
        assert parse_radiotap_fields(buf) == (22, 11, 0)

    def test_declared_length_beyond_buffer(self):
        with pytest.raises(TruncationError):
            parse_radiotap_fields(struct.pack("<BBHI", 0, 0, 99, 0))

    def test_wrong_version(self):
        with pytest.raises(FormatError):
            parse_radiotap_fields(b"\x01\x00\x08\x00\x00\x00\x00\x00")


def read_region(region):
    """(IE region kept by read_capture, ie_overruns) for one probe whose
    tagged parameters are ``region``."""
    diag = ParseDiagnostics()
    data = pcap_header(linktype=105) + pcap_record(dot11_probe(ies=region))
    (frame,) = table_frames(read_capture(data, meta(channel=1), diag))
    return frame.ies, diag.ie_overruns


class TestParseIes:
    def test_ds_parameter_set(self):
        assert read_region(bytes([0x03, 0x01, 0x0B])) == (b"\x03\x01\x0b", 0)
        assert ie_fields(b"\x03\x01\x0b") == ((0, 0, 0), 11, 3)

    def test_wildcard_ssid(self):
        assert read_region(bytes([0x00, 0x00])) == (b"\x00\x00", 0)
        assert ie_fields(b"\x00\x00") == ((0, 0, 0), None, 2)

    def test_overrunning_element_dropped(self):
        buf = bytes([0x2D, 0x01, 0xFF, 0x7F, 0x05, 0x01, 0x02])
        assert read_region(buf) == (b"\x2d\x01\xff", 1)
        assert ie_fields(buf) == ((0xFF, 0, 0), None, 3)

    def test_dangling_byte_counted(self):
        assert read_region(b"\x03") == (b"", 1)


def frame(ts, channel=1, mac=b"\x02\x00\x00\x00\x00\x01"):
    return Frame(ts, mac, channel, 0, b"")


class TestFrameTable:
    def test_empty_table(self):
        table = FrameTable()
        assert len(table) == 0
        assert [column.shape for column in vars(table).values()] == [(0,)] * 5

    def test_column_dtypes(self):
        table = frame_table([frame(1.5, channel=6)])
        assert table.timestamps.dtype == np.float64
        assert table.capture_channels.dtype == table.sequence_numbers.dtype == np.int64
        assert table.source_macs.dtype == table.ies.dtype == object

    @pytest.mark.parametrize("short", ["timestamps", "source_macs", "capture_channels", "sequence_numbers", "ies"])
    def test_unequal_column_lengths_rejected(self, short):
        columns = {name: list(column) for name, column in vars(frame_table([frame(1.0), frame(2.0)])).items()}
        columns[short] = columns[short][:1]
        with pytest.raises(ValueError, match="one entry per frame"):
            FrameTable(**columns)

    def test_take_indices_and_mask(self):
        frames = [frame(1.0, channel=1), frame(2.0, channel=6), frame(3.0, channel=11)]
        table = frame_table(frames)
        assert table_frames(table.take([2, 0])) == [frames[2], frames[0]]
        assert table_frames(table.take(table.capture_channels != 6)) == [frames[0], frames[2]]


class TestMergeCaptures:
    def test_sorted_by_timestamp(self):
        streams = [(frame_table([frame(3.0)]), "c"), (frame_table([frame(1.0)]), "a"), (frame_table([frame(2.0)]), "b")]
        merged, tags = merge_captures(streams)
        assert list(zip(merged.timestamps, tags)) == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_tie_broken_by_channel(self):
        streams = [(frame_table([frame(1.0, channel=11)]), 0), (frame_table([frame(1.0, channel=1)]), 1)]
        merged, tags = merge_captures(streams)
        assert list(zip(merged.capture_channels, tags)) == [(1, 1), (11, 0)]

    def test_empty_stream_is_identity(self):
        frames = [frame(0.1), frame(0.2), frame(0.3)]
        merged, tags = merge_captures([(frame_table([]), "empty"), (frame_table(frames), "full")])
        assert (table_frames(merged), tags) == (frames, ["full"] * 3)

    def test_mac_ending_in_nul_survives(self):
        """MACs keep their trailing zero bytes through the merge and the
        burst cut; a fixed-width bytes column would strip them."""
        macs = [b"\x00" * 6, b"\x02\x00\x00\x00\x00\x00"]
        streams = [(frame_table([frame(1.0, mac=mac)]), mac) for mac in macs]
        merged, _ = merge_captures(streams)
        assert merged.source_macs.tolist() == macs
        assert group_bursts(merged).source_macs.tolist() == macs

    def test_permutation_of_union(self):
        streams = [
            (frame_table([frame(0.5), frame(0.7)]), "x"),
            (frame_table([frame(0.1), frame(0.6), frame(0.9)]), "y"),
        ]
        merged, tags = merge_captures(streams)
        assert len(merged) == len(tags) == 5
        assert sorted(merged.timestamps.tolist()) == merged.timestamps.tolist()

    @given(
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0)), st.sampled_from((1, 6, 11)))),
                st.sampled_from("ab"),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_decorated_sort(self, spec):
        """Same frames and tags in the same order as sorting (timestamp,
        channel, input position), under heavy ties. Each frame's
        sequence number is its input position, so tied frames differ."""
        streams, position = [], 0
        for stream, tag in spec:
            frames = []
            for ts, channel in stream:
                frames.append(Frame(ts, b"\x02" * 6, channel, position, b""))
                position += 1
            streams.append((frames, tag))
        merged, tags = merge_captures([(frame_table(frames), tag) for frames, tag in streams])
        assert list(zip(table_frames(merged), tags)) == decorated_merge(streams)


class TestDatasetFiles:
    def test_non_ascii_digit_stem_is_not_a_channel(self, tmp_path):
        """``²`` is a digit to ``str.isdigit`` but not to ``int``: its
        capture sorts after the numbered ones and declares no channel."""
        (tmp_path / "dev").mkdir()
        for name in ("².pcap", "6.pcap", "14.pcap"):
            (tmp_path / "dev" / name).write_bytes(pcap_header())
        found = [(label, path.name, declared) for label, path, declared in iter_dataset_files(tmp_path)]
        assert found == [("dev", "6.pcap", 6), ("dev", "14.pcap", None), ("dev", "².pcap", None)]


@st.composite
def truncated_elements(draw):
    """Well-formed IE regions, mostly of the tags the walk reads, cut at a
    random point."""
    ie_ids = st.one_of(st.sampled_from((3, 45, 127, 221)), st.integers(0, 255))
    elements = draw(st.lists(st.tuples(ie_ids, st.binary(max_size=40)), max_size=8))
    region = b"".join(bytes([ie_id, len(body)]) + body for ie_id, body in elements)
    return region[: draw(st.integers(0, len(region)))]


class TestFuzz:
    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_read_capture_never_crashes(self, blob):
        try:
            frames = read_capture(blob, meta(channel=1))
        except Error:
            return
        assert isinstance(frames, FrameTable)

    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_read_capture_arbitrary_records(self, blob):
        """Every row lies in its columns' ranges (``table_frames`` checks
        each row)."""
        table_frames(read_capture(pcap_header() + blob, meta(channel=1)))

    @given(st.one_of(st.binary(max_size=300), truncated_elements()))
    @settings(max_examples=500, deadline=None)
    def test_ie_walk_matches_reference(self, region):
        kept, overruns = read_region(region)
        elements, expected_overruns = reference_parse_ies(region)
        assert overruns == expected_overruns
        assert kept == b"".join(bytes([ie_id, len(body)]) + body for ie_id, body in elements)
        features, channel, whole = ie_fields(kept)
        assert features == reference_ie_features(elements)
        assert channel == reference_ds_channel(elements)
        assert whole == len(kept)
        assert ie_fields(region) == (features, channel, whole)

    @given(
        st.lists(truncated_elements(), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_repeated_regions_walked_once(self, regions, picks):
        """One capture of repeated regions keeps what one-probe captures
        keep, counts an overrun per frame, and shares the kept bytes."""
        chosen = [regions[i % len(regions)] for i in picks]
        data = pcap_header(linktype=105) + b"".join(
            pcap_record(dot11_probe(ies=region), ts_sec=t) for t, region in enumerate(chosen)
        )
        diag = ParseDiagnostics()
        frames = table_frames(read_capture(data, meta(channel=1), diag))
        alone = [read_region(region) for region in chosen]
        assert [f.ies for f in frames] == [kept for kept, _ in alone]
        assert diag.ie_overruns == sum(overruns for _, overruns in alone)
        first = {}
        for region, f in zip(chosen, frames):
            assert first.setdefault(region, f.ies) is f.ies

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_parse_radiotap_contained(self, blob):
        try:
            header_len, channel, _ = parse_radiotap_fields(blob)
        except Error:
            return
        assert header_len <= len(blob)
        assert channel is None or 1 <= channel <= 13


# (present, extension words, declared length or None, change to the
# fitted length, version, pad byte): shared by several records of one
# capture, so 8-byte fixed headers repeat while TSFT, flags and
# frequency vary per record. A fixed declared length lets headers with
# different extension chains share their fixed 8 bytes. The pad byte
# varies because an absent field is read at the header's first bytes.
radiotap_layouts = st.tuples(
    st.integers(0, 15),
    st.sampled_from((0, 0, 0, 1, 2)),
    st.sampled_from((None, None, None, 16, 20, 24)),
    st.sampled_from((0, 0, 0, 3, -1, -4, -30)),
    st.sampled_from((0, 0, 0, 0, 1)),
    st.sampled_from((0, 0, 9, 255)),
)


@st.composite
def radiotap_captures(draw):
    """pcap bytes whose records mix one-word and extension-word Radiotap
    headers, FCS-present and FCS-bad flags, bad lengths and versions,
    cut records, and fixed headers reused across records."""
    order = draw(st.sampled_from("<>"))
    nanos = draw(st.booleans())
    linktype = draw(st.sampled_from((127, 127, 127, 105)))
    layouts = draw(st.lists(radiotap_layouts, min_size=1, max_size=4))
    data = pcap_header(order, nanos, linktype)
    for _ in range(draw(st.integers(0, 12))):
        present, ext, length, delta, version, pad = draw(st.sampled_from(layouts))
        if length is None:
            length = max(0, len(radiotap_header(present, extension_words=ext)) + delta)
        flags = draw(st.one_of(st.sampled_from((0, 0x10, 0x40, 0x50)), st.integers(0, 255)))
        header = radiotap_header(
            present,
            tsft=draw(st.integers(0, 2**64 - 1)),
            flags=flags,
            freq=draw(st.one_of(st.sampled_from((2412, 2437, 2472, 2484, 5180)), st.integers(0, 65535))),
            extension_words=ext,
            length=length,
            version=version,
            pad=pad,
        )
        body = dot11_probe(
            mac=draw(st.binary(min_size=6, max_size=6)),
            seq=draw(st.integers(0, 4095)),
            ies=draw(truncated_elements()),
            fc0=draw(st.sampled_from((0x40, 0x40, 0x80))),
        )
        if draw(st.integers(0, 5)) == 0:
            body = b""
        record = (header if linktype == 127 else b"") + body
        if flags & 0x10:
            record += draw(st.binary(min_size=4, max_size=4))
        if draw(st.integers(0, 3)) == 0:
            record = record[: draw(st.integers(0, len(record)))]
        data += pcap_record(
            record, ts_sec=draw(st.integers(0, 2**32 - 1)), ts_frac=draw(st.integers(0, 999_999)), order=order
        )
    if draw(st.booleans()):
        data += draw(st.binary(max_size=20))
    return data


def parse_both(data, declared):
    """(frames or raised error type, diagnostics) from read_capture, each
    row made a validated frame, and from the reference loop."""
    results = []
    for parse in (lambda *args: table_frames(read_capture(*args)), reference_read_capture):
        diag = ParseDiagnostics()
        try:
            outcome = parse(data, meta(declared), diag)
        except ChannelResolutionError:
            outcome = ChannelResolutionError
        results.append((outcome, diag))
    return results


class TestRadiotapLayoutMemo:
    @given(radiotap_captures(), st.sampled_from((None, 6)))
    # a frame with no channel to take stops the walk: the tallies count
    # it and the frames before it, and neither the truncated tail after
    # it nor the records that follow
    @example(
        pcap_header() + pcap_record(radiotap_header(0b0010) + dot11_probe(ies=b"\x03\x05\x01")) + b"\x00" * 5,
        None,
    )
    @example(
        pcap_header()
        + pcap_record(radiotap_channel(6) + dot11_probe())
        + pcap_record(radiotap_header(0b0010, flags=0x40) + dot11_probe())
        + pcap_record(radiotap_header(0) + dot11_probe(ies=b"\x03\x05\x01"))
        + pcap_record(radiotap_channel(1) + dot11_probe(fc0=0x80)),
        None,
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_loop(self, data, declared):
        """Equal frames and every diagnostics field equal to the
        per-record loop that decodes each header in full."""
        (frames, diag), (expected, expected_diag) = parse_both(data, declared)
        assert frames == expected
        assert diag == expected_diag

    def test_reused_prefix_on_record_shorter_than_header(self):
        header = radiotap_header(0b1011, tsft=5, flags=0, freq=2437)
        short = radiotap_header(0b1011, tsft=6, flags=0, freq=2437)[:-2]
        assert header[:8] == short[:8]
        data = pcap_header() + pcap_record(header + dot11_probe()) + pcap_record(short)
        (frames, diag), (expected, expected_diag) = parse_both(data, None)
        assert frames == expected and len(frames) == 1
        assert diag == expected_diag
        assert diag.skipped_bad_radiotap == 1

    @pytest.fixture
    def layout_calls(self, monkeypatch):
        calls = []
        decode = pcap._radiotap_layout

        def spy(*args):
            calls.append(args)
            return decode(*args)

        monkeypatch.setattr(pcap, "_radiotap_layout", spy)
        return calls

    def test_layout_decoded_once_per_prefix(self, layout_calls):
        records = []
        for t in range(40):
            present = 0b1011 if t % 4 else 0b1001  # with and without Flags
            header = radiotap_header(present, tsft=1000 + 7 * t, freq=2407 + 5 * (1 + t % 13))
            records.append(pcap_record(header + dot11_probe(seq=t), ts_sec=t))
        frames = table_frames(read_capture(pcap_header() + b"".join(records), meta()))
        assert len(layout_calls) == 2
        assert [f.capture_channel for f in frames] == [1 + t % 13 for t in range(40)]
        assert [f.sequence_number for f in frames] == list(range(40))

    def test_extension_header_decoded_every_frame(self, layout_calls):
        records = [
            pcap_record(
                radiotap_header(0b1011, tsft=t, flags=0x10 * (t % 2), freq=2412 + 5 * t, extension_words=1)
                + dot11_probe(ies=b"\x03\x01\x0b")
                + b"\xde\xad\xbe\xef" * (t % 2)
            )
            for t in range(6)
        ]
        frames = table_frames(read_capture(pcap_header() + b"".join(records), meta()))
        assert len(layout_calls) == 6
        assert [f.capture_channel for f in frames] == [1, 2, 3, 4, 5, 6]
        assert {f.ies for f in frames} == {b"\x03\x01\x0b"}

    def test_nothing_kept_between_calls(self, layout_calls):
        data = pcap_header() + pcap_record(radiotap_channel(6) + dot11_probe())
        assert table_frames(read_capture(data, meta())) == table_frames(read_capture(data, meta()))
        assert len(layout_calls) == 2

