"""IE encoding, burst grouping, channel vectors, padding, feature file I/O."""

import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probederand import features as features_module
from probederand.clustering import write_labeling_file
from probederand.features import (
    FEATURE_FIELDS,
    BurstTable,
    group_bursts,
    ie_stability_violations,
    normalize_ie_matrix,
    pad_matrix,
    read_feature_file,
    write_feature_file,
    write_table,
)
from probederand.pcap import ie_fields, mac_from_str, mac_to_str, merge_captures

from oracles import (
    BurstRow,
    Frame,
    burst_table,
    decorated_merge,
    frame_table,
    padded,
    reference_group_bursts,
    reference_read_feature_file,
    reference_write_feature_file,
    reference_write_labeling_file,
    table_rows,
)


def frame(ts=0.0, mac=b"\x02\x00\x00\x00\x00\x01", channel=1, ies=()):
    return Frame(ts, mac, channel, 0, tlv(*ies))


def ie(ie_id, body):
    return ie_id, bytes(body)


def tlv(*elements):
    """IE region bytes for (id, body) pairs."""
    return b"".join(bytes([ie_id, len(body)]) + body for ie_id, body in elements)


def features(*elements):
    return ie_fields(tlv(*elements))[0]


class TestEncoding:
    def test_absent_encodes_to_zero(self):
        assert features(ie(127, [5]))[0] == 0

    def test_byte_array_sums(self):
        assert features(ie(45, [1, 2, 3]))[0] == 6

    def test_empty_body_is_zero(self):
        assert features(ie(45, b"")) == (0, 0, 0)

    @given(st.binary(min_size=1, max_size=40), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_byte_sum_is_permutation_invariant(self, body, rnd):
        shuffled = bytearray(body)
        rnd.shuffle(shuffled)
        assert features(ie(221, shuffled)) == features(ie(221, body))


class TestIeFeatures:
    def test_all_absent(self):
        assert features() == (0, 0, 0)

    def test_ht_only(self):
        assert features(ie(45, [0xAD, 0x01])) == (174, 0, 0)

    def test_vendor_elements_combine(self):
        assert features(ie(221, [4, 6]), ie(221, [10, 12])) == (0, 0, 32)

    def test_canonical_order(self):
        assert features(ie(221, [1]), ie(127, [2]), ie(45, [3])) == (3, 2, 1)

    def test_first_ht_and_extended_count(self):
        elements = [ie(45, [0]), ie(127, [2]), ie(45, [9]), ie(127, [7])]
        assert features(*elements) == (0, 2, 0)


class TestGroupBursts:
    def test_gaps_below_threshold_make_one_burst(self):
        frames = [frame(ts) for ts in (0.0, 0.1, 0.2)]
        bursts = table_rows(group_bursts(frame_table(frames), 2.0))
        assert len(bursts) == 1
        assert bursts[0].length == 3

    def test_gap_rule_splits(self):
        bursts = table_rows(group_bursts(frame_table([frame(0.0), frame(10.0)]), 2.0))
        assert [b.length for b in bursts] == [1, 1]

    def test_distinct_macs_split(self):
        frames = [frame(0.0, mac=b"\x02\x00\x00\x00\x00\x01"), frame(0.0, mac=b"\x02\x00\x00\x00\x00\x02")]
        assert len(group_bursts(frame_table(frames), 2.0)) == 2

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        frames = []
        t = 0.0
        for _ in range(200):
            t += float(rng.uniform(0.001, 5.0))
            mac = bytes([0x02, 0, 0, 0, 0, int(rng.integers(4))])
            frames.append(frame(t, mac=mac))
        bursts = table_rows(group_bursts(frame_table(frames), 2.0))
        assert sum(b.length for b in bursts) == len(frames)
        assert [b.burst_id for b in bursts] == list(range(len(bursts)))

    def test_ie_features_from_first_frame(self):
        frames = [
            frame(0.0, ies=[ie(45, [1])]),
            frame(0.1, ies=[ie(45, [9])]),
        ]
        table = group_bursts(frame_table(frames), 2.0)
        (burst,) = table_rows(table)
        assert burst.ie_features == (1, 0, 0)
        assert not burst.ie_stable
        assert ie_stability_violations(table) == [0]

    def test_shared_ies_objects_match_fresh_copies(self):
        """Frames that share one ``ies`` object, as ``read_capture``
        gives them, group exactly as frames holding equal fresh bytes."""
        regions = [tlv(ie(45, [1, 2]), ie(3, [6])), tlv(ie(45, [9])), b""]
        rng = np.random.default_rng(11)
        shared, fresh = [], []
        t = 0.0
        for _ in range(120):
            t += float(rng.uniform(0.01, 3.0))
            mac = bytes([0x02, 0, 0, 0, 0, int(rng.integers(3))])
            region = regions[int(rng.integers(len(regions)))]
            channel = int(rng.integers(1, 14))
            shared.append(Frame(t, mac, channel, 0, region))
            fresh.append(Frame(t, mac, channel, 0, bytes(bytearray(region))))
        assert len({id(f.ies) for f in shared}) == len(regions)
        assert len({id(f.ies) for f in fresh if f.ies}) == sum(1 for f in fresh if f.ies)
        bursts = table_rows(group_bursts(frame_table(shared), 2.0))
        assert bursts == table_rows(group_bursts(frame_table(fresh), 2.0))
        assert not all(b.ie_stable for b in bursts)

    def test_truth_labels_attach(self):
        bursts = group_bursts(frame_table([frame(0.0)]), 2.0, truths=["phone-1"])
        assert bursts.truth_devices.tolist() == ["phone-1"]

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            group_bursts(frame_table([frame(1.0), frame(0.0)]), 2.0)

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError):
            group_bursts(frame_table([frame(0.0)]), 0.0)

    def test_nan_gap_rejected(self):
        """NaN is not positive: every comparison with it is false, so a
        NaN gap would split each frame into its own burst."""
        with pytest.raises(ValueError, match="gap_seconds must be positive"):
            group_bursts(frame_table([frame(ts) for ts in (0.0, 0.1, 0.2)]), math.nan)


MACS = tuple(bytes([0x02, 0, 0, 0, 0, i]) for i in range(3))
# no DS Parameter Set, DS channel 0, DS Parameter Sets with and without a
# body, and two HT fingerprints, so a burst's IEs can change mid-burst
REGIONS = (
    b"",
    tlv(ie(3, [0])),
    tlv(ie(3, [6])),
    tlv(ie(3, b""), ie(3, [11])),
    tlv(ie(45, [1, 2]), ie(3, [1])),
    tlv(ie(45, [9])),
)
# with a gap of 2.0: differences equal to it (0.0 -> 2.0 -> 4.0) and
# just above it (2.0 or 4.0 -> the next float above 4.0 or 6.0)
TIMESTAMPS = (
    0.0, 0.5, 1.0, 2.0, 2.5, 4.0, float(np.nextafter(4.0, 5.0)), 6.0, float(np.nextafter(6.0, 7.0)), 7.0, 9.5
)

timed_frames = st.builds(
    Frame,
    st.one_of(st.sampled_from(TIMESTAMPS), st.floats(0.0, 12.0)),
    st.sampled_from(MACS),
    st.sampled_from((1, 6, 11, 13)),
    st.integers(0, 4095),
    st.sampled_from(REGIONS),
)
capture_files = st.lists(
    st.tuples(st.lists(timed_frames, max_size=12), st.sampled_from(("dev-a", "dev-b"))),
    max_size=4,
)
mixed_files = [
    (
        [
            Frame(0.0, MACS[0], 11, 1, REGIONS[1]),
            Frame(2.0, MACS[0], 6, 2, REGIONS[2]),
            Frame(4.0, MACS[0], 1, 3, REGIONS[0]),
            Frame(TIMESTAMPS[8], MACS[0], 1, 4, REGIONS[4]),
            Frame(7.0, MACS[0], 13, 5, REGIONS[5]),
        ],
        "dev-a",
    ),
    ([Frame(2.0, MACS[1], 1, 6, REGIONS[3]), Frame(9.5, MACS[0], 1, 7, REGIONS[4])], "dev-b"),
    ([], "dev-b"),
]


class TestGroupBurstsMatchesFrameLoop:
    @given(capture_files, st.sampled_from((2.0, 1.5, 0.5)), st.booleans())
    @example(mixed_files, 2.0, True)
    @example(mixed_files, 2.0, False)
    @example([], 2.0, True)
    @example([([], "dev-a")], 2.0, True)
    @settings(max_examples=300, deadline=None)
    def test_merged_table_groups_as_frame_loop(self, files, gap_seconds, labelled):
        """``group_bursts`` over the lexsort-merged table gives the bursts
        of the per-frame loop over the decorated-sort merge."""
        table, tags = merge_captures([(frame_table(frames), tag) for frames, tag in files])
        pairs = decorated_merge(files)
        expected = reference_group_bursts(
            [frame for frame, _ in pairs], gap_seconds, [tag for _, tag in pairs] if labelled else None
        )
        assert table_rows(group_bursts(table, gap_seconds, tags if labelled else None)) == expected

    def test_mixed_example_covers_each_rule(self):
        table, tags = merge_captures([(frame_table(frames), tag) for frames, tag in mixed_files])
        bursts = table_rows(group_bursts(table, 2.0, tags))
        assert [(b.source_mac, b.channel_vector, b.ie_stable) for b in bursts] == [
            (MACS[0], (11, 6, 1), True),  # DS 0, DS 6, no DS; gaps of exactly 2.0
            (MACS[1], (11,), True),  # tied at 2.0 with channel 6, sorted first
            (MACS[0], (1, 13), False),  # gap just above 2.0; HT changes mid-burst
            (MACS[0], (1,), True),  # the same MAC again after 2.5 s
        ]
        assert [b.truth_device for b in bursts] == ["dev-a", "dev-b", "dev-a", "dev-b"]


def channel_vector(*frames):
    (burst,) = table_rows(group_bursts(frame_table(frames), 2.0))
    return burst.channel_vector


class TestChannelVector:
    def test_ds_channel_preferred(self):
        assert channel_vector(frame(channel=11, ies=[ie(3, [6])])) == (6,)

    def test_capture_channel_fallback(self):
        assert channel_vector(frame(channel=11), frame(0.1, channel=6, ies=[ie(3, b"")])) == (11, 6)

    def test_ds_channel_zero_falls_back_to_capture_channel(self):
        frames = frame(channel=11, ies=[ie(3, [0])]), frame(0.1, channel=6, ies=[ie(3, [1])])
        assert channel_vector(*frames) == (11, 1)

    def test_first_ds_parameter_set_counts(self):
        assert channel_vector(frame(ies=[ie(3, b""), ie(3, [6]), ie(3, [11])])) == (6,)

    def test_single_frame_burst_vector(self):
        assert channel_vector(frame(ies=[ie(3, [6])])) == (6,)

    def test_matches_stored_vector(self):
        frames = [frame(0.0, ies=[ie(3, [1])]), frame(0.01, ies=[ie(3, [6])])]
        (burst,) = table_rows(group_bursts(frame_table(frames), 2.0))
        assert tuple(ie_fields(f.ies)[1] for f in frames) == burst.channel_vector == (1, 6)


def vector_table(*vectors):
    """A table of bursts with these channel vectors, in this order."""
    return burst_table((i, MACS[0], (0, 0, 0), vector) for i, vector in enumerate(vectors))


class TestPadMatrix:
    def test_padding_rule(self):
        matrix = pad_matrix(vector_table([1, 6], [11]))
        assert matrix.tolist() == [[1, 6], [11, 0]]

    def test_single_vector_unchanged(self):
        assert pad_matrix(vector_table([6, 6, 6])).tolist() == [[6, 6, 6]]

    def test_longest_vector_defines_width(self):
        fig = [1, 1, 2, 2, 5, 7, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13]
        matrix = pad_matrix(vector_table([1, 6, 11], fig, [6]))
        assert matrix.shape == (3, 16)
        assert matrix[1].tolist() == fig

    def test_prefix_preserved(self):
        vectors = [[3, 1, 4, 1, 5], [9, 2], [6, 5, 3]]
        matrix = pad_matrix(vector_table(*vectors))
        for row, vector in zip(matrix, vectors):
            assert row[: len(vector)].tolist() == vector
            assert not row[len(vector) :].any()

    @given(st.lists(st.lists(st.integers(0, 255), min_size=1, max_size=20), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_scatter_matches_row_loop(self, vectors):
        assert np.array_equal(pad_matrix(vector_table(*vectors)), padded(vectors))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pad_matrix(vector_table())

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            pad_matrix(vector_table([1], []))


class TestNormalize:
    def test_endpoints(self):
        out = normalize_ie_matrix([[0], [100]])
        assert out.tolist() == [[0.0], [1.0]]

    def test_constant_dimension_maps_to_zero(self):
        assert normalize_ie_matrix([[7], [7], [7]]).tolist() == [[0.0], [0.0], [0.0]]

    def test_linear_scaling(self):
        assert normalize_ie_matrix([[0], [50], [100]]).tolist() == [[0.0], [0.5], [1.0]]

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        out = normalize_ie_matrix(rng.uniform(-50, 900, size=(40, 3)))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestFeatureFile:
    def make_bursts(self):
        frames = [
            frame(0.0, ies=[ie(3, [1]), ie(45, [0xAD, 0x01])]),
            frame(0.01, ies=[ie(3, [6]), ie(45, [0xAD, 0x01])]),
            frame(5.0, mac=b"\x06\x01\x02\x03\x04\x05", ies=[ie(3, [11])]),
        ]
        return group_bursts(frame_table(frames), 2.0, truths=["dev-a", "dev-a", "dev-b"])

    def test_round_trip(self, tmp_path):
        bursts = self.make_bursts()
        path = tmp_path / "bursts.csv"
        write_feature_file(bursts, path, header_comment="probederand test")
        loaded = read_feature_file(path)
        assert table_rows(loaded) == [row._replace(ie_stable=True) for row in table_rows(bursts)]

    def test_rows_come_back_in_id_order(self, tmp_path):
        rows = [(7, MACS[0], (1, 2, 3), (6, 6), "b"), (2, MACS[1], (0.5, 0, 0), (1,), None)]
        path = tmp_path / "bursts.csv"
        write_feature_file(burst_table(rows), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
        assert table_rows(read_feature_file(path)) == table_rows(burst_table(rows))

    def test_long_channel_vector_round_trips(self, tmp_path):
        """A burst of 70 000 one-digit entries writes a field over csv's
        default limit of 131 072 characters; it reads back, and the
        process-wide limit is left as it was."""
        limit = csv.field_size_limit()
        rows = [(0, MACS[0], (1, 2, 3), (6,) * 70_000, "dev-a"), (1, MACS[1], (4, 5, 6), (1, 11), "dev-b")]
        path = tmp_path / "bursts.csv"
        write_feature_file(burst_table(rows), path)
        assert max(map(len, path.read_text().splitlines())) > limit
        assert table_rows(read_feature_file(path)) == table_rows(burst_table(rows))
        assert csv.field_size_limit() == limit

    def test_other_csv_errors_report_their_line(self, tmp_path, monkeypatch):
        """A ``csv.Error`` is reported at the line its record starts on:
        here csv's field limit, held at 40 characters, trips on the long
        channel vector of the record after one that spans two lines."""
        rows = [(0, MACS[0], (1, 2, 3), (6,), "two\nlines"), (1, MACS[1], (4, 5, 6), (11,) * 30, "dev-b")]
        path = tmp_path / "bursts.csv"
        write_feature_file(burst_table(rows), path)
        original = csv.field_size_limit
        monkeypatch.setattr(csv, "field_size_limit", lambda *new_limit: original())
        limit = original(40)
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: field larger than field limit"):
                read_feature_file(path)
        finally:
            original(limit)

    @pytest.mark.parametrize("bad_row", [0, 1, 2])
    def test_error_in_a_record_over_lines_reports_its_first_line(self, tmp_path, bad_row):
        """Three records of two lines each, after a comment and the
        header: the reader and the reference reader both report a bad
        channel vector at the line its record starts on."""
        rows = [(i, MACS[i], (1, 2, 3), (6,), f"dev\n{i}") for i in range(3)]
        path = tmp_path / "bursts.csv"
        write_feature_file(burst_table(rows), path, header_comment="probederand test")
        data = path.read_bytes()
        assert data.count(b"\n") == 8
        good = f'{bad_row}",1,1,2,3,6\r\n'.encode()
        path.write_bytes(data.replace(good, good.replace(b"6\r", b"0\r")))
        line = 3 + 2 * bad_row
        message = f"^{re.escape(str(path))}:{line}: channel_vector needs entries in 0..255 and a positive one"
        with pytest.raises(ValueError, match=message):
            read_feature_file(path)
        with pytest.raises(ValueError, match=message):
            reference_read_feature_file(path)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("channel_vector", "eleven"),
            ("channel_vector", "0"),
            ("channel_vector", "-6"),
            ("ie_ht", "nan"),
            ("ie_vendor", "inf"),
            ("burst_id", "9" * 20),
        ],
    )
    def test_malformed_row_reports_line(self, tmp_path, column, value):
        path = tmp_path / "bad.csv"
        write_feature_file(self.make_bursts(), path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[FEATURE_FIELDS.index(column)] = value
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3:"):
            read_feature_file(path)

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_feature_file(path)

    @pytest.mark.parametrize(
        "rows, comment, good, bad, reason",
        [
            (1, "probederand test", b"probederand test", b"probederand \xfftest", "0xff: invalid start byte"),
            (1, None, b"dev-0", b"dev-\xff0", "0xff: invalid start byte"),
            # past the first 8 KiB the reader decodes, inside its csv loop
            (400, None, b"dev-399", b"dev-\xe2399", "0xe2: invalid continuation byte"),
            (400, None, b"dev-399,1,1,2,3,6\r\n", b"dev-399,1,1,2,3,6\r\n\xe2\x82", "0xe2: unexpected end of data"),
        ],
        ids=["comment", "truth-on-line-2", "truth-past-8-KiB", "cut-sequence"],
    )
    def test_not_utf8_names_the_file(self, tmp_path, rows, comment, good, bad, reason):
        """Bytes that are not UTF-8 anywhere in the file give one message
        naming the file and the first bad byte, with no line number,
        from the reader and the reference reader alike."""
        table = burst_table([(i, MACS[0], (1, 2, 3), (6,), f"dev-{i}") for i in range(rows)])
        path = tmp_path / "bursts.csv"
        write_feature_file(table, path, header_comment=comment)
        data = path.read_bytes()
        assert data.count(good) == 1 and (rows == 1 or len(data) > 8192)
        path.write_bytes(data.replace(good, bad))
        message = f"^{re.escape(str(path))}: not UTF-8 text \\(cannot decode byte {reason}\\)$"
        with pytest.raises(ValueError, match=message):
            read_feature_file(path)
        with pytest.raises(ValueError, match=message):
            reference_read_feature_file(path)


# truth names that csv must quote, and None for an unlabelled burst
TRUTHS = st.one_of(
    st.none(),
    st.sampled_from(("", "dev-a", "a,b", 'say "hi"', "two\nlines", "cr\r", " pad ", "#x", "nul\x00")),
    st.text(max_size=6),
)
IE_VALUES = st.one_of(
    st.integers(0, 3000).map(float),
    st.sampled_from((0.5, -0.0, 1e20, 2.5e-7, -3.25)),
    st.floats(),
)


@st.composite
def labelled_rows(draw):
    """(BurstRows in id order, coarse labels, final labels) with repeated
    MACs and truth names, channel entries 0..255 and non-integer IE
    values."""
    n = draw(st.integers(0, 10))
    ids = sorted(draw(st.sets(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)))
    macs = st.one_of(st.sampled_from(MACS), st.binary(min_size=6, max_size=6))
    rows = [
        BurstRow(
            burst_id,
            draw(macs),
            tuple(draw(st.lists(IE_VALUES, min_size=3, max_size=3))),
            tuple(draw(st.lists(st.integers(0, 255), min_size=1, max_size=6))),
            draw(TRUTHS),
        )
        for burst_id in ids
    ]
    labels = st.lists(st.integers(-1, 12), min_size=n, max_size=n)
    return rows, np.array(draw(labels), dtype=np.int64), np.array(draw(labels), dtype=np.int64)


def has_nul_truth(rows):
    return any("\x00" in (row.truth_device or "") for row in rows)


class TestWritersMatchRowLoop:
    @given(labelled_rows(), st.sampled_from((None, "", "probederand test")))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, drawn, header):
        """Both writers write the bytes of one ``csv.writer`` row per burst,
        or both refuse a truth name holding NUL and write no file."""
        rows, coarse, final = drawn
        table = burst_table(rows)
        with tempfile.TemporaryDirectory() as scratch:
            written, expected = Path(scratch) / "written.csv", Path(scratch) / "expected.csv"
            writes = [
                (lambda: write_feature_file(table, written, header),
                 lambda: reference_write_feature_file(rows, expected, header)),
                (lambda: write_labeling_file(table, coarse, final, written, header),
                 lambda: reference_write_labeling_file(rows, coarse, final, expected, header)),
            ]
            for write, reference_write in writes:
                if has_nul_truth(rows):
                    for call in (write, reference_write):
                        with pytest.raises(ValueError, match="holds a NUL character"):
                            call()
                    assert not written.exists() and not expected.exists()
                    continue
                write()
                reference_write()
                assert written.read_bytes() == expected.read_bytes()

    def test_label_count_checked(self, tmp_path):
        table = burst_table([(0, MACS[0], (1, 2, 3), (6,), "dev-a")])
        with pytest.raises(ValueError, match="one label per burst"):
            write_labeling_file(table, np.array([0, 1]), np.array([0]), tmp_path / "labeling.csv")


class TestFeatureFileRoundTrip:
    @given(labelled_rows(), st.sampled_from((None, "", "probederand test")))
    @settings(max_examples=300, deadline=None)
    def test_read_gives_back_what_was_written(self, drawn, header):
        """``read_feature_file`` gives back the table ``write_feature_file``
        wrote, truth names with commas, quotes, line breaks, a leading
        ``#`` and spaces among them; an empty name reads back as None.
        Rows with a non-finite IE value or no positive channel entry,
        which the reader rejects, are left out. A name holding NUL, which
        ``csv.reader`` before Python 3.11 cannot read, is refused and no
        file is written."""
        rows = [
            row._replace(truth_device=row.truth_device or None)
            for row in drawn[0]
            if all(map(math.isfinite, row.ie_features)) and max(row.channel_vector) > 0
        ]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "bursts.csv"
            if has_nul_truth(rows):
                with pytest.raises(ValueError, match="holds a NUL character"):
                    write_feature_file(burst_table(rows), path, header)
                assert not path.exists()
                return
            write_feature_file(burst_table(rows), path, header)
            assert table_rows(read_feature_file(path)) == rows


def crowd_style_rows(n=120, seed=0):
    """Bursts shaped like a crowd capture's: ascending ids with gaps, a
    MAC per burst but for two devices that keep theirs, ten devices'
    IE rows and channel patterns, so most field texts repeat."""
    rng = np.random.default_rng(seed)
    patterns = [(1, 6, 11), (11, 6, 1), (1, 1, 6, 6, 11, 11), (6,), (1, 11, 1, 11)]
    rows = []
    for burst_id in np.cumsum(rng.integers(1, 4, size=n)).tolist():
        device = int(rng.integers(10))
        mac = bytes([0x00, 0, 0, 0, 0, device]) if device < 2 else bytes([0x02, *rng.integers(0, 256, 5).tolist()])
        ie = (float(40 * device), float(8 * device + 1), 0.5 * device)
        rows.append((burst_id, mac, ie, patterns[device % len(patterns)], f"dev-{device:02d}"))
    return rows


# Python's spellings of numbers that int() or float() may take or refuse
SPELLINGS = ["1_000", " 7", "+3", "\u0663", "nan", "inf", "-inf", "1e3", "-0", "0x1", "", "7 ", "1__0", "3.0"]
# the fields a spelling may replace whole
SPELLED = ("burst_id", "L", "ie_ht", "ie_extcap", "ie_vendor", "channel_vector")


def edited(fields, kind, value, lines):
    """A row's fields after one edit; ``lines`` holds every row's fields,
    for edits that copy from another row."""
    fields = list(fields)
    if kind in SPELLED:
        fields[FEATURE_FIELDS.index(kind)] = value
    elif kind == "vector-entry":  # one entry of the vector respelled
        entries = fields[7].split(";")
        entries[len(entries) // 2] = value
        fields[7] = ";".join(entries)
    elif kind == "empty-entry":
        fields[7] = fields[7].replace(";", ";;", 1) if ";" in fields[7] else fields[7] + ";"
    elif kind == "repeat-id":
        fields[0] = lines[value][0]
    elif kind == "id":
        fields[0] = str(value)
    elif kind == "L-mismatch":  # ten times L, whatever an earlier edit left there
        fields[3] += "0"
    return fields


EDIT_KINDS = st.one_of(
    st.tuples(st.sampled_from([*SPELLED, "vector-entry"]), st.sampled_from(SPELLINGS)),
    st.tuples(st.just("empty-entry"), st.none()),
    st.tuples(st.just("repeat-id"), st.integers(0, 119)),
    st.tuples(st.just("id"), st.sampled_from([2**63, 2**63 - 1, -(2**63), -(2**63) - 1, 10**30])),
    st.tuples(st.just("L-mismatch"), st.none()),
)


class TestColumnReader:
    """``read_feature_file`` parses each distinct field text once and
    checks rows as arrays; it must agree with the per-row reference."""

    @staticmethod
    def agree(path):
        try:
            want = sorted(reference_read_feature_file(path))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                read_feature_file(path)
            assert str(raised.value) == str(exc)
            return exc
        assert table_rows(read_feature_file(path)) == want
        return None

    @staticmethod
    def write_edited(path, edits):
        write_feature_file(burst_table(crowd_style_rows()), path, header_comment="probederand test")
        text = path.read_text(encoding="utf-8").splitlines()
        head, lines = text[:2], [line.split(",") for line in text[2:]]
        for row, (kind, value) in edits:
            lines[row] = edited(lines[row], kind, value, lines)
        path.write_text("\n".join([*head, *map(",".join, lines)]) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("kind", [*SPELLED, "vector-entry"])
    def test_each_spelling_in_each_column(self, tmp_path, kind, spelling):
        path = tmp_path / "bursts.csv"
        self.write_edited(path, [(5, (kind, spelling))])
        self.agree(path)

    @pytest.mark.parametrize(
        "edit",
        [("empty-entry", None), ("repeat-id", 2), ("repeat-id", 90), ("id", 2**63), ("id", -(2**63) - 1),
         ("id", 2**63 - 1), ("L-mismatch", None)],
    )
    def test_each_row_edit(self, tmp_path, edit):
        path = tmp_path / "bursts.csv"
        self.write_edited(path, [(40, edit)])
        self.agree(path)

    @given(st.lists(st.tuples(st.integers(0, 119), EDIT_KINDS), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_edits_anywhere_match_reference(self, edits):
        """Up to three edits: the first bad row in the file raises its
        first failing check, or the table is the reference's."""
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "bursts.csv"
            self.write_edited(path, edits)
            self.agree(path)

    def test_fields_parsed_once_per_distinct_text(self, tmp_path, monkeypatch):
        """A good file parses its MAC texts in one array pass and checks
        no row field by field; a bad file checks its first bad row alone."""
        path = tmp_path / "bursts.csv"
        rows = crowd_style_rows()
        write_feature_file(burst_table(rows), path)
        calls = {"mac_from_str": [], "_feature_row": []}

        def count(name):
            original = getattr(features_module, name)

            def counted(arg):
                calls[name].append(arg)
                return original(arg)

            monkeypatch.setattr(features_module, name, counted)

        for name in calls:
            count(name)
        assert len(read_feature_file(path)) == len(rows)
        assert calls["mac_from_str"] == []
        assert calls["_feature_row"] == []
        lines = path.read_text().splitlines()
        lines[30] = lines[30].replace(",dev-", ",x,dev-", 1)
        lines[60] = lines[60].replace(",dev-", ",x,dev-", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:31: expected 8 fields, got 9$"):
            read_feature_file(path)
        assert len(calls["_feature_row"]) == 1


    def test_unshaped_mac_parses_column_text_by_text(self, tmp_path, monkeypatch):
        """One MAC text that is not ``xx:xx:xx:xx:xx:xx`` sends the column
        through ``mac_from_str``, once per distinct text, and its row
        fails with ``mac_from_str``'s message."""
        path = tmp_path / "bursts.csv"
        rows = crowd_style_rows()
        write_feature_file(burst_table(rows), path)
        lines = path.read_text().splitlines()
        bad = lines[30].split(",")[1].replace(":", "-")
        lines[30] = lines[30].replace(lines[30].split(",")[1], bad, 1)
        path.write_text("\n".join(lines) + "\n")
        parsed = []
        monkeypatch.setattr(features_module, "mac_from_str", lambda text: parsed.append(text) or mac_from_str(text))
        message = f"^{re.escape(str(path))}:31: not a MAC address: {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            read_feature_file(path)
        distinct = {row[1] for row in csv.reader(lines) if row[0] != "burst_id" and not row[0].startswith("#")}
        assert sorted(parsed[:-1]) == sorted(distinct)
        assert parsed[-1] == bad  # the first bad row, checked field by field

    @given(st.lists(st.one_of(st.binary(min_size=6, max_size=6).map(mac_to_str), st.text(max_size=18)), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_mac_column_matches_text_by_text(self, texts):
        """The array pass gives ``_parse_column``'s values, failures and
        index, whatever mix of MAC texts (either case) and other text."""
        texts = [text.upper() if i % 3 == 1 else text for i, text in enumerate(texts)]
        values, failed, index = features_module._parse_macs(texts)
        want_values, want_failed, want_index = features_module._parse_column(texts, mac_from_str, None)
        assert values == want_values
        assert failed.tolist() == want_failed.tolist()
        assert index.tolist() == want_index.tolist()


@pytest.mark.parametrize("comment", ["two\nlines", "cr\r", "crlf\r\n", "\n"])
def test_header_comment_of_more_than_one_line_rejected(tmp_path, comment):
    with pytest.raises(ValueError, match="header comment is one line"):
        write_table(tmp_path / "table.csv", ("a", "b"), [("1", "2")], comment)
    assert not (tmp_path / "table.csv").exists()


def test_burst_requires_frames():
    columns = dict(source_macs=[MACS[0]], truth_devices=[None], ie_features=[(0, 0, 0)], ie_stable=[True])
    with pytest.raises(ValueError, match="at least one frame"):
        BurstTable([0], channels=[], offsets=[0, 0], **columns)
    BurstTable([0], channels=[6], offsets=[0, 1], **columns)


@pytest.mark.parametrize("ids", [[1, 0], [3, 3]], ids=["descending", "repeated"])
def test_table_ids_strictly_increase(ids):
    with pytest.raises(ValueError, match="strictly increase"):
        BurstTable(ids, [MACS[0]] * 2, [None] * 2, [(0, 0, 0)] * 2, [6, 6], [0, 1, 2], [True] * 2)
