"""Synthetic traffic generation, capture model, pcap writing, scenarios."""

import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probederand import synth
from probederand.features import group_bursts
from probederand.pcap import (
    CaptureMeta,
    FrameTable,
    ParseDiagnostics,
    ie_fields,
    iter_dataset_files,
    read_capture,
    read_dataset,
)
from probederand.randomness import STREAM_GENERATION, substream
from probederand.synth import (
    SNIFFERS_DEFAULT,
    SNIFFERS_LOSSLESS,
    DeviceProfile,
    IeTemplate,
    Scenario,
    _dedupe_macs,
    assign_to_sniffers,
    generate_device,
    generate_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_capture,
)

from oracles import (
    decorated_merge,
    frame_table,
    reference_group_bursts,
    reference_read_capture,
    table_frames,
    table_rows,
)
from scenarios import mixed_scenario

TEMPLATE = IeTemplate(ht=bytes([0xAD, 0x01]), extended=bytes([0x04]), vendor=(bytes([1, 2, 3]),))


def profile(**overrides):
    settings = dict(
        device_id="dev-a",
        ie_template=TEMPLATE,
        pnl_pattern=(1, 6, 11),
        burst_length=3,
        inter_burst_interval=10.0,
        channel_jitter=0.0,
    )
    settings.update(overrides)
    return DeviceProfile(**settings)


class TestGenerateDevice:
    def test_deterministic_sweep(self):
        frames = generate_device(profile(), 60.0, np.random.default_rng(1))
        for i in range(0, len(frames), 3):
            assert [ie_fields(ies)[1] for ies in frames.ies[i : i + 3]] == [1, 6, 11]

    def test_fresh_local_mac_per_burst(self):
        frames = generate_device(profile(inter_burst_interval=5.0), 50.0, np.random.default_rng(2))
        macs = set(frames.source_macs)
        assert len(macs) == 10  # one per burst
        for mac in macs:
            assert mac[0] & 0x02  # locally administered
            assert not mac[0] & 0x01  # never multicast

    def test_fixed_mac_when_not_randomizing(self):
        frames = generate_device(profile(randomize_mac=False), 60.0, np.random.default_rng(3))
        macs = set(frames.source_macs)
        assert len(macs) == 1
        assert not next(iter(macs))[0] & 0x03

    def test_burst_schedule(self):
        frames = generate_device(profile(), 60.0, np.random.default_rng(4))
        assert len(frames) == 18  # 6 bursts of 3 frames
        assert all(len(column) == 18 for column in vars(frames).values())

    def test_sequence_numbers_wrap(self):
        frames = generate_device(profile(inter_burst_interval=0.5), 600.0, np.random.default_rng(5))
        seqs = frames.sequence_numbers
        assert max(seqs) <= 4095
        for a, b in zip(seqs, seqs[1:]):
            assert b == (a + 1) % 4096

    def test_jitter_perturbs_at_most_one_entry(self):
        frames = generate_device(profile(channel_jitter=1.0), 60.0, np.random.default_rng(6))
        for i in range(0, len(frames), 3):
            swept = [ie_fields(ies)[1] for ies in frames.ies[i : i + 3]]
            assert sum(a != b for a, b in zip(swept, [1, 6, 11])) == 1

    def test_labels_attached(self, tmp_path):
        """The frames carry no label: ``generate_scenario`` files them under
        the profile's device_id, which ingest reads back as each row's label."""
        scenario = Scenario((profile(),), duration=15.0, seed=7, sniffer_channels=SNIFFERS_LOSSLESS)
        frames, labels = read_dataset(generate_scenario(scenario, tmp_path / "ds"))
        generated = generate_device(profile(), 15.0, substream(7, STREAM_GENERATION, 0))
        assert table_frames(frames) == table_frames(generated)
        assert labels == ["dev-a"] * len(frames)

    def test_monotone_timestamps_microsecond_aligned(self):
        frames = generate_device(profile(inter_burst_interval=(0.3, 0.9)), 30.0, np.random.default_rng(8))
        stamps = frames.timestamps.tolist()
        assert stamps == sorted(stamps)
        for ts in stamps:
            assert round(ts * 1e6) / 1e6 == ts


class TestAssignToSniffers:
    def test_frame_goes_to_matching_sniffer_only(self):
        frames = generate_device(profile(pnl_pattern=(6,), burst_length=1), 10.0, np.random.default_rng(1))
        captured = assign_to_sniffers(frames, SNIFFERS_DEFAULT)
        assert len(captured[6]) == 1
        assert len(captured[1]) == len(captured[11]) == 0

    def test_off_channel_frame_lost(self):
        frames = generate_device(profile(pnl_pattern=(5,), burst_length=1), 10.0, np.random.default_rng(2))
        captured = assign_to_sniffers(frames, SNIFFERS_DEFAULT)
        assert all(len(v) == 0 for v in captured.values())

    def test_lossless_mode_catches_everything(self):
        pattern = (1, 2, 5, 7, 9, 10, 12, 13)
        frames = generate_device(
            profile(pnl_pattern=pattern, burst_length=len(pattern)), 10.0, np.random.default_rng(3)
        )
        captured = assign_to_sniffers(frames, SNIFFERS_LOSSLESS)
        assert sum(len(v) for v in captured.values()) == len(frames)

    def test_capture_channel_is_ds_channel(self):
        """The sniffers group frames by ``capture_channel``, so it must
        name the DS channel even when every burst is perturbed."""
        frames = generate_device(profile(channel_jitter=1.0), 60.0, np.random.default_rng(5))
        assert len(frames)
        assert [ie_fields(ies)[1] for ies in frames.ies] == frames.capture_channels.tolist()

    def test_capture_channel_set_to_sniffer(self):
        """Each sniffer's table holds exactly the rows on its channel, in
        their order, and every row's columns move together."""
        frames = generate_device(profile(channel_jitter=0.5), 60.0, np.random.default_rng(4))
        captured = assign_to_sniffers(frames, SNIFFERS_DEFAULT)
        rows = table_frames(frames)
        for channel, table in captured.items():
            assert table_frames(table) == [row for row in rows if row.capture_channel == channel]


@st.composite
def frame_tables(draw, min_size=0):
    """Valid tables: 6-byte MACs, channels 1..13, sequence numbers
    0..4095, regions of whole elements (or none), and nondecreasing
    timestamps on the 1 us grid."""
    n = draw(st.integers(min_size, 12))
    ticks = sorted(draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)))
    elements = st.lists(st.tuples(st.integers(0, 255), st.binary(max_size=40)), max_size=4)
    regions = [b"".join(bytes([tag, len(body)]) + body for tag, body in draw(elements)) for _ in range(n)]
    return FrameTable(
        [tick / 1e6 for tick in ticks],
        draw(st.lists(st.binary(min_size=6, max_size=6), min_size=n, max_size=n)),
        draw(st.lists(st.integers(1, 13), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, 4095), min_size=n, max_size=n)),
        regions,
    )


EDGE_TABLE = FrameTable(
    [0.0, 0.0, 1.000001, 4294967.295999],
    [b"\x02" * 6, b"\xff" * 6, b"\x00" * 6, b"\x02\x00\x00\x00\x00\x01"],
    [1, 13, 13, 1],
    [0, 4095, 0, 4095],
    [b"", b"\x00\x00\x03\x01\x0d", b"\xdd\x00", b""],
)

# Rows a bad value may go to: any, any but the first, or the first only.
ANY_ROW, LATER_ROW, FIRST_ROW = (0, None), (1, None), (0, 0)

# id -> (column, rows, bad value from the table and the row, message)
BAD_ROWS = {
    "mac-5-bytes": ("source_macs", ANY_ROW, lambda table, i: b"\x02" * 5, "source_mac must be exactly 6 bytes"),
    "mac-7-bytes": ("source_macs", ANY_ROW, lambda table, i: b"\x02" * 7, "source_mac must be exactly 6 bytes"),
    "channel-0": ("capture_channels", ANY_ROW, lambda table, i: 0, "capture_channel out of range: 0"),
    "channel-14": ("capture_channels", ANY_ROW, lambda table, i: 14, "capture_channel out of range: 14"),
    "sequence--1": ("sequence_numbers", ANY_ROW, lambda table, i: -1, "sequence_number out of range: -1"),
    "sequence-4096": ("sequence_numbers", ANY_ROW, lambda table, i: 4096, "sequence_number out of range: 4096"),
    "decreasing-timestamp": (
        "timestamps", LATER_ROW, lambda table, i: table.timestamps[i - 1] - 1e-6, "frames must be time-ordered"
    ),
    "timestamp-2**32": ("timestamps", ANY_ROW, lambda table, i: 2.0**32, "timestamp out of range: 4294967296.0"),
    "timestamp-nan": ("timestamps", ANY_ROW, lambda table, i: math.nan, "timestamp out of range: nan"),
    "timestamp-inf": ("timestamps", ANY_ROW, lambda table, i: math.inf, "timestamp out of range: inf"),
    "negative-first-timestamp": ("timestamps", FIRST_ROW, lambda table, i: -1.0, "timestamp out of range: -1.0"),
}


class TestWriteCapture:
    def test_empty_capture_is_valid(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_capture(FrameTable(), path)
        diag = ParseDiagnostics()
        assert len(read_capture(path.read_bytes(), CaptureMeta(str(path)), diag)) == 0
        assert path.stat().st_size == 24

    def test_radiotap_channel_frequency(self, tmp_path):
        frames = generate_device(profile(pnl_pattern=(6,), burst_length=1), 5.0, np.random.default_rng(1))
        path = tmp_path / "one.pcap"
        write_capture(frame_table(table_frames(frames)[:1]), path)
        data = path.read_bytes()
        freq = struct.unpack_from("<H", data, 24 + 16 + 8)[0]
        assert freq == 2437

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = generate_device(
            profile(pnl_pattern=(1, 6, 11, 6), burst_length=(2, 4), inter_burst_interval=(0.5, 2.0)),
            120.0,
            rng,
        )
        path = tmp_path / "rt.pcap"
        write_capture(frames, path)
        recovered = read_capture(path.read_bytes(), CaptureMeta(str(path)))
        assert table_frames(recovered) == table_frames(frames)

    def test_unordered_frames_rejected(self, tmp_path):
        rows = table_frames(generate_device(profile(), 30.0, np.random.default_rng(3)))
        with pytest.raises(ValueError, match="time-ordered"):
            write_capture(frame_table([rows[1], rows[0]]), tmp_path / "x.pcap")
        assert not (tmp_path / "x.pcap").exists()

    def test_timestamp_range_is_that_of_its_rounded_microseconds(self, tmp_path):
        """-0.4 us rounds to 0 s and writes. The last float below 2**32 s
        lies half a microsecond below it and rounds up, out of range; the
        float before it rounds to the last microsecond a record holds."""
        below = math.nextafter(2.0**32, 0.0)
        rows = table_frames(EDGE_TABLE)[:2]
        path = tmp_path / "edge.pcap"
        with pytest.raises(ValueError, match=f"timestamp out of range: {below}"):
            write_capture(frame_table([rows[1]._replace(timestamp=below)]), path)
        last = math.nextafter(below, 0.0)
        write_capture(frame_table([rows[0]._replace(timestamp=-4e-7), rows[1]._replace(timestamp=last)]), path)
        stamps = read_capture(path.read_bytes(), CaptureMeta(str(path))).timestamps.tolist()
        assert stamps == [0.0, (2**32 * 10**6 - 1) / 1e6]

    @given(frame_tables())
    @example(EDGE_TABLE)
    @settings(max_examples=200, deadline=None)
    def test_read_capture_inverts_write_capture(self, table):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "rt.pcap"
            write_capture(table, path)
            recovered = read_capture(path.read_bytes(), CaptureMeta(str(path)))
            assert table_frames(recovered) == table_frames(table)

    @pytest.mark.parametrize("column, rows, bad, message", BAD_ROWS.values(), ids=BAD_ROWS)
    @given(table=frame_tables(min_size=2), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_bad_row_rejected(self, column, rows, bad, message, table, data):
        """One bad row anywhere it may go raises with its message and
        writes no file."""
        first, last = rows
        row = data.draw(st.integers(first, len(table) - 1 if last is None else last))
        getattr(table, column)[row] = bad(table, row)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "bad.pcap"
            with pytest.raises(ValueError, match=re.escape(message)):
                write_capture(table, path)
            assert not path.exists()


def two_device_scenario(seed=5, jitter=0.0, sniffers=SNIFFERS_DEFAULT):
    twin_template = IeTemplate(ht=bytes([50, 1]), extended=bytes([9]), vendor=())
    return Scenario(
        profiles=(
            profile(device_id="twin-a", ie_template=twin_template, pnl_pattern=(1, 6, 11), channel_jitter=jitter),
            profile(device_id="twin-b", ie_template=twin_template, pnl_pattern=(11, 6, 1), channel_jitter=jitter),
        ),
        duration=100.0,
        seed=seed,
        sniffer_channels=tuple(sniffers),
    )


class TestGenerateScenario:
    def test_colliding_burst_mac_redrawn_in_every_row(self):
        """A MAC an earlier device used is replaced by one fresh MAC in
        all of the later device's rows; its other MACs stay."""
        a, b, c = b"\x02" * 6, b"\x06" * 6, b"\x0a" * 6
        first = FrameTable([0.0] * 3, [a, a, b], [1] * 3, [0] * 3, [b""] * 3)
        second = FrameTable([0.0] * 3, [a, c, a], [1] * 3, [0] * 3, [b""] * 3)
        _dedupe_macs([first, second], seed=1)
        assert first.source_macs.tolist() == [a, a, b]
        fresh, kept, again = second.source_macs.tolist()
        assert fresh == again and fresh not in (a, b, c) and kept == c

    def test_layout_and_manifest(self, tmp_path):
        root = generate_scenario(two_device_scenario(), tmp_path / "ds")
        pcaps = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.pcap"))
        assert pcaps == [
            "twin-a/1.pcap",
            "twin-a/11.pcap",
            "twin-a/6.pcap",
            "twin-b/1.pcap",
            "twin-b/11.pcap",
            "twin-b/6.pcap",
        ]
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert len(manifest["scenario"]["profiles"]) == 2

    def test_byte_identical_for_same_seed(self, tmp_path):
        root_a = generate_scenario(two_device_scenario(), tmp_path / "a")
        root_b = generate_scenario(two_device_scenario(), tmp_path / "b")
        for rel in ["twin-a/1.pcap", "twin-b/6.pcap", "manifest.json"]:
            assert (root_a / rel).read_bytes() == (root_b / rel).read_bytes()

    def test_refuses_nonempty_root(self, tmp_path):
        target = tmp_path / "busy"
        target.mkdir()
        (target / "keep.txt").write_text("data")
        with pytest.raises(FileExistsError):
            generate_scenario(two_device_scenario(), target)
        generate_scenario(two_device_scenario(), target, overwrite=True)
        assert (target / "keep.txt").read_text() == "data"

    def test_overwrite_replaces_the_listed_captures(self, tmp_path):
        """Overwriting a 12-device tree with a 2-device scenario removes
        the captures the old manifest lists and the device directories
        left empty, so ingest sees only the new devices; other files stay."""
        root = generate_scenario(mixed_scenario(seed=3), tmp_path / "ds")
        (root / "keep.txt").write_text("data")
        (root / "solo0" / "notes.txt").write_text("notes")
        generate_scenario(two_device_scenario(), root, overwrite=True)
        fresh = generate_scenario(two_device_scenario(), tmp_path / "fresh")
        _, labels = read_dataset(root)
        assert set(labels) == {"twin-a", "twin-b"}
        left = sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))
        want = sorted(p.relative_to(fresh).as_posix() for p in fresh.rglob("*"))
        assert left == sorted(want + ["keep.txt", "solo0", "solo0/notes.txt"])
        for rel in want:
            if (fresh / rel).is_file():
                assert (root / rel).read_bytes() == (fresh / rel).read_bytes()

    @pytest.mark.parametrize("error", [ValueError("bad row"), OSError("disk full")], ids=["row", "disk"])
    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, error):
        """A capture that fails part-way through the tree takes the
        captures and device directories written before it with it, so
        the root is empty again; a row's error names its device and
        channel."""
        write = synth.write_capture

        def failing(frames, path):
            if path.parent.name == "twin-b" and path.name == "6.pcap":
                path.write_bytes(b"partial")
                raise error
            write(frames, path)

        monkeypatch.setattr(synth, "write_capture", failing)
        root = tmp_path / "ds"
        with pytest.raises(type(error)) as raised:
            generate_scenario(two_device_scenario(), root)
        if isinstance(error, ValueError):
            assert str(raised.value) == "device twin-b, channel 6: bad row"
        else:
            assert raised.value is error
        assert list(root.iterdir()) == []
        monkeypatch.undo()
        generate_scenario(two_device_scenario(), root)

    def test_failed_write_keeps_what_it_did_not_make(self, tmp_path, monkeypatch):
        """Directories and files that were there before the call stay."""
        root = tmp_path / "ds"
        (root / "twin-a").mkdir(parents=True)
        (root / "twin-a" / "notes.txt").write_text("notes")

        def failing(frames, path):
            raise ValueError("bad row")

        monkeypatch.setattr(synth, "write_capture", failing)
        with pytest.raises(ValueError, match="^device twin-a, channel 1: bad row$"):
            generate_scenario(two_device_scenario(), root, overwrite=True)
        assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*")) == ["twin-a", "twin-a/notes.txt"]

    def test_twins_share_ie_features_but_not_patterns(self, tmp_path):
        root = generate_scenario(two_device_scenario(), tmp_path / "tw")
        frames, labels = read_dataset(root)
        bursts = table_rows(group_bursts(frames, 2.0, labels))
        by_device = {}
        for burst in bursts:
            by_device.setdefault(burst.truth_device, []).append(burst)
        features = {d: {b.ie_features for b in bs} for d, bs in by_device.items()}
        assert features["twin-a"] == features["twin-b"]
        assert {b.channel_vector for b in by_device["twin-a"]} == {(1, 6, 11)}
        assert {b.channel_vector for b in by_device["twin-b"]} == {(11, 6, 1)}

    def test_no_mac_reuse_across_bursts(self, tmp_path):
        root = generate_scenario(two_device_scenario(), tmp_path / "macs")
        frames, labels = read_dataset(root)
        macs = group_bursts(frames, 2.0, labels).source_macs.tolist()
        assert len(macs) == len(set(macs))

    def test_ingest_matches_frame_level_path(self, tmp_path):
        """The table path (parse, lexsort merge, array grouping) gives the
        bursts of parsing every file into frames, sorting them by
        (timestamp, channel, input position) and grouping frame by frame."""
        root = generate_scenario(mixed_scenario(seed=3), tmp_path / "mixed")
        frames, labels = read_dataset(root)
        bursts = table_rows(group_bursts(frames, 2.0, labels))
        streams = [
            (reference_read_capture(path.read_bytes(), CaptureMeta(str(path), declared)), label)
            for label, path, declared in iter_dataset_files(root)
        ]
        pairs = decorated_merge(streams)
        assert table_frames(frames) == [frame for frame, _ in pairs]
        assert bursts == reference_group_bursts(
            [frame for frame, _ in pairs], 2.0, [label for _, label in pairs]
        )
        assert len({burst.truth_device for burst in bursts}) > 1

    def test_pipeline_inverse_with_lossless_capture(self, tmp_path):
        pattern = (1, 2, 5, 7, 9, 10, 12, 13)
        scenario = Scenario(
            profiles=(
                profile(device_id="wide", pnl_pattern=pattern, burst_length=(3, 8)),
            ),
            duration=120.0,
            seed=9,
            sniffer_channels=SNIFFERS_LOSSLESS,
        )
        root = generate_scenario(scenario, tmp_path / "inv")
        frames, labels = read_dataset(root)
        bursts = table_rows(group_bursts(frames, 2.0, labels))
        assert len(bursts) >= 10
        for burst in bursts:
            expected = tuple(pattern[i % len(pattern)] for i in range(burst.length))
            assert burst.channel_vector == expected


class TestScenarioSerialization:
    def test_round_trip(self):
        scenario = two_device_scenario(jitter=0.25)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
        # an empty HT or Extended Capabilities body is an element, not an absent one
        empty = Scenario((profile(ie_template=IeTemplate(ht=b"", extended=b"")),), duration=30.0)
        assert scenario_from_dict(scenario_to_dict(empty)) == empty

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(two_device_scenario())))
        assert load_scenario(path) == two_device_scenario()

    def test_absent_keys_take_dataclass_defaults(self):
        data = {"duration": 30, "profiles": [{"device_id": "a", "pnl_pattern": [1, 6]}]}
        want = Scenario(profiles=(DeviceProfile("a", IeTemplate(), (1, 6)),), duration=30.0)
        assert scenario_from_dict(data) == want

    def test_distribution_forms(self):
        data = scenario_to_dict(two_device_scenario())
        data["profiles"][0]["burst_length"] = {"uniform": [2, 4]}
        data["profiles"][0]["inter_burst_interval"] = 3.5
        scenario = scenario_from_dict(data)
        assert scenario.profiles[0].burst_length == (2, 4)
        assert scenario.profiles[0].inter_burst_interval == 3.5

    def test_bad_distribution_rejected(self):
        data = scenario_to_dict(two_device_scenario())
        data["profiles"][0]["burst_length"] = {"poisson": 4}
        with pytest.raises(ValueError):
            scenario_from_dict(data)


class TestProfileValidation:
    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            profile(pnl_pattern=())

    def test_channel_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            profile(pnl_pattern=(1, 14))

    def test_jitter_probability_checked(self):
        with pytest.raises(ValueError):
            profile(channel_jitter=1.5)

    def test_duplicate_device_ids_rejected(self):
        with pytest.raises(ValueError):
            Scenario(profiles=(profile(), profile()), duration=10.0, seed=1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e999])
    def test_non_finite_duration_rejected(self, value):
        """Built only: ``generate_device`` would never leave its loop on
        an infinite duration."""
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            Scenario(profiles=(profile(),), duration=value, seed=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("intra_burst_gap", math.inf),
            ("intra_burst_gap", math.nan),
            ("inter_burst_interval", math.inf),
            ("inter_burst_interval", math.nan),
            ("inter_burst_interval", (1.0, math.inf)),
            ("inter_burst_interval", (math.nan, 2.0)),
            ("burst_length", (1, math.inf)),
        ],
    )
    def test_non_finite_profile_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field}.*must be positive and finite"):
            profile(**{field: value})

    def test_infinite_burst_length_in_a_document_names_the_file(self, tmp_path):
        """JSON's 1e999 reads as inf, which no integer cast takes."""
        data = scenario_to_dict(Scenario(profiles=(profile(),), duration=10.0, seed=1))
        data["profiles"][0]["burst_length"] = {"fixed": math.inf}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_scenario(path)
