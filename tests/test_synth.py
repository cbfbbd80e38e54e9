"""Synthetic traffic generation, capture model, pcap writing, scenarios."""

import json
import struct

import numpy as np
import pytest

from probederand.features import group_bursts
from probederand.pcap import (
    CaptureMeta,
    ParseDiagnostics,
    ie_fields,
    iter_dataset_files,
    read_capture,
    read_dataset,
)
from probederand.synth import (
    SNIFFERS_DEFAULT,
    SNIFFERS_LOSSLESS,
    DeviceProfile,
    IeTemplate,
    Scenario,
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
        pairs = generate_device(profile(), 60.0, np.random.default_rng(1))
        frames = [f for f, _ in pairs]
        for i in range(0, len(frames), 3):
            assert [ie_fields(f.ies)[1] for f in frames[i : i + 3]] == [1, 6, 11]

    def test_fresh_local_mac_per_burst(self):
        pairs = generate_device(profile(inter_burst_interval=5.0), 50.0, np.random.default_rng(2))
        macs = {f.source_mac for f, _ in pairs}
        assert len(macs) == 10  # one per burst
        for mac in macs:
            assert mac[0] & 0x02  # locally administered
            assert not mac[0] & 0x01  # never multicast

    def test_fixed_mac_when_not_randomizing(self):
        pairs = generate_device(profile(randomize_mac=False), 60.0, np.random.default_rng(3))
        macs = {f.source_mac for f, _ in pairs}
        assert len(macs) == 1
        assert not next(iter(macs))[0] & 0x03

    def test_burst_schedule(self):
        pairs = generate_device(profile(), 60.0, np.random.default_rng(4))
        assert len(pairs) == 18  # 6 bursts of 3 frames

    def test_sequence_numbers_wrap(self):
        pairs = generate_device(profile(inter_burst_interval=0.5), 600.0, np.random.default_rng(5))
        seqs = [f.sequence_number for f, _ in pairs]
        assert max(seqs) <= 4095
        for a, b in zip(seqs, seqs[1:]):
            assert b == (a + 1) % 4096

    def test_jitter_perturbs_at_most_one_entry(self):
        pairs = generate_device(profile(channel_jitter=1.0), 60.0, np.random.default_rng(6))
        frames = [f for f, _ in pairs]
        for i in range(0, len(frames), 3):
            swept = [ie_fields(f.ies)[1] for f in frames[i : i + 3]]
            assert sum(a != b for a, b in zip(swept, [1, 6, 11])) == 1

    def test_labels_attached(self):
        pairs = generate_device(profile(), 15.0, np.random.default_rng(7))
        assert {label for _, label in pairs} == {"dev-a"}

    def test_monotone_timestamps_microsecond_aligned(self):
        pairs = generate_device(profile(inter_burst_interval=(0.3, 0.9)), 30.0, np.random.default_rng(8))
        stamps = [f.timestamp for f, _ in pairs]
        assert stamps == sorted(stamps)
        for ts in stamps:
            assert round(ts * 1e6) / 1e6 == ts


class TestAssignToSniffers:
    def test_frame_goes_to_matching_sniffer_only(self):
        pairs = generate_device(profile(pnl_pattern=(6,), burst_length=1), 10.0, np.random.default_rng(1))
        captured = assign_to_sniffers([f for f, _ in pairs], SNIFFERS_DEFAULT)
        assert len(captured[6]) == 1
        assert len(captured[1]) == len(captured[11]) == 0

    def test_off_channel_frame_lost(self):
        pairs = generate_device(profile(pnl_pattern=(5,), burst_length=1), 10.0, np.random.default_rng(2))
        captured = assign_to_sniffers([f for f, _ in pairs], SNIFFERS_DEFAULT)
        assert all(len(v) == 0 for v in captured.values())

    def test_lossless_mode_catches_everything(self):
        pattern = (1, 2, 5, 7, 9, 10, 12, 13)
        pairs = generate_device(
            profile(pnl_pattern=pattern, burst_length=len(pattern)), 10.0, np.random.default_rng(3)
        )
        captured = assign_to_sniffers([f for f, _ in pairs], SNIFFERS_LOSSLESS)
        assert sum(len(v) for v in captured.values()) == len(pairs)

    def test_capture_channel_is_ds_channel(self):
        """The sniffers group frames by ``capture_channel``, so it must
        name the DS channel even when every burst is perturbed."""
        pairs = generate_device(profile(channel_jitter=1.0), 60.0, np.random.default_rng(5))
        assert pairs
        assert all(ie_fields(f.ies)[1] == f.capture_channel for f, _ in pairs)

    def test_capture_channel_set_to_sniffer(self):
        pairs = generate_device(profile(), 10.0, np.random.default_rng(4))
        captured = assign_to_sniffers([f for f, _ in pairs], SNIFFERS_DEFAULT)
        for channel, frames in captured.items():
            assert all(f.capture_channel == channel for f in frames)


class TestWriteCapture:
    def test_empty_capture_is_valid(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_capture([], path)
        diag = ParseDiagnostics()
        assert len(read_capture(path.read_bytes(), CaptureMeta(str(path)), diag)) == 0
        assert path.stat().st_size == 24

    def test_radiotap_channel_frequency(self, tmp_path):
        pairs = generate_device(profile(pnl_pattern=(6,), burst_length=1), 5.0, np.random.default_rng(1))
        path = tmp_path / "one.pcap"
        write_capture([pairs[0][0]], path)
        data = path.read_bytes()
        freq = struct.unpack_from("<H", data, 24 + 16 + 8)[0]
        assert freq == 2437

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(2)
        pairs = generate_device(
            profile(pnl_pattern=(1, 6, 11, 6), burst_length=(2, 4), inter_burst_interval=(0.5, 2.0)),
            120.0,
            rng,
        )
        frames = [f for f, _ in pairs]
        path = tmp_path / "rt.pcap"
        write_capture(frames, path)
        back = table_frames(read_capture(path.read_bytes(), CaptureMeta(str(path))))
        assert back == frames

    def test_unordered_frames_rejected(self, tmp_path):
        pairs = generate_device(profile(), 30.0, np.random.default_rng(3))
        frames = [f for f, _ in pairs]
        with pytest.raises(ValueError):
            write_capture([frames[1], frames[0]], tmp_path / "x.pcap")


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
