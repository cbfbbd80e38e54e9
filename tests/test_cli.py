"""Command-line driver: subcommands, exit codes, reproducible outputs."""

import contextlib
import io
import json
import os
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probederand import __version__, metrics
from probederand.cli import main
from probederand.clustering import (
    DbscanConfig,
    KmeansConfig,
    n_clusters,
    two_stage_labelings,
    write_labeling_file,
)
from probederand.features import read_feature_file
from probederand.metrics import (
    EvalConfig,
    run_protocol,
    write_report_files,
)
from probederand.pcap import mac_to_str
from probederand.synth import DeviceProfile, IeTemplate, Scenario, generate_scenario, scenario_to_dict

from scenarios import hetero_scenario, mixed_scenario, twin_profiles


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario file -> generated dataset -> feature file, via the CLI."""
    base = tmp_path_factory.mktemp("cli")
    scenario_path = base / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(hetero_scenario(seed=23, n_devices=4, duration=120.0))))

    dataset = base / "dataset"
    assert main(["generate", str(scenario_path), "--out", str(dataset)]) == 0

    ingest_out = base / "ingest"
    assert main(["ingest", str(dataset), "--out", str(ingest_out)]) == 0
    features = ingest_out / "bursts.csv"
    assert features.exists()
    return {"base": base, "scenario": scenario_path, "dataset": dataset, "features": features}


class TestExitCodes:
    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, workspace, tmp_path, capsys):
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--config", str(tmp_path / "nowhere.json")])
        assert excinfo.value.code == 2
        assert "config path does not exist" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_processing_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.pcap.d"
        bad.mkdir()
        (bad / "dev").mkdir()
        (bad / "dev" / "1.pcap").write_bytes(b"not a pcap at all")
        assert main(["ingest", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_success_is_zero(self, workspace, tmp_path):
        assert main(["cluster", str(workspace["features"]), "--out", str(tmp_path / "c")]) == 0

    @pytest.mark.parametrize("command, flag", [("ingest", "--seed"), ("generate", "--config")])
    def test_flag_the_command_does_not_read_is_usage_error(
        self, workspace, tmp_path, capsys, command, flag
    ):
        """``ingest`` draws no random numbers and ``generate`` reads no
        settings, so neither accepts the flag."""
        config = tmp_path / "cfg.json"
        config.write_text("{}")
        source = workspace["dataset" if command == "ingest" else "scenario"]
        value = {"--seed": "1", "--config": str(config)}[flag]
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(source), "--out", str(tmp_path / "o"), flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCluster:
    def test_outputs_match_direct_library_calls(self, workspace, tmp_path):
        out = tmp_path / "cli"
        assert main(
            ["cluster", str(workspace["features"]), "--out", str(out), "--seed", "99"]
        ) == 0

        bursts = read_feature_file(workspace["features"])
        coarse, final = two_stage_labelings(bursts, DbscanConfig(), KmeansConfig(seed=99))
        expected = tmp_path / "expected.csv"
        header = (
            f"probederand {__version__} | cluster | eps=0.05 k_max=5 method=two-stage "
            "min_pts=10 seed=99 | ie_encoding=byte-sum"
        )
        write_labeling_file(bursts, coarse, final, expected, header)
        assert (out / "labeling.csv").read_bytes() == expected.read_bytes()

        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_clusters"] == n_clusters(final)

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        args = ["cluster", str(workspace["features"]), "--seed", "7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "labeling.csv").read_bytes() == (out_b / "labeling.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_header_comment_records_config(self, workspace, tmp_path):
        out = tmp_path / "hdr"
        assert main(["cluster", str(workspace["features"]), "--out", str(out), "--eps", "0.1"]) == 0
        first = (out / "labeling.csv").read_text().splitlines()[0]
        assert first.startswith(f"# probederand {__version__}")
        assert "eps=0.1" in first

    def test_ie_only_method(self, workspace, tmp_path):
        out = tmp_path / "ieonly"
        assert main(
            ["cluster", str(workspace["features"]), "--out", str(out), "--method", "ie-only"]
        ) == 0
        rows = [l for l in (out / "labeling.csv").read_text().splitlines() if not l.startswith("#")]
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[3] == fields[4]  # coarse == final

    def test_malformed_feature_row_fails(self, workspace, tmp_path):
        broken = tmp_path / "broken.csv"
        lines = workspace["features"].read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-vector"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["cluster", str(broken), "--out", str(tmp_path / "x")]) == 1

    def test_all_zero_channel_vector_is_one_line(self, workspace, tmp_path, capsys):
        broken = tmp_path / "zero.csv"
        lines = workspace["features"].read_text().splitlines()
        fields = lines[2].split(",")
        fields[3], fields[-1] = "3", "0;0;0"
        lines[2] = ",".join(fields)
        broken.write_text("\n".join(lines) + "\n")
        assert main(["cluster", str(broken), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {broken}:3: ") and err.count("\n") == 1
        assert "channel_vector" in err

    @pytest.mark.parametrize("command", [["cluster"], ["evaluate", "--d", "1"]], ids=" ".join)
    def test_repeated_burst_id_is_one_line(self, workspace, tmp_path, capsys, command):
        repeated = tmp_path / "repeated.csv"
        lines = workspace["features"].read_text().splitlines()
        assert lines[0].startswith("#") and lines[2].split(",")[0] == "0"
        repeated.write_text("\n".join([*lines, lines[2]]) + "\n")
        argv = [command[0], str(repeated), "--out", str(tmp_path / "x"), *command[1:]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {repeated}:{len(lines) + 1}: burst_id 0 repeats line 3\n"


class TestConfigPrecedence:
    def test_flag_overrides_config_file_overrides_default(self, workspace, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps": 0.2, "min_pts": 3}))
        out = tmp_path / "cfg_out"
        assert main(
            [
                "cluster",
                str(workspace["features"]),
                "--out",
                str(out),
                "--config",
                str(config),
                "--eps",
                "0.07",
            ]
        ) == 0
        first = (out / "labeling.csv").read_text().splitlines()[0]
        assert "eps=0.07" in first  # flag wins
        assert "min_pts=3" in first  # config file beats default
        assert "k_max=5" in first  # untouched default


class TestUsageErrors:
    """Bad configuration or too little input ends with exit 2 and one line."""

    def assert_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "content",
        # d belongs to evaluate and tune; cluster checks it all the same.
        ['{"eps": "0.1"}', '{"min_pts": 2.5}', '{"k_max": true}', '{"d": "ten"}'],
    )
    def test_config_value_of_wrong_type(self, workspace, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o"), "--config", str(config)]
        key = next(iter(json.loads(content)))
        assert key in self.assert_usage_error(argv, capsys)

    def test_config_that_is_not_an_object(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o"), "--config", str(config)]
        assert "JSON object" in self.assert_usage_error(argv, capsys)

    def test_config_that_is_not_json(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{eps: 0.1}")
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o"), "--config", str(config)]
        self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "command",
        [
            ["cluster", "--eps", "-1"],
            ["cluster", "--k-max", "0"],
            ["evaluate", "--d", "0"],
            ["evaluate", "--jobs", "0"],
            ["ingest", "--gap-seconds", "0"],
            ["tune", "--eps-grid", "0.05", "--minpts-grid", "0"],
            ["tune", "--eps-grid", "0.05", "--minpts-grid", "5,0"],
            ["tune", "--eps-grid", "abc", "--minpts-grid", "5"],
            ["tune", "--eps-grid", ",", "--minpts-grid", "5"],
        ],
        ids=" ".join,
    )
    def test_bad_flag_value(self, workspace, tmp_path, capsys, command):
        source = workspace["dataset" if command[0] == "ingest" else "features"]
        self.assert_usage_error([command[0], str(source), "--out", str(tmp_path / "o"), *command[1:]], capsys)

    @pytest.mark.parametrize(
        "command, content",
        [
            ("cluster", '{"eps": -1}'),
            ("cluster", '{"method": "bogus"}'),
            ("evaluate", '{"min_pts": 0}'),
            ("evaluate", '{"jobs": 0}'),
            ("ingest", '{"gap_seconds": 0}'),
        ],
    )
    def test_config_value_out_of_range(self, workspace, tmp_path, capsys, command, content):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        source = workspace["dataset" if command == "ingest" else "features"]
        argv = [command, str(source), "--out", str(tmp_path / "o"), "--config", str(config)]
        self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "command, content, key",
        [
            ("cluster", '{"min-pts": 3}', "'min-pts'"),
            ("ingest", '{"gap_seconds": 1.0, "gap": 1.0}', "'gap'"),
            ("tune", '{"eps_grid": "0.1"}', "'eps_grid'"),
        ],
    )
    def test_unknown_config_key(self, workspace, tmp_path, capsys, command, content, key):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        source = workspace["dataset" if command == "ingest" else "features"]
        argv = [command, str(source), "--out", str(tmp_path / "o"), "--config", str(config)]
        if command == "tune":
            argv += ["--eps-grid", "0.05", "--minpts-grid", "5"]
        assert f"unknown key {key} " in self.assert_usage_error(argv, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, content, output",
        [
            ("ingest", {"seed": 5, "method": "ie-only", "d": 2}, "bursts.csv"),
            ("cluster", {"gap_seconds": 3.0, "d": 2, "jobs": 2}, "labeling.csv"),
        ],
    )
    def test_other_commands_config_keys_are_accepted(
        self, workspace, tmp_path, command, content, output
    ):
        """One config file serves every command: keys that belong to
        another command change nothing, header included."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(content))
        source = workspace["dataset" if command == "ingest" else "features"]
        plain, configured = tmp_path / "plain", tmp_path / "configured"
        assert main([command, str(source), "--out", str(plain)]) == 0
        assert main([command, str(source), "--out", str(configured), "--config", str(config)]) == 0
        assert (configured / output).read_bytes() == (plain / output).read_bytes()

    def test_integer_config_value_for_float_setting(self, workspace, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps": 1}))
        out = tmp_path / "o"
        assert main(["cluster", str(workspace["features"]), "--out", str(out), "--config", str(config)]) == 0
        assert "eps=1 " in (out / "labeling.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize(
        "command", [["evaluate"], ["tune", "--eps-grid", "0.05", "--minpts-grid", "5"]]
    )
    def test_single_device_dataset(self, workspace, tmp_path, capsys, command):
        single = tmp_path / "one-device.csv"
        lines = workspace["features"].read_text().splitlines()
        header_at = 1 if lines[0].startswith("#") else 0
        rows = [row for row in lines[header_at + 1 :] if row.split(",")[2] == "uniq0"]
        single.write_text("\n".join(lines[: header_at + 1] + rows) + "\n")
        argv = [command[0], str(single), "--out", str(tmp_path / "o"), *command[1:]]
        assert "at least 2 labelled devices" in self.assert_usage_error(argv, capsys)


class TestJobs:
    @pytest.mark.parametrize("requested, cpus, workers", [(64, 2, 2), (2, 4, 2), (3, 1, None), (1, 4, None)])
    def test_clamped_to_cpu_count(self, workspace, tmp_path, monkeypatch, requested, cpus, workers):
        started = []

        class RecordingExecutor:
            """Stands in for ProcessPoolExecutor and runs tasks in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(metrics, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        argv = ["evaluate", str(workspace["features"]), "--out", str(tmp_path / "o"), "--d", "1"]
        assert main(argv + ["--jobs", str(requested)]) == 0
        # one executor per evaluate, or none when the runs stay serial
        assert started == ([] if workers is None else [workers])


class TestEvaluate:
    def test_report_files_written(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(
            ["evaluate", str(workspace["features"]), "--out", str(out), "--d", "2", "--seed", "3"]
        ) == 0
        runs = (out / "report_runs.csv").read_text().splitlines()
        assert runs[1] == "method,p,subset,h,c,v,n_clusters,delta"
        methods = {row.split(",")[0] for row in runs[2:]}
        assert methods == {"two-stage", "ie-only"}
        summary = (out / "report_summary.csv").read_text().splitlines()
        assert summary[1] == "method,p,mean_v,std_v,mean_h,std_h,mean_c,std_c,rmse"

    def test_unlabeled_features_rejected(self, workspace, tmp_path):
        stripped = tmp_path / "unlabeled.csv"
        lines = workspace["features"].read_text().splitlines()
        header_at = 1 if lines[0].startswith("#") else 0
        rows = [lines[header_at]]
        for row in lines[header_at + 1 :]:
            fields = row.split(",")
            fields[2] = ""
            rows.append(",".join(fields))
        stripped.write_text("\n".join(rows) + "\n")
        assert main(["evaluate", str(stripped), "--out", str(tmp_path / "x")]) == 1

    def test_rerun_byte_identical(self, workspace, tmp_path):
        args = ["evaluate", str(workspace["features"]), "--d", "2", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("report_runs.csv", "report_summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_outputs_match_direct_library_calls(self, workspace, tmp_path):
        out = tmp_path / "cli"
        assert main(
            ["evaluate", str(workspace["features"]), "--out", str(out), "--d", "2", "--seed", "3"]
        ) == 0
        bursts = read_feature_file(workspace["features"])
        eval_cfg = EvalConfig(d=2, seed=3)
        sections = run_protocol(bursts, eval_cfg, DbscanConfig(), KmeansConfig(seed=3))
        header = (
            f"probederand {__version__} | evaluate | d=2 eps=0.05 jobs=1 k_max=5 "
            "min_pts=10 seed=3 | ie_encoding=byte-sum"
        )
        write_report_files(sections.items(), tmp_path / "runs.csv", tmp_path / "summary.csv", header)
        assert (out / "report_runs.csv").read_bytes() == (tmp_path / "runs.csv").read_bytes()
        assert (out / "report_summary.csv").read_bytes() == (tmp_path / "summary.csv").read_bytes()


class TestTune:
    def test_table_written_and_recommendation_printed(self, workspace, tmp_path, capsys):
        out = tmp_path / "tune"
        assert main(
            [
                "tune",
                str(workspace["features"]),
                "--out",
                str(out),
                "--eps-grid",
                "0.05,0.9",
                "--minpts-grid",
                "5,10",
                "--d",
                "2",
            ]
        ) == 0
        lines = (out / "tuning.csv").read_text().splitlines()
        assert lines[1] == "eps,min_pts,mean_v,mean_abs_delta"
        assert len(lines) == 6
        assert "recommended" in capsys.readouterr().out

    def test_empty_grid_is_error(self, workspace, tmp_path):
        assert main(
            [
                "tune",
                str(workspace["features"]),
                "--out",
                str(tmp_path / "x"),
                "--eps-grid",
                "",
                "--minpts-grid",
                "5",
            ]
        ) == 2


class TestGenerate:
    def test_refuses_nonempty_output(self, workspace, tmp_path):
        target = tmp_path / "exists"
        target.mkdir()
        (target / "file").write_text("x")
        assert main(["generate", str(workspace["scenario"]), "--out", str(target)]) == 1

    def test_seed_flag_overrides_scenario(self, workspace, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["generate", str(workspace["scenario"]), "--out", str(out_a), "--seed", "111"]) == 0
        assert main(["generate", str(workspace["scenario"]), "--out", str(out_b), "--seed", "111"]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 111
        first = next(out_a.rglob("*.pcap"))
        twin = out_b / first.relative_to(out_a)
        assert first.read_bytes() == twin.read_bytes()


    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda data: [1, 2], "JSON object"),
            (lambda data: data.pop("profiles"), "'profiles'"),
            (lambda data: data.pop("duration"), "'duration'"),
            (lambda data: data["profiles"][0].pop("device_id"), "'device_id'"),
            (lambda data: data["profiles"][0].pop("pnl_pattern"), "'pnl_pattern'"),
            (lambda data: data["profiles"][0].update(burst_length={"uniform": [1]}), "burst_length"),
            (lambda data: data["profiles"][0]["ie"].update(ht="zz"), "non-hexadecimal"),
            (lambda data: data["profiles"][0]["ie"].update(ht="00" * 256), "255 bytes"),
            (lambda data: data["profiles"][0].update(device_id="../../escape"), "device_id"),
            (lambda data: data.update(sniffer_channels=[0, 14]), "sniffer_channels"),
        ],
        ids=["not-an-object", "no-profiles", "no-duration", "no-device-id", "no-pnl-pattern",
             "one-bound-uniform", "bad-hex", "long-body", "escaping-device-id",
             "sniffer-channel-out-of-range"],
    )
    def test_malformed_scenario_is_one_line(self, workspace, tmp_path, capsys, edit, named):
        """``edit`` changes the scenario in place, or returns the whole
        document when it is not an object."""
        data = json.loads(workspace["scenario"].read_text())
        replaced = edit(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(replaced if replaced == [1, 2] else data))
        assert main(["generate", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "o").exists()


class TestIngestDiagnostics:
    def test_truth_labels_from_directory_names(self, workspace):
        bursts = read_feature_file(workspace["features"])
        labels = {b.truth_device for b in bursts}
        assert labels == {"uniq0", "uniq1", "uniq2", "uniq3"}

    def test_empty_dataset_root_is_processing_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["ingest", str(empty), "--out", str(tmp_path / "o")]) == 1
        assert "device-id" in capsys.readouterr().err

    def test_empty_pcap_noted_but_tolerated(self, tmp_path, capsys):
        scenario = mixed_scenario(seed=31, duration=60.0)
        scenario_path = tmp_path / "scn.json"
        scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
        dataset = tmp_path / "ds"
        assert main(["generate", str(scenario_path), "--out", str(dataset)]) == 0
        # devices probing only 1/6/11 leave some sniffer files empty only
        # if their pattern skips a channel; force one by truncating a file
        victim = dataset / scenario.profiles[0].device_id / "1.pcap"
        victim.write_bytes(victim.read_bytes()[:24])  # header only
        out = tmp_path / "out"
        assert main(["ingest", str(dataset), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "empty captures" in stdout
        assert "1.pcap" in stdout

    def test_truncated_last_record_reported(self, tmp_path, capsys):
        scenario = mixed_scenario(seed=31, duration=60.0)
        scenario_path = tmp_path / "scn.json"
        scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
        dataset = tmp_path / "ds"
        assert main(["generate", str(scenario_path), "--out", str(dataset)]) == 0
        out = tmp_path / "out"
        assert main(["ingest", str(dataset), "--out", str(out)]) == 0
        assert "truncated_tail=0 " in capsys.readouterr().out
        victim = max(dataset.rglob("*.pcap"), key=lambda p: p.stat().st_size)
        victim.write_bytes(victim.read_bytes()[:-10])
        assert main(["ingest", str(dataset), "--out", str(out)]) == 0
        assert "truncated_tail=1 " in capsys.readouterr().out

    def test_instability_and_overrun_lines(self, tmp_path, capsys):
        template = IeTemplate(ht=bytes([0xAD, 0x01]), extended=bytes([0x04]), vendor=(bytes([0x50, 0xF2]),))
        scenario = Scenario(
            profiles=(
                DeviceProfile("steady", template, pnl_pattern=(6,), burst_length=4),
                DeviceProfile("other", template, pnl_pattern=(1, 11), burst_length=2),
            ),
            duration=40.0,
            seed=3,
        )
        dataset = generate_scenario(scenario, tmp_path / "ds")
        # the second frame of the steady device's third burst gains a vendor
        # tag: its fingerprint now differs from the burst's first frame
        planted = edit_record(dataset / "steady" / "6.pcap", 9, lambda r: r + bytes([221, 2, 7, 7]))
        # the other device's first frame ends in a tag declaring more bytes
        # than the record holds
        edit_record(dataset / "other" / "1.pcap", 0, lambda r: r + bytes([221, 40, 1]))

        out = tmp_path / "out"
        assert main(["ingest", str(dataset), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        (diagnostics,) = [line for line in printed if line.startswith("diagnostics: ")]
        assert "ie_overruns=1" in diagnostics.split()
        mac = mac_to_str(planted[RADIOTAP_LEN + 10 : RADIOTAP_LEN + 16])
        (k,) = [b.burst_id for b in read_feature_file(out / "bursts.csv") if mac_to_str(b.source_mac) == mac]
        audit = [line for line in printed if line.startswith("ie-feature")]
        assert audit == [f"ie-feature instability in 1 burst(s): [{k}]"]


RADIOTAP_LEN = 12  # the generator's Radiotap header: channel field only


def edit_record(path, index, edit):
    """Rewrite record ``index`` of a little-endian pcap file as
    ``edit(record)``; returns the original record."""
    data = path.read_bytes()
    out, offset, i, original = bytearray(data[:24]), 24, 0, None
    while offset < len(data):
        ts_sec, ts_usec, length, _ = struct.unpack_from("<IIII", data, offset)
        record = data[offset + 16 : offset + 16 + length]
        offset += 16 + length
        if i == index:
            original, record = record, edit(record)
        out += struct.pack("<IIII", ts_sec, ts_usec, len(record), len(record)) + record
        i += 1
    assert original is not None
    path.write_bytes(bytes(out))
    return original


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    """Two twin pairs' capture tree and its pcap files, relative to it."""
    dataset = tmp_path_factory.mktemp("fuzz") / "dataset"
    generate_scenario(Scenario(profiles=tuple(twin_profiles(n_pairs=2)), duration=120.0, seed=41), dataset)
    return dataset, sorted(p.relative_to(dataset) for p in dataset.rglob("*.pcap"))


class TestNeverATraceback:
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 1 << 20), st.integers(0, 255)),
            min_size=1,
            max_size=8,
        ),
        st.none() | st.tuples(st.integers(0, 63), st.integers(0, 1 << 20)),
    )
    @settings(max_examples=50, deadline=None)
    def test_mutated_captures_end_in_exit_0_or_one_line(self, small_tree, edits, cut):
        """Random byte edits to the captures, and perhaps one capture cut
        short, never escape ``main`` as a traceback through ``ingest``,
        ``cluster`` and ``evaluate --d 1``: each command exits 0, or 1
        with a single stderr line."""
        tree, pcaps = small_tree
        with tempfile.TemporaryDirectory() as tmp:
            dataset = Path(tmp) / "dataset"
            shutil.copytree(tree, dataset)
            for victim, position, value in edits:
                path = dataset / pcaps[victim % len(pcaps)]
                data = bytearray(path.read_bytes())
                data[position % len(data)] = value
                path.write_bytes(bytes(data))
            if cut is not None:
                path = dataset / pcaps[cut[0] % len(pcaps)]
                data = path.read_bytes()
                path.write_bytes(data[: cut[1] % (len(data) + 1)])
            features = Path(tmp) / "ingest" / "bursts.csv"
            for argv in (
                ["ingest", str(dataset), "--out", str(features.parent)],
                ["cluster", str(features), "--out", str(Path(tmp) / "cluster")],
                ["evaluate", str(features), "--d", "1", "--out", str(Path(tmp) / "evaluate")],
            ):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code == 0 or (code == 1 and err.getvalue().count("\n") == 1), (argv, err.getvalue())
                if code:
                    break
