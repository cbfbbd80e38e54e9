"""Command-line driver: subcommands, exit codes, reproducible outputs."""

import contextlib
import csv
import io
import json
import os
import shutil
import struct
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probederand import __version__, cli, metrics
from probederand.cli import DEFAULTS, main
from probederand.clustering import (
    DbscanConfig,
    KmeansConfig,
    n_clusters,
    two_stage_labelings,
    write_labeling_file,
)
from probederand.features import group_bursts, read_feature_file, write_feature_file
from probederand.metrics import (
    EvalConfig,
    run_protocol,
    write_report_files,
)
from probederand.pcap import mac_to_str
from probederand.synth import DeviceProfile, IeTemplate, Scenario, generate_scenario, scenario_to_dict

from oracles import Frame, frame_table, reference_read_feature_file, table_rows
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


def assert_usage_error(argv, capsys):
    """``main(argv)`` returns 2 and prints one ``error:`` line, returned."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestExitCodes:
    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        err = assert_usage_error(["ingest", str(missing), "--out", str(tmp_path / "o")], capsys)
        assert f"path does not exist: {missing}" in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_is_usage_error(self, workspace, tmp_path, capsys):
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o")]
        missing = tmp_path / "nowhere.json"
        err = assert_usage_error([*argv, "--config", str(missing)], capsys)
        assert f"config file {missing}: " in err and "No such file" in err
        assert not (tmp_path / "o").exists()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert "subcommand" in assert_usage_error([], capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "{features}", "--out", "{out}", "--bogus"],
            ["evaluate", "{features}", "--out", "{out}", "--d", "abc"],
            ["cluster", "{features}"],
            [],
            ["cluster", "{tmp}/nowhere.csv", "--out", "{out}"],
            ["cluster", "{features}", "--out", "{out}", "--config", "{tmp}/nowhere.json"],
            ["cluster", "{features}", "--out", "{out}", "--config", "{tmp}"],
        ],
        ids=["unknown-flag", "bad-int", "no-out", "no-subcommand", "missing-input",
             "missing-config", "config-is-a-directory"],
    )
    def test_usage_error_is_one_line(self, workspace, tmp_path, capsys, argv):
        """argparse's errors, paths and unreadable config files end like
        every other usage error: exit 2, one line, nothing written."""
        fill = {"features": workspace["features"], "out": tmp_path / "o", "tmp": tmp_path}
        assert_usage_error([arg.format(**fill) for arg in argv], capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["cluster", "--help"]], ids=" ".join)
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out

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
        err = assert_usage_error([command, str(source), "--out", str(tmp_path / "o"), flag, value], capsys)
        assert f"unrecognized arguments: {flag}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["{file}", "{file}/sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["ingest", "cluster", "evaluate", "tune", "generate"])
    def test_out_under_a_file_is_usage_error_before_the_work(
        self, workspace, tmp_path, capsys, monkeypatch, command, out
    ):
        """An ``--out`` that cannot become a directory is rejected as a
        usage error naming ``--out`` before any input is read."""

        def refuse(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        for name in ("read_dataset", "read_feature_file", "run_protocol", "tune_dbscan", "generate_scenario"):
            monkeypatch.setattr(cli, name, refuse)
        existing = tmp_path / "file"
        existing.write_text("x")
        source = workspace[{"ingest": "dataset", "generate": "scenario"}.get(command, "features")]
        grids = ["--eps-grid", "0.05", "--minpts-grid", "5"] if command == "tune" else []
        argv = [command, str(source), "--out", out.format(file=existing), *grids]
        assert assert_usage_error(argv, capsys).startswith("error: argument --out: ")
        assert existing.read_text() == "x"


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

    @pytest.mark.parametrize("vector", ["1;256;6", "1;" + "9" * 400 + ";6"], ids=["256", "beyond-float"])
    def test_channel_entry_beyond_a_byte_is_one_line(self, workspace, tmp_path, capsys, vector):
        """Channel numbers fit a byte; an entry too large for a float once
        ended in a traceback from ``pad_matrix``."""
        broken = tmp_path / "huge.csv"
        lines = workspace["features"].read_text().splitlines()
        fields = lines[2].split(",")
        fields[3], fields[-1] = "3", vector
        lines[2] = ",".join(fields)
        broken.write_text("\n".join(lines) + "\n")
        assert main(["cluster", str(broken), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {broken}:3: ") and err.count("\n") == 1
        assert "0..255" in err

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


    def test_long_burst_round_trips(self, tmp_path, capsys):
        """A fixed-MAC device probing every second for 70 000 frames makes
        one burst whose channel_vector field is over csv's default limit
        of 131 072 characters: ``cluster`` reads it back and exits 0."""
        mac = b"\x02\x00\x00\x00\x00\x01"
        frames = [Frame(float(i), mac, (1, 6, 11)[i % 3], 0, b"") for i in range(70_000)]
        path = tmp_path / "bursts.csv"
        write_feature_file(group_bursts(frame_table(frames), 2.0, ["phone"] * len(frames)), path)
        assert main(["cluster", str(path), "--out", str(tmp_path / "o")]) == 0
        assert "clusters: 0  noise bursts: 1" in capsys.readouterr().out


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

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("ingest", {"gap_seconds"}),
            ("cluster", {"eps", "min_pts", "k_max", "method", "seed"}),
            ("evaluate", {"eps", "min_pts", "k_max", "d", "jobs", "seed"}),
            ("tune", {"d", "seed"}),
        ],
    )
    def test_settings_flags_are_named_and_typed_by_defaults(self, workspace, tmp_path, command, keys):
        """Each command's settings flags are ``--`` plus these keys with
        ``-`` for ``_``; an absent flag parses as None, a given one as a
        value of its default's type."""
        source = workspace["dataset" if command == "ingest" else "features"]
        argv = [command, str(source), "--out", str(tmp_path / "o")]
        if command == "tune":
            argv += ["--eps-grid", "0.05", "--minpts-grid", "5"]
        parse = cli.build_parser().parse_args
        absent = vars(parse(argv))
        assert {k: absent[k] for k in DEFAULTS if k in absent} == dict.fromkeys(keys)
        flags = [arg for k in keys for arg in ("--" + k.replace("_", "-"), str(DEFAULTS[k]))]
        given = vars(parse(argv + flags))
        for k in keys:
            assert (given[k], type(given[k])) == (DEFAULTS[k], type(DEFAULTS[k]))


class TestUsageErrors:
    """Bad configuration or too little input ends with exit 2 and one line."""

    @pytest.mark.parametrize(
        "content, message",
        # d belongs to evaluate and tune; cluster checks it all the same.
        [
            pytest.param('{"eps": "0.1"}', "eps must be a float, not '0.1'", id='{"eps": "0.1"}'),
            pytest.param('{"min_pts": 2.5}', "min_pts must be an int, not 2.5", id='{"min_pts": 2.5}'),
            pytest.param('{"k_max": true}', "k_max must be an int, not True", id='{"k_max": true}'),
            pytest.param('{"d": "ten"}', "d must be an int, not 'ten'", id='{"d": "ten"}'),
            # a long value is cut short, so the line stays short
            pytest.param(json.dumps({"eps": [0] * 10000}), "eps must be a float, not [0, 0, 0, 0, 0, 0, ...]\n",
                         id='{"eps": [0, ...]}'),
        ],
    )
    def test_config_value_of_wrong_type(self, workspace, tmp_path, capsys, content, message):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o"), "--config", str(config)]
        assert message in assert_usage_error(argv, capsys)

    def test_config_that_is_not_an_object(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o"), "--config", str(config)]
        assert "JSON object" in assert_usage_error(argv, capsys)

    def test_config_that_is_not_json(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{eps: 0.1}")
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o"), "--config", str(config)]
        assert_usage_error(argv, capsys)

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
        assert_usage_error([command[0], str(source), "--out", str(tmp_path / "o"), *command[1:]], capsys)

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
        assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "command, content, message",
        [
            ("cluster", '{"jobs": 0}', "jobs must be at least 1"),
            ("cluster", '{"d": 0}', "d must be at least 1"),
            ("cluster", '{"gap_seconds": -1.0}', "gap_seconds must be positive"),
            ("ingest", '{"jobs": 0}', "jobs must be at least 1"),
            ("ingest", '{"d": 0}', "d must be at least 1"),
            ("ingest", '{"k_max": 0}', "k_max must be at least 1"),
            ("ingest", '{"min_pts": 0}', "min_pts must be at least 1"),
            ("ingest", '{"method": "bogus"}', "method must be one of"),
            ("evaluate", '{"gap_seconds": 0}', "gap_seconds must be positive"),
            ("tune", '{"eps": 0}', "eps must be positive"),
            ("tune", '{"seed": 5, "jobs": -2}', "jobs must be at least 1"),
        ],
    )
    def test_config_range_checked_by_every_command(
        self, workspace, tmp_path, capsys, command, content, message
    ):
        """Every command range-checks every key of the file, also keys
        it has no flag for, and names the file; nothing is written."""
        config = tmp_path / "cfg.json"
        config.write_text(content)
        source = workspace["dataset" if command == "ingest" else "features"]
        argv = [command, str(source), "--out", str(tmp_path / "o"), "--config", str(config)]
        if command == "tune":
            argv += ["--eps-grid", "0.05", "--minpts-grid", "5"]
        err = assert_usage_error(argv, capsys)
        assert f"config file {config}: {message}" in err
        assert not (tmp_path / "o").exists()

    def test_bad_method_flag_gets_the_config_message(self, workspace, tmp_path, capsys):
        """``--method`` is range-checked where a config file's method is."""
        argv = ["cluster", str(workspace["features"]), "--out", str(tmp_path / "o"), "--method", "bogus"]
        err = assert_usage_error(argv, capsys)
        assert err == "error: method must be one of two-stage, ie-only, got 'bogus'\n"
        assert not (tmp_path / "o").exists()

    def test_flag_does_not_excuse_a_bad_config_value(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"jobs": 0}')
        argv = ["evaluate", str(workspace["features"]), "--out", str(tmp_path / "o"),
                "--config", str(config), "--jobs", "1"]
        assert "jobs must be at least 1" in assert_usage_error(argv, capsys)

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
        assert f"unknown key {key} " in assert_usage_error(argv, capsys)
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
        assert "at least 2 labelled devices" in assert_usage_error(argv, capsys)


class TestJobs:
    @pytest.fixture
    def executor(self, monkeypatch):
        """Stands in for ProcessPoolExecutor and runs tasks in-process,
        recording each executor's worker count and the tasks it maps.
        The process may run on every CPU ``os.cpu_count`` reports, so a
        test that patches that alone sets the usable CPUs too."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(os.cpu_count())), raising=False)
        record = types.SimpleNamespace(started=[], mapped=[])

        class RecordingExecutor:
            def __init__(self, max_workers):
                record.started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                record.mapped.append(list(tasks))
                return map(fn, record.mapped[-1])

        monkeypatch.setattr(metrics, "ProcessPoolExecutor", RecordingExecutor)
        return record

    @pytest.mark.parametrize("requested, cpus, workers", [(64, 2, 2), (2, 4, 2), (3, 1, None), (1, 4, None), (2, 1, None)])
    def test_clamped_to_cpu_count(self, workspace, tmp_path, monkeypatch, executor, requested, cpus, workers):
        """The machine reports four CPUs, of which the process may run on
        ``cpus``: workers are capped by the latter."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        argv = ["evaluate", str(workspace["features"]), "--out", str(tmp_path / "o"), "--d", "1"]
        assert main(argv + ["--jobs", str(requested)]) == 0
        # one executor per evaluate, or none when the runs stay serial
        assert executor.started == ([] if workers is None else [workers])

    def test_cpu_count_where_affinity_is_unknown(self, workspace, tmp_path, monkeypatch, executor):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        argv = ["evaluate", str(workspace["features"]), "--out", str(tmp_path / "o"), "--d", "1"]
        assert main(argv + ["--jobs", "2"]) == 0
        assert executor.started == []

    def test_worker_chunks_match_serial(self, workspace, monkeypatch, executor):
        """Each worker gets every jobs-th draw as one task (one fine-stage
        cache per worker), and the reports equal a serial run's."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        bursts = read_feature_file(workspace["features"])
        args = (bursts, EvalConfig(d=3, seed=4), DbscanConfig(min_pts=3), KmeansConfig())
        serial = run_protocol(*args, jobs=1)
        assert executor.started == []
        assert run_protocol(*args, jobs=2) == serial
        (chunks,) = executor.mapped
        draws = [(r.p, r.subset_index) for r in serial["two-stage"]]
        assert [[(p, s) for p, s, *_ in chunk] for chunk in chunks] == [draws[0::2], draws[1::2]]


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

    @pytest.mark.parametrize(
        "command", [["evaluate"], ["tune", "--eps-grid", "0.05", "--minpts-grid", "5"]], ids=lambda c: c[0]
    )
    def test_unlabeled_features_rejected(self, workspace, tmp_path, capsys, command):
        """Input without labels is a processing error, not a usage error."""
        stripped = tmp_path / "unlabeled.csv"
        lines = workspace["features"].read_text().splitlines()
        header_at = 1 if lines[0].startswith("#") else 0
        rows = [lines[header_at]]
        for row in lines[header_at + 1 :]:
            fields = row.split(",")
            fields[2] = ""
            rows.append(",".join(fields))
        stripped.write_text("\n".join(rows) + "\n")
        assert main([command[0], str(stripped), "--out", str(tmp_path / "x"), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: burst ") and "ground-truth" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [["cluster"], ["evaluate"], ["tune", "--eps-grid", "0.05", "--minpts-grid", "5"]],
        ids=lambda c: c[0],
    )
    def test_feature_file_not_utf8_is_one_line(self, workspace, tmp_path, capsys, command):
        """A 0xff byte in a comment before the header is reported as one
        line naming the file, with exit 1."""
        broken = tmp_path / "latin.csv"
        broken.write_bytes(b"# caf\xff\n" + workspace["features"].read_bytes())
        assert main([command[0], str(broken), "--out", str(tmp_path / "x"), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {broken}: not UTF-8 text (cannot decode byte 0xff: invalid start byte)\n"

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

    @pytest.mark.parametrize(
        "eps_grid, minpts_grid",
        [("0.05,\n0.1", "5"), ("0.05", "5\r"), ("\r\n0.05", "5,10")],
        ids=["newline-in-eps", "cr-in-min-pts", "crlf-first"],
    )
    def test_line_break_in_grid_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, eps_grid, minpts_grid
    ):
        """``float`` and ``int`` read past a line break, but the header
        comment that records the grids is one line: the grid is refused
        before any clustering and nothing is written."""
        monkeypatch.setattr(cli, "tune_dbscan", lambda *args: pytest.fail("the grid was clustered"))
        argv = ["tune", str(workspace["features"]), "--out", str(tmp_path / "o"),
                "--eps-grid", eps_grid, "--minpts-grid", minpts_grid]
        assert "line break" in assert_usage_error(argv, capsys)
        assert not (tmp_path / "o").exists()


class TestGenerate:
    def test_refuses_nonempty_output(self, workspace, tmp_path):
        target = tmp_path / "exists"
        target.mkdir()
        (target / "file").write_text("x")
        assert main(["generate", str(workspace["scenario"]), "--out", str(target)]) == 1

    def test_timestamp_past_pcap_seconds_is_one_line(self, tmp_path, capsys):
        """A burst at 5e9 s lies past pcap's unsigned 32-bit seconds; the
        error names the capture, and the partial tree is removed."""
        path = tmp_path / "scenario.json"
        profile = {"device_id": "a", "pnl_pattern": [1, 6], "burst_length": 2, "inter_burst_interval": 2.5e9}
        path.write_text(json.dumps({"duration": 6e9, "profiles": [profile]}))
        assert main(["generate", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: device a, channel 1: timestamp out of range: 5000000000.0\n"
        assert list((tmp_path / "o").iterdir()) == []

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
            (lambda data: data["profiles"][0].update(burst_length={"uniform": [5, 2]}), "burst_length"),
            (
                lambda data: data["profiles"][0].update(inter_burst_interval={"uniform": [9.0, 3.0]}),
                "inter_burst_interval",
            ),
            # a value of another JSON type than its field's is not cast
            (
                lambda data: data["profiles"][0].update(randomize_mac="false"),
                "randomize_mac must be a bool, not 'false'",
            ),
            (lambda data: data.update(seed=1.9), "seed must be an int, not 1.9"),
            (lambda data: data["profiles"][0].update(burst_length=8.7), "burst_length must be an int, not 8.7"),
            (
                lambda data: data["profiles"][0].update(pnl_pattern=[1.5, 6]),
                "pnl_pattern must be an int, not 1.5",
            ),
            (lambda data: data.update(duration=True), "duration must be a float, not True"),
            (lambda data: data["profiles"][0].update(device_id=5), "device_id must be a str, not 5"),
            # the ie object follows the same rule: a hex body is a string, a bad one names its key
            (lambda data: data["profiles"][0]["ie"].update(ht=5), "ht must be a str, not 5"),
            (
                lambda data: data["profiles"][0]["ie"].update(vendor="0050f208"),
                "vendor must be a list, not '0050f208'",
            ),
            (lambda data: data["profiles"][0]["ie"].update(vendor=""), "vendor must be a list, not ''"),
            (
                lambda data: data["profiles"][0]["ie"].update(vendor=["0050f2zz"]),
                "vendor: non-hexadecimal",
            ),
            (lambda data: data["profiles"][0].update(ie=None), "ie must be a JSON object, not None"),
            (lambda data: data["profiles"][0].update(ie=[1]), "ie must be a JSON object, not [1]"),
            # every object holds only its known keys, as a config file does
            (lambda data: data["profiles"][0].update(burst_lenght=3), "unknown key 'burst_lenght' (known keys: "),
            (lambda data: data.update(sniffers=[1]), "unknown key 'sniffers' (known keys: "),
            (lambda data: data.update(duration=[0] * 10000), "duration must be a float, not [0, 0, 0, 0, 0, 0, ...]\n"),
            (lambda data: data["profiles"][0]["ie"].update(vht="00"), "unknown key 'vht' (known keys: "),
            (lambda data: data.update(profiles={"a": 1}), "profiles must be a list, not {'a': 1}"),
            (lambda data: data["profiles"].__setitem__(0, [1]), "profiles[0] must be a JSON object, not [1]"),
            (
                lambda data: data["profiles"][0].update(burst_length={"fixed": 3, "uniform": [1]}),
                "burst_length must be {'fixed': x} or {'uniform': [a, b]}",
            ),
            (
                lambda data: data["profiles"][0].update(burst_length={"uniform": "ab"}),
                "burst_length must be a list, not 'ab'",
            ),
            (
                lambda data: data["profiles"][0].update(inter_burst_interval={"fixd": 3.0}),
                "unknown key 'fixd' (known keys: fixed, uniform)",
            ),
        ],
        ids=["not-an-object", "no-profiles", "no-duration", "no-device-id", "no-pnl-pattern",
             "one-bound-uniform", "bad-hex", "long-body", "escaping-device-id",
             "sniffer-channel-out-of-range", "reversed-burst-length", "reversed-interval",
             "string-bool", "float-seed", "float-burst-length", "float-channel", "bool-duration",
             "int-device-id", "int-ht", "string-vendor", "empty-string-vendor", "bad-hex-vendor",
             "null-ie", "list-ie", "unknown-profile-key", "unknown-scenario-key", "long-value", "unknown-ie-key",
             "object-profiles", "list-profile", "fixed-and-uniform", "string-uniform",
             "unknown-distribution-key"],
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
        labels = set(read_feature_file(workspace["features"]).truth_devices)
        assert labels == {"uniq0", "uniq1", "uniq2", "uniq3"}

    def test_device_name_with_a_line_break_goes_through(self, small_tree, tmp_path):
        """A device directory named ``dev\\nx`` is ingested, clustered and
        evaluated: its quoted name spans two lines of each file, and the
        reader takes the quoted field whole."""
        dataset = tmp_path / "dataset"
        shutil.copytree(small_tree[0], dataset)
        renamed = sorted(p for p in dataset.iterdir() if p.is_dir())[0]
        renamed.rename(dataset / "dev\nx")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ingest", str(dataset), "--out", str(tmp_path / "ingest")]) == 0
            features = str(tmp_path / "ingest" / "bursts.csv")
            assert main(["cluster", features, "--out", str(tmp_path / "cluster")]) == 0
            assert main(["evaluate", features, "--d", "1", "--out", str(tmp_path / "evaluate")]) == 0
        assert "dev\nx" in set(read_feature_file(features).truth_devices)
        with open(tmp_path / "cluster" / "labeling.csv", encoding="utf-8", newline="") as fh:
            named = {row[2] for row in csv.reader(fh) if len(row) == 5}
        assert "dev\nx" in named

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
        (k,) = [b.burst_id for b in table_rows(read_feature_file(out / "bursts.csv")) if mac_to_str(b.source_mac) == mac]
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


@pytest.fixture(scope="module")
def small_features(small_tree, tmp_path_factory):
    """The small capture tree's feature file."""
    out = tmp_path_factory.mktemp("fuzz-ingest")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", str(small_tree[0]), "--out", str(out)]) == 0
    return out / "bursts.csv"


# Random JSON values: integers, integers beyond a float's range, floats
# with NaN and infinities, and values of the wrong kind.
CONFIG_VALUES = st.one_of(
    st.integers(),
    st.integers(min_value=1).map(lambda n: n * 10**400),
    st.floats(),
    st.text(max_size=8) | st.booleans() | st.none() | st.lists(st.integers(), max_size=2),
)


class TestNeverATraceback:
    @given(st.dictionaries(st.sampled_from(sorted(DEFAULTS)), CONFIG_VALUES, min_size=1, max_size=2))
    @example({"eps": 10**400})  # once an OverflowError inside DBSCAN
    @settings(max_examples=50, deadline=None)
    def test_random_config_values_end_in_exit_0_or_usage_error(self, small_features, config):
        """A config file of random values, NaN, infinities and integers
        beyond a float included, never escapes ``main`` as a traceback
        through ``cluster``, nor is it a processing error: the command
        exits 0, or 2 with a single ``error:`` line."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(
                    ["cluster", str(small_features), "--out", str(Path(tmp) / "o"), "--config", str(path)]
                )
        lines = err.getvalue().splitlines()
        assert code == 0 or (code == 2 and len(lines) == 1 and lines[0].startswith("error: ")), (config, lines)

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


def mutate_feature_lines(lines, edits):
    """``lines`` of a feature file (comment, header, rows) after each
    (kind, row, column, other row) edit; the row indices wrap over the
    data rows, so the blank and comment lines that earlier edits insert
    are never edited as rows."""
    lines = list(lines)
    for kind, row, column, other in edits:
        rows = [i for i in range(2, len(lines)) if lines[i].strip() and not lines[i].startswith("#")]
        if kind == "header-only":
            del lines[2:]
            continue
        if not rows:
            continue
        at, partner = rows[row % len(rows)], rows[other % len(rows)]
        fields = lines[at].split(",")
        if kind == "quote":
            fields[column % len(fields)] = f'"{fields[column % len(fields)]}"'
        elif kind == "blank":
            lines.insert(at, " " * (column % 3))
            continue
        elif kind == "comment":
            lines.insert(at, "# a comment")
            continue
        elif kind in ("hex-octet", "underscore-octet"):
            octets = fields[1].split(":")
            octets[column % 6] = "0x1a" if kind == "hex-octet" else "1_0"
            fields[1] = ":".join(octets)
        elif kind == "repeat-id":
            fields[0] = lines[partner].split(",")[0]
        elif kind == "swap":
            lines[at], lines[partner] = lines[partner], lines[at]
            continue
        elif kind == "wrong-L":
            # an earlier "quote" edit may have quoted L
            fields[3] = str(int(fields[3].strip('"')) + 1 + column % 2)
        elif kind == "over-limit":
            # three characters an entry: 44 000 of them pass 131 072
            fields[3], fields[7] = "44000", ";".join(["11"] * 44_000)
        lines[at] = ",".join(fields)
    return lines


FEATURE_EDITS = st.tuples(
    st.sampled_from(
        ["quote", "blank", "comment", "hex-octet", "underscore-octet", "repeat-id", "swap", "wrong-L",
         "header-only", "over-limit"]
    ),
    st.integers(0, 63),
    st.integers(0, 7),
    st.integers(0, 63),
)


class TestMutatedFeatureFiles:
    @given(st.lists(FEATURE_EDITS, min_size=1, max_size=4))
    @example([("header-only", 0, 0, 0)])
    @example([("over-limit", 0, 0, 0)])
    @example([("swap", 0, 0, 5), ("hex-octet", 3, 1, 0), ("underscore-octet", 4, 2, 0)])
    @example([("quote", 1, 7, 0), ("blank", 2, 1, 0), ("comment", 2, 0, 0)])
    @example([("repeat-id", 1, 0, 2)])
    @example([("wrong-L", 1, 0, 0)])
    @example([("quote", 0, 3, 0), ("wrong-L", 0, 0, 0)])
    @settings(max_examples=40, deadline=None)
    def test_end_in_exit_0_or_one_line(self, small_features, edits):
        """A mutated feature file never escapes ``main`` as a traceback
        through ``cluster`` and ``evaluate --d 1``: each exits 0, or 1 or
        2 with a single ``error:`` line. The reader's table holds the
        rows of the per-line reference reader, in id order, or both
        raise the same message."""
        lines = small_features.read_text(encoding="utf-8").splitlines()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bursts.csv"
            path.write_text("\n".join(mutate_feature_lines(lines, edits)) + "\n", encoding="utf-8")
            for argv in (
                ["cluster", str(path), "--out", str(Path(tmp) / "cluster")],
                ["evaluate", str(path), "--d", "1", "--out", str(Path(tmp) / "evaluate")],
            ):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                printed = err.getvalue().splitlines()
                assert code == 0 or (
                    code in (1, 2) and len(printed) == 1 and printed[0].startswith("error: ")
                ), (argv, printed)
            try:
                want = sorted(reference_read_feature_file(path))
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    read_feature_file(path)
                assert str(raised.value) == str(exc)
            else:
                assert table_rows(read_feature_file(path)) == want
