"""The README's Library example and command-line block run as written
against the package, and every name the package exports resolves."""

import json
import re
import shlex
from pathlib import Path

import probederand
from probederand import cli
from probederand.synth import generate_scenario, scenario_from_dict, scenario_to_dict

from scenarios import mixed_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ``language`` block after ``heading``."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"README's {heading!r} section has no {language} block"
    return match.group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    generate_scenario(mixed_scenario(31, duration=60.0), tmp_path / "dataset")
    monkeypatch.chdir(tmp_path)
    example = code_block("## Library", "python")
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["two-stage", "ie-only"]


def test_command_line_block_runs(tmp_path, monkeypatch):
    """Each ``probederand`` line exits 0 and writes the files its
    comment names into its ``--out`` directory."""
    scenario = scenario_to_dict(mixed_scenario(31, duration=60.0))
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [
        line.partition("#")
        for line in code_block("## Command line", "sh").splitlines()
        if line.startswith("probederand ")
    ]
    assert [shlex.split(command)[1] for command, _, _ in commands] == [
        "generate", "ingest", "cluster", "evaluate", "tune",
    ]
    for command, _, comment in commands:
        argv = shlex.split(command)[1:]
        assert cli.main(argv) == 0, command
        out = Path(argv[argv.index("--out") + 1])
        named = re.findall(r"[\w/]+\.(?:csv|json)", comment)
        assert named, f"the comment on {command!r} names no file"
        for name in named:
            assert (out / Path(name).name).is_file(), f"{command!r} wrote no {name}"


def test_scenario_example_round_trips():
    """The "Scenario files" example is a scenario the reader takes, and
    the writer gives it back unchanged."""
    example = json.loads(code_block("### Scenario files", "json"))
    assert scenario_to_dict(scenario_from_dict(example)) == example


def test_command_line_defaults_are_the_cli_defaults():
    """The defaults listed under "Command line", as ``key=value``, are
    ``cli.DEFAULTS``, every key once."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```", 1)[0]
    listed = re.findall(r"`(\w+)=([^`]+)`", text)
    assert listed == [(k, str(v)) for k, v in cli.DEFAULTS.items()]


def test_every_exported_name_resolves():
    assert "BurstTable" in probederand.__all__
    for name in probederand.__all__:
        assert hasattr(probederand, name), name
