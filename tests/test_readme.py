"""The README's Library example runs as written against the package."""

import re
from pathlib import Path

from probederand.synth import generate_scenario

from scenarios import mixed_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    generate_scenario(mixed_scenario(31, duration=60.0), tmp_path / "dataset")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["two-stage", "ie-only"]
