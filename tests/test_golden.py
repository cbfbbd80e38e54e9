"""Golden outputs: every file the CLI writes, pinned byte for byte.

One small pinned scenario (three twin pairs plus six unique devices,
90 s) runs through ``generate``, ``ingest``, ``cluster``, ``evaluate``
and ``tune`` with the built-in defaults, so the header comment lines pin
the effective default configuration as well as the table rows.

Re-pin after an intended output change with ``python tests/test_golden.py``
from the repository root (``src`` on ``PYTHONPATH``).
"""

import json
from pathlib import Path

import pytest

from probederand.cli import main
from probederand.synth import scenario_to_dict

from scenarios import mixed_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = (
    "bursts.csv",
    "labeling.csv",
    "summary.json",
    "report_runs.csv",
    "report_summary.csv",
    "tuning.csv",
)


def run_pipeline(base: Path) -> Path:
    """Run every CLI command on the pinned scenario; return the output dir."""
    scenario_path = base / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(mixed_scenario(seed=31, duration=90.0))))
    dataset, out = base / "dataset", base / "out"
    features = str(out / "bursts.csv")
    commands = [
        ["generate", str(scenario_path), "--out", str(dataset)],
        ["ingest", str(dataset), "--out", str(out)],
        ["cluster", features, "--out", str(out)],
        ["evaluate", features, "--out", str(out), "--d", "2"],
        ["tune", features, "--out", str(out), "--eps-grid", "0.02,0.05", "--minpts-grid", "3,10", "--d", "2"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        produced = run_pipeline(Path(scratch))
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name in GOLDEN_FILES:
            (GOLDEN_DIR / name).write_bytes((produced / name).read_bytes())
    print(f"re-pinned {len(GOLDEN_FILES)} files under {GOLDEN_DIR}")
