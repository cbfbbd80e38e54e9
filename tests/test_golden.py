"""Golden outputs: every file the CLI writes, pinned byte for byte.

Three small pinned scenarios run through ``generate``, ``ingest``,
``cluster`` and ``evaluate --d 2`` with the built-in defaults, so the
header comment lines pin the effective default configuration as well
as the table rows. ``ingest.txt`` pins what ``ingest`` prints (parse
diagnostics and the IE-instability audit), with the dataset and output
directories written as ``<dataset>`` and ``<out>``:

* mixed: three twin pairs plus six unique devices, 90 s; it also runs
  ``tune`` (files directly under ``golden/``);
* twin: seven jitter-free twin pairs, 90 s (``golden/twin/``);
* twin-jitter: the same pairs with channel jitter 0.05
  (``golden/twin-jitter/``).

``generate_sha256.json`` pins what ``generate`` writes for each of them:
the SHA-256 of every file of the dataset tree (each capture and
``manifest.json``), so the capture bytes themselves (timestamps,
sequence numbers, Radiotap headers) are pinned as well as what
``ingest`` reads from them.

The twin scenarios pin the k-means path: every coarse pool holds a twin
pair that only the fine stage can split.

Re-pin after an intended output change with ``python tests/test_golden.py``
from the repository root (``src`` on ``PYTHONPATH``).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from probederand.cli import main
from probederand.synth import scenario_to_dict

from scenarios import mixed_scenario, twin_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
GENERATE_DIGESTS = Path(__file__).parent / "generate_sha256.json"
GOLDEN_FILES = (
    "ingest.txt",
    "bursts.csv",
    "labeling.csv",
    "summary.json",
    "report_runs.csv",
    "report_summary.csv",
    "tuning.csv",
)
TWIN_FILES = GOLDEN_FILES[:-1]

# name -> (scenario, golden directory, pinned files, whether to run tune)
SCENARIOS = {
    "mixed": (lambda: mixed_scenario(seed=31, duration=90.0), GOLDEN_DIR, GOLDEN_FILES, True),
    "twin": (
        lambda: twin_scenario(424242, duration=90.0, jitter=0.0),
        GOLDEN_DIR / "twin",
        TWIN_FILES,
        False,
    ),
    "twin-jitter": (
        lambda: twin_scenario(424242, duration=90.0, jitter=0.05),
        GOLDEN_DIR / "twin-jitter",
        TWIN_FILES,
        False,
    ),
}


def run_pipeline(name: str, base: Path) -> Path:
    """Run the CLI commands on one pinned scenario; return the output dir."""
    build, _, _, tune = SCENARIOS[name]
    scenario_path = base / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(build())))
    dataset, out = base / "dataset", base / "out"
    features = str(out / "bursts.csv")
    commands = [
        ["generate", str(scenario_path), "--out", str(dataset)],
        ["ingest", str(dataset), "--out", str(out)],
        ["cluster", features, "--out", str(out)],
        ["evaluate", features, "--out", str(out), "--d", "2"],
    ]
    if tune:
        commands.append(
            ["tune", features, "--out", str(out), "--eps-grid", "0.02,0.05", "--minpts-grid", "3,10", "--d", "2"]
        )
    for argv in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, argv
        if argv[0] == "ingest":
            printed = stdout.getvalue().replace(str(dataset), "<dataset>").replace(str(out), "<out>")
            (out / "ingest.txt").write_text(printed, encoding="utf-8")
    return out


def file_digests(root: Path) -> dict:
    """SHA-256 of every file under ``root``, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Output directory of a scenario, each scenario run once per module."""
    cache = {}

    def get(name: str) -> Path:
        if name not in cache:
            cache[name] = run_pipeline(name, tmp_path_factory.mktemp(name))
        return cache[name]

    return get


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(produced, name):
    assert (produced("mixed") / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", TWIN_FILES)
@pytest.mark.parametrize("scenario", ("twin", "twin-jitter"))
def test_twin_output_matches_golden(produced, scenario, name):
    golden = SCENARIOS[scenario][1]
    assert (produced(scenario) / name).read_bytes() == (golden / name).read_bytes()


@pytest.mark.parametrize("scenario", tuple(SCENARIOS))
def test_generated_files_match_golden_digests(produced, scenario):
    dataset = produced(scenario).parent / "dataset"
    assert file_digests(dataset) == json.loads(GENERATE_DIGESTS.read_text())[scenario]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for scenario, (_, golden, files, _) in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as scratch:
            out = run_pipeline(scenario, Path(scratch))
            golden.mkdir(exist_ok=True)
            for name in files:
                (golden / name).write_bytes((out / name).read_bytes())
            digests[scenario] = file_digests(out.parent / "dataset")
        print(f"re-pinned {len(files)} files under {golden}")
    GENERATE_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"re-pinned {sum(map(len, digests.values()))} digests in {GENERATE_DIGESTS}")
