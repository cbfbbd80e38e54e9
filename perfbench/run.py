"""Benchmark of the probederand CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload twin-evaluate --seed 1 --seconds 25 --trace 0

Set-up generates the workload's capture tree from ``--seed`` with
``probederand.synth`` (several times; ``setup_s`` is the median). The
seed is taken modulo ``PINNED_SEEDS``, so every run's outputs are
checked against digests pinned in ``digests.json``. A child
process then runs the workload's CLI commands in a loop for
``--seconds`` and checks every iteration's outputs. With ``--trace 1``
the child runs half the time untraced and half with spans around every
layer call, and the run reports the per-layer figures instead.

Every metric is printed as ``metric <name> <value> <unit>``; the last
line is the JSON result whose metrics are those ``BENCHMARK.json``
lists for the chosen trace mode. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PINNED_SEEDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 170.0
SETUP_MIN_REPEATS = 3
# twin and mixed generate in ~70 ms: many repeats keep the median steady
SETUP_MIN_SECONDS = 4.0
# one BLAS thread: the runs share two cores, and thread scheduling would
# measure the machine rather than the program
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Metrics printed but not listed in BENCHMARK.json. The result line must
# carry the same metrics on every workload, none of them 0 and each steady
# across seeds within its bound: these belong to one command, can be 0, or
# (ingest_frames_per_s on the 50 ms ingest of twin and mixed) swing by
# more than the largest bound allowed between runs on a shared machine.
EXTRA_UNITS = {
    "ingest_frames_per_s": "frames/s",
    "cluster_bursts_per_s": "bursts/s",
    "evaluate_runs_per_s": "runs/s",
    "tune_evals_per_s": "evals/s",
    "v_measure_mean": "V",
    "count_abs_error": "clusters",
    "failed_ops_ratio": "failed/attempted",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def set_up(workload, seed: int, work: Path) -> tuple[Path, list[float], list[str]]:
    """Generate the capture tree repeatedly; keep the last copy. Only
    ``generate_scenario`` is timed."""
    from probederand.synth import generate_scenario

    scenario = workload.scenario(ROOT, seed)
    times: list[float] = []
    data = None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        if data is not None:
            shutil.rmtree(data)
        data = work / f"data{len(times)}"
        started = time.perf_counter()
        generate_scenario(scenario, data)
        times.append(time.perf_counter() - started)
    return data, times, [p.device_id for p in scenario.profiles]


def measure(name: str, seed: int, seconds: float, trace: int, timeout: float):
    """Set up, then run the measured child; (child result, set-up times,
    generator device ids). The work directory is removed afterwards."""
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data, setup_times, devices = set_up(WORKLOADS[name], seed, work)
        result_path = work / "result.json"
        command = [
            sys.executable, str(BENCH_DIR / "child.py"),
            "--workload", name,
            "--data", str(data), "--out", str(work / "out"),
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--devices", ",".join(devices), "--result", str(result_path),
        ]
        try:
            child = subprocess.run(
                command, env={**os.environ, **CHILD_ENV}, timeout=max(1.0, timeout)
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError("the measured run did not finish in time") from None
        if child.returncode != 0:
            raise RuntimeError(f"the measured run exited with {child.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8")), setup_times, devices
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(workload, result: dict, setup_times: list[float], devices: int) -> dict:
    iterations = result["iterations"]
    facts = result["facts"]

    def median_of(command: str) -> float:
        return statistics.median(it[command] for it in iterations)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(it.values()) for it in iterations),
        "peak_rss_mb": result["peak_rss_mb"],
        "ingest_frames_per_s": facts["frames"] / median_of("ingest"),
    }
    commands = {name for name, *_ in workload.commands}
    if "cluster" in commands:
        metrics["cluster_bursts_per_s"] = facts["bursts"] / median_of("cluster")
        metrics["count_abs_error"] = abs(facts["n_clusters"] - devices)
    if "evaluate" in commands:
        metrics["evaluate_runs_per_s"] = facts["protocol_runs"] / median_of("evaluate")
        metrics["v_measure_mean"] = facts["v_measure_mean"]
    if "tune" in commands:
        metrics["tune_evals_per_s"] = facts["tune_evals"] / median_of("tune")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.monotonic()

    for needed in ("src/probederand/cli.py", "tests/scenarios.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found under {ROOT}; run from a probederand checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = bench["per_layer" if args.trace else "end_to_end"]
    pins = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    seed = args.seed % PINNED_SEEDS
    try:
        result, setup_times, devices = measure(
            args.workload, seed, args.seconds, args.trace,
            DEADLINE_S - (time.monotonic() - started),
        )
    except RuntimeError as exc:
        return fail(str(exc))
    if result["facts"] is None:
        return fail("no iteration produced readable outputs: " + "; ".join(result["failures"]))

    failures = list(result["failures"])
    attempted = result["attempted"]
    pinned = pins.get(args.workload, {}).get(workload.pin_key(seed))
    attempted += 1
    if pinned is None:
        failures.append(f"no digests pinned for input seed {seed}")
    elif result["digests"] != pinned:
        failures.append(f"outputs differ from the digests pinned for input seed {seed}")
    failed = len(failures)

    metrics = end_to_end(workload, result, setup_times, len(devices))
    metrics["failed_ops_ratio"] = failed / attempted
    if args.trace:
        from tracer import layer_metrics

        traced_walls = [sum(it.values()) for it in result["traced_iterations"]]
        metrics.update(layer_metrics(result["spans"], traced_walls, metrics["wall_s"]))

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    print(f"workload {args.workload} seed {args.seed} input_seed {seed} trace {args.trace} "
          f"iterations {len(result['iterations'])}"
          f" traced_iterations {len(result.get('traced_iterations', []))}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for message in failures:
        print(f"failure {message}")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
