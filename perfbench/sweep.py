"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--traced 3] [--out FILE]

For every workload it makes one untraced run of ``run_seconds`` (from
``BENCHMARK.json``) per seed and, with
``--traced N``, a traced run for each of the first N seeds. Each metric
is summarised by its median, quartiles (``statistics.quantiles``, n=4)
and spread, the distance between the quartiles as a share of the
median. Writes the summary as JSON to ``--out`` when given; this is how
``perfbench/baseline.json`` is recorded. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH_DIR.parent,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    record = json.loads(lines[-1])
    record["metrics"] = {}
    record["units"] = {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            record["metrics"][name] = float(value)
            record["units"][name] = unit
        elif kind == "env":
            record["env"] = dict(item.split("=", 1) for item in rest.split(" "))
        elif kind == "failure":
            record.setdefault("failures", []).append(rest)
    return record


def summarise(records: list[dict]) -> dict:
    summary = {}
    for name in sorted(records[0]["metrics"]):
        values = [r["metrics"][name] for r in records]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": records[0]["units"][name],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    gated = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}

    report: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        untraced = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = [run_once(workload, seed, seconds, 1) for seed in seeds[: args.traced]]
        entry = {
            "failed": sum(r["failed"] for r in untraced + traced),
            "attempted": sum(r["attempted"] for r in untraced + traced),
            "end_to_end": summarise(untraced),
        }
        if traced:
            layers = summarise(traced)
            entry["per_layer"] = {
                name: {"unit": s["unit"], "median": s["median"]}
                for name, s in layers.items() if name in layer_names
            }
        report["env"] = untraced[0]["env"]
        report["workloads"][workload] = entry
        print(f"{workload}: failed {entry['failed']} of {entry['attempted']} operations")
        for name, s in entry["end_to_end"].items():
            bound = gated.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {name:24s} median {s['median']:.6g} {s['unit']:16s} "
                  f"spread {s['spread']:.4f}{flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
