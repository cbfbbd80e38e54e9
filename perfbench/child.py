"""The measured part of one benchmark run, in a process of its own so
that its peak RSS belongs to one workload.

Runs the workload's CLI command sequence on a prepared capture tree,
over and over until the time is up, checks every iteration's outputs,
and writes a JSON result (and, when traced, the spans) to ``--result``.

    python3 perfbench/child.py --workload mixed-tune --data DIR \
        --out DIR --seed 1 --seconds 10 --trace 0 --devices a,b --result FILE

``run.py`` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, body_digest, output_facts

ROOT = Path(__file__).resolve().parent.parent


class Runner:
    def __init__(self, cli, workload, data: Path, out: Path, seed: int,
                 expected_devices: list[str]):
        self.cli = cli
        self.workload = workload
        self.argvs = workload.argvs(data, out, seed)
        self.out = out
        self.expected_devices = expected_devices
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict | None = None
        self.facts: dict | None = None

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def command(self, name: str, argv: list[str]) -> float:
        sink = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not the end of the run
            code = "an exception"
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - started
        self.check(code == 0, f"{name} exited with {code}: {sink.getvalue()[-300:]}")
        return elapsed

    def iteration(self, tracer=None) -> dict[str, float]:
        times = {}
        for name, argv in self.argvs:
            if tracer is None:
                times[name] = self.command(name, argv)
            else:
                with tracer.span(f"cli.{name}"):
                    times[name] = self.command(name, argv)
        self.verify()
        return times

    def verify(self) -> None:
        """Oracle checks and output digests of the iteration just run."""
        try:
            digests = {name: body_digest(self.out / name) for name in self.workload.outputs}
            facts = output_facts(self.workload, self.out)
        except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
            self.check(False, f"unreadable outputs: {exc!r}")
            return
        self.check(
            facts["devices"] == self.expected_devices,
            "ingest did not recover the generator's device set",
        )
        if self.reference is None:
            self.reference, self.facts = digests, facts
        else:
            self.check(digests == self.reference, "outputs differ between iterations")

    def phase(self, seconds: float, tracer=None) -> list[dict[str, float]]:
        """Iterations until ``seconds`` have passed (at least one)."""
        iterations = []
        started = time.perf_counter()
        while not iterations or time.perf_counter() - started < seconds:
            if tracer is not None:
                tracer.iteration = len(iterations)
            iterations.append(self.iteration(tracer))
        return iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--devices", required=True, help="comma-separated generator device ids")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import probederand
    from probederand import cli

    from tracer import Tracer

    runner = Runner(cli, WORKLOADS[args.workload], args.data, args.out, args.seed,
                    sorted(args.devices.split(",")))
    # warm-up: imports, first-call set-up and the page cache of the captures
    runner.command("ingest", runner.argvs[0][1])

    result: dict = {}
    if args.trace:
        result["iterations"] = runner.phase(args.seconds / 2)
        untraced = runner.reference
        tracer = Tracer()
        runner.reference = None
        with tracer.installed(probederand):
            result["traced_iterations"] = runner.phase(args.seconds / 2, tracer)
        runner.check(runner.reference == untraced, "traced outputs differ from untraced")
        result["spans"] = tracer.records()
    else:
        result["iterations"] = runner.phase(args.seconds)
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        digests=runner.reference,
        facts=runner.facts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
