"""Pin the output digests of every workload for each of its input seeds.

    python3 perfbench/pin.py

Runs one iteration per workload and input seed (``0`` to
``PINNED_SEEDS - 1``; one set for a workload whose inputs are fixed) and
writes the SHA-256 of every output file's body (without the ``#`` header
line) to ``perfbench/digests.json``. A run counts a mismatch with its
pinned digests as a failed operation. Re-pin only in a change that is
meant to alter outputs, and say so in that change. Run from the
repository root.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, ROOT, measure
from workloads import PINNED_SEEDS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    pins: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in range(PINNED_SEEDS) if workload.seeded else [0]:
            result, _, _ = measure(name, seed, 1e-3, 0, timeout=600.0)
            if result["failures"]:
                raise SystemExit(f"{name} seed {seed}: {result['failures']}")
            pins.setdefault(name, {})[workload.pin_key(seed)] = result["digests"]
            print(f"{name} seed {seed} pinned", flush=True)
    path = BENCH_DIR / "digests.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
