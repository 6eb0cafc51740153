"""Check that a traced run's counts repeat exactly for one seed.

Run from the repository root::

    python3 perfbench/determinism.py --seed 1 [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload and compares every count
metric.  A count that differs is a benchmark bug.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    ).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {
        name: entry["value"] for name, entry in metrics.items()
        if entry["unit"] == "count"
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        default=None, help="default: every workload")
    args = parser.parse_args()
    workloads = args.workload or ["explore_verify", "service_mix"]
    differing = 0
    for workload in workloads:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        for name in sorted(first):
            same = first[name] == second.get(name)
            differing += not same
            print(f"{workload:15s} {name:26s} {first[name]:>12} "
                  f"{second.get(name):>12} {'ok' if same else 'DIFFERS'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
