#!/usr/bin/env python
"""Capture the SC golden baseline for the refactor-invariance guard.

Runs every registered *sequentially-consistent* kernel (the 13 lock-based
ones) through a matrix of explorer configurations and records, per
(kernel, config):

* the outcome-set digest (sorted canonical outcome keys, SHA-256),
* ``schedules_run`` / ``complete`` / ``states_expanded`` / ``cache_hits``,
* the status tally,
* DPOR telemetry (``races_detected`` / ``backtrack_points`` /
  ``pruned_runs``) where the config uses DPOR.

The output (``tests/data/sc_invariance.json``) was first captured against
the pre-refactor tree (commit 5d82cca, when ``SharedMemory`` *was* the
memory layer) and is asserted bit-for-bit by
``tests/sim/test_sc_invariance.py``: the pluggable-memory-model refactor
must leave the SC path's behaviour — not just its outcomes, but the
explored tree itself — unchanged.  Re-run this tool only when a change
*legitimately* alters SC exploration (and say why in the commit).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.explorer import make_explorer  # noqa: E402

#: The config matrix the invariance guard pins.
CONFIGS = [
    {"name": "dfs", "reduction": None},
    {"name": "dfs-bound2", "reduction": None, "preemption_bound": 2},
    {"name": "dfs-memo", "reduction": None, "memoize": True},
    {"name": "sleepset", "reduction": "sleepset"},
    {"name": "dpor", "reduction": "dpor"},
    {"name": "dpor-memo", "reduction": "dpor", "memoize": True},
    {"name": "dpor-bound2", "reduction": "dpor", "preemption_bound": 2},
]

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "sc_invariance.json"


def outcome_digest(outcomes) -> str:
    """Order-independent digest of the outcome *set* (keys only)."""
    body = repr(sorted(outcomes, key=repr))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def capture_one(program, config) -> dict:
    explorer = make_explorer(
        program,
        max_schedules=20000,
        preemption_bound=config.get("preemption_bound"),
        memoize=config.get("memoize", False),
        reduction=config.get("reduction"),
    )
    result = explorer.explore(predicate=lambda run: False)
    row = {
        "outcome_digest": outcome_digest(result.outcomes),
        "schedules_run": result.schedules_run,
        "complete": result.complete,
        "states_expanded": result.states_expanded,
        "cache_hits": result.cache_hits,
        "statuses": {
            status.value: count for status, count in sorted(
                result.statuses.items(), key=lambda item: item[0].value
            )
        },
    }
    if config.get("reduction") == "dpor":
        row["dpor"] = {
            "races_detected": explorer.races_detected,
            "backtrack_points": explorer.backtrack_points,
            "pruned_runs": explorer.pruned_runs,
        }
    return row


def main() -> int:
    from repro.kernels import all_kernels

    kernels = list(all_kernels())
    # Only SC kernels participate: TSO/actor families postdate the
    # baseline by definition.
    kernels = [k for k in kernels if getattr(k, "family", "sc") == "sc"]
    data: dict = {"schema": "repro.sc-invariance/v1", "kernels": {}}
    for kernel in kernels:
        rows = {}
        for config in CONFIGS:
            rows[config["name"]] = capture_one(kernel.buggy, config)
        data["kernels"][kernel.name] = rows
        print(f"{kernel.name}: {len(rows)} configs captured")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
