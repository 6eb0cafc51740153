"""Refactor-invariance guard: the SC path is bit-identical to pre-refactor.

``tests/data/sc_invariance.json`` was captured against commit 5d82cca —
the tree where ``SharedMemory`` *was* the memory layer, before it became
the pluggable ``MemoryModel`` family.  This test
re-measures every (kernel, explorer config) cell on the current tree and
asserts the whole row — outcome-set digest, schedules run, states
expanded, cache hits, status tally, DPOR telemetry — matches the golden
file exactly.  Not just "same outcomes": the *explored tree itself* must
be unchanged, which is the ISSUE's definition of the SC path being a
pure refactor.

If a cell legitimately changes (a new reduction, a scheduler fix),
re-capture the file against the new tree with
``PYTHONPATH=src python -m tests.sim.test_sc_invariance >
tests/data/sc_invariance.json`` and say why in the commit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.kernels import all_kernels
from repro.sim.explorer import make_explorer

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "sc_invariance.json"
DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))

#: The explorer configurations every SC kernel is measured under.
CONFIGS = {
    "dfs": {"reduction": None},
    "dfs-bound2": {"reduction": None, "preemption_bound": 2},
    "dfs-memo": {"reduction": None, "memoize": True},
    "sleepset": {"reduction": "sleepset"},
    "dpor": {"reduction": "dpor"},
    "dpor-memo": {"reduction": "dpor", "memoize": True},
    "dpor-bound2": {"reduction": "dpor", "preemption_bound": 2},
}

SC_KERNELS = {k.name: k for k in all_kernels(family="sc")}


def _outcome_digest(outcomes) -> str:
    body = repr(sorted(outcomes, key=repr))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _measure(program, config) -> dict:
    explorer = make_explorer(
        program,
        max_schedules=20000,
        preemption_bound=config.get("preemption_bound"),
        memoize=config.get("memoize", False),
        reduction=config.get("reduction"),
    )
    result = explorer.explore(predicate=lambda run: False)
    row = {
        "outcome_digest": _outcome_digest(result.outcomes),
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


def test_golden_file_covers_the_sc_family_exactly():
    assert DATA["schema"] == "repro.sc-invariance/v1"
    assert set(DATA["kernels"]) == set(SC_KERNELS)
    for name, rows in DATA["kernels"].items():
        assert set(rows) == set(CONFIGS), name


@pytest.mark.parametrize("name", sorted(SC_KERNELS), ids=str)
def test_sc_exploration_matches_pre_refactor_baseline(name):
    kernel = SC_KERNELS[name]
    golden_rows = DATA["kernels"][name]
    for config_name, config in CONFIGS.items():
        measured = _measure(kernel.buggy, config)
        assert measured == golden_rows[config_name], (
            f"{name}/{config_name}: SC exploration diverged from the "
            f"pre-refactor baseline"
        )


def capture() -> dict:
    """Measure every (kernel, config) cell (the golden file's contents)."""
    return {
        "schema": "repro.sc-invariance/v1",
        "kernels": {
            name: {
                config_name: _measure(kernel.buggy, config)
                for config_name, config in CONFIGS.items()
            }
            for name, kernel in SC_KERNELS.items()
        },
    }


if __name__ == "__main__":
    sys.stdout.write(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
