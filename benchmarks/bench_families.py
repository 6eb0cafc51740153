"""Workload-family extension — actor and weak-memory kernels end to end.

The pluggable-memory-model refactor opened two kernel families beyond
the 13 lock-based SC kernels: message-passing actors (channels,
``Select`` nondeterminism) and TSO weak-memory litmus shapes (store
buffers, explicit flush steps).  This bench records, per family kernel,
into ``BENCH_families.json`` (set ``REPRO_BENCH_OUT_FAMILIES`` to choose
the path):

* **Manifestation** — schedules to the first failure under the kernel's
  declared model, and the fix verified clean over the complete space.
* **Model gating** — the weakmem kernels swept under both ``sc`` and
  ``tso``: the bug must be unreachable in the complete SC space and
  found under TSO, and the row records how much schedule space the
  flush pseudo-threads add.
* **Reduction economics on the extended vocabulary** — DFS vs DPOR
  schedule counts per kernel, with the outcome *sets* asserted equal:
  the dependence relation over ``Send``/``Recv``/``Select`` and flush
  steps must stay sound while still pruning.
"""

import json
import os
from pathlib import Path

from repro.kernels import all_kernels, families
from repro.sim.explorer import make_explorer

BUDGET = 50000

#: The families this bench owns (the SC family has its own benches and
#: the golden invariance guard).
NEW_FAMILIES = ("actor", "weakmem")


def _explore(program, reduction=None, predicate=None):
    explorer = make_explorer(
        program, max_schedules=BUDGET, reduction=reduction, keep_matches=1,
    )
    result = explorer.explore(
        predicate=predicate or (lambda run: False),
        stop_on_first=predicate is not None,
    )
    return result


def collect_manifestation():
    rows = []
    for family in NEW_FAMILIES:
        for kernel in all_kernels(family=family):
            found = _explore(kernel.buggy, predicate=kernel.failure)
            assert found.found, f"{kernel.name} never manifested"
            fix = _explore(kernel.fixed, predicate=kernel.failure)
            assert fix.complete and not fix.found, (
                f"{kernel.name}: fix not verified clean"
            )
            rows.append({
                "kernel": kernel.name,
                "family": family,
                "memory": kernel.buggy.memory,
                "schedules_to_first_finding": found.schedules_to_first_finding,
                "fix_schedules_explored": fix.schedules_run,
            })
    return rows


def collect_model_gating():
    rows = []
    for kernel in all_kernels(family="weakmem"):
        tso = _explore(kernel.buggy, predicate=kernel.failure)
        sc = _explore(kernel.buggy.with_memory("sc"), predicate=kernel.failure)
        assert tso.found, f"{kernel.name}: not found under TSO"
        assert sc.complete and not sc.found, (
            f"{kernel.name}: reachable under SC — not a weak-memory bug"
        )
        tso_full = _explore(kernel.buggy)
        sc_full = _explore(kernel.buggy.with_memory("sc"))
        rows.append({
            "kernel": kernel.name,
            "sc_schedules": sc_full.schedules_run,
            "tso_schedules": tso_full.schedules_run,
            "flush_step_blowup": tso_full.schedules_run / sc_full.schedules_run,
            "tso_schedules_to_first_finding": tso.schedules_to_first_finding,
        })
    return rows


def collect_reduction():
    rows = []
    for family in NEW_FAMILIES:
        for kernel in all_kernels(family=family):
            dfs = _explore(kernel.buggy)
            dpor = _explore(kernel.buggy, reduction="dpor")
            assert dfs.complete and dpor.complete, kernel.name
            assert set(dpor.outcomes) == set(dfs.outcomes), (
                f"{kernel.name}: DPOR outcome set diverged on the extended "
                f"vocabulary"
            )
            rows.append({
                "kernel": kernel.name,
                "family": family,
                "dfs_schedules": dfs.schedules_run,
                "dpor_schedules": dpor.schedules_run,
                "distinct_outcomes": len(dfs.outcomes),
            })
    return rows


def record(manifestation, gating, reduction):
    path = Path(os.environ.get("REPRO_BENCH_OUT_FAMILIES", "BENCH_families.json"))
    path.write_text(json.dumps(
        {
            "bench": "families",
            "families": sorted(families()),
            "manifestation": manifestation,
            "model_gating": gating,
            "reduction": reduction,
        },
        indent=2,
    ))
    return path


def _collect():
    return collect_manifestation(), collect_model_gating(), collect_reduction()


def test_actor_and_weakmem_families(benchmark):
    manifestation, gating, reduction = benchmark.pedantic(
        _collect, rounds=1, iterations=1
    )
    record(manifestation, gating, reduction)

    # Every new-family kernel manifested and verified.
    assert {row["family"] for row in manifestation} == set(NEW_FAMILIES)
    # The weakmem family is model-gated, and flush steps genuinely
    # enlarge the space (that's the cost DPOR then claws back).
    for row in gating:
        assert row["flush_step_blowup"] > 1.0, row["kernel"]
    # DPOR never explores more than DFS on the extended vocabulary.
    for row in reduction:
        assert row["dpor_schedules"] <= row["dfs_schedules"], row["kernel"]

    print(f"\nfamilies: {sorted(families())}")
    for row in manifestation:
        print(
            f"  {row['kernel']} [{row['family']}/{row['memory']}]: "
            f"first finding at schedule {row['schedules_to_first_finding']}, "
            f"fix clean over {row['fix_schedules_explored']} schedules"
        )
    for row in gating:
        print(
            f"  {row['kernel']}: SC {row['sc_schedules']} vs TSO "
            f"{row['tso_schedules']} schedules "
            f"({row['flush_step_blowup']:.1f}x flush blowup)"
        )
    for row in reduction:
        print(
            f"  {row['kernel']}: DFS {row['dfs_schedules']} -> DPOR "
            f"{row['dpor_schedules']} schedules, "
            f"{row['distinct_outcomes']} outcomes"
        )
