"""Perf extension — DPOR economics and composed accelerators.

Two experiments, recorded into ``BENCH_dpor.json`` (set
``REPRO_BENCH_OUT_DPOR`` to choose the path):

* **Reduction economics** — per kernel: schedules run and engine runs
  *launched* (completed + pruned mid-flight; each launched run executes
  its prefix, so launches are the cost-proportional count) under plain
  DFS, sleep sets, and DPOR with source sets.  Asserted: DPOR preserves
  the plain-DFS outcome set everywhere, never runs more schedules than
  sleep sets, and launches strictly fewer runs on a broad slice of the
  corpus — including the torn-invariant and three-way-deadlock kernels,
  where races are plentiful and sleep sets burn many launches pruning
  after the fact.

* **Composed accelerators** — per kernel: DPOR crossed with each
  accelerator it accepts.  ``memoize`` (launched runs and cache hits;
  outcome set asserted equal to plain DPOR) and ``preemption_bound``
  (schedules vs the bounded plain DFS exploring the same subtree;
  asserted never more).  Every configuration's wall time is measured
  best-of-N next to its schedule count; the file is stamped with the
  CPU count and Python version the walls were taken on.
"""

import json
import os
import platform
from pathlib import Path
from time import perf_counter

from repro.kernels import all_kernels
from repro.sim.dpor import DPORExplorer
from repro.sim.explorer import Explorer
from repro.sim.reduction import SleepSetExplorer

BUDGET = 100000
#: Best-of-N rounds for every composed-row wall time.
WALL_ROUNDS = 3
#: Preemption bound for the composed DPOR×bound rows.
COMPOSED_BOUND = 2

#: Kernels the strict launched-runs win is asserted on (the acceptance
#: floor; the recorded rows show the win is actually broader).
MUST_IMPROVE = ("multivar_torn_invariant", "deadlock_three_way")
MIN_STRICT_WINS = 5


def collect_reduction():
    rows = []
    for kernel in all_kernels():
        full = Explorer(kernel.buggy, max_schedules=BUDGET).explore(
            predicate=kernel.failure
        )
        sleep = SleepSetExplorer(kernel.buggy, max_schedules=BUDGET)
        start = perf_counter()
        sleep_result = sleep.explore(predicate=kernel.failure)
        sleep_wall = perf_counter() - start
        dpor = DPORExplorer(kernel.buggy, max_schedules=BUDGET)
        start = perf_counter()
        dpor_result = dpor.explore(predicate=kernel.failure)
        dpor_wall = perf_counter() - start
        assert set(dpor_result.outcomes) == set(full.outcomes), kernel.name
        assert set(sleep_result.outcomes) == set(full.outcomes), kernel.name
        rows.append({
            "kernel": kernel.name,
            "dfs_schedules": full.schedules_run,
            "sleepset_schedules": sleep_result.schedules_run,
            "sleepset_pruned": sleep.pruned_runs,
            "sleepset_launched": sleep_result.schedules_run + sleep.pruned_runs,
            "sleepset_wall_seconds": sleep_wall,
            "dpor_schedules": dpor_result.schedules_run,
            "dpor_pruned": dpor.pruned_runs,
            "dpor_launched": dpor_result.schedules_run + dpor.pruned_runs,
            "dpor_backtrack_points": dpor.backtrack_points,
            "dpor_races_detected": dpor.races_detected,
            "dpor_wall_seconds": dpor_wall,
        })
    return rows


def _best_wall(make, predicate):
    """(result of the last round, best wall seconds over WALL_ROUNDS)."""
    best = None
    for _ in range(WALL_ROUNDS):
        explorer = make()
        start = perf_counter()
        result = explorer.explore(predicate=predicate)
        wall = perf_counter() - start
        if best is None or wall < best:
            best = wall
    return result, best


def collect_composed():
    rows = []
    for kernel in all_kernels():
        failure = kernel.failure
        serial, dpor_wall = _best_wall(
            lambda: DPORExplorer(kernel.buggy, max_schedules=BUDGET), failure
        )
        # DPOR × memoize: same outcome set, revisited states pruned.
        memo_result, memo_wall = _best_wall(
            lambda: DPORExplorer(
                kernel.buggy, max_schedules=BUDGET, memoize=True
            ),
            failure,
        )
        assert set(memo_result.outcomes) == set(serial.outcomes), kernel.name
        # DPOR × bound: same subtree as the bounded plain DFS, fewer
        # (or equal) schedules.
        bounded_dfs, bounded_dfs_wall = _best_wall(
            lambda: Explorer(
                kernel.buggy, max_schedules=BUDGET,
                preemption_bound=COMPOSED_BOUND,
            ),
            failure,
        )
        bounded, bounded_wall = _best_wall(
            lambda: DPORExplorer(
                kernel.buggy, max_schedules=BUDGET,
                preemption_bound=COMPOSED_BOUND,
            ),
            failure,
        )
        assert set(bounded.outcomes) == set(bounded_dfs.outcomes), kernel.name
        assert bounded.schedules_run <= bounded_dfs.schedules_run, kernel.name
        rows.append({
            "kernel": kernel.name,
            "dpor_schedules": serial.schedules_run,
            "dpor_wall_seconds": dpor_wall,
            "memo_schedules": memo_result.schedules_run,
            "memo_cache_hits": memo_result.cache_hits,
            "memo_wall_seconds": memo_wall,
            "bound": COMPOSED_BOUND,
            "bounded_dfs_schedules": bounded_dfs.schedules_run,
            "bounded_dfs_wall_seconds": bounded_dfs_wall,
            "bounded_dpor_schedules": bounded.schedules_run,
            "bounded_dpor_wall_seconds": bounded_wall,
        })
    return rows


def record_trajectory(rows, composed):
    path = Path(os.environ.get("REPRO_BENCH_OUT_DPOR", "BENCH_dpor.json"))
    path.write_text(json.dumps(
        {
            "bench": "dpor",
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "wall_best_of": WALL_ROUNDS,
            "rows": rows,
            "composed": composed,
        },
        indent=2,
    ))
    return path


def _collect():
    return collect_reduction(), collect_composed()


def test_dpor_economics(benchmark):
    rows, composed = benchmark.pedantic(_collect, rounds=1, iterations=1)
    out = record_trajectory(rows, composed)

    # DPOR never runs more schedules than sleep sets, anywhere.
    for r in rows:
        assert r["dpor_schedules"] <= r["sleepset_schedules"], r["kernel"]
    # And launches strictly fewer engine runs on a broad slice,
    # including the two race-heavy flagship kernels.
    strict = {
        r["kernel"] for r in rows
        if r["dpor_launched"] < r["sleepset_launched"]
    }
    assert len(strict) >= MIN_STRICT_WINS, sorted(strict)
    for name in MUST_IMPROVE:
        assert name in strict, (name, sorted(strict))

    # Bounded DPOR never runs more schedules than the bounded DFS over
    # the same subtree.
    for row in composed:
        assert (
            row["bounded_dpor_schedules"] <= row["bounded_dfs_schedules"]
        ), row["kernel"]

    print()
    print(f"  {'kernel':28s} {'dfs':>6s} {'ss run':>7s} {'ss launch':>10s} "
          f"{'dpor run':>9s} {'dpor launch':>12s}")
    for r in rows:
        marker = "*" if r["kernel"] in strict else " "
        print(
            f"  {r['kernel']:28s} {r['dfs_schedules']:6d} "
            f"{r['sleepset_schedules']:7d} {r['sleepset_launched']:10d} "
            f"{r['dpor_schedules']:9d} {r['dpor_launched']:11d}{marker}"
        )
    print(f"  (* = strictly fewer launched runs; {len(strict)}/{len(rows)})")
    print(f"  {'kernel':28s} {'dpor':>6s} {'ms':>7s} {'memo':>6s} {'ms':>7s} "
          f"{'bnd-dfs':>8s} {'ms':>7s} {'bnd-dpor':>9s} {'ms':>7s}")
    for row in composed:
        print(
            f"  {row['kernel']:28s} {row['dpor_schedules']:6d} "
            f"{row['dpor_wall_seconds'] * 1e3:7.2f} "
            f"{row['memo_schedules']:6d} "
            f"{row['memo_wall_seconds'] * 1e3:7.2f} "
            f"{row['bounded_dfs_schedules']:8d} "
            f"{row['bounded_dfs_wall_seconds'] * 1e3:7.2f} "
            f"{row['bounded_dpor_schedules']:9d} "
            f"{row['bounded_dpor_wall_seconds'] * 1e3:7.2f}"
        )
    print(f"  (wall ms: best of {WALL_ROUNDS}, {os.cpu_count()} CPU(s), "
          f"Python {platform.python_version()})")
    print(f"  wrote {out}")
