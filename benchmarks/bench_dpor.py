"""Perf extension — DPOR economics, composed accelerators, stealing.

Three experiments, recorded into ``BENCH_dpor.json`` (set
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
  accelerator it now accepts.  ``memoize`` (launched runs and cache
  hits; outcome set asserted equal to serial DPOR), ``preemption_bound``
  (schedules vs the bounded plain DFS exploring the same subtree;
  asserted never more), and ``workers`` (a real forced-fork
  :class:`ParallelDPORExplorer` run asserted bit-identical to serial
  DPOR, with a 4-worker makespan *modeled* from the per-round accepted
  item sizes — deterministic schedule-units, immune to machine noise).
  Asserted: on the flagship race-heavy kernels the modeled DPOR×workers
  makespan beats every prior configuration's serial schedule count —
  DFS, sleep sets, and serial DPOR.

* **Work-stealing balance** — the torn-invariant kernel's initial
  prefix subtrees span orders of magnitude (single-digit to >1,200
  schedules), which is the worst case for static sharding: whoever gets
  the big subtree finishes last while the rest idle.  Subtree sizes are
  measured (in schedules — deterministic run-units, immune to machine
  noise), and 4-worker makespans are *modeled* from them: static
  sharding can hand out whole items but never split one, stealing
  splits the big items across idle workers.  A real forced-fork steal
  run is also recorded — merged result equal to serial, donation/idle
  telemetry (forced with ``donation="always"`` so the path is always
  exercised), and the run-log record carrying the steal fields.  Real
  walls are then measured best-of-N for both strategies with default
  settings and steal is asserted no slower than shard (small tolerance
  for scheduler noise): after the donation-policy and hot-path work,
  steal mode must earn its default even on a single-core CI machine.
"""

import json
import os
from pathlib import Path
from time import perf_counter

from repro.kernels import all_kernels, get_kernel
from repro.obs import runlog as obs_runlog
from repro.sim.dpor import DPORExplorer
from repro.sim.dpor_parallel import ParallelDPORExplorer
from repro.sim.explorer import Explorer, _emit_exploration_runlog
from repro.sim.parallel import ParallelExplorer
from repro.sim.reduction import SleepSetExplorer

BUDGET = 100000
STEAL_WORKERS = 4
#: workers * shard_factor: the root phase cuts ~8 initial items on the
#: torn kernel, whose sizes make the imbalance story concrete.
STEAL_SHARD_FACTOR = 2
#: Best-of-N rounds for the real steal-vs-shard wall comparison.
WALL_ROUNDS = 3
#: Steal may be this much slower than shard before the wall assertion
#: fails — absorbs scheduler noise, not a systematic gap.
WALL_TOLERANCE = 1.10
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


def _modeled_rounds_makespan(round_sizes, total, workers):
    """Modeled DPOR×workers makespan in schedule units.

    Serial work (root phase plus narrow-frontier steps between rounds)
    runs alone; within a round the accepted items spread greedily over
    the workers.  Exact, deterministic, and directly comparable to a
    serial explorer's schedule count (= its makespan on one worker).
    """
    in_rounds = sum(size for sizes in round_sizes for size in sizes)
    makespan = total - in_rounds  # serial-phase schedules
    for sizes in round_sizes:
        finish = [0] * workers
        for size in sorted(sizes, reverse=True):
            slot = finish.index(min(finish))
            finish[slot] += size
        makespan += max(finish)
    return makespan


def collect_composed():
    rows = []
    for kernel in all_kernels():
        serial = DPORExplorer(kernel.buggy, max_schedules=BUDGET).explore(
            predicate=kernel.failure
        )
        # DPOR × memoize: same outcome set, revisited states pruned.
        memo = DPORExplorer(
            kernel.buggy, max_schedules=BUDGET, memoize=True
        )
        memo_result = memo.explore(predicate=kernel.failure)
        assert set(memo_result.outcomes) == set(serial.outcomes), kernel.name
        # DPOR × bound: same subtree as the bounded plain DFS, fewer
        # (or equal) schedules.
        bounded_dfs = Explorer(
            kernel.buggy, max_schedules=BUDGET,
            preemption_bound=COMPOSED_BOUND,
        ).explore(predicate=kernel.failure)
        bounded = DPORExplorer(
            kernel.buggy, max_schedules=BUDGET,
            preemption_bound=COMPOSED_BOUND,
        ).explore(predicate=kernel.failure)
        assert set(bounded.outcomes) == set(bounded_dfs.outcomes), kernel.name
        assert bounded.schedules_run <= bounded_dfs.schedules_run, kernel.name
        # DPOR × workers: real forced-fork run, bit-identical merge.
        par = ParallelDPORExplorer(
            kernel.buggy, workers=STEAL_WORKERS, max_schedules=BUDGET,
            pool="fork",
        )
        par_result = par.explore(predicate=kernel.failure)
        assert par_result.outcomes == serial.outcomes, kernel.name
        assert par_result.schedules_run == serial.schedules_run, kernel.name
        makespan = _modeled_rounds_makespan(
            par.round_sizes, par_result.schedules_run, STEAL_WORKERS
        )
        rows.append({
            "kernel": kernel.name,
            "dpor_schedules": serial.schedules_run,
            "memo_schedules": memo_result.schedules_run,
            "memo_cache_hits": memo_result.cache_hits,
            "bound": COMPOSED_BOUND,
            "bounded_dfs_schedules": bounded_dfs.schedules_run,
            "bounded_dpor_schedules": bounded.schedules_run,
            "workers": STEAL_WORKERS,
            "parallel_rounds": par.rounds,
            "parallel_items_accepted": par.items_accepted,
            "parallel_items_wasted": par.items_wasted,
            "parallel_modeled_makespan": makespan,
        })
    return rows


def _torn_shard_sizes():
    """Initial work items of the torn kernel, sized in schedules.

    Reproduces the parallel explorer's root phase (same frontier
    target), then explores each leftover prefix serially — the exact
    subtree a static shard would own.
    """
    kernel = get_kernel("multivar_torn_invariant")
    serial = Explorer(kernel.buggy, max_schedules=BUDGET)
    target = max(2, STEAL_WORKERS * STEAL_SHARD_FACTOR)
    root, frontier = serial._search(
        [([], 0, None, None)], kernel.failure, False, target
    )
    sizes = []
    for prefix, paid, snapshot, _ in reversed(frontier):  # serial DFS order
        shard_explorer = Explorer(kernel.buggy, max_schedules=BUDGET)
        start = perf_counter()
        result, _ = shard_explorer._search(
            [(list(prefix), paid, snapshot, None)], kernel.failure, False, None
        )
        sizes.append({
            "schedules": result.schedules_run,
            "wall_seconds": perf_counter() - start,
        })
    return kernel, root.schedules_run, sizes


def _modeled_makespans(sizes, workers):
    """4-worker makespans in schedule units, from measured shard sizes.

    ``shard``: dynamic dispatch of whole items (``Pool.map`` with free
    workers pulling the next item) but no splitting — the big subtree
    is one worker's problem.  ``steal``: items are splittable down to
    single prefixes, so work spreads to the parallel lower bound.
    """
    finish = [0] * workers
    for item in sizes:
        slot = finish.index(min(finish))
        finish[slot] += item["schedules"]
    shard_makespan = max(finish)
    total = sum(item["schedules"] for item in sizes)
    steal_makespan = max(
        -(-total // workers),  # ceil: perfect spread of splittable work
        1,
    )
    return shard_makespan, steal_makespan, total


def collect_stealing():
    kernel, root_schedules, sizes = _torn_shard_sizes()
    shard_makespan, steal_makespan, total = _modeled_makespans(
        sizes, STEAL_WORKERS
    )
    serial = Explorer(kernel.buggy, max_schedules=BUDGET).explore(
        predicate=kernel.failure
    )
    records = []
    obs_runlog.set_runlog(records.append)
    try:
        walls = {}
        merged = None
        for strategy in ("shard", "steal"):
            explorer = ParallelExplorer(
                kernel.buggy,
                workers=STEAL_WORKERS,
                max_schedules=BUDGET,
                shard_factor=STEAL_SHARD_FACTOR,
                pool="fork",
                strategy=strategy,
                # The telemetry run forces donation so the steal fields
                # are populated even where donation="auto" would skip
                # it (single-core CI).
                donation="always" if strategy == "steal" else "auto",
            )
            result = explorer.explore(predicate=kernel.failure)
            assert result.outcomes == serial.outcomes, strategy
            assert result.schedules_run == serial.schedules_run, strategy
            walls[strategy] = result.wall_seconds
            if strategy == "steal":
                merged = result
                _emit_exploration_runlog(
                    "bench.steal", result, BUDGET, 5000, None,
                    STEAL_WORKERS, False, result.wall_seconds,
                )
        # The wall race: default settings, best of N per strategy.
        best_walls = {}
        for strategy in ("shard", "steal"):
            best = None
            for _ in range(WALL_ROUNDS):
                result = ParallelExplorer(
                    kernel.buggy,
                    workers=STEAL_WORKERS,
                    max_schedules=BUDGET,
                    shard_factor=STEAL_SHARD_FACTOR,
                    pool="fork",
                    strategy=strategy,
                ).explore(predicate=kernel.failure)
                assert result.outcomes == serial.outcomes, strategy
                if best is None or result.wall_seconds < best:
                    best = result.wall_seconds
            best_walls[strategy] = best
        first = ParallelExplorer(
            kernel.buggy,
            workers=STEAL_WORKERS,
            max_schedules=BUDGET,
            shard_factor=STEAL_SHARD_FACTOR,
            pool="fork",
            strategy="steal",
        ).explore(predicate=kernel.failure, stop_on_first=True)
    finally:
        obs_runlog.clear_runlog()
    (steal_record,) = [r for r in records if r["event"] == "bench.steal"]
    return {
        "kernel": kernel.name,
        "workers": STEAL_WORKERS,
        "root_schedules": root_schedules,
        "shard_sizes": sizes,
        "total_shard_schedules": total,
        "modeled_shard_makespan": shard_makespan,
        "modeled_steal_makespan": steal_makespan,
        "measured_wall_seconds": walls,
        "best_wall_seconds": best_walls,
        "wall_rounds": WALL_ROUNDS,
        "steal_donations": merged.steal_donations,
        "stolen_prefixes": merged.stolen_prefixes,
        "idle_seconds": merged.idle_seconds,
        "donate_seconds": merged.donate_seconds,
        "schedules_to_first_finding": first.schedules_to_first_finding,
        "runlog_steal_fields": {
            key: steal_record["result"][key]
            for key in (
                "steal_donations", "stolen_prefixes", "idle_seconds",
                "schedules_to_first_finding",
            )
        },
    }


def record_trajectory(rows, composed, stealing):
    path = Path(os.environ.get("REPRO_BENCH_OUT_DPOR", "BENCH_dpor.json"))
    path.write_text(json.dumps(
        {
            "bench": "dpor",
            "rows": rows,
            "composed": composed,
            "stealing": stealing,
        },
        indent=2,
    ))
    return path


def _collect():
    return collect_reduction(), collect_composed(), collect_stealing()


def test_dpor_and_stealing_economics(benchmark):
    rows, composed, stealing = benchmark.pedantic(
        _collect, rounds=1, iterations=1
    )
    out = record_trajectory(rows, composed, stealing)

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

    # The modeled 4-worker makespan: splittable stealing beats
    # whole-item sharding on the imbalanced torn kernel.
    assert (
        stealing["modeled_steal_makespan"]
        < stealing["modeled_shard_makespan"]
    )
    # The real steal run exercised donation and reported it, all the
    # way into the run-log record.
    assert stealing["steal_donations"] > 0
    assert stealing["stolen_prefixes"] > 0
    assert stealing["runlog_steal_fields"]["steal_donations"] > 0
    # And in the wall race with default settings, steal is no slower
    # than shard (small tolerance for scheduler noise).
    assert (
        stealing["best_wall_seconds"]["steal"]
        <= stealing["best_wall_seconds"]["shard"] * WALL_TOLERANCE
    ), stealing["best_wall_seconds"]

    # DPOR×workers beats every prior configuration's schedule count on
    # the flagship kernels (modeled makespan in deterministic
    # schedule-units — one worker's makespan IS its schedule count).
    by_kernel = {r["kernel"]: r for r in rows}
    for row in composed:
        assert (
            row["bounded_dpor_schedules"] <= row["bounded_dfs_schedules"]
        ), row["kernel"]
        if row["kernel"] in MUST_IMPROVE:
            prior_best = min(
                by_kernel[row["kernel"]]["dfs_schedules"],
                by_kernel[row["kernel"]]["sleepset_schedules"],
                by_kernel[row["kernel"]]["dpor_schedules"],
            )
            assert row["parallel_modeled_makespan"] < prior_best, row

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
    print(f"  {'kernel':28s} {'dpor':>6s} {'memo':>6s} {'bnd-dfs':>8s} "
          f"{'bnd-dpor':>9s} {'par-span':>9s}")
    for row in composed:
        print(
            f"  {row['kernel']:28s} {row['dpor_schedules']:6d} "
            f"{row['memo_schedules']:6d} "
            f"{row['bounded_dfs_schedules']:8d} "
            f"{row['bounded_dpor_schedules']:9d} "
            f"{row['parallel_modeled_makespan']:9d}"
        )
    print(
        "  wall race (best of {n}): shard={shard:.3f}s "
        "steal={steal:.3f}s".format(
            n=stealing["wall_rounds"],
            shard=stealing["best_wall_seconds"]["shard"],
            steal=stealing["best_wall_seconds"]["steal"],
        )
    )
    print(
        "  stealing on {kernel} @ {workers} workers: shard sizes "
        "{sizes}, modeled makespan shard={shard} steal={steal} "
        "schedule-units, {don} donation(s) moved {pre} prefix(es), "
        "first finding at serial position {first}".format(
            kernel=stealing["kernel"],
            workers=stealing["workers"],
            sizes=[s["schedules"] for s in stealing["shard_sizes"]],
            shard=stealing["modeled_shard_makespan"],
            steal=stealing["modeled_steal_makespan"],
            don=stealing["steal_donations"],
            pre=stealing["stolen_prefixes"],
            first=stealing["schedules_to_first_finding"],
        )
    )
    print(f"  wrote {out}")
