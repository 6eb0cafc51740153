"""Adaptive (UCB1) budget allocation vs fixed search strategies.

The question behind the estimator's ``adaptive`` row, the one consumer
of :mod:`repro.alloc`, measured on a mixed corpus (every bug kernel
plus generated programs — some buggy, some failure-free): *how many
schedules does a first finding cost when you must pick a strategy up
front, vs letting a bandit discover the right one per program?*

Each fixed strategy pays its own worst cases:

* ``dfs`` / ``sleepset`` — systematic search is unbeatable on small
  state spaces but grinds through deep ones in submission order;
* ``random`` / ``pct`` — sampling finds "easy probability" bugs fast,
  but pays the full budget cap on every failure-free program, forever,
  because sampling can never prove absence.

The adaptive policy (:func:`repro.alloc.adaptive_first_finding`) probes
every arm with tiny slices, then spends where the payout is: it tracks
the systematic arms on small/clean programs (a complete search retires
the whole race) and walks away to samplers when the state space is deep
and the bug is random-reachable.  The recorded aggregate asserts the
headline: **adaptive ≤ every fixed strategy in total, and strictly
beats at least two of them** — no oracle told it which arm to pull.

Spend is measured in *schedule attempts* (runs + memo hits + sleep-set
prunes — the same unit the allocator charges), capped at ``CAP`` per
program per strategy.  Results go to ``BENCH_alloc.json``
(``REPRO_BENCH_OUT`` overrides the path).
"""

import json
import os
from pathlib import Path

from repro.alloc import adaptive_first_finding, derive_horizon
from repro.kernels import all_kernels
from repro.sim import (
    Explorer,
    PCTScheduler,
    RandomScheduler,
    SleepSetExplorer,
    run_program,
)
from repro.sim.generate import GeneratorConfig, generate_program

#: Per-program, per-strategy schedule-attempt cap (the adaptive policy's
#: ``max_total``): a fixed strategy that never finds the bug is charged
#: exactly this.
CAP = 4000

FIXED_STRATEGIES = ("dfs", "sleepset", "random", "pct")

#: Generated-program seeds: a deterministic slice of the corpus used by
#: the sim property tests, small threads/ops so state spaces stay
#: completable; crash probability keeps a mix of buggy and clean.  This
#: band punishes the samplers: they pay the full cap on every clean
#: program, while a systematic search proves absence and stops.
_GEN_CONFIG = GeneratorConfig(
    threads=(2, 3), ops_per_thread=(2, 5), variables=2, locks=2,
    crash_probability=0.25,
)
_GEN_SEEDS = tuple(range(12))

#: The deep band punishes the systematic searches: 4-5 threads with
#: long bodies make the interleaving space far exceed the cap, while
#: the crashes are "random-likely" — a handful of random seeds hit
#: them, but they sit thousands of attempts deep in DFS/sleep-set visit
#: order.  Seeds were selected (deterministically, offline) for exactly
#: that profile: random finds each bug in < 60 seeds where the
#: systematic searches spend >= 1000 attempts or bust the cap.
_DEEP_CONFIG = GeneratorConfig(
    threads=(4, 5), ops_per_thread=(4, 7), variables=3, locks=2,
    crash_probability=0.08,
)
_DEEP_SEEDS = (9, 21, 31, 35, 44, 62, 104)


def _fails(run):
    return run.failed


def corpus():
    """(name, program, failure) triples: all kernels + generated programs."""
    rows = [
        (kernel.name, kernel.buggy, kernel.failure)
        for kernel in all_kernels()
    ]
    for seed in _GEN_SEEDS:
        program = generate_program(seed, _GEN_CONFIG)
        rows.append((f"gen{seed:02d}", program, _fails))
    for seed in _DEEP_SEEDS:
        program = generate_program(seed, _DEEP_CONFIG)
        rows.append((f"deep{seed:03d}", program, _fails))
    return rows


def spend_sampler(program, failure, strategy):
    """Schedules a fixed sampler spends to first finding (CAP if never)."""
    horizon = derive_horizon(program)
    for seed in range(CAP):
        if strategy == "random":
            scheduler = RandomScheduler(seed=seed)
        else:
            scheduler = PCTScheduler(seed=seed, depth=3, horizon=horizon)
        run = run_program(program, scheduler, max_steps=5000)
        if failure(run):
            return seed + 1, True
    return CAP, False


def spend_systematic(program, failure, strategy):
    """Attempts a fixed systematic search spends to first finding.

    A complete search of a failure-free program stops at its true cost
    (it *proved* absence); an incomplete one is charged what it spent,
    which equals CAP when the budget ran dry.
    """
    cls = Explorer if strategy == "dfs" else SleepSetExplorer
    explorer = cls(program, max_schedules=CAP, keep_matches=1, memoize=True)
    result = explorer.explore(predicate=failure, stop_on_first=True)
    attempts = (
        result.schedules_run
        + result.cache_hits
        + getattr(explorer, "pruned_runs", 0)
    )
    return min(attempts, CAP), bool(result.match_count)


def collect():
    """Race every strategy over the corpus; return rows + totals."""
    rows = []
    totals = {name: 0 for name in FIXED_STRATEGIES}
    totals["adaptive"] = 0
    for name, program, failure in corpus():
        row = {"program": name}
        for strategy in ("dfs", "sleepset"):
            spent, found = spend_systematic(program, failure, strategy)
            row[strategy] = spent
            row[f"{strategy}_found"] = found
            totals[strategy] += spent
        for strategy in ("random", "pct"):
            spent, found = spend_sampler(program, failure, strategy)
            row[strategy] = spent
            row[f"{strategy}_found"] = found
            totals[strategy] += spent
        race = adaptive_first_finding(
            program, failure, max_total=CAP, seed=0
        )
        row["adaptive"] = race.schedules
        row["adaptive_found"] = race.found
        row["adaptive_winner"] = race.winner
        totals["adaptive"] += race.schedules
        rows.append(row)
    return {
        "cap": CAP,
        "programs": len(rows),
        "rows": rows,
        "totals": totals,
    }


def record_trajectory(payload):
    path = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_alloc.json"))
    path.write_text(json.dumps({"bench": "alloc", **payload}, indent=2))
    return path


def test_alloc_adaptive_beats_fixed(benchmark):
    payload = benchmark.pedantic(collect, rounds=1, iterations=1)
    out = record_trajectory(payload)
    totals = payload["totals"]
    print()
    header = f"  {'program':26s}" + "".join(
        f" {s:>9s}" for s in (*FIXED_STRATEGIES, "adaptive")
    )
    print(header + "  winner")
    for row in payload["rows"]:
        cells = "".join(
            f" {row[s]:>9d}" for s in (*FIXED_STRATEGIES, "adaptive")
        )
        print(f"  {row['program']:26s}{cells}  {row['adaptive_winner'] or '-'}")
    print(
        "  totals:"
        + "".join(
            f" {s}={totals[s]}" for s in (*FIXED_STRATEGIES, "adaptive")
        )
    )
    print(f"  trajectory written to {out}")

    assert payload["programs"] >= 20

    # Correctness before economics: the bandit found every bug that any
    # fixed strategy found.
    for row in payload["rows"]:
        any_fixed = any(row[f"{s}_found"] for s in FIXED_STRATEGIES)
        assert row["adaptive_found"] == any_fixed or row["adaptive_found"], row

    # The headline: adaptive never loses the aggregate, and strictly
    # beats at least two fixed strategies (the samplers bleed out on
    # failure-free programs; one systematic policy may tie on a corpus
    # this small, but not win).
    best_fixed = min(totals[s] for s in FIXED_STRATEGIES)
    assert totals["adaptive"] <= best_fixed, totals
    strictly_beaten = sum(
        1 for s in FIXED_STRATEGIES if totals["adaptive"] < totals[s]
    )
    assert strictly_beaten >= 2, totals
