"""Capture the benchmark's expected answers into ``expected.json``.

Run once, from the repository root, when the corpus itself changes::

    PYTHONPATH=src:perfbench python3 perfbench/capture_expected.py

For every kernel it records the complete plain-DFS search of the buggy
and the fixed program (schedule count, outcome-set digest, and whether
the kernel's own ``failure`` oracle fired — the buggy program must
manifest and the fixed one must be clean), plus the static analyzer's
candidate and pair counts for the buggy program.  For the generated
pool it keeps every ``repro.sim.generate`` seed whose complete plain-DFS
search fits under ``GENERATED_CAP`` schedules, with its digest and the
work (engine steps plus pipeline events, counted by :mod:`tracer`) that
each workload's verdicts on it take; the band is stratified on that
work.  Each reduced search (DPOR, sleep sets, memoization, the online
detector pass) is checked to reach the same outcome set before anything
is written.
"""

from __future__ import annotations

import json
import sys

import tracer
from corpus import (
    EXPECTED_PATH, GENERATED_CAP, POOL_SEEDS, outcome_set_digest,
)


def _plain(program, predicate, cap):
    from repro.sim import Explorer

    return Explorer(program, max_schedules=cap).explore(predicate=predicate)


def _reduced_digests(program):
    """Outcome-set digests of every reduced ``explore_verify`` verdict on ``program``."""
    from repro.detectors import DetectorSuite
    from repro.sim import enumerate_outcomes

    results = [
        enumerate_outcomes(program, **options, require_complete=True)
        for options in (
            {"reduction": "dpor"}, {"reduction": "sleepset"}, {"memoize": True},
        )
    ]
    results.append(
        DetectorSuite.for_program(program).analyse_online(
            program, reduction="dpor").exploration
    )
    return {outcome_set_digest(result.outcomes) for result in results}


def _work() -> int:
    """Engine steps plus pipeline events recorded so far (a cost measure
    that, unlike time, is the same on every machine)."""
    return tracer.TRACER.counts["engine.steps"] + tracer.TRACER.calls["pipeline.feed"]


def main() -> int:
    from repro.kernels import all_kernels
    from repro.sim.generate import generate_program
    from repro.static import analyse

    tracer.install()

    kernels = {}
    for kernel in all_kernels():
        entry = {}
        for side, program, should_fail in (
            ("buggy", kernel.buggy, True), ("fixed", kernel.fixed, False),
        ):
            result = _plain(program, kernel.failure, 50000)
            digest = outcome_set_digest(result.outcomes)
            if not result.complete or result.found is not should_fail:
                print(f"{kernel.name} {side}: ground truth violated", file=sys.stderr)
                return 1
            if _reduced_digests(program) != {digest}:
                print(f"{kernel.name} {side}: reduced outcome set differs",
                      file=sys.stderr)
                return 1
            entry[side] = {
                "schedules": result.schedules_run,
                "digest": digest,
                "found": result.found,
            }
        report = analyse(kernel.buggy)
        entry["static"] = {
            "candidates": len(report.active()), "pairs": len(report.pairs),
        }
        kernels[kernel.name] = entry

    pool = []
    for seed in range(POOL_SEEDS):
        program = generate_program(seed)
        before = _work()
        result = _plain(program, lambda run: False, GENERATED_CAP + 1)
        if not result.complete or result.schedules_run > GENERATED_CAP:
            continue
        dfs_work = _work() - before
        digest = outcome_set_digest(result.outcomes)
        before = _work()
        if _reduced_digests(program) != {digest}:
            print(f"generated-{seed}: reduced outcome set differs", file=sys.stderr)
            return 1
        pool.append({
            "seed": seed, "schedules": result.schedules_run, "digest": digest,
            "dfs_work": dfs_work, "reduced_work": _work() - before,
        })

    EXPECTED_PATH.write_text(
        json.dumps(
            {"generated_cap": GENERATED_CAP, "kernels": kernels, "pool": pool},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"{len(kernels)} kernels, {len(pool)} pool programs -> {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
