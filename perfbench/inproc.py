"""The process under test for the in-process workload, ``explore_verify``.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
``repro``, builds the seeded inputs, prints ``READY`` (the end of
set-up), then checks verdicts in whole passes over the inputs:

* ``--trace 0``: a short warm-up, then passes until ``--seconds`` have
  elapsed, at least one whole pass, sampling :mod:`speed`'s interpreter
  reference loop between verdicts; reports every verdict's scaled latencies by
  task label, and peak RSS;
* ``--trace 1``: a short warm-up, a fixed number of passes untraced,
  then the same passes with :mod:`tracer` installed; reports the spans
  and both wall times, so the counts repeat exactly for a given seed.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from corpus import GENERATED_CAP, band, load_expected, outcome_set_digest
from speed import Loop, SpeedLog

#: Whole passes per side of a traced run (untraced, then traced).
TRACE_PASSES = 1
#: Plain-DFS budget for kernel programs (the ``verify_fixed`` default).
KERNEL_BUDGET = 50000
#: Seconds of untimed verdicts before timing starts (lazy imports, caches).
WARMUP_S = 3.0

Task = Tuple[str, Callable[[], Any], Callable[[Any], bool]]


def _complete_with(expect: dict) -> Callable[[Any], bool]:
    """Check: complete search whose outcome set matches the stored digest."""
    def check(result) -> bool:
        return result.complete and outcome_set_digest(result.outcomes) == expect["digest"]
    return check


def _plain_dfs_check(expect: dict) -> Callable[[Any], bool]:
    """Check: plain DFS reproduces the stored count, digest and verdict."""
    def check(result) -> bool:
        return (
            result.complete
            and result.schedules_run == expect["schedules"]
            and result.found == expect.get("found", result.found)
            and outcome_set_digest(result.outcomes) == expect["digest"]
        )
    return check


def build_tasks(seed: int, expected: dict) -> List[Task]:
    """The verdicts of one pass, in a seeded order.

    Each program gets five: a plain DFS search (the default path of
    ``repro kernel``), then ``enumerate_outcomes`` with DPOR, with sleep
    sets and with memoization, and the online detector pipeline over DPOR.
    """
    from repro.detectors import DetectorSuite
    from repro.kernels import all_kernels
    from repro.sim import Explorer, enumerate_outcomes
    from repro.sim.generate import generate_program

    programs = []  # (label, program, expected entry, failure oracle)
    for kernel in all_kernels():
        truth = expected["kernels"][kernel.name]
        programs.append((f"{kernel.name}/buggy", kernel.buggy, truth["buggy"], kernel.failure))
        programs.append((f"{kernel.name}/fixed", kernel.fixed, truth["fixed"], kernel.failure))
    for entry in band(expected["pool"], seed):
        programs.append(
            (f"generated-{entry['seed']}", generate_program(entry["seed"]), entry, None)
        )

    tasks: List[Task] = []
    for label, program, expect, oracle in programs:
        if oracle is not None:
            call = (lambda p=program, o=oracle: Explorer(
                p, max_schedules=KERNEL_BUDGET).explore(predicate=o))
        else:
            call = (lambda p=program: enumerate_outcomes(
                p, max_schedules=GENERATED_CAP))
        tasks.append((f"{label}/dfs", call, _plain_dfs_check(expect)))
        check = _complete_with(expect)
        for reduction in ("dpor", "sleepset"):
            tasks.append((
                f"{label}/{reduction}",
                lambda p=program, r=reduction: enumerate_outcomes(p, reduction=r),
                check,
            ))
        tasks.append((
            f"{label}/memoize",
            lambda p=program: enumerate_outcomes(p, memoize=True),
            check,
        ))
        tasks.append((
            f"{label}/online",
            lambda p=program: DetectorSuite.for_program(p).analyse_online(
                p, reduction="dpor").exploration,
            check,
        ))
    random.Random(f"order-{seed}").shuffle(tasks)
    return tasks


def run_pass(tasks: List[Task], latencies: List[float], failures: List[str],
             deadline: Optional[float] = None, speed: Optional[SpeedLog] = None,
             starts: Optional[List[float]] = None) -> bool:
    """One verdict per task; latency covers the call, not the check.

    Stops before a verdict that would start after ``deadline`` and then
    returns ``False``.  With ``speed``, samples the reference loop between
    verdicts (outside their latencies) and appends each start to ``starts``.
    """
    for label, call, check in tasks:
        if deadline is not None and perf_counter() >= deadline:
            return False
        if speed is not None:
            speed.due()
        start = perf_counter()
        if starts is not None:
            starts.append(start)
        try:
            result = call()
        except Exception as exc:  # a raised verdict counts as failed
            latencies.append(perf_counter() - start)
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(perf_counter() - start)
        if not check(result):
            failures.append(f"{label}: wrong verdict")
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("explore_verify",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    import repro  # noqa: F401  (the import cost users pay)
    import repro.detectors  # noqa: F401
    imported = perf_counter()
    tasks = build_tasks(args.seed, load_expected())
    built = perf_counter()
    print("READY", flush=True)
    setup = {"import_s": imported - start, "corpus_s": built - imported}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    latencies: List[float] = []
    failures: List[str] = []
    run_pass(tasks, latencies, failures, perf_counter() + WARMUP_S)
    out = {"setup": setup, "warmup_verdicts": len(latencies)}
    if args.trace:
        import tracer

        walls = []
        for install in (False, True):
            if install:
                tracer.install()
            began = perf_counter()
            for _ in range(TRACE_PASSES):
                run_pass(tasks, latencies, failures)
            walls.append(perf_counter() - began)
        out.update(
            spans=tracer.TRACER.dump(), untraced_wall_s=walls[0], wall_s=walls[1],
            passes=TRACE_PASSES,
        )
    else:
        speed = SpeedLog(Loop())
        samples = {label: [] for label, _, _ in tasks}
        raw_s = 0.0
        began = perf_counter()
        deadline = None  # the first pass always completes
        while True:
            timed: List[float] = []
            starts: List[float] = []
            complete = run_pass(tasks, timed, failures, deadline, speed, starts)
            speed.sample()  # so the last verdicts have samples after them
            for (label, _, _), latency, at in zip(tasks, timed, starts):
                samples[label].append(latency * speed.scale(at))
            raw_s += sum(timed)
            latencies.extend(timed)
            deadline = began + args.seconds
            if not complete or perf_counter() >= deadline:
                break
        out.update(
            elapsed_s=perf_counter() - began, samples=samples, raw_s=raw_s,
            speed_samples=len(speed.durations), speed_spent_s=speed.spent,
        )
    out.update(
        attempted=len(latencies), failed=len(failures), failures=failures[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
