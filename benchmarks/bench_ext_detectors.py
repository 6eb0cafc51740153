"""E1 (extension) — detector-class coverage over the bug classes.

Reproduces the study's implications-for-detection discussion as a
measured matrix: for each kernel's manifesting trace, which detector
classes flag it?  Expected shape (the paper's argument):

* race detectors (happens-before, lockset) catch the racy atomicity and
  order kernels but are structurally blind to the race-free atomicity
  violation (Apache refcount shape);
* the AVIO-style atomicity detector catches all single-variable
  atomicity kernels, including the race-free one;
* deadlocks are invisible to all of the above and owned by the
  lock-order analysis.

Also benches the online streamed pipeline against explore-then-analyse:
identical findings, shared schedule prefixes analysed once.
"""

import time

from repro.detectors import DetectorSuite
from repro.kernels import all_kernels, get_kernel
from repro.sim.explorer import make_explorer


def build_matrix():
    matrix = {}
    for kernel in all_kernels():
        failing = kernel.find_manifestation()
        suite = DetectorSuite.for_program(kernel.buggy)
        result = suite.analyse(failing.trace)
        matrix[kernel.name] = set(result.flagged_by())
    return matrix


def test_detector_coverage_matrix(benchmark):
    matrix = benchmark.pedantic(build_matrix, rounds=1, iterations=1)

    # Every kernel is caught by at least one detector class.
    assert all(matrix.values())
    # The study's blind spot: no race detector on the race-free kernel.
    assert "happens-before" not in matrix["atomicity_lock_free"]
    assert "lockset" not in matrix["atomicity_lock_free"]
    assert "atomicity" in matrix["atomicity_lock_free"]
    # Racy atomicity kernels are caught by race detectors too.
    assert "happens-before" in matrix["atomicity_single_var"]
    # Deadlock kernels are owned by the deadlock detector.
    for name in ("deadlock_self", "deadlock_abba", "deadlock_three_way"):
        assert "deadlock" in matrix[name]
        assert "atomicity" not in matrix[name]
    # Order kernels are caught by the order-violation heuristics.
    assert "order-violation" in matrix["order_use_before_init"]
    assert "order-violation" in matrix["order_lost_wakeup"]

    detectors = ["happens-before", "lockset", "atomicity", "order-violation", "deadlock"]
    print()
    header = f"  {'kernel':26s}" + "".join(f"{d[:12]:>14s}" for d in detectors)
    print(header)
    for name, flagged in matrix.items():
        row = f"  {name:26s}" + "".join(
            f"{'X' if d in flagged else '.':>14s}" for d in detectors
        )
        print(row)


def test_streaming_vs_batch_suite(benchmark):
    """E1b — the online streamed pipeline beats explore-then-batch analysis.

    Both paths analyse every explored schedule of the torn-invariant
    kernel (the largest state space in the kernel set).  The batch path
    explores first, retains every trace, then runs the five-detector
    battery over them in one shared pipeline pass per trace; the online
    path streams that pipeline along the exploration, restoring
    snapshotted analysis state at branch points so shared schedule
    prefixes are analysed once.  Findings must be identical; the prefix
    reuse is the wall-clock win.
    """
    kernel = get_kernel("multivar_torn_invariant")
    program = kernel.buggy
    budget = 3000

    def batch_path():
        explorer = make_explorer(
            program, max_schedules=budget, keep_matches=10**9
        )
        exploration = explorer.explore(predicate=lambda run: True)
        traces = [run.trace for run in exploration.matching]
        return DetectorSuite.for_program(program).analyse_many(traces)

    def online_path():
        return DetectorSuite.for_program(program).analyse_online(
            program, max_schedules=budget
        )

    def best_of(path, repeats=3):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = path()
            best = min(best, time.perf_counter() - start)
        return best, result

    batch_seconds, batch_result = best_of(batch_path)
    online_seconds, online_result = benchmark.pedantic(
        best_of, args=(online_path,), rounds=1, iterations=1
    )

    # Equivalence first: the speed-up must not change a single finding.
    def keys(result):
        return {
            name: sorted(
                (f.kind.value, f.detector, f.description, f.threads,
                 f.variables, f.resources, f.events)
                for f in report
            )
            for name, report in result.reports.items()
        }

    assert keys(online_result) == keys(batch_result)
    assert not online_result.clean

    stats = online_result.exploration.pipeline_stats
    print()
    print(f"  schedules: {online_result.exploration.schedules_run}"
          f"  events dispatched: {stats['events_dispatched']}"
          f"  reused: {stats['events_reused']} ({stats['reuse_ratio']:.0%})")
    print(f"  explore + batch battery:  {batch_seconds * 1e3:8.1f} ms")
    print(f"  online streamed pipeline: {online_seconds * 1e3:8.1f} ms")
    print(f"  speed-up:                 {batch_seconds / online_seconds:8.2f}x")
    # ~1.5x locally; the margin is generous so CI noise cannot flake it.
    assert online_seconds < batch_seconds * 0.95
