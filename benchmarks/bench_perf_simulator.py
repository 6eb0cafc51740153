"""Simulator performance: engine step throughput and exploration speed.

Not a paper artifact — these benches track the substrate's own
performance so regressions in the engine/explorer hot paths are visible.
Typical numbers on a laptop-class machine: hundreds of thousands of
engine steps per second; thousands of explored schedules per second on
kernel-sized programs.

The memoization bench compares plain DFS against memoized DFS on the
largest kernel exploration, asserting the outcome set is preserved.
``test_observability_overhead`` pins the cost of the observability
layer itself (metrics disabled vs enabled vs profiled).
"""

import contextlib
import time

from repro.kernels import get_kernel
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.sim import (
    Acquire,
    Explorer,
    Program,
    RandomScheduler,
    Read,
    Release,
    Write,
    run_program,
)


@contextlib.contextmanager
def _metrics(enabled: bool):
    """A fresh registry (or none), restoring whatever was active before.

    The conftest may have installed a session-wide registry via
    ``REPRO_METRICS_OUT``; these benches must not tear it down.
    """
    previous = obs_metrics.active()
    registry = obs_metrics.enable() if enabled else None
    if not enabled:
        obs_metrics.disable()
    try:
        yield registry
    finally:
        if previous is not None:
            obs_metrics.enable(previous)
        else:
            obs_metrics.disable()


def make_churn_program(threads: int = 4, iterations: int = 50) -> Program:
    """A locked counter ground through many iterations per thread."""

    def body():
        for _ in range(iterations):
            yield Acquire("L")
            value = yield Read("counter")
            yield Write("counter", value + 1)
            yield Release("L")

    return Program(
        "churn",
        threads={f"T{i}": body for i in range(threads)},
        initial={"counter": 0},
        locks=["L"],
    )


def test_engine_step_throughput(benchmark):
    program = make_churn_program()

    def run_once():
        return run_program(program, RandomScheduler(seed=7), max_steps=100000)

    result = benchmark(run_once)
    assert result.ok
    assert result.memory["counter"] == 4 * 50
    print(f"\n  {result.steps} engine steps per run")


def test_exploration_throughput(benchmark):
    kernel = get_kernel("atomicity_lost_update")

    def explore_all():
        explorer = Explorer(kernel.buggy, max_schedules=10000)
        return explorer.explore(predicate=kernel.failure)

    result = benchmark(explore_all)
    assert result.complete
    assert result.found
    print(f"\n  {result.schedules_run} schedules per exploration")


def test_replay_throughput(benchmark):
    from repro.sim import replay

    program = make_churn_program(threads=2, iterations=100)
    recorded = run_program(program, RandomScheduler(seed=3))

    def replay_once():
        return replay(program, recorded.schedule)

    rerun = benchmark(replay_once)
    assert rerun.memory == recorded.memory


def test_observability_overhead():
    # The obs layer must cost nothing when off: every hook is one
    # module-global None check, and the engine hoists the check out of
    # its step loop entirely.  Measure the same run disabled, with the
    # metrics registry on, and with the profiler on; best-of-N to shave
    # scheduler noise.  Only the disabled-vs-metrics comparison is
    # asserted (both do zero per-step work); the profiler times every
    # engine step by design, so its per-step cost is reported, not bound.
    program = make_churn_program(threads=2, iterations=200)

    def best_of(repeats=5):
        best = float("inf")
        steps = 0
        for attempt in range(repeats):
            start = time.perf_counter()
            result = run_program(
                program, RandomScheduler(seed=11), max_steps=100000
            )
            best = min(best, time.perf_counter() - start)
            steps = result.steps
        return best, steps

    with _metrics(enabled=False):
        assert not obs_metrics.enabled()
        off_seconds, steps = best_of()
        assert obs_metrics.snapshot() is None

    with _metrics(enabled=True) as registry:
        on_seconds, _ = best_of()
    # Metrics are run-granular: exactly two counter bumps per run.
    assert registry.counter("engine.runs", program="churn", status="ok") == 5

    with _metrics(enabled=True):
        profiler = obs_profile.enable()
        try:
            profiled_seconds, _ = best_of()
        finally:
            obs_profile.disable()
    span = profiler.as_dict()["engine.execute"]
    assert span["count"] == 5 * steps

    per_step = lambda seconds: seconds / steps * 1e6
    print(
        f"\n  {steps} steps/run: disabled {per_step(off_seconds):.2f}us/step, "
        f"metrics {per_step(on_seconds):.2f}us/step, "
        f"metrics+profile {per_step(profiled_seconds):.2f}us/step"
    )
    # Generous noise bound — the two configurations execute identical
    # per-step code, so anything near 2x would mean a hook leaked into
    # the hot loop.
    assert on_seconds < off_seconds * 2.0, (
        f"metrics registry added per-step overhead: "
        f"{off_seconds:.4f}s disabled vs {on_seconds:.4f}s enabled"
    )


def test_memoization_cache_hit_rate():
    kernel = get_kernel("multivar_torn_invariant")
    baseline = Explorer(kernel.buggy, max_schedules=20000).explore(
        predicate=kernel.failure
    )
    explorer = Explorer(kernel.buggy, max_schedules=20000, memoize=True)
    memoized = explorer.explore(predicate=kernel.failure)
    assert memoized.complete
    assert memoized.cache_hits > 0
    assert set(memoized.outcomes) == set(baseline.outcomes)
    assert memoized.found == baseline.found
    assert explorer.cache is not None
    print(
        f"\n  plain: {baseline.schedules_run} schedules; memoized: "
        f"{memoized.schedules_run} schedules ({explorer.cache.summary()})"
    )


def test_detector_throughput(benchmark):
    from repro.detectors import DetectorSuite, LearningAVIODetector

    program = make_churn_program(threads=3, iterations=30)
    trace = run_program(program, RandomScheduler(seed=5)).trace
    suite = DetectorSuite.for_program(program)

    def analyse():
        return suite.analyse(trace)

    result = benchmark(analyse)
    # Race/order/deadlock detectors are clean on the locked program.  The
    # *untrained* atomicity detector flags cross-iteration pairs (each
    # thread's write in one critical section and read in the next) — the
    # benign-non-atomicity false-positive class that AVIO's invariant
    # learning exists to remove:
    assert set(result.flagged_by()) <= {"atomicity"}
    learning = LearningAVIODetector()
    learning.train(
        run_program(program, RandomScheduler(seed=s)).trace for s in range(3)
    )
    assert learning.analyse(trace).clean
    print(f"\n  {len(trace)} events analysed by {len(suite.detectors)} detectors")
