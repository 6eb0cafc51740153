"""Pairwise-coverage and manifestation-estimator tests."""

import pytest

from repro.kernels import get_kernel
from repro.manifest import (
    PairwiseCoverage,
    compare_strategies,
    estimate_manifestation,
    ordered_pairs,
)
from repro.sim import (
    CooperativeScheduler,
    FixedScheduler,
    PCTScheduler,
    RandomScheduler,
    run_program,
)
from tests import helpers


class TestOrderedPairs:
    def test_serial_schedule_covers_one_direction(self):
        prog = helpers.racy_counter()
        trace = run_program(prog, FixedScheduler(["T1", "T1", "T2", "T2"])).trace
        pairs = ordered_pairs(trace)
        assert pairs  # T1's write -> T2's read is a conflicting adjacency
        assert all(isinstance(p, tuple) and len(p) == 2 for p in pairs)

    def test_labels_used_as_site_ids(self):
        from repro.sim import Program, Read, Write

        def writer():
            yield Write("x", 1, label="site.w")

        def reader():
            yield Read("x", label="site.r")

        prog = Program(
            "labelled", threads={"W": writer, "R": reader}, initial={"x": 0}
        )
        trace = run_program(prog, FixedScheduler(["W", "R"])).trace
        assert ("site.w", "site.r") in ordered_pairs(trace)

    def test_read_read_adjacency_not_counted(self):
        from repro.sim import Program, Read

        def reader():
            yield Read("x")

        prog = Program("rr", threads={"A": reader, "B": reader}, initial={"x": 0})
        trace = run_program(prog, CooperativeScheduler()).trace
        assert ordered_pairs(trace) == set()

    def test_same_thread_adjacency_not_counted(self):
        prog = helpers.racy_counter(threads=1)
        trace = run_program(prog, CooperativeScheduler()).trace
        assert ordered_pairs(trace) == set()


class TestPairwiseCoverage:
    def test_accumulates_new_pairs(self):
        prog = helpers.racy_counter()
        cov = PairwiseCoverage()
        first = cov.add(
            run_program(prog, FixedScheduler(["T1", "T1", "T2", "T2"])).trace
        )
        assert first > 0
        again = cov.add(
            run_program(prog, FixedScheduler(["T1", "T1", "T2", "T2"])).trace
        )
        assert again == 0  # same schedule adds nothing

    def test_reverse_schedule_fills_symmetric_gap(self):
        prog = helpers.racy_counter()
        cov = PairwiseCoverage()
        cov.add(run_program(prog, FixedScheduler(["T1", "T1", "T2", "T2"])).trace)
        gaps_before = cov.symmetric_gaps()
        assert gaps_before
        cov.add(run_program(prog, FixedScheduler(["T2", "T2", "T1", "T1"])).trace)
        # Two serial schedules cover one direction of each of the two
        # conflicting site pairs: half of the 4-pair universe.
        assert cov.pairs_covered == 2
        assert cov.coverage_ratio() == pytest.approx(0.5)

    def test_exploration_reaches_full_ratio(self):
        from repro.sim import Explorer

        prog = helpers.racy_counter()
        cov = PairwiseCoverage()
        Explorer(prog).explore(predicate=lambda run: cov.add(run.trace) and False)
        assert cov.coverage_ratio() == 1.0

    def test_traces_seen_counted(self):
        cov = PairwiseCoverage()
        prog = helpers.racy_counter()
        for seed in range(5):
            cov.add(run_program(prog, RandomScheduler(seed=seed)).trace)
        assert cov.traces_seen == 5


class TestEstimator:
    def test_estimates_are_deterministic(self):
        kernel = get_kernel("atomicity_single_var")
        a = estimate_manifestation(
            kernel.buggy, kernel.failure,
            lambda seed: RandomScheduler(seed=seed), runs=30,
        )
        b = estimate_manifestation(
            kernel.buggy, kernel.failure,
            lambda seed: RandomScheduler(seed=seed), runs=30,
        )
        assert a.manifested == b.manifested

    def test_rate_computation(self):
        kernel = get_kernel("deadlock_self")
        est = estimate_manifestation(
            kernel.buggy, kernel.failure,
            lambda seed: RandomScheduler(seed=seed), runs=10,
        )
        assert est.rate == 1.0
        assert "10/10" in est.summary()

    def test_compare_strategies_shape(self):
        kernel = get_kernel("atomicity_single_var")
        estimates = compare_strategies(kernel, runs=40)
        assert set(estimates) == {
            "cooperative", "random", "pct", "exhaustive", "adaptive",
            "enforced",
        }
        # The study's testing implication, quantified:
        assert estimates["cooperative"].rate == 0.0
        assert 0.0 < estimates["random"].rate < 1.0
        assert estimates["enforced"].rate == 1.0
        # The systematic row: one hit after schedules-to-first-failure
        # probes, reduction-tagged in the strategy name.
        assert estimates["exhaustive"].manifested == 1
        assert estimates["exhaustive"].runs >= 1
        assert estimates["exhaustive"].strategy == "exhaustive[none]"
        # The adaptive row: the bandit found the bug and names its
        # winning arm; runs is total spend across every arm.
        assert estimates["adaptive"].manifested == 1
        assert estimates["adaptive"].runs >= 1
        assert estimates["adaptive"].strategy.startswith("adaptive[ucb:")

    def test_compare_strategies_derives_horizon(self):
        from repro.manifest.adaptive import derive_horizon

        kernel = get_kernel("atomicity_single_var")
        derived = derive_horizon(kernel.buggy)
        assert derived >= 4  # grounded in the kernel's real step count
        # The pct row runs depth-3 PCT at exactly that horizon.
        pct = estimate_manifestation(
            kernel.buggy, kernel.failure,
            lambda seed: PCTScheduler(seed=seed, depth=3, horizon=derived),
            runs=25, strategy="pct",
        )
        assert compare_strategies(kernel, runs=25)["pct"] == pct

    def test_compare_strategies_reduction_tags_exhaustive_row(self):
        kernel = get_kernel("atomicity_single_var")
        estimates = compare_strategies(kernel, runs=10, reduction="dpor")
        assert estimates["exhaustive"].strategy == "exhaustive[dpor]"
        assert estimates["exhaustive"].manifested == 1

    def test_enforced_guarantees_all_kernels(self):
        from repro.kernels import all_kernels

        for kernel in all_kernels():
            estimates = compare_strategies(kernel, runs=15)
            assert estimates["enforced"].rate == 1.0, kernel.name

    def test_zero_runs_rate_is_zero(self):
        from repro.manifest import ManifestationEstimate

        assert ManifestationEstimate("x", 0, 0).rate == 0.0
