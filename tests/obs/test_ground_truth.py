"""Metrics vs ground truth: every published counter must equal the value
the instrumented component itself reports.

These are the soundness tests for the observability layer — a counter
that drifts from its ``ExplorationResult`` field is worse than no
counter at all.
"""

from repro.detectors import DetectorSuite
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.sim import (
    Explorer,
    ParallelExplorer,
    RandomScheduler,
    run_program,
)
from repro.sim.reduction import SleepSetExplorer
from tests.helpers import racy_counter


class TestExplorerCounters:
    def test_serial_counters_match_result(self, registry):
        result = Explorer(racy_counter(), max_schedules=5000).explore()
        labels = {"program": "racy-counter", "explorer": "dfs"}
        assert result.complete
        assert registry.counter("explorer.explorations", complete="true", **labels) == 1
        assert registry.counter("explorer.schedules_run", **labels) == result.schedules_run
        assert registry.counter("explorer.states_expanded", **labels) == result.states_expanded
        assert registry.counter("explorer.preemptions_spent", **labels) == result.preemptions_spent
        assert registry.counter("explorer.matches", **labels) == result.match_count
        assert registry.gauge("explorer.distinct_outcomes", **labels) == len(result.outcomes)
        wall = registry.histogram("explorer.wall_seconds", **labels)
        assert wall.count == 1
        assert abs(wall.total - result.wall_seconds) < 1e-9
        # Every explored schedule is one engine run.
        assert (
            registry.counter("engine.runs", program="racy-counter", status="ok")
            == result.schedules_run
        )

    def test_engine_steps_split_into_replayed_and_expanded(self, registry):
        # Every DFS step either replays a forced prefix or makes a fresh
        # decision, and each fresh decision expands one state.
        profiler = obs_profile.enable()
        result = Explorer(racy_counter(), max_schedules=5000).explore()
        labels = {"program": "racy-counter"}
        steps = registry.counter("engine.steps", **labels)
        replayed = registry.counter("engine.replay_steps", **labels)
        assert 0 < replayed < steps
        assert steps - replayed == result.states_expanded
        spans = profiler.as_dict()
        assert spans["engine.replay"]["count"] == replayed
        assert spans["engine.execute"]["count"] == steps - replayed

    def test_memoized_lookup_invariant(self, registry):
        explorer = Explorer(racy_counter(), max_schedules=5000, memoize=True)
        result = explorer.explore()
        # Each newly expanded decision point did one (miss) lookup; each
        # aborted run did exactly one hit lookup.
        assert result.cache_hits > 0
        assert result.cache_lookups == result.states_expanded + result.cache_hits
        labels = {"program": "racy-counter"}
        assert registry.counter("statecache.lookups", **labels) == result.cache_lookups
        assert registry.counter("statecache.hits", **labels) == result.cache_hits
        assert registry.gauge("statecache.size", **labels) == result.cache_states
        assert result.cache_states == len(explorer.cache)

    def test_parallel_states_expanded_matches_serial(self, registry):
        serial = Explorer(racy_counter(), max_schedules=5000).explore()
        parallel = ParallelExplorer(
            racy_counter(), workers=2, max_schedules=5000
        ).explore()
        assert parallel.complete
        # Complete searches visit every decision-tree node exactly once,
        # so the expansion counter is identical however the tree is
        # sharded.
        assert parallel.states_expanded == serial.states_expanded
        assert (
            registry.counter(
                "explorer.states_expanded",
                program="racy-counter", explorer="parallel",
            )
            == serial.states_expanded
        )
        assert (
            registry.counter(
                "parallel.explorations", program="racy-counter"
            )
            == 1
        )

    def test_parallel_shard_balance_sums_to_total(self, registry):
        result = ParallelExplorer(
            racy_counter(3), workers=2, max_schedules=20000
        ).explore()
        assert result.complete
        balance = registry.histogram(
            "parallel.shard_schedules_balance", program="racy-counter"
        )
        if result.shards:
            assert balance.count == result.shards
            root_runs = result.schedules_run - balance.total
            assert 0 <= root_runs <= result.schedules_run
        else:
            # Tree too small to shard: the root phase did everything.
            assert balance is None

    def test_sleepset_counters(self, registry):
        result = SleepSetExplorer(racy_counter(), max_schedules=5000).explore()
        labels = {"program": "racy-counter", "explorer": "sleepset"}
        assert registry.counter("explorer.schedules_run", **labels) == result.schedules_run
        assert registry.counter("explorer.states_expanded", **labels) == result.states_expanded

    def test_disabled_registry_records_nothing(self):
        assert not obs_metrics.enabled()
        result = Explorer(racy_counter(), max_schedules=5000).explore()
        assert result.complete
        assert obs_metrics.snapshot() is None
        # Enabling *after* the run starts from a clean slate.
        registry = obs_metrics.enable()
        assert len(registry) == 0


class TestDetectorCounters:
    def test_suite_verdict_tallies(self, registry):
        program = racy_counter()
        trace = run_program(program, RandomScheduler(seed=1)).trace
        suite = DetectorSuite.for_program(program)
        result = suite.analyse(trace)
        for name, report in result.reports.items():
            assert registry.counter("detector.analyses", detector=name) == 1
            verdict = "clean" if report.clean else "flagged"
            assert registry.counter(
                "detector.verdicts", detector=name, verdict=verdict
            ) == 1
            other = "flagged" if report.clean else "clean"
            assert registry.counter(
                "detector.verdicts", detector=name, verdict=other
            ) == 0
        findings = sum(
            len(list(report)) for report in result.reports.values()
        )
        assert registry.counter_total("detector.findings") == findings
