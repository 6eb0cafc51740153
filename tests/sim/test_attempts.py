"""The pause contract of a search: ``attempts()`` runs one attempt per pull.

Every explorer drives its search through one generator,
:meth:`~repro.sim.explorer.Explorer.attempts`.  Each ``next()`` runs
exactly one schedule attempt and, while work and budget remain, yields
the live result; the pull whose attempt ends the search raises
``StopIteration`` carrying the final result, and only then are the
search's metrics published.  The adaptive strategy race
(:mod:`repro.manifest.adaptive`) pauses searches this way between its
pulls, so a search pulled one attempt at a time, with another search
resumed in between, must end exactly where one ``explore()`` ends.
Property-tested over the generated corpus for plain DFS, sleep sets and
DPOR, with and without memoization.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.pipeline import DetectorPipeline
from repro.detectors.suite import default_detectors
from repro.kernels import get_kernel
from repro.obs import metrics as obs_metrics
from repro.sim import DPORExplorer, Explorer, SleepSetExplorer
from tests import helpers
from tests.helpers import corpus_programs

EXPLORERS = {
    "dfs": Explorer,
    "sleepset": SleepSetExplorer,
    "dpor": DPORExplorer,
}


def interleave(*explorers, stop_on_first=False):
    """Search with each explorer in turn, one attempt per pull, until all end.

    Returns each search's ``(final result, yields)``.  After every yield
    the live result must count exactly the attempts pulled so far.
    """
    searches = [
        explorer.attempts(stop_on_first=stop_on_first) for explorer in explorers
    ]
    finals = [None] * len(searches)
    yields = [0] * len(searches)
    live = list(range(len(searches)))
    while live:
        for index in list(live):
            try:
                result = next(searches[index])
            except StopIteration as end:
                finals[index] = end.value
                live.remove(index)
                continue
            yields[index] += 1
            assert attempts_of(result, explorers[index]) == yields[index]
    return list(zip(finals, yields))


def drain(search):
    """The final result of a search, pulled to its end."""
    while True:
        try:
            next(search)
        except StopIteration as end:
            return end.value


def attempts_of(result, explorer):
    """Schedule attempts a search has run: completed, memoized, pruned."""
    return result.schedules_run + result.cache_hits + explorer.pruned_runs


def summary(result, explorer):
    """Every field the pause contract holds equal to one ``explore()``."""
    return {
        "outcomes": result.outcomes,
        "statuses": result.statuses,
        "schedules_run": result.schedules_run,
        "match_count": result.match_count,
        "complete": result.complete,
        "first_match_schedule": result.first_match_schedule,
        "schedules_to_first_finding": result.schedules_to_first_finding,
        "cache_hits": result.cache_hits,
        "cache_lookups": result.cache_lookups,
        "cache_states": result.cache_states,
        "states_expanded": result.states_expanded,
        "preemptions_spent": result.preemptions_spent,
        "pruned_runs": explorer.pruned_runs,
        "races_detected": getattr(explorer, "races_detected", None),
        "backtrack_points": getattr(explorer, "backtrack_points", None),
    }


def explored(make):
    """One uninterrupted ``explore()`` of a fresh explorer, summarised."""
    explorer = make()
    return summary(explorer.explore(), explorer)


def paused_pair(make, make_other):
    """Both searches pulled alternately; each summary and yield count."""
    first, second = make(), make_other()
    ends = interleave(first, second)
    return [
        (summary(result, explorer), yields)
        for (result, yields), explorer in zip(ends, (first, second))
    ]


class TestPausedEqualsExplore:
    @pytest.mark.parametrize("kind", sorted(EXPLORERS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(corpus_programs(), corpus_programs(), st.booleans())
    def test_property(self, kind, program, other, memoize):
        cls = EXPLORERS[kind]

        def make():
            return cls(program, memoize=memoize)

        def make_other():
            return cls(other, memoize=not memoize)

        ends = paused_pair(make, make_other)
        for (paused, yields), fresh in zip(ends, (make, make_other)):
            assert paused == explored(fresh)
            assert yields + 1 == (
                paused["schedules_run"]
                + paused["cache_hits"]
                + paused["pruned_runs"]
            )

    @pytest.mark.parametrize("kind", sorted(EXPLORERS))
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(corpus_programs())
    def test_stop_on_first_finds_the_same_schedule(self, kind, program):
        cls = EXPLORERS[kind]
        whole = cls(program, keep_matches=1).explore(stop_on_first=True)
        [(paused, _)] = interleave(
            cls(program, keep_matches=1), stop_on_first=True
        )
        assert paused.first_match_schedule == whole.first_match_schedule
        assert (
            paused.schedules_to_first_finding
            == whole.schedules_to_first_finding
        )
        assert paused.match_count == whole.match_count
        assert paused.complete == whole.complete

    @pytest.mark.parametrize("kind", ["dfs", "dpor"])
    @pytest.mark.parametrize(
        "program",
        [helpers.racy_counter(threads=3), get_kernel("atomicity_lost_update").buggy],
        ids=["racy_counter", "atomicity_lost_update"],
    )
    def test_preemption_bound_composes(self, kind, program):
        cls = EXPLORERS[kind]

        def make():
            return cls(program, preemption_bound=1)

        ends = paused_pair(make, make)
        for paused, yields in ends:
            assert paused == explored(make)
            assert yields > 1


class TestEnd:
    @pytest.mark.parametrize("kind", sorted(EXPLORERS))
    def test_budget_ends_the_search_on_its_last_pull(self, kind):
        budget = 10
        program = helpers.racy_counter(threads=3)
        explorer = EXPLORERS[kind](program, max_schedules=budget)
        search = explorer.attempts()
        for pulled in range(1, budget):
            live = next(search)
            assert live.complete
            assert attempts_of(live, explorer) == pulled
        with pytest.raises(StopIteration) as end:
            next(search)
        result = end.value.value
        assert not result.complete
        assert attempts_of(result, explorer) == budget
        fresh = EXPLORERS[kind](program, max_schedules=budget)
        assert summary(result, explorer) == summary(fresh.explore(), fresh)

    @pytest.mark.parametrize("kind", sorted(EXPLORERS))
    def test_attached_pipeline_ends_with_equal_reports(self, kind):
        program = helpers.racy_counter()
        other = helpers.abba_deadlock()

        def make(target):
            pipeline = DetectorPipeline(default_detectors(target))
            return EXPLORERS[kind](target, pipeline=pipeline)

        whole = make(program).explore()
        first, second = make(program), make(other)
        [(paused, yields), _] = interleave(first, second)
        assert yields > 1
        assert paused.detector_reports == whole.detector_reports
        assert paused.pipeline_stats == whole.pipeline_stats
        assert any(len(report) for report in paused.detector_reports.values())

    def test_wall_seconds_count_only_time_inside_the_search(self):
        search = Explorer(helpers.racy_counter()).attempts()
        next(search)
        time.sleep(0.3)
        result = drain(search)
        assert 0 < result.wall_seconds < 0.3


class TestMetrics:
    @pytest.fixture(autouse=True)
    def registry(self):
        registry = obs_metrics.enable()
        yield registry
        obs_metrics.disable()

    @staticmethod
    def published(registry):
        return [
            name
            for name in registry.snapshot()["counters"]
            if name.startswith(("explorer.", "dpor.", "statecache."))
        ]

    @pytest.mark.parametrize("kind", sorted(EXPLORERS))
    def test_abandoned_search_publishes_nothing(self, registry, kind):
        explorer = EXPLORERS[kind](helpers.racy_counter(threads=3), memoize=True)
        search = explorer.attempts()
        next(search)
        next(search)
        search.close()
        assert self.published(registry) == []

    @pytest.mark.parametrize("kind", sorted(EXPLORERS))
    def test_ended_search_publishes_once(self, registry, kind):
        program = helpers.racy_counter()
        search = EXPLORERS[kind](program).attempts()
        next(search)
        assert self.published(registry) == []
        result = drain(search)
        labels = {"program": program.name, "explorer": kind}
        assert registry.counter(
            "explorer.explorations", complete="true", **labels
        ) == 1
        assert registry.counter(
            "explorer.schedules_run", **labels
        ) == result.schedules_run
