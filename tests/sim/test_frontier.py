"""Sliced resumable exploration: the sliced ≡ unsliced contract.

The frontier layer's core promise (``src/repro/sim/frontier.py``): an
exploration cut into arbitrary slices — each slice optionally
round-tripped through ``ExplorationFrontier.to_bytes`` as the service
scheduler does between worker pulls — produces a terminal result
*identical* to one unsliced ``explore()`` call: same outcome multiset,
statuses, schedule counts, first-finding index, and cache counters.
Property-tested over the generated corpus for both sliceable searches
(plain DFS and sleep sets) composed with memoization, stop-on-first,
and preemption bounds; the explorers that refuse slicing refuse loudly.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DPORExplorer,
    ExplorationFrontier,
    Explorer,
    SleepSetExplorer,
)
from repro.sim.frontier import SLICEABLE_EXPLORERS
from tests import helpers
from tests.helpers import corpus_programs

SLICEABLE_CLASSES = {"dfs": Explorer, "sleepset": SleepSetExplorer}


def explore_sliced(
    explorer_factory,
    slice_budget,
    *,
    roundtrip=False,
    predicate=None,
    stop_on_first=False,
    max_slices=10_000,
):
    """Drive an exploration slice by slice until the terminal result.

    ``roundtrip=True`` serializes the frontier between slices — the
    exact path a checkpoint takes through the service scheduler — so
    the property also pins that nothing is lost crossing ``to_bytes``.
    A fresh explorer instance per slice mirrors the service too: each
    slice may land on a different worker process.
    """
    frontier = None
    slices = 0
    while True:
        explorer = explorer_factory()
        result = explorer.explore(
            predicate=predicate,
            stop_on_first=stop_on_first,
            slice_budget=slice_budget,
            frontier=frontier,
        )
        slices += 1
        if result.frontier is None:
            return result, slices
        frontier = result.frontier
        if roundtrip:
            frontier = ExplorationFrontier.from_bytes(frontier.to_bytes())
        assert slices < max_slices, "sliced exploration failed to terminate"


def assert_results_equal(sliced, whole):
    """The terminal sliced result matches the unsliced one field by field."""
    assert sliced.outcomes == whole.outcomes
    assert sliced.statuses == whole.statuses
    assert sliced.schedules_run == whole.schedules_run
    assert sliced.match_count == whole.match_count
    assert sliced.complete == whole.complete
    assert sliced.first_match_schedule == whole.first_match_schedule
    assert (
        sliced.schedules_to_first_finding == whole.schedules_to_first_finding
    )
    assert sliced.cache_hits == whole.cache_hits
    assert sliced.states_expanded == whole.states_expanded
    assert sliced.frontier is None


class TestSlicedEqualsUnsliced:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        corpus_programs(),
        st.integers(min_value=1, max_value=7),
        st.booleans(),
    )
    def test_dfs_property(self, program, slice_budget, memoize):
        whole = Explorer(program, memoize=memoize).explore()
        sliced, slices = explore_sliced(
            lambda: Explorer(program, memoize=memoize),
            slice_budget,
            roundtrip=True,
        )
        assert_results_equal(sliced, whole)
        # Tiny slices against a multi-schedule space must actually pause.
        if whole.schedules_run + whole.cache_hits > slice_budget:
            assert slices > 1

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        corpus_programs(),
        st.integers(min_value=1, max_value=7),
        st.booleans(),
    )
    def test_sleepset_property(self, program, slice_budget, memoize):
        whole = SleepSetExplorer(program, memoize=memoize).explore()
        sliced, _ = explore_sliced(
            lambda: SleepSetExplorer(program, memoize=memoize),
            slice_budget,
            roundtrip=True,
        )
        assert_results_equal(sliced, whole)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(corpus_programs(), st.integers(min_value=1, max_value=5))
    def test_stop_on_first_finds_same_schedule(self, program, slice_budget):
        """First-finding searches agree on *which* schedule failed."""
        whole = Explorer(program, keep_matches=1).explore(stop_on_first=True)
        sliced, _ = explore_sliced(
            lambda: Explorer(program, keep_matches=1),
            slice_budget,
            stop_on_first=True,
            roundtrip=True,
        )
        assert sliced.match_count == whole.match_count
        assert sliced.first_match_schedule == whole.first_match_schedule
        assert (
            sliced.schedules_to_first_finding
            == whole.schedules_to_first_finding
        )

    def test_preemption_bound_composes(self):
        program = helpers.racy_counter(threads=3)
        whole = Explorer(program, preemption_bound=1).explore()
        sliced, slices = explore_sliced(
            lambda: Explorer(program, preemption_bound=1), 3, roundtrip=True
        )
        assert_results_equal(sliced, whole)
        assert sliced.preemptions_spent == whole.preemptions_spent
        assert slices > 1

    def test_max_schedules_budget_spans_slices(self):
        """The global budget is charged cumulatively across slices."""
        program = helpers.racy_counter(threads=3)
        whole = Explorer(program, max_schedules=10).explore()
        assert not whole.complete
        sliced, _ = explore_sliced(
            lambda: Explorer(program, max_schedules=10), 3, roundtrip=True
        )
        assert sliced.schedules_run == whole.schedules_run == 10
        assert not sliced.complete


class TestFrontierObject:
    def _paused(self, memoize=False):
        result = Explorer(
            helpers.racy_counter(threads=3), memoize=memoize
        ).explore(slice_budget=2)
        assert result.frontier is not None
        return result.frontier

    def test_pickle_roundtrip_preserves_everything(self):
        frontier = self._paused(memoize=True)
        clone = ExplorationFrontier.from_bytes(frontier.to_bytes())
        assert clone.explorer == frontier.explorer
        assert clone.program == frontier.program
        assert clone.pending == frontier.pending
        assert clone.attempts == frontier.attempts
        assert clone.result.outcomes == frontier.result.outcomes
        assert clone.cache_state == frontier.cache_state

    def test_resume_leaves_frontier_and_provisional_result_unchanged(self):
        """A frontier carries its result by value: resuming it twice
        gives equal terminal results, and neither the frontier nor the
        provisional result that returned it changes."""
        program = helpers.racy_counter(threads=3)

        def explorer():
            return Explorer(program, memoize=True)

        def match_all(run):
            return True

        def tallies(result):
            return (
                result.schedules_run, dict(result.statuses),
                dict(result.outcomes), list(result.matching),
                result.match_count, result.cache_hits, result.states_expanded,
                result.cache_lookups, result.wall_seconds,
            )

        paused = explorer().explore(predicate=match_all, slice_budget=2)
        assert paused.frontier is not None and paused.matching
        blob, before = paused.frontier.to_bytes(), tallies(paused)
        first = explorer().explore(predicate=match_all, frontier=paused.frontier)
        second = explorer().explore(predicate=match_all, frontier=paused.frontier)
        assert_results_equal(first, second)
        assert_results_equal(first, explorer().explore(predicate=match_all))
        assert paused.frontier.to_bytes() == blob
        assert tallies(paused) == before

    def test_from_bytes_rejects_foreign_pickles(self):
        with pytest.raises(ValueError, match="ExplorationFrontier"):
            ExplorationFrontier.from_bytes(pickle.dumps({"not": "a frontier"}))

    def test_summary_mentions_pending_work(self):
        frontier = self._paused()
        assert "pending" in frontier.summary()
        assert "racy-counter" in frontier.summary()

    def test_check_rejects_wrong_explorer_kind(self):
        frontier = self._paused()
        assert frontier.explorer == "dfs"
        sleep = SleepSetExplorer(helpers.racy_counter(threads=3))
        with pytest.raises(ValueError, match="cannot resume"):
            sleep.explore(frontier=frontier)

    def test_check_rejects_wrong_program(self):
        frontier = self._paused()
        other = Explorer(helpers.abba_deadlock())
        with pytest.raises(ValueError, match="belongs to program"):
            other.explore(frontier=frontier)

    def test_check_rejects_memoize_mismatch(self):
        frontier = self._paused(memoize=True)
        plain = Explorer(helpers.racy_counter(threads=3), memoize=False)
        with pytest.raises(ValueError, match="memoize"):
            plain.explore(frontier=frontier)

    def test_sliceable_explorers_constant(self):
        assert set(SLICEABLE_EXPLORERS) == set(SLICEABLE_CLASSES)


class TestRefusals:
    """Non-checkpointable searches refuse slicing with a ValueError."""

    def test_dpor_refuses(self):
        explorer = DPORExplorer(helpers.racy_counter())
        with pytest.raises(ValueError, match="restart with a larger"):
            explorer.explore(slice_budget=5)
        paused = Explorer(helpers.racy_counter(threads=3)).explore(
            slice_budget=2
        )
        with pytest.raises(ValueError, match="sliced resumable"):
            explorer.explore(frontier=paused.frontier)

    def test_pipeline_refuses(self):
        from repro.detectors.pipeline import DetectorPipeline
        from repro.detectors.suite import default_detectors

        program = helpers.racy_counter()
        pipeline = DetectorPipeline(default_detectors(program))
        explorer = Explorer(program, pipeline=pipeline)
        with pytest.raises(ValueError, match="pipeline"):
            explorer.explore(slice_budget=5)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_slice_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            Explorer(helpers.racy_counter()).explore(slice_budget=bad)
        with pytest.raises(ValueError, match="positive"):
            SleepSetExplorer(helpers.racy_counter()).explore(slice_budget=bad)
