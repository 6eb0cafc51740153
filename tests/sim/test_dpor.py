"""Differential harness for dynamic partial-order reduction.

The trusted baseline is the plain serial :class:`Explorer`.  A complete
:class:`DPORExplorer` search of the same program must reach exactly the
same terminal outcome set (status + final memory) and the same failure
verdict — while *launching* no more engine runs than the sleep-set
explorer it supersedes.  "Launched" counts every run the engine starts,
completed or pruned mid-flight (``schedules_run + pruned_runs``): that
is the cost-proportional metric, because a pruned sleep-set run still
executes its shared prefix.

The matrix dimensions the seed harness covers for the other explorers
(memoize, preemption bound) both compose with DPOR: ``memoize`` prunes
revisited states as truncated runs, and ``preemption_bound`` switches to
bounded DPOR (conservative backtrack points at context-switch
boundaries, sleep sets off).  The full ``reduction × bound`` matrix is
differential-tested here against the plain DFS exploring the same
(sub)space; the remaining ``ValueError`` cell is sleep-set-specific
(sleepset × bound) and stays asserted as such.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from repro.detectors.pipeline import DetectorPipeline
from repro.detectors.suite import default_detectors
from repro.kernels import all_kernels
from repro.sim import Explorer, Program, Write
from repro.sim.dpor import DPORExplorer
from repro.sim.explorer import enumerate_outcomes, find_schedule, make_explorer
from repro.sim.reduction import SleepSetExplorer, ops_dependent
from tests import helpers
from tests.helpers import corpus_programs

BUDGET = 60000

#: The composition matrix: preemption bounds every reduction is
#: differentially tested under.
BOUNDS = (None, 1, 2)


def _launched(explorer, result):
    """Engine runs started: completed schedules plus mid-run prunes."""
    return result.schedules_run + explorer.pruned_runs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(corpus_programs())
def test_outcome_sets_match_plain_dfs(program):
    full = Explorer(program, max_schedules=BUDGET).explore(
        predicate=lambda run: False
    )
    assume(full.complete)  # outsized programs carry no comparison value
    reducer = DPORExplorer(program, max_schedules=BUDGET)
    reduced = reducer.explore(predicate=lambda run: False)
    assert reduced.complete
    assert set(reduced.outcomes) == set(full.outcomes)
    assert reduced.schedules_run <= full.schedules_run


@settings(max_examples=12, deadline=None, derandomize=True)
@given(corpus_programs())
def test_launches_no_more_runs_than_sleep_sets(program):
    sleep = SleepSetExplorer(program, max_schedules=BUDGET)
    sleep_result = sleep.explore(predicate=lambda run: False)
    assume(sleep_result.complete)
    dpor = DPORExplorer(program, max_schedules=BUDGET)
    dpor_result = dpor.explore(predicate=lambda run: False)
    assert dpor_result.complete
    assert set(dpor_result.outcomes) == set(sleep_result.outcomes)
    assert dpor_result.schedules_run <= sleep_result.schedules_run
    assert _launched(dpor, dpor_result) <= _launched(sleep, sleep_result)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(corpus_programs())
def test_failure_verdicts_match(program):
    full = Explorer(program, max_schedules=BUDGET).explore()
    assume(full.complete)
    reduced = DPORExplorer(program, max_schedules=BUDGET).explore()
    assert full.found == reduced.found
    assert set(full.statuses) == set(reduced.statuses)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(corpus_programs())
def test_valid_matrix_neighbours_agree(program):
    # The seed matrix (memoize x bound x reduction) restricted to its
    # sound cells: every complete search variant lands on one outcome set.
    full = Explorer(program, max_schedules=BUDGET).explore()
    assume(full.complete)
    outcomes = set(full.outcomes)
    dpor = DPORExplorer(program, max_schedules=BUDGET).explore()
    assert set(dpor.outcomes) == outcomes
    for memoize in (False, True):
        sleep = SleepSetExplorer(
            program, max_schedules=BUDGET, memoize=memoize
        ).explore()
        assert set(sleep.outcomes) == outcomes, memoize
    memoized = Explorer(program, max_schedules=BUDGET, memoize=True).explore()
    assert set(memoized.outcomes) == outcomes
    # A bounded search explores a subtree: its outcomes are a subset of
    # what DPOR (which covers the whole space) reports.
    bounded = Explorer(
        program, max_schedules=BUDGET, preemption_bound=1
    ).explore()
    assert set(bounded.outcomes) <= set(dpor.outcomes)


class TestOnKnownPrograms:
    def test_racy_counter_keeps_both_outcomes(self):
        reduced = DPORExplorer(helpers.racy_counter()).explore(
            predicate=lambda run: False
        )
        finals = {key[1][0][1] for key in reduced.outcomes}
        assert finals == {1, 2}

    def test_every_kernel_verdict_and_outcomes_preserved(self):
        for kernel in all_kernels():
            full = Explorer(kernel.buggy, max_schedules=100000).explore(
                predicate=kernel.failure
            )
            reduced = DPORExplorer(kernel.buggy, max_schedules=100000).explore(
                predicate=kernel.failure
            )
            assert reduced.found == full.found, kernel.name
            assert set(reduced.outcomes) == set(full.outcomes), kernel.name
            assert reduced.schedules_run <= full.schedules_run, kernel.name

    def test_every_kernel_launches_no_more_than_sleep_sets(self):
        for kernel in all_kernels():
            sleep = SleepSetExplorer(kernel.buggy, max_schedules=100000)
            sleep_result = sleep.explore(predicate=kernel.failure)
            dpor = DPORExplorer(kernel.buggy, max_schedules=100000)
            dpor_result = dpor.explore(predicate=kernel.failure)
            assert dpor_result.schedules_run <= sleep_result.schedules_run, (
                kernel.name
            )
            assert _launched(dpor, dpor_result) <= _launched(
                sleep, sleep_result
            ), kernel.name

    def test_independent_threads_collapse_to_one_schedule(self):
        def writer(var):
            def body():
                yield Write(var, 1)
                yield Write(var, 2)

            return body

        program = Program(
            "independent",
            threads={"A": writer("x"), "B": writer("y")},
            initial={"x": 0, "y": 0},
        )
        explorer = DPORExplorer(program)
        reduced = explorer.explore(predicate=lambda run: False)
        assert reduced.schedules_run == 1
        assert explorer.backtrack_points == 0

    def test_reduction_beats_sleep_sets_on_three_way_deadlock(self):
        kernel = next(
            k for k in all_kernels() if k.name == "deadlock_three_way"
        )
        sleep = SleepSetExplorer(kernel.buggy, max_schedules=100000)
        sleep_result = sleep.explore(predicate=kernel.failure)
        dpor = DPORExplorer(kernel.buggy, max_schedules=100000)
        dpor_result = dpor.explore(predicate=kernel.failure)
        assert _launched(dpor, dpor_result) < _launched(sleep, sleep_result)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(corpus_programs())
def test_full_matrix_agrees_with_plain_dfs(program):
    """reduction × bound, every cell vs the same-bound DFS.

    The trusted baseline for a bounded cell is the plain DFS under the
    same bound (both explore exactly the ≤-bound subtree); for
    unbounded cells it is the exhaustive DFS.  Sleep sets only exist in
    the unbounded cell.
    """
    baselines = {}
    for bound in BOUNDS:
        dfs = Explorer(
            program, max_schedules=BUDGET, preemption_bound=bound
        ).explore()
        baselines[bound] = dfs
    assume(baselines[None].complete)
    sleep = SleepSetExplorer(program, max_schedules=BUDGET)
    sleep_result = sleep.explore()
    assert set(sleep_result.outcomes) == set(baselines[None].outcomes)
    for bound in BOUNDS:
        dfs = baselines[bound]
        explorer = make_explorer(
            program, reduction="dpor",
            preemption_bound=bound, max_schedules=BUDGET,
        )
        reduced = explorer.explore()
        cell = f"bound={bound}"
        assert set(reduced.outcomes) == set(dfs.outcomes), cell
        assert reduced.found == dfs.found, cell
        assert set(reduced.statuses) == set(dfs.statuses), cell
        assert reduced.schedules_run <= dfs.schedules_run, cell
        if bound is None:
            # The launched-runs economy only binds where sleep sets
            # are comparable: unbounded.
            assert _launched(explorer, reduced) <= _launched(
                sleep, sleep_result
            )


@settings(max_examples=8, deadline=None, derandomize=True)
@given(corpus_programs())
def test_memoized_dpor_matches_plain_dfs(program):
    full = Explorer(program, max_schedules=BUDGET).explore()
    assume(full.complete)
    for bound in (None, 2):
        dfs = Explorer(
            program, max_schedules=BUDGET, preemption_bound=bound
        ).explore()
        memo = DPORExplorer(
            program, max_schedules=BUDGET, memoize=True,
            preemption_bound=bound,
        ).explore()
        assert set(memo.outcomes) == set(dfs.outcomes), bound
        assert memo.found == dfs.found, bound


class TestDirectedComposition:
    def test_targets_bias_composes_with_dpor(self):
        kernel = next(
            k for k in all_kernels() if k.name == "atomicity_single_var"
        )
        plain = DPORExplorer(kernel.buggy, max_schedules=BUDGET).explore(
            predicate=kernel.failure
        )
        directed = make_explorer(
            kernel.buggy, targets=kernel.static_targets(), reduction="dpor"
        ).explore(predicate=kernel.failure)
        assert set(directed.outcomes) == set(plain.outcomes)
        assert directed.found == plain.found

    def test_targets_compose_with_bounded_dpor(self):
        # Race-directed ordering permutes exploration order, never the
        # explored set — also under a preemption bound.
        kernel = next(
            k for k in all_kernels() if k.name == "atomicity_single_var"
        )
        for bound in (1, 2):
            plain = DPORExplorer(
                kernel.buggy, max_schedules=BUDGET, preemption_bound=bound
            ).explore(predicate=kernel.failure)
            directed = make_explorer(
                kernel.buggy, targets=kernel.static_targets(),
                reduction="dpor", preemption_bound=bound,
            ).explore(predicate=kernel.failure)
            assert set(directed.outcomes) == set(plain.outcomes), bound
            assert directed.found == plain.found, bound


class TestComposedAccelerators:
    """The former ValueError cells, now working paths (PR 6)."""

    def test_memoize_accepted_and_equal_on_kernels(self):
        for kernel in all_kernels():
            plain = DPORExplorer(
                kernel.buggy, max_schedules=100000
            ).explore(predicate=kernel.failure)
            memo = DPORExplorer(
                kernel.buggy, max_schedules=100000, memoize=True
            ).explore(predicate=kernel.failure)
            assert set(memo.outcomes) == set(plain.outcomes), kernel.name
            assert memo.found == plain.found, kernel.name
            assert memo.schedules_run <= plain.schedules_run, kernel.name

    def test_memoize_prunes_revisits_on_torn_kernel(self):
        kernel = next(
            k for k in all_kernels() if k.name == "multivar_torn_invariant"
        )
        plain = DPORExplorer(kernel.buggy, max_schedules=100000).explore(
            predicate=kernel.failure
        )
        memo = DPORExplorer(
            kernel.buggy, max_schedules=100000, memoize=True
        ).explore(predicate=kernel.failure)
        assert memo.cache_hits > 0
        assert memo.schedules_run < plain.schedules_run

    def test_bounded_dpor_matches_bounded_dfs_on_kernels(self):
        for kernel in all_kernels():
            for bound in (0, 1, 2):
                dfs = Explorer(
                    kernel.buggy, max_schedules=100000,
                    preemption_bound=bound,
                ).explore(predicate=kernel.failure)
                bounded = DPORExplorer(
                    kernel.buggy, max_schedules=100000,
                    preemption_bound=bound,
                ).explore(predicate=kernel.failure)
                cell = (kernel.name, bound)
                assert set(bounded.outcomes) == set(dfs.outcomes), cell
                assert bounded.found == dfs.found, cell
                assert bounded.schedules_run <= dfs.schedules_run, cell

    def test_bounded_dpor_reduces_three_way_deadlock(self):
        kernel = next(
            k for k in all_kernels() if k.name == "deadlock_three_way"
        )
        dfs = Explorer(
            kernel.buggy, max_schedules=100000, preemption_bound=2
        ).explore(predicate=kernel.failure)
        bounded = DPORExplorer(
            kernel.buggy, max_schedules=100000, preemption_bound=2
        ).explore(predicate=kernel.failure)
        assert bounded.schedules_run < dfs.schedules_run

    def test_make_explorer_options_after_the_bound_are_keyword_only(self):
        # Everything after ``max_schedules`` is keyword-only, so a stale
        # positional call fails loudly instead of binding its step
        # bound to ``preemption_bound``.
        with pytest.raises(TypeError):
            make_explorer(helpers.racy_counter(), 100, 5000, None, None, False)

    def test_make_explorer_rejects_unknown_reduction(self):
        with pytest.raises(ValueError, match="reduction"):
            make_explorer(helpers.racy_counter(), reduction="odpor")

    def test_make_explorer_sleepset_rejects_bound(self):
        with pytest.raises(ValueError, match="preemption"):
            make_explorer(
                helpers.racy_counter(), preemption_bound=1,
                reduction="sleepset",
            )


class TestEntryPoints:
    def test_find_schedule_reduction_agrees(self):
        program = helpers.racy_counter()
        serial = find_schedule(program)
        reduced = find_schedule(program, reduction="dpor")
        assert (serial is None) == (reduced is None)

    def test_enumerate_outcomes_reduction_agrees(self):
        program = helpers.racy_counter()
        serial = enumerate_outcomes(program, max_schedules=BUDGET)
        reduced = enumerate_outcomes(
            program, max_schedules=BUDGET, reduction="dpor"
        )
        assert serial.complete and reduced.complete
        assert set(reduced.outcomes) == set(serial.outcomes)
        assert reduced.schedules_run <= serial.schedules_run


# -- the path's causal pasts ---------------------------------------------------


def _reference_pasts(path):
    """Happens-before over the path's steps, from scratch.

    Step ``j`` precedes step ``i`` directly when both run on one thread
    or their footprints are dependent; a step's past is the transitive
    closure of its direct predecessors.
    """
    steps = [(node.chosen, node.footprints[node.chosen]) for node in path]
    pasts = []
    for i, (thread, footprint) in enumerate(steps):
        direct = {
            j
            for j, (other, other_footprint) in enumerate(steps[:i])
            if other == thread or ops_dependent(other_footprint, footprint)
        }
        past = set(direct)
        for j in direct:
            past |= pasts[j]
        pasts.append(past)
    return pasts


def _drain_checking_pasts(explorer):
    """Pull a DPOR search to its end, one attempt per pull; after every
    pull each path node's stored past must equal the reference."""
    search = explorer.attempts(predicate=lambda run: False)
    pulls = 0
    while True:
        pulls += 1
        try:
            next(search)
        except StopIteration:
            ended = True
        else:
            ended = False
        path = explorer._path
        assert [node.past for node in path] == _reference_pasts(path), pulls
        if ended:
            return


#: The DPOR searches whose pasts are checked: plain, memoized (memo
#: aborts are truncated runs), bounded, and with a detector pipeline.
PAST_SEARCHES = {
    "plain": lambda program: DPORExplorer(program, max_schedules=BUDGET),
    "memoize": lambda program: DPORExplorer(
        program, max_schedules=BUDGET, memoize=True
    ),
    "bound2": lambda program: DPORExplorer(
        program, max_schedules=BUDGET, preemption_bound=2
    ),
    "pipeline": lambda program: DPORExplorer(
        program, max_schedules=BUDGET,
        pipeline=DetectorPipeline(default_detectors(program)),
    ),
}


class TestCausalPasts:
    """Each path node keeps its step's causal past: computed once when
    the step is set, and again when the search branches at the node."""

    @pytest.mark.parametrize("search", sorted(PAST_SEARCHES))
    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda kernel: kernel.name
    )
    def test_kernel_pasts_match_reference_after_every_pull(
        self, kernel, search
    ):
        _drain_checking_pasts(PAST_SEARCHES[search](kernel.buggy))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(corpus_programs(with_specs=True))
    def test_crashing_program_pasts_match_reference(self, generated):
        program, specs = generated
        assume(any(crashes for _locked, _ops, crashes in specs))
        for search in sorted(PAST_SEARCHES):
            _drain_checking_pasts(PAST_SEARCHES[search](program))
