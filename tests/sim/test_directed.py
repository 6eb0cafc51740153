"""Race-directed exploration: visit-order bias, tree invariance, speedup.

``targets=`` must change only the *order* schedules are visited in,
never the set of schedules a complete search covers — directed DFS is a
reordering of undirected DFS, and directed sleep-set search prunes
soundly whatever the sibling order.  Given that invariance, the payoff
is measurable: predicted pairs pull manifesting schedules forward.
"""

import pytest

from repro.kernels import all_kernels, get_kernel
from repro.sim.explorer import Explorer, make_explorer
from repro.sim.reduction import SleepSetExplorer
from repro.static import analyse
from repro.static.pairs import TargetPair, TargetSite
from tests import helpers

#: Kernels where direction must strictly beat undirected DFS
#: (acceptance floor is three; these five are stable wins).
STRICTLY_FASTER = [
    "atomicity_single_var",
    "multivar_buffer_flag",
    "order_lost_wakeup",
    "deadlock_abba",
    "deadlock_three_way",
]


def first_finding_schedules(kernel, targets):
    explorer = make_explorer(
        kernel.buggy, 20000, keep_matches=1, targets=targets,
    )
    result = explorer.explore(predicate=kernel.failure, stop_on_first=True)
    assert result.found, kernel.name
    return result.schedules_run


class TestTreeInvariance:
    @pytest.mark.parametrize("builder", [helpers.racy_counter, helpers.lost_wakeup])
    def test_dfs_explores_identical_tree(self, builder):
        program = builder()
        targets = analyse(program).pairs
        plain = Explorer(program).explore()
        directed = Explorer(program, targets=targets).explore()
        assert directed.schedules_run == plain.schedules_run
        assert directed.statuses == plain.statuses
        assert directed.outcomes == plain.outcomes

    @pytest.mark.parametrize("builder", [helpers.racy_counter, helpers.lost_wakeup])
    def test_sleep_set_outcomes_unchanged(self, builder):
        program = builder()
        targets = analyse(program).pairs
        plain = SleepSetExplorer(program).explore()
        directed = SleepSetExplorer(program, targets=targets).explore()
        # Pruning is order-dependent, so run counts may differ — but the
        # reachable outcome set must not.
        assert set(directed.outcomes) == set(plain.outcomes)
        assert set(directed.statuses) == set(plain.statuses)

    def test_empty_targets_means_undirected(self):
        program = helpers.racy_counter()
        assert Explorer(program, targets=[]).directed is None
        assert Explorer(program).directed is None


class TestDirectedSpeedup:
    @pytest.mark.parametrize("name", STRICTLY_FASTER)
    def test_directed_reaches_finding_strictly_sooner(self, name):
        kernel = get_kernel(name)
        undirected = first_finding_schedules(kernel, None)
        directed = first_finding_schedules(kernel, kernel.static_targets())
        assert directed < undirected, (
            f"{name}: directed {directed} !< undirected {undirected}"
        )

    def test_directed_never_slower_across_corpus(self):
        for kernel in all_kernels():
            undirected = first_finding_schedules(kernel, None)
            directed = first_finding_schedules(kernel, kernel.static_targets())
            assert directed <= undirected, kernel.name

    def test_find_manifestation_directed_flag(self):
        kernel = get_kernel("deadlock_three_way")
        run = kernel.find_manifestation(directed=True)
        assert run is not None
        assert kernel.failure(run)


class TestTargetMatching:
    def test_matching_prefers_first_site_of_best_pair(self):
        # Hand-build a pair preferring T2's write; the directed DFS must
        # visit a T2-first schedule before the undirected T1-first one.
        program = helpers.racy_counter()
        pair = TargetPair(
            first=TargetSite(thread="T2", kind="write", obj="counter"),
            second=TargetSite(thread="T1", kind="read", obj="counter"),
            score=99,
            reason="test",
        )
        directed = Explorer(program, targets=[pair]).explore(
            predicate=lambda run: run.memory["counter"] == 1,
            stop_on_first=True,
        )
        plain = Explorer(program).explore(
            predicate=lambda run: run.memory["counter"] == 1,
            stop_on_first=True,
        )
        assert directed.schedules_run <= plain.schedules_run

    def test_label_constrains_the_match(self):
        from repro.sim import Write

        site = TargetSite(thread="T1", kind="write", obj="x", label="w1")
        assert not site.matches("T1", Write("x", 1, label="w2"))
        assert not site.matches("T2", Write("x", 1, label="w1"))
        assert site.matches("T1", Write("x", 1, label="w1"))


