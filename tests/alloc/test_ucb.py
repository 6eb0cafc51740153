"""Unit tests for the UCB1 allocator (``repro.alloc.ucb``)."""

import pytest

from repro.alloc import ArmStats, UCBAllocator
from repro.obs import metrics as obs_metrics


class TestRegistration:
    def test_add_arm_returns_key_and_registers(self):
        alloc = UCBAllocator()
        key = alloc.add_arm("j1", "dfs")
        assert key == ("j1", "dfs")
        assert [stats.key for stats in alloc.arms()] == [key]
        assert alloc.arm(key).pulls == 0

    def test_duplicate_arm_rejected(self):
        alloc = UCBAllocator()
        alloc.add_arm("j1", "dfs")
        with pytest.raises(ValueError, match="already registered"):
            alloc.add_arm("j1", "dfs")

    def test_negative_exploration_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            UCBAllocator(exploration=-0.1)


class TestSelection:
    def test_unplayed_arms_first_in_registration_order(self):
        alloc = UCBAllocator()
        a = alloc.add_arm("j", "a")
        b = alloc.add_arm("j", "b")
        assert alloc.select() == a
        alloc.record(a, 5, 100.0)  # huge payout — still probes b first
        assert alloc.select() == b

    def test_exploitation_prefers_higher_mean_payout(self):
        alloc = UCBAllocator()
        good = alloc.add_arm("j", "good")
        bad = alloc.add_arm("j", "bad")
        alloc.record(good, 10, 50.0)
        alloc.record(bad, 10, 0.0)
        assert alloc.select() == good

    def test_starved_arm_is_eventually_revisited(self):
        """The confidence bonus grows as the other arm soaks up budget."""
        alloc = UCBAllocator(exploration=1.0)
        rich = alloc.add_arm("j", "rich")
        poor = alloc.add_arm("j", "poor")
        alloc.record(rich, 2, 1.0)
        alloc.record(poor, 2, 0.0)
        for _ in range(200):
            key = alloc.select()
            if key == poor:
                break
            alloc.record(rich, 2, 1.0)  # rich's mean stays ~0.5
        else:
            pytest.fail("starved arm was never revisited")

    def test_ties_break_by_registration_order(self):
        alloc = UCBAllocator()
        first = alloc.add_arm("j", "first")
        second = alloc.add_arm("j", "second")
        alloc.record(first, 4, 2.0)
        alloc.record(second, 4, 2.0)
        assert alloc.select() == first

    def test_deterministic_replay(self):
        def drive():
            alloc = UCBAllocator()
            for name in ("a", "b", "c"):
                alloc.add_arm("j", name)
            picks = []
            payouts = {"a": 1.0, "b": 3.0, "c": 0.0}
            for _ in range(20):
                key = alloc.select()
                picks.append(key)
                alloc.record(key, 2, payouts[key[1]])
            return picks

        assert drive() == drive()

    def test_unplayed_score_is_infinite(self):
        alloc = UCBAllocator()
        key = alloc.add_arm("j", "a")
        assert alloc.score(key) == float("inf")
        alloc.record(key, 4, 2.0)
        assert alloc.score(key) < float("inf")


class TestFeedback:
    def test_record_accumulates_and_counts_findings(self):
        alloc = UCBAllocator()
        key = alloc.add_arm("j", "dfs")
        alloc.record(key, 3, 1.5)
        stats = alloc.record(key, 7, 25.0, finding=True)
        assert stats.pulls == 2
        assert stats.schedules == 10
        assert stats.payout == pytest.approx(26.5)
        assert stats.findings == 1
        assert stats.mean_payout == pytest.approx(2.65)
        assert alloc.total_pulls == 2
        assert alloc.total_schedules == 10

    def test_zero_schedule_slice_rejected(self):
        alloc = UCBAllocator()
        key = alloc.add_arm("j", "dfs")
        with pytest.raises(ValueError, match=">= 1 schedule"):
            alloc.record(key, 0, 1.0)

    def test_retire_removes_from_selection_keeps_stats(self):
        alloc = UCBAllocator()
        key = alloc.add_arm("j", "dfs")
        alloc.record(key, 5, 2.0)
        alloc.retire(key)
        assert alloc.select() is None
        assert alloc.arm(key).schedules == 5
        assert [s.key for s in alloc.arms()] == [key]
        assert alloc.live_arms() == []

    def test_retire_job_sweeps_every_arm_of_that_job(self):
        alloc = UCBAllocator()
        alloc.add_arm("j1", "dfs")
        alloc.add_arm("j1", "random")
        other = alloc.add_arm("j2", "dfs")
        assert alloc.retire_job("j1") == 2
        assert alloc.retire_job("j1") == 0  # idempotent
        assert alloc.select() == other


class TestReporting:
    def test_stats_shape(self):
        alloc = UCBAllocator()
        key = alloc.add_arm("job", "dfs")
        alloc.record(key, 4, 2.0, finding=True)
        (row,) = alloc.stats()
        assert row == {
            "job": "job",
            "strategy": "dfs",
            "pulls": 1,
            "schedules": 4,
            "payout": 2.0,
            "mean_payout": 0.5,
            "findings": 1,
            "retired": False,
        }

    def test_mean_payout_zero_before_first_pull(self):
        assert ArmStats(job="j", strategy="s").mean_payout == 0.0

    def test_metrics_and_gauges_emitted(self):
        registry = obs_metrics.enable()
        try:
            alloc = UCBAllocator()
            key = alloc.add_arm("j1", "dfs")
            alloc.add_arm("j1", "random")
            alloc.record(key, 6, 3.0, finding=True)
            alloc.retire(key)
        finally:
            obs_metrics.disable()
        labels = {"job": "j1", "strategy": "dfs"}
        assert registry.counter("alloc.pulls", **labels) == 1
        assert registry.counter("alloc.schedules_spent", **labels) == 6
        assert registry.counter("alloc.payout", **labels) == 3.0
        assert registry.counter("alloc.findings", **labels) == 1
        assert registry.gauge("alloc.arms_live") == 1
        assert registry.gauge("alloc.arms_total") == 2
