"""Tests for the adaptive strategy race (``repro.manifest.adaptive``)."""

import itertools
import json
import math
from pathlib import Path

import pytest

from repro.kernels import all_kernels, get_kernel
from repro.manifest.adaptive import (
    _Arm,
    _SamplerArm,
    _select,
    adaptive_first_finding,
    derive_horizon,
)
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.sim import CooperativeScheduler, FixedScheduler, run_program
from tests import helpers

STRATEGIES = ["dfs", "sleepset", "random", "pct"]

BENCH_ALLOC = Path(__file__).resolve().parents[2] / "BENCH_alloc.json"


def _fails(run):
    return run.failed


def _never(run):
    return False


def _arm(name, schedules=0, payout=0.0, retired=False):
    arm = _Arm(name)
    arm.pulls = 1 if schedules else 0
    arm.schedules = schedules
    arm.payout = payout
    arm.retired = retired
    return arm


class TestSelection:
    def test_unplayed_arms_first_in_probe_order(self):
        a, b = _arm("a"), _arm("b")
        assert _select([a, b], 0) is a
        a.pulls, a.schedules, a.payout = 1, 5, 100.0  # huge payout
        assert _select([a, b], 5) is b  # ... still probes b first

    def test_exploitation_prefers_higher_mean_payout(self):
        good = _arm("good", schedules=10, payout=50.0)
        bad = _arm("bad", schedules=10, payout=0.0)
        assert _select([good, bad], 20) is good
        assert _select([bad, good], 20) is good

    def test_starved_arm_is_eventually_revisited(self):
        """The confidence bonus grows as the other arm soaks up budget."""
        rich = _arm("rich", schedules=2, payout=1.0)
        poor = _arm("poor", schedules=2, payout=0.0)
        for _ in range(200):
            total = rich.schedules + poor.schedules
            if _select([rich, poor], total) is poor:
                break
            rich.schedules += 2  # rich's mean stays ~0.5
            rich.payout += 1.0
        else:
            pytest.fail("starved arm was never revisited")

    def test_ties_go_to_the_earlier_arm(self):
        first = _arm("first", schedules=4, payout=2.0)
        second = _arm("second", schedules=4, payout=2.0)
        assert _select([first, second], 8) is first
        assert _select([second, first], 8) is second

    def test_retired_arms_are_never_chosen(self):
        best = _arm("best", schedules=2, payout=50.0, retired=True)
        unplayed = _arm("unplayed", retired=True)
        other = _arm("other", schedules=4, payout=0.0)
        assert _select([best, unplayed, other], 6) is other
        other.retired = True
        assert _select([best, unplayed, other], 6) is None

    def test_unplayed_outranks_every_ucb1_score(self):
        """An unplayed arm goes first whatever the played arms score; a
        played arm scores ``payout/schedules + 0.5*sqrt(ln(max(total,
        2))/schedules)`` and the earlier arm keeps a tie."""

        def ucb1(arm, total):
            return arm.payout / arm.schedules + 0.5 * math.sqrt(
                math.log(max(total, 2)) / arm.schedules
            )

        played = [
            _arm(f"s{schedules}p{payout}", schedules=schedules, payout=payout)
            for schedules in (1, 2, 3, 5, 10, 40)
            for payout in (0.0, 0.5, 1.0, 2.0, 5.0, 26.0)
        ]
        for total in (0, 1, 2, 3, 14, 100, 4000):
            for a, b in itertools.permutations(played, 2):
                expected = a if ucb1(a, total) >= ucb1(b, total) else b
                assert _select([a, b], total) is expected, (a.row(), total)
                unplayed = _arm("unplayed")
                assert _select([a, b, unplayed], total) is unplayed

    def test_deterministic_replay(self):
        def drive():
            arms = [_arm(name) for name in ("a", "b", "c")]
            payouts = {"a": 1.0, "b": 3.0, "c": 0.0}
            picks = []
            total = 0
            for _ in range(20):
                arm = _select(arms, total)
                picks.append(arm.strategy)
                arm.pulls += 1
                arm.schedules += 2
                arm.payout += payouts[arm.strategy]
                total += 2
            return picks

        picks = drive()
        assert picks[:3] == ["a", "b", "c"]
        assert max(set(picks), key=picks.count) == "b"
        assert drive() == picks


class TestReporting:
    def test_arm_row_shape(self):
        arm = _arm("dfs", schedules=4, payout=2.0)
        arm.findings = 1
        assert arm.row() == {
            "strategy": "dfs", "pulls": 1, "schedules": 4, "payout": 2.0,
            "mean_payout": 0.5, "findings": 1, "retired": False,
        }

    def test_unplayed_arm_row_reports_zero_mean(self):
        assert _arm("a").row() == {
            "strategy": "a", "pulls": 0, "schedules": 0, "payout": 0.0,
            "mean_payout": 0.0, "findings": 0, "retired": False,
        }


class TestDeriveHorizon:
    def test_tracks_real_step_count(self):
        kernel = get_kernel("atomicity_single_var")
        horizon = derive_horizon(kernel.buggy)
        coop = run_program(kernel.buggy, CooperativeScheduler())
        assert horizon >= len(coop.schedule)
        assert horizon >= 4

    def test_floor_applies_to_degenerate_programs(self):
        program = helpers.yield_only(steps=1, threads=1)
        assert derive_horizon(program) == 4


class TestAdaptiveRace:
    def test_finds_kernel_bug_and_names_winner(self):
        kernel = get_kernel("atomicity_single_var")
        outcome = adaptive_first_finding(kernel.buggy, kernel.failure)
        assert outcome.found
        assert outcome.winner in STRATEGIES
        assert outcome.schedules >= 1
        assert outcome.pulls >= 1
        assert outcome.witness_schedule
        # The witness replays to an actual failure.
        replayed = run_program(
            kernel.buggy, FixedScheduler(outcome.witness_schedule)
        )
        assert kernel.failure(replayed)
        # One row per arm, in probe order; the program names the job.
        assert [row["strategy"] for row in outcome.arms] == STRATEGIES
        assert all("job" not in row for row in outcome.arms)
        assert sum(row["schedules"] for row in outcome.arms) == outcome.schedules
        assert sum(row["pulls"] for row in outcome.arms) == outcome.pulls

    def test_race_is_deterministic(self):
        kernel = get_kernel("deadlock_abba")
        a = adaptive_first_finding(kernel.buggy, kernel.failure)
        b = adaptive_first_finding(kernel.buggy, kernel.failure)
        assert a == b

    def test_proven_clean_retires_the_whole_race(self):
        """A complete systematic drain of a bug-free space ends the race
        long before ``max_total`` — samplers are not left to bleed."""
        program = helpers.locked_counter()
        outcome = adaptive_first_finding(program, _fails, max_total=4000)
        assert not outcome.found
        assert outcome.winner is None
        assert outcome.schedules < 4000
        assert all(row["retired"] for row in outcome.arms)

    @pytest.mark.parametrize("max_total", [7, 50])
    def test_budget_cap_is_respected(self, max_total):
        # 4 threads: more interleavings than either cap, so no
        # systematic arm can drain its space and end the race early.
        program = helpers.racy_counter(threads=4)
        outcome = adaptive_first_finding(program, _never, max_total=max_total)
        assert not outcome.found
        assert outcome.schedules == max_total
        assert sum(row["schedules"] for row in outcome.arms) == max_total

    def test_argument_validation(self):
        kernel = get_kernel("atomicity_single_var")
        for max_total in (0, -1):
            with pytest.raises(ValueError, match="max_total"):
                adaptive_first_finding(
                    kernel.buggy, kernel.failure, max_total=max_total
                )

    def test_kernel_races_match_the_benchmark_pin(self):
        """Every kernel's race spends, finds and names the winner exactly
        as ``BENCH_alloc.json`` records (``benchmarks/bench_alloc.py``
        rewrites that file; CI requires it to come back unchanged)."""
        pinned = {
            row["program"]: (
                row["adaptive"], row["adaptive_found"], row["adaptive_winner"]
            )
            for row in json.loads(BENCH_ALLOC.read_text())["rows"]
        }
        kernels = all_kernels()
        assert len(kernels) == 16
        for kernel in kernels:
            race = adaptive_first_finding(kernel.buggy, kernel.failure)
            assert (race.schedules, race.found, race.winner) == pinned[
                kernel.name
            ], kernel.name


class TestSamplerSeedOffsets:
    """Sampler arms resume by seed offset: sliced pulls reproduce the
    uninterrupted seed loop exactly."""

    @pytest.mark.parametrize("strategy", ["random", "pct"])
    def test_sliced_pulls_match_one_big_pull(self, strategy):
        program = helpers.racy_counter(threads=3)

        def make():
            return _SamplerArm(strategy, program, _never, horizon=12)

        sliced_arm = make()
        sliced = []
        for budget in (1, 2, 3, 4):
            sliced.extend(sliced_arm.pull(budget).outcomes)
        whole = make().pull(10).outcomes
        assert sliced == whole
        assert sliced_arm.next_seed == 10


def _race_with_telemetry(kernel_name):
    """Race a kernel's buggy program; return outcome, metrics, records."""
    kernel = get_kernel(kernel_name)
    records = []
    registry = obs_metrics.enable()
    obs_runlog.set_runlog(records.append)
    try:
        outcome = adaptive_first_finding(kernel.buggy, kernel.failure)
    finally:
        obs_runlog.clear_runlog()
        obs_metrics.disable()
    return outcome, registry, records


class TestTelemetry:
    def test_counters_and_records_equal_the_arm_rows(self):
        outcome, registry, records = _race_with_telemetry("atomicity_wwr_log")
        assert outcome.found
        for row in outcome.arms:
            labels = {"job": outcome.program, "strategy": row["strategy"]}
            assert registry.counter("alloc.pulls", **labels) == row["pulls"]
            assert (
                registry.counter("alloc.schedules_spent", **labels)
                == row["schedules"]
            )
            assert registry.counter("alloc.payout", **labels) == pytest.approx(
                row["payout"]
            )
            assert registry.counter("alloc.findings", **labels) == row["findings"]
        assert registry.gauge("alloc.arms_total") == 4
        assert registry.gauge("alloc.arms_live") == sum(
            not row["retired"] for row in outcome.arms
        )
        pulls = [r for r in records if r["event"] == "alloc.pull"]
        assert len(pulls) == outcome.pulls
        assert pulls[-1]["finding"] is True
        assert pulls[-1]["strategy"] == outcome.winner
        assert pulls[-1]["total_schedules"] == outcome.schedules
        (race,) = [r for r in records if r["event"] == "alloc.race"]
        assert race["program"] == outcome.program
        assert race["winner"] == outcome.winner
        assert race["schedules"] == outcome.schedules
        assert race["pulls"] == outcome.pulls
        assert race["strategies"] == STRATEGIES
        assert race["max_total"] == 4000

    def test_pull_records_accumulate_into_the_arm_rows(self):
        """Each arm's row is the running sum of its ``alloc.pull`` records,
        and only the winner's row counts the finding and its bonus."""
        outcome, _, records = _race_with_telemetry("multivar_torn_invariant")
        assert outcome.found
        pulls = [r for r in records if r["event"] == "alloc.pull"]
        assert len(pulls) == outcome.pulls
        assert [r["total_schedules"] for r in pulls] == list(
            itertools.accumulate(r["schedules"] for r in pulls)
        )
        for row in outcome.arms:
            mine = [r for r in pulls if r["strategy"] == row["strategy"]]
            assert len(mine) > 1, row["strategy"]  # several pulls to sum
            assert [r["pulls"] for r in mine] == list(
                range(1, row["pulls"] + 1)
            )
            assert [r["arm_schedules"] for r in mine] == list(
                itertools.accumulate(r["schedules"] for r in mine)
            )
            assert mine[-1]["arm_schedules"] == row["schedules"]
            assert sum(r["payout"] for r in mine) == pytest.approx(
                row["payout"]
            )
            assert sum(r["finding"] for r in mine) == row["findings"]
            assert row["mean_payout"] == round(
                row["payout"] / row["schedules"], 6
            )
        (winning,) = [row for row in outcome.arms if row["findings"]]
        assert winning["strategy"] == outcome.winner
        assert winning["findings"] == 1
        assert winning["payout"] >= 25.0
