"""Record/replay tests."""

import pytest

from repro.errors import ReplayError
from repro.sim import (
    RandomScheduler,
    RunStatus,
    find_schedule,
    replay,
    replay_prefix,
    run_program,
    schedule_from_json,
    schedule_to_json,
)
from tests import helpers


class TestReplay:
    def test_replay_reproduces_memory_and_status(self):
        prog = helpers.racy_counter(threads=3)
        original = run_program(prog, RandomScheduler(seed=123))
        rerun = replay(prog, original.schedule)
        assert rerun.memory == original.memory
        assert rerun.status == original.status
        assert rerun.schedule == original.schedule

    def test_replay_reproduces_found_failure(self):
        prog = helpers.null_deref_race()
        failing = find_schedule(prog)
        assert failing is not None
        rerun = replay(prog, failing.schedule)
        assert rerun.status is RunStatus.CRASH

    def test_replay_of_wrong_program_raises(self):
        schedule = run_program(
            helpers.racy_counter(), RandomScheduler(seed=1)
        ).schedule
        with pytest.raises(ReplayError):
            replay(helpers.abba_deadlock(), schedule)

    def test_replay_reproduces_deadlock(self):
        prog = helpers.abba_deadlock()
        failing = find_schedule(prog)
        rerun = replay(prog, failing.schedule)
        assert rerun.status is RunStatus.DEADLOCK


class TestReplayPrefix:
    def test_prefix_steers_then_continues(self):
        prog = helpers.racy_counter()
        result = replay_prefix(prog, ["T2"])
        # Past the prefix the lowest-named enabled thread runs, so T1
        # preempts T2 between its read and its write: an update is lost.
        assert result.schedule == ["T2", "T1", "T1", "T2"]
        assert result.status is RunStatus.OK
        assert result.memory["counter"] == 1

    def test_prefix_tolerates_disabled_choices(self):
        prog = helpers.locked_counter()
        result = replay_prefix(prog, ["T1", "T2", "T2", "T2"])
        assert result.status is RunStatus.OK
        assert result.memory["counter"] == 2


class TestScheduleSerialisation:
    def test_json_round_trip(self):
        schedule = ["T1", "T2", "T2", "T1"]
        assert schedule_from_json(schedule_to_json(schedule)) == schedule

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            schedule_from_json('{"something": "else"}')

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError):
            schedule_from_json('{"version": 2, "schedule": []}')
