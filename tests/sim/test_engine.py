"""Engine semantics tests: one behaviour per test."""

import pytest

from repro.errors import ExplorationError, ProgramError, SchedulerError, SimCrash
from repro.sim import (
    Acquire,
    AtomicUpdate,
    CooperativeScheduler,
    Engine,
    FixedScheduler,
    Join,
    Notify,
    NotifyAll,
    Program,
    Read,
    Release,
    RoundRobinScheduler,
    RunStatus,
    Sleep,
    Spawn,
    TryAcquire,
    Wait,
    Write,
    Yield,
    run_program,
)
from repro.sim import events as ev
from tests import helpers


def run_fixed(program, schedule):
    return run_program(program, FixedScheduler(schedule, strict=False))


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self):
        def body():
            value = yield Read("x")
            yield Write("x", value + 1)

        prog = Program("one", threads={"T": body}, initial={"x": 0})
        result = run_program(prog, CooperativeScheduler())
        assert result.status is RunStatus.OK
        assert result.memory["x"] == 1

    def test_read_result_is_sent_into_generator(self):
        observed = []

        def body():
            value = yield Read("x")
            observed.append(value)

        prog = Program("read", threads={"T": body}, initial={"x": 99})
        run_program(prog, CooperativeScheduler())
        assert observed == [99]

    def test_atomic_update_returns_new_value(self):
        observed = []

        def body():
            new = yield AtomicUpdate("x", lambda v: v + 5)
            observed.append(new)

        prog = Program("atomic", threads={"T": body}, initial={"x": 1})
        result = run_program(prog, CooperativeScheduler())
        assert observed == [6]
        assert result.memory["x"] == 6

    def test_local_state_is_per_thread(self):
        def body():
            local = 0
            for _ in range(3):
                local += 1
                yield Yield()
            yield Write("out", local)

        prog = Program(
            "local",
            threads={"A": body, "B": body},
            initial={"out": None},
        )
        result = run_program(prog, RoundRobinScheduler())
        assert result.memory["out"] == 3

    def test_schedule_records_every_decision(self):
        prog = helpers.racy_counter()
        result = run_program(prog, RoundRobinScheduler())
        assert len(result.schedule) == 4  # 2 threads x (read + write)
        assert set(result.schedule) == {"T1", "T2"}

    def test_trace_schedule_matches_engine_schedule(self):
        prog = helpers.semaphore_pingpong()
        result = run_program(prog, RoundRobinScheduler())
        assert result.trace.schedule() == result.schedule


class TestMutexSemantics:
    def test_locked_counter_never_loses_updates(self):
        prog = helpers.locked_counter()
        for scheduler in (RoundRobinScheduler(), CooperativeScheduler()):
            result = run_program(prog, scheduler)
            assert result.memory["counter"] == 2

    def test_blocked_acquire_is_not_scheduled(self):
        prog = helpers.locked_counter()
        # Force strict alternation: T2 must simply not run while blocked.
        result = run_program(prog, RoundRobinScheduler())
        acquires = [e for e in result.trace if isinstance(e, ev.AcquireEvent)]
        releases = [e for e in result.trace if isinstance(e, ev.ReleaseEvent)]
        assert len(acquires) == 2
        assert len(releases) == 2
        # Second acquire strictly after first release.
        assert acquires[1].seq > releases[0].seq

    def test_try_acquire_failure_returns_false(self):
        outcomes = []

        def holder():
            yield Acquire("L")
            yield Yield()
            yield Release("L")

        def taster():
            ok = yield TryAcquire("L")
            outcomes.append(ok)

        prog = Program("try", threads={"H": holder, "T": taster}, locks=["L"])
        run_fixed(prog, ["H", "T"])
        assert outcomes == [False]

    def test_release_of_unowned_lock_is_program_error(self):
        def body():
            yield Release("L")

        prog = Program("bad-release", threads={"T": body}, locks=["L"])
        with pytest.raises(ProgramError):
            run_program(prog, CooperativeScheduler())


class TestTermination:
    def test_self_deadlock_is_deadlock_status(self):
        result = run_program(helpers.self_deadlock(), CooperativeScheduler())
        assert result.status is RunStatus.DEADLOCK
        assert result.blocked and result.blocked[0][0] == "T1"

    def test_abba_deadlock_reached_by_alternation(self):
        result = run_fixed(helpers.abba_deadlock(), ["T1", "T2"])
        assert result.status is RunStatus.DEADLOCK
        assert len(result.blocked) == 2

    def test_abba_avoided_by_cooperative_scheduler(self):
        result = run_program(helpers.abba_deadlock(), CooperativeScheduler())
        assert result.status is RunStatus.OK

    def test_crash_terminates_whole_run(self):
        result = run_fixed(helpers.null_deref_race(), ["Reader"])
        assert result.status is RunStatus.CRASH
        assert "null pointer" in result.crash_reasons[0]
        # Init never got to run after the crash.
        assert result.memory["ptr"] is None

    def test_unnotified_wait_is_hang_not_deadlock(self):
        # Signaller runs entirely first: its notify is lost, waiter hangs.
        result = run_fixed(
            helpers.lost_wakeup(), ["Waiter", "Signaller"] + ["Signaller"] * 5
        )
        assert result.status in (RunStatus.HANG, RunStatus.OK)

    def test_lost_wakeup_hang_exists(self):
        # Waiter reads done=False, then Signaller completes, then Waiter waits.
        schedule = ["Waiter", "Signaller", "Signaller", "Signaller", "Signaller"]
        result = run_program(
            helpers.lost_wakeup(), FixedScheduler(schedule, strict=False)
        )
        assert result.status is RunStatus.HANG
        blocked = dict(result.blocked)
        assert blocked["Waiter"].startswith("cond:")

    def test_step_budget_aborts(self):
        def spinner():
            while True:
                yield Yield()

        prog = Program("spin", threads={"T": spinner})
        result = run_program(prog, CooperativeScheduler(), max_steps=50)
        assert result.status is RunStatus.ABORTED
        assert result.steps == 50

    def test_ok_run_reports_all_finished(self):
        result = run_program(helpers.locked_counter(), CooperativeScheduler())
        assert result.ok and not result.failed
        assert result.stop_reason == "all threads finished"


class TestConditionVariables:
    def test_wait_releases_and_reacquires_lock(self):
        prog = helpers.lost_wakeup()
        # Proper order: waiter parks, then signaller notifies.
        schedule = ["Waiter", "Waiter", "Waiter", "Signaller", "Signaller",
                    "Signaller", "Signaller", "Waiter", "Waiter"]
        result = run_program(prog, FixedScheduler(schedule, strict=False))
        assert result.status is RunStatus.OK
        parks = [e for e in result.trace if isinstance(e, ev.WaitParkEvent)]
        resumes = [e for e in result.trace if isinstance(e, ev.WaitResumeEvent)]
        assert len(parks) == 1 and len(resumes) == 1
        assert resumes[0].seq > parks[0].seq

    def test_notify_event_records_woken_threads(self):
        prog = helpers.lost_wakeup()
        schedule = ["Waiter", "Waiter", "Waiter", "Signaller", "Signaller",
                    "Signaller", "Signaller", "Waiter", "Waiter"]
        result = run_program(prog, FixedScheduler(schedule, strict=False))
        notifies = [e for e in result.trace if isinstance(e, ev.NotifyEvent)]
        assert notifies[0].woken == ("Waiter",)

    def test_lost_notify_records_empty_woken(self):
        result = run_fixed(helpers.lost_wakeup(), ["Signaller"] * 4 + ["Waiter"] * 3)
        notifies = [e for e in result.trace if isinstance(e, ev.NotifyEvent)]
        assert notifies[0].woken == ()

    def test_wait_without_lock_is_program_error(self):
        def body():
            yield Wait("cv")

        prog = Program(
            "bad-wait", threads={"T": body}, locks=["L"], conditions={"cv": "L"}
        )
        with pytest.raises(ProgramError, match="without holding"):
            run_program(prog, CooperativeScheduler())

    def test_notify_all_wakes_every_waiter(self):
        def waiter():
            yield Acquire("L")
            yield Wait("cv")
            yield Release("L")

        def broadcaster():
            yield Acquire("L")
            yield NotifyAll("cv")
            yield Release("L")

        prog = Program(
            "broadcast",
            threads={"W1": waiter, "W2": waiter, "B": broadcaster},
            locks=["L"],
            conditions={"cv": "L"},
        )
        schedule = (
            ["W1"] * 2 + ["W2"] * 2 + ["B"] * 3
        )
        result = run_program(prog, FixedScheduler(schedule, strict=False))
        assert result.status is RunStatus.OK
        notify = [e for e in result.trace if isinstance(e, ev.NotifyEvent)][0]
        assert set(notify.woken) == {"W1", "W2"}


class TestSpawnJoin:
    def test_spawned_thread_becomes_runnable(self):
        result = run_program(helpers.spawn_join_chain(), CooperativeScheduler())
        assert result.status is RunStatus.OK
        assert result.memory["observed"] == 42

    def test_join_blocks_until_target_done(self):
        result = run_program(helpers.spawn_join_chain(), RoundRobinScheduler())
        joins = [e for e in result.trace if isinstance(e, ev.JoinEvent)]
        finishes = [
            e for e in result.trace
            if isinstance(e, ev.ThreadFinishEvent) and e.thread == "Worker"
        ]
        assert joins[0].seq > finishes[0].seq

    def test_double_spawn_is_program_error(self):
        def main():
            yield Spawn("W")
            yield Spawn("W")

        def worker():
            yield Yield()

        prog = Program("double-spawn", threads={"Main": main, "W": worker}, start=["Main"])
        with pytest.raises(ProgramError, match="already"):
            run_program(prog, CooperativeScheduler())

    def test_join_on_undeclared_thread_is_program_error(self):
        def main():
            yield Join("Ghost")

        prog = Program("ghost-join", threads={"Main": main})
        with pytest.raises(ProgramError, match="undeclared thread"):
            run_program(prog, CooperativeScheduler())

    def test_unstarted_thread_never_runs(self):
        def main():
            yield Write("out", "main")

        def never():
            yield Write("out", "never")

        prog = Program(
            "unstarted",
            threads={"Main": main, "Never": never},
            initial={"out": None},
            start=["Main"],
        )
        result = run_program(prog, CooperativeScheduler())
        assert result.status is RunStatus.OK
        assert result.memory["out"] == "main"


class TestSleepAndYield:
    def test_sleep_consumes_ticks(self):
        def sleeper():
            yield Sleep(3)
            yield Write("done", True)

        prog = Program("sleep", threads={"T": sleeper}, initial={"done": False})
        result = run_program(prog, CooperativeScheduler())
        yields = [e for e in result.trace if isinstance(e, ev.YieldEvent)]
        assert len(yields) == 3
        assert result.memory["done"] is True

    def test_sleep_is_not_synchronisation(self):
        """A sleep 'fixing' a race still races under an adversarial schedule."""

        def reader():
            yield Sleep(5)
            pointer = yield Read("ptr")
            if pointer is None:
                raise SimCrash("still racy")

        def initialiser():
            yield Write("ptr", "object")

        prog = Program(
            "sleep-no-sync",
            threads={"R": reader, "I": initialiser},
            initial={"ptr": None},
        )
        # Adversarial: run reader through its whole sleep before init runs.
        result = run_fixed(prog, ["R"] * 6)
        assert result.status is RunStatus.CRASH


class TestSchedulerContract:
    def test_scheduler_choosing_disabled_thread_raises(self):
        class Rogue(CooperativeScheduler):
            def choose(self, enabled, step):
                return "NOPE"

        prog = helpers.racy_counter()
        with pytest.raises(SchedulerError):
            Engine(prog, Rogue()).run()

    def test_enabled_filter_restricts_choices(self):
        prog = helpers.racy_counter()

        def only_t2_first(engine, enabled):
            if engine.steps == 0 and "T2" in enabled:
                return ["T2"]
            return enabled

        result = run_program(
            prog, CooperativeScheduler(), enabled_filter=only_t2_first
        )
        assert result.schedule[0] == "T2"

    def test_empty_filter_result_falls_back_to_enabled(self):
        prog = helpers.racy_counter()
        result = run_program(
            prog, CooperativeScheduler(), enabled_filter=lambda e, en: []
        )
        assert result.status is RunStatus.OK


class _StepRecorder(CooperativeScheduler):
    """Cooperative, remembering the steps it was asked to decide."""

    def __init__(self):
        super().__init__()
        self.steps = []

    def choose(self, enabled, step):
        self.steps.append(step)
        return super().choose(enabled, step)


class TestForcedPrefix:
    def test_prefix_is_replayed_without_scheduler_calls(self):
        prog = helpers.racy_counter()
        scheduler = _StepRecorder()
        result = Engine(prog, scheduler, prefix=["T2", "T1", "T2"]).run()
        assert result.schedule[:3] == ["T2", "T1", "T2"]
        assert scheduler.steps[0] == 3

    def test_parent_events_are_adopted_up_to_the_last_forced_step(self):
        prog = helpers.racy_counter()
        parent = run_program(prog, RoundRobinScheduler())
        prefix = parent.schedule[:3]
        seen = []
        result = Engine(
            prog, CooperativeScheduler(), prefix=prefix,
            prefix_events=parent.trace, event_hook=seen.append,
        ).run()
        reference = run_fixed(prog, result.schedule)
        assert list(result.trace) == list(reference.trace)
        adopted = len(result.trace) - len(seen)
        assert adopted > 0
        assert all(
            mine is theirs
            for mine, theirs in zip(result.trace[:adopted], parent.trace)
        )
        assert seen[0].seq == adopted

    def test_disabled_forced_thread_is_a_divergence(self):
        prog = helpers.abba_deadlock()
        with pytest.raises(ExplorationError, match="diverged at step 2"):
            Engine(prog, CooperativeScheduler(), prefix=["T1", "T2", "T2"]).run()

