"""Order-violation and deadlock detector tests."""

import subprocess
import sys
from pathlib import Path

import networkx as nx

from repro.detectors import (
    DeadlockDetector,
    FindingKind,
    OrderViolationDetector,
    build_lock_order_graph,
)
from repro.sim import (
    Acquire,
    CooperativeScheduler,
    FixedScheduler,
    Program,
    Read,
    Release,
    RoundRobinScheduler,
    Write,
    find_schedule,
    run_program,
)
from tests import helpers


class TestUseBeforeInit:
    def detect(self, program, schedule):
        result = run_program(program, FixedScheduler(schedule, strict=False))
        return OrderViolationDetector.for_program(program).analyse(result.trace)

    def test_crash_after_uninitialised_read_flagged(self):
        # The reader crashes before Init ever writes: crash evidence.
        prog = helpers.null_deref_race()
        report = self.detect(prog, ["Reader", "Init"])
        violations = report.of_kind(FindingKind.ORDER_VIOLATION)
        assert violations
        assert violations[0].variables == ("ptr",)
        assert "Reader" in violations[0].threads
        assert "crashed" in violations[0].description

    def test_consumed_initial_value_flagged_without_crash(self):
        def consumer():
            pointer = yield Read("ptr")
            yield Write("out", pointer)  # silently uses the bad value

        def initialiser():
            yield Write("ptr", "object")

        prog = Program(
            "silent-use-before-init",
            threads={"C": consumer, "I": initialiser},
            initial={"ptr": None, "out": "unset"},
        )
        report = self.detect(prog, ["C", "C", "I"])
        violations = report.of_kind(FindingKind.ORDER_VIOLATION)
        assert violations
        assert set(violations[0].threads) == {"C", "I"}
        assert violations[0].variables == ("ptr",)

    def test_read_after_init_clean(self):
        prog = helpers.null_deref_race()
        report = self.detect(prog, ["Init", "Reader", "Reader"])
        assert report.of_kind(FindingKind.ORDER_VIOLATION) == []

    def test_correct_handoff_clean(self):
        prog = helpers.ordered_handoff()
        result = run_program(prog, RoundRobinScheduler())
        report = OrderViolationDetector.for_program(prog).analyse(result.trace)
        assert report.clean

    def test_same_thread_init_and_use_not_flagged(self):
        def self_init():
            yield Write("ptr", "obj")
            yield Read("ptr")

        prog = Program("self", threads={"T": self_init}, initial={"ptr": None})
        result = run_program(prog, CooperativeScheduler())
        report = OrderViolationDetector.for_program(prog).analyse(result.trace)
        assert report.clean

    def test_detector_without_initials_sees_nothing(self):
        prog = helpers.null_deref_race()
        result = run_program(prog, FixedScheduler(["Reader"], strict=False))
        report = OrderViolationDetector().analyse(result.trace)
        assert report.of_kind(FindingKind.ORDER_VIOLATION) == []


class TestLostNotification:
    def test_lost_wakeup_hang_flagged(self):
        prog = helpers.lost_wakeup()
        schedule = ["Waiter", "Signaller", "Signaller", "Signaller", "Signaller"]
        result = run_program(prog, FixedScheduler(schedule, strict=False))
        report = OrderViolationDetector.for_program(prog).analyse(result.trace)
        kinds = {f.kind for f in report}
        assert FindingKind.ORDER_VIOLATION in kinds  # lost notify, later park
        assert FindingKind.HANG in kinds  # terminal stall on the condvar

    def test_correct_condvar_protocol_is_clean(self):
        """Checking the flag *under the lock* is the correct idiom: no report."""
        from repro.sim import Notify, Wait

        def waiter():
            yield Acquire("L")
            done = yield Read("done")
            if not done:
                yield Wait("cv")
            yield Release("L")

        def signaller():
            yield Acquire("L")
            yield Write("done", True)
            yield Notify("cv")
            yield Release("L")

        prog = Program(
            "correct-cv",
            threads={"Waiter": waiter, "Signaller": signaller},
            initial={"done": False},
            locks=["L"],
            conditions={"cv": "L"},
        )
        detector = OrderViolationDetector.for_program(prog)
        from repro.sim import Explorer

        exploration = Explorer(prog).explore(
            predicate=lambda run: not detector.analyse(run.trace).clean
        )
        assert exploration.complete
        assert not exploration.found

    def test_buggy_helper_flagged_even_on_benign_schedule(self):
        """Predictive strength: the unprotected check is visible in good runs."""
        prog = helpers.lost_wakeup()
        schedule = ["Waiter", "Waiter", "Waiter", "Signaller", "Signaller",
                    "Signaller", "Signaller", "Waiter", "Waiter"]
        result = run_program(prog, FixedScheduler(schedule, strict=False))
        report = OrderViolationDetector.for_program(prog).analyse(result.trace)
        assert not report.clean


class TestDeadlockDetector:
    def test_observed_deadlock_reported(self):
        prog = helpers.abba_deadlock()
        failing = find_schedule(prog)
        report = DeadlockDetector().analyse(failing.trace)
        observed = report.of_kind(FindingKind.DEADLOCK)
        assert observed
        assert set(observed[0].resources) == {"A", "B"}
        assert set(observed[0].threads) == {"T1", "T2"}

    def test_cycle_predicted_from_successful_run(self):
        """The Goodlock property: a good run still reveals the lock-order cycle."""
        prog = helpers.abba_deadlock()
        good = run_program(prog, CooperativeScheduler())
        assert good.ok
        report = DeadlockDetector().analyse(good.trace)
        predicted = report.of_kind(FindingKind.POTENTIAL_DEADLOCK)
        assert predicted
        assert set(predicted[0].resources) == {"A", "B"}

    def test_consistent_order_predicts_nothing(self):
        def ordered():
            yield Acquire("A")
            yield Acquire("B")
            yield Release("B")
            yield Release("A")

        prog = Program(
            "consistent", threads={"T1": ordered, "T2": ordered}, locks=["A", "B"]
        )
        result = run_program(prog, CooperativeScheduler())
        assert DeadlockDetector().analyse(result.trace).clean

    def test_self_deadlock_reported_as_single_resource(self):
        prog = helpers.self_deadlock()
        result = run_program(prog, CooperativeScheduler())
        report = DeadlockDetector().analyse(result.trace)
        singles = [f for f in report if len(f.resources) == 1]
        assert singles
        assert singles[0].resources == ("L",)
        assert singles[0].kind is FindingKind.DEADLOCK

    def test_hang_is_not_a_lock_deadlock(self):
        prog = helpers.lost_wakeup()
        schedule = ["Waiter", "Signaller", "Signaller", "Signaller", "Signaller"]
        result = run_program(prog, FixedScheduler(schedule, strict=False))
        report = DeadlockDetector().analyse(result.trace)
        assert report.of_kind(FindingKind.DEADLOCK) == []


class TestLockOrderGraph:
    def test_graph_edges_reflect_nesting(self):
        prog = helpers.abba_deadlock()
        trace = run_program(prog, CooperativeScheduler()).trace
        graph = build_lock_order_graph(trace)
        assert graph.has_edge("A", "B")
        assert graph.has_edge("B", "A")

    def test_witnesses_attached(self):
        prog = helpers.abba_deadlock()
        trace = run_program(prog, CooperativeScheduler()).trace
        graph = build_lock_order_graph(trace)
        witnesses = graph.edges["A", "B"]["witnesses"]
        assert witnesses and witnesses[0][0] == "T1"

    def test_three_lock_cycle_detected(self):
        def t(first, second):
            def body():
                yield Acquire(first)
                yield Acquire(second)
                yield Release(second)
                yield Release(first)

            return body

        prog = Program(
            "three-cycle",
            threads={"T1": t("A", "B"), "T2": t("B", "C"), "T3": t("C", "A")},
            locks=["A", "B", "C"],
        )
        result = run_program(prog, CooperativeScheduler())
        assert result.ok
        report = DeadlockDetector().analyse(result.trace)
        predicted = report.of_kind(FindingKind.POTENTIAL_DEADLOCK)
        assert any(set(f.resources) == {"A", "B", "C"} for f in predicted)

    def test_cycle_text_does_not_depend_on_the_hash_seed(self):
        """Cycles are named from their least lock, so ``repro static``
        prints one text under every ``PYTHONHASHSEED``."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        texts = set()
        for seed in "0123":
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "static", "deadlock_three_way"],
                capture_output=True, text=True, check=True, timeout=120,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": ""},
            )
            texts.add("".join(
                line for line in proc.stdout.splitlines(keepends=True)
                if "wall time" not in line
            ))
        (text,) = texts
        assert "lock-order cycle A -> B -> C -> A: some schedule" in text

    def test_blocked_acquire_contributes_edge(self):
        prog = helpers.abba_deadlock()
        failing = find_schedule(prog)
        graph = build_lock_order_graph(failing.trace)
        # Neither nested acquire executed, but the deadlock event names both.
        assert nx.has_path(graph, "A", "B") or nx.has_path(graph, "B", "A")
