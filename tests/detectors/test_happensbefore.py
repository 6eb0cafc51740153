"""Happens-before race detector tests against known programs."""

from repro.detectors import FindingKind, HappensBeforeDetector
from repro.sim import (
    Acquire,
    AtomicUpdate,
    CooperativeScheduler,
    FixedScheduler,
    Program,
    RandomScheduler,
    Read,
    Release,
    RoundRobinScheduler,
    Write,
    run_program,
)
from tests import helpers


def detect(program, scheduler=None):
    result = run_program(program, scheduler or RoundRobinScheduler())
    return HappensBeforeDetector().analyse(result.trace)


class TestRaceDetection:
    def test_unlocked_counter_races(self):
        report = detect(helpers.racy_counter())
        races = report.of_kind(FindingKind.DATA_RACE)
        assert races
        assert all(f.variables == ("counter",) for f in races)

    def test_race_found_even_in_correct_order_schedule(self):
        # HB detects unordered accesses regardless of observed outcome.
        report = detect(helpers.racy_counter(), CooperativeScheduler())
        assert not report.clean

    def test_locked_counter_is_race_free(self):
        assert detect(helpers.locked_counter()).clean

    def test_locked_counter_race_free_all_schedules(self):
        from repro.sim import enumerate_outcomes

        detector = HappensBeforeDetector()
        prog = helpers.locked_counter()
        for seed in range(10):
            trace = run_program(prog, RandomScheduler(seed=seed)).trace
            assert detector.analyse(trace).clean

    def test_read_read_is_not_a_race(self):
        def reader():
            yield Read("x")

        prog = Program(
            "rr", threads={"A": reader, "B": reader}, initial={"x": 0}
        )
        assert detect(prog).clean

    def test_write_write_is_a_race(self):
        def writer():
            yield Write("x", 1)

        prog = Program(
            "ww", threads={"A": writer, "B": writer}, initial={"x": 0}
        )
        report = detect(prog)
        assert len(report.of_kind(FindingKind.DATA_RACE)) == 1

    def test_atomic_pair_is_not_a_race(self):
        def bumper():
            yield AtomicUpdate("x", lambda v: v + 1)

        prog = Program(
            "atomic", threads={"A": bumper, "B": bumper}, initial={"x": 0}
        )
        assert detect(prog).clean

    def test_atomic_vs_plain_is_a_race(self):
        def bumper():
            yield AtomicUpdate("x", lambda v: v + 1)

        def plain():
            yield Write("x", 9)

        prog = Program(
            "mixed", threads={"A": bumper, "B": plain}, initial={"x": 0}
        )
        assert not detect(prog).clean


class TestSynchronisationEdges:
    def test_semaphore_handoff_orders_accesses(self):
        assert detect(helpers.ordered_handoff()).clean

    def test_spawn_join_orders_accesses(self):
        assert detect(helpers.spawn_join_chain(), CooperativeScheduler()).clean

    def test_barrier_orders_pre_and_post(self):
        def before():
            yield Write("x", 1)
            yield helpers.BarrierWait("bar")

        def after():
            yield helpers.BarrierWait("bar")
            yield Read("x")

        prog = Program(
            "barrier-hb",
            threads={"P": before, "C": after},
            initial={"x": 0},
            barriers={"bar": 2},
        )
        assert detect(prog).clean

    def test_condvar_notify_orders_accesses(self):
        def producer():
            yield Acquire("L")
            yield Write("data", 7)
            yield helpers.Notify("cv")
            yield Release("L")

        def consumer():
            yield Acquire("L")
            yield helpers.Wait("cv")
            yield Read("data")
            yield Release("L")

        prog = Program(
            "cv-hb",
            threads={"C": consumer, "P": producer},
            initial={"data": 0},
            locks=["L"],
            conditions={"cv": "L"},
        )
        # Schedule so the consumer parks before the producer notifies.
        schedule = ["C", "C", "P", "P", "P", "P", "C", "C", "C"]
        result = run_program(prog, FixedScheduler(schedule, strict=False))
        assert HappensBeforeDetector().analyse(result.trace).clean

    def test_rwlock_protected_accesses_are_ordered(self):
        report = detect(helpers.rwlock_readers_writer())
        data_races = [
            f
            for f in report.of_kind(FindingKind.DATA_RACE)
            if "data" in f.variables
        ]
        assert data_races == []

    def test_unrelated_variable_not_implicated(self):
        report = detect(helpers.racy_counter())
        assert report.variables() == ["counter"]


class TestReportShape:
    def test_findings_carry_event_seqs(self):
        report = detect(helpers.racy_counter())
        finding = report.findings[0]
        assert len(finding.events) == 2
        assert finding.events[0] < finding.events[1]

    def test_duplicate_findings_are_merged(self):
        report = detect(helpers.racy_counter())
        assert len(set(report.findings)) == len(report.findings)

    def test_analyse_many_merges(self):
        detector = HappensBeforeDetector()
        prog = helpers.racy_counter()
        traces = [
            run_program(prog, RandomScheduler(seed=s)).trace for s in range(3)
        ]
        merged = helpers.per_detector_reports([detector], traces)[detector.name]
        assert not merged.clean
