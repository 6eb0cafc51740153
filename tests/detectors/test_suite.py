"""Detector suite composition tests."""

from repro.detectors import (
    DetectorSuite,
    FindingKind,
    HappensBeforeDetector,
    default_detectors,
)
from repro.sim import FixedScheduler, RandomScheduler, run_program
from tests import helpers


class TestSuite:
    def test_default_battery_has_five_detectors(self):
        suite = DetectorSuite()
        assert len(suite.detectors) == 5
        names = {d.name for d in suite.detectors}
        assert names == {
            "happens-before",
            "lockset",
            "atomicity",
            "order-violation",
            "deadlock",
        }

    def test_racy_counter_flagged_by_race_detectors(self):
        prog = helpers.racy_counter()
        trace = run_program(prog, FixedScheduler(["T1", "T2", "T2", "T1"])).trace
        result = DetectorSuite.for_program(prog).analyse(trace)
        flagged = result.flagged_by()
        assert "happens-before" in flagged
        assert "lockset" in flagged
        assert "atomicity" in flagged
        assert "deadlock" not in flagged

    def test_deadlock_flagged_only_by_deadlock_detector(self):
        from repro.sim import find_schedule

        prog = helpers.abba_deadlock()
        failing = find_schedule(prog)
        result = DetectorSuite.for_program(prog).analyse(failing.trace)
        assert "deadlock" in result.flagged_by()
        assert "happens-before" not in result.flagged_by()

    def test_clean_program_is_clean_everywhere(self):
        prog = helpers.locked_counter()
        trace = run_program(prog, RandomScheduler(seed=4)).trace
        result = DetectorSuite.for_program(prog).analyse(trace)
        assert result.clean
        assert result.flagged_by() == []

    def test_kinds_found_aggregates(self):
        prog = helpers.racy_counter()
        trace = run_program(prog, FixedScheduler(["T1", "T2", "T2", "T1"])).trace
        result = DetectorSuite.for_program(prog).analyse(trace)
        kinds = result.kinds_found()
        assert FindingKind.DATA_RACE in kinds
        assert FindingKind.ATOMICITY_VIOLATION in kinds

    def test_analyse_many_merges_across_traces(self):
        prog = helpers.racy_counter()
        traces = [
            run_program(prog, RandomScheduler(seed=s)).trace for s in range(5)
        ]
        result = DetectorSuite.for_program(prog).analyse_many(traces)
        assert "lockset" in result.flagged_by()

    def test_format_renders_every_detector(self):
        prog = helpers.locked_counter()
        trace = run_program(prog, RandomScheduler(seed=1)).trace
        text = DetectorSuite.for_program(prog).analyse(trace).format()
        for name in ("happens-before", "lockset", "atomicity"):
            assert name in text

    def test_default_detectors_without_program(self):
        detectors = default_detectors()
        assert len(detectors) == 5

    def test_report_accessor(self):
        prog = helpers.racy_counter()
        trace = run_program(prog, FixedScheduler(["T1", "T2", "T2", "T1"])).trace
        result = DetectorSuite.for_program(prog).analyse(trace)
        assert result.report("happens-before").findings


class TestAnalyseStatic:
    """The static-vs-dynamic cross-check (see also tests/static/)."""

    def analyse(self, program, predicate=None):
        suite = DetectorSuite.for_program(program)
        return suite.analyse_static(program, predicate=predicate)

    def test_racy_counter_full_agreement(self):
        comparison = self.analyse(
            helpers.racy_counter(),
            predicate=lambda run: run.memory["counter"] == 1,
        )
        assert comparison.sound
        assert comparison.precision == 1.0
        assert comparison.recall == 1.0
        assert comparison.confirmed and not comparison.missed
        kinds = {f.kind for f in comparison.recalled}
        assert FindingKind.DATA_RACE in kinds
        assert FindingKind.ATOMICITY_VIOLATION in kinds

    def test_clean_program_trivially_sound(self):
        comparison = self.analyse(helpers.locked_counter())
        assert comparison.sound
        assert comparison.precision == 1.0 and comparison.recall == 1.0
        assert not comparison.confirmed
        assert not comparison.unconfirmed_candidates

    def test_semaphore_ordering_counts_as_imprecision(self):
        # Dynamically clean (semaphores order the accesses), statically
        # flagged: the candidates land in unconfirmed_candidates and drag
        # precision below 1 while recall stays perfect.
        comparison = self.analyse(helpers.ordered_handoff())
        assert comparison.sound
        assert comparison.recall == 1.0
        assert comparison.unconfirmed_candidates
        assert comparison.precision < 1.0

    def test_deadlock_matched_by_resource_set(self):
        from repro.sim import RunStatus

        comparison = self.analyse(
            helpers.abba_deadlock(),
            predicate=lambda run: run.status is RunStatus.DEADLOCK,
        )
        assert comparison.sound
        deadlocks = [
            f for f in comparison.recalled
            if f.kind in (FindingKind.DEADLOCK, FindingKind.POTENTIAL_DEADLOCK)
        ]
        assert deadlocks
        for finding in deadlocks:
            assert set(finding.resources) <= {"A", "B"}

    def test_findings_deduplicated_across_detectors(self):
        # happens-before and lockset both report the same race; the
        # comparison must count one confirmed problem, not two.
        comparison = self.analyse(
            helpers.racy_counter(),
            predicate=lambda run: run.memory["counter"] == 1,
        )
        races = [
            f for f in comparison.confirmed if f.kind is FindingKind.DATA_RACE
        ]
        assert len(races) == 1

    def test_format_and_json_round_trip(self):
        import json

        comparison = self.analyse(
            helpers.racy_counter(),
            predicate=lambda run: run.memory["counter"] == 1,
        )
        text = comparison.format()
        assert "precision" in text and "recall" in text
        decoded = json.loads(json.dumps(comparison.to_json()))
        assert decoded["sound"] is True
        assert decoded["static"]["program"] == "racy-counter"

    def test_runlog_record_emitted(self, tmp_path):
        import json

        from repro.obs import runlog as obs_runlog

        path = tmp_path / "runlog.jsonl"
        obs_runlog.set_runlog(str(path))
        try:
            self.analyse(
                helpers.racy_counter(),
                predicate=lambda run: run.memory["counter"] == 1,
            )
        finally:
            obs_runlog.clear_runlog()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [r for r in records if r["event"] == "suite.analyse_static"]
        assert events
        assert events[0]["recall"] == 1.0
        assert events[0]["sound"] is True
