"""Differential harness: the shared pipeline must equal batch analysis.

The streaming refactor is only sound if it is *invisible*: a shared
:class:`~repro.detectors.pipeline.DetectorPipeline` pass over a trace —
or riding along with the explorer (`analyse_online`) — must produce
byte-for-byte the same findings as one pass per detector (the
reference, ``helpers.per_detector_reports``).  These tests prove that
over a generated program corpus and over the exploration option matrix
(memoize x preemption_bound), and pin the efficiency claims:
one event dispatch per (event, pipeline) rather than per detector, and
prefix reuse across sibling schedules.
"""

import pytest
from hypothesis import assume, given, settings

from repro.detectors import DetectorSuite, SuiteResult, default_detectors
from repro.detectors.happensbefore import HappensBeforeDetector
from repro.detectors.pipeline import DetectorPipeline
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.sim import CooperativeScheduler, run_program
from repro.sim import explorer as explorer_mod
from repro.sim.explorer import Explorer, make_explorer
from tests import helpers
from tests.helpers import corpus_programs

BUDGET = 4000


def finding_key(finding):
    """A comparable identity for one finding (FindingKind is not orderable)."""
    return (
        finding.kind.value,
        finding.detector,
        finding.description,
        finding.threads,
        finding.variables,
        finding.resources,
        finding.events,
    )


def report_keys(result):
    """Detector name -> sorted finding keys, for whole-suite comparison."""
    return {
        name: sorted(finding_key(f) for f in report)
        for name, report in result.reports.items()
    }


def reference_suite(program, traces):
    """One single-detector pipeline per detector: the independent reference."""
    return SuiteResult(
        reports=helpers.per_detector_reports(default_detectors(program), traces)
    )


def collect_traces(program, **options):
    """Every explored run's trace, plus the exploration result."""
    explorer = make_explorer(
        program, max_schedules=BUDGET, keep_matches=10**9, **options
    )
    result = explorer.explore(predicate=lambda run: True)
    return [run.trace for run in result.matching], result


FIXED_PROGRAMS = [
    helpers.racy_counter(),
    helpers.locked_counter(),
    helpers.abba_deadlock(),
    helpers.lost_wakeup(),
    helpers.null_deref_race(),
    helpers.ordered_handoff(),
]

OPTION_MATRIX = [
    {"memoize": False, "preemption_bound": None},
    {"memoize": True, "preemption_bound": None},
    {"memoize": False, "preemption_bound": 1},
    {"memoize": True, "preemption_bound": 1},
]


class TestStreamingEqualsBatch:
    """`DetectorSuite`'s shared pass == one pipeline per detector."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(corpus_programs())
    def test_corpus_traces(self, program):
        traces, result = collect_traces(program)
        assume(result.complete)
        batch = reference_suite(program, traces)
        streaming = DetectorSuite.for_program(program).analyse_many(traces)
        assert report_keys(streaming) == report_keys(batch)

    @pytest.mark.parametrize(
        "options",
        OPTION_MATRIX,
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    @pytest.mark.parametrize(
        "program", FIXED_PROGRAMS, ids=lambda p: p.name
    )
    def test_option_matrix(self, program, options):
        # Whatever trace set the exploration options yield, streaming and
        # batch must read it the same way.
        traces, _ = collect_traces(program, **options)
        assert traces
        batch = reference_suite(program, traces)
        streaming = DetectorSuite.for_program(program).analyse_many(traces)
        assert report_keys(streaming) == report_keys(batch)

    def test_single_trace_analyse(self):
        program = helpers.racy_counter()
        trace = run_program(program, CooperativeScheduler()).trace
        batch = reference_suite(program, [trace])
        streaming = DetectorSuite.for_program(program).analyse(trace)
        assert report_keys(streaming) == report_keys(batch)


class TestOnlineEqualsBatch:
    """`analyse_online` == batch analysis of every explored trace."""

    @pytest.mark.parametrize(
        "bound", [None, 1], ids=["serial", "bounded"],
    )
    @pytest.mark.parametrize(
        "program", FIXED_PROGRAMS, ids=lambda p: p.name
    )
    def test_fixed_programs(self, program, bound):
        traces, _ = collect_traces(program, preemption_bound=bound)
        batch = DetectorSuite.for_program(program).analyse_many(traces)
        online = DetectorSuite.for_program(program).analyse_online(
            program,
            max_schedules=BUDGET,
            preemption_bound=bound,
        )
        assert report_keys(online) == report_keys(batch)
        assert online.exploration is not None
        assert online.exploration.pipeline_stats is not None

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(corpus_programs())
    def test_corpus(self, program):
        traces, result = collect_traces(program)
        assume(result.complete)
        batch = DetectorSuite.for_program(program).analyse_many(traces)
        online = DetectorSuite.for_program(program).analyse_online(
            program, max_schedules=BUDGET
        )
        assert report_keys(online) == report_keys(batch)

    def test_sleep_set_reduction_finds_same_bugs(self):
        # The reduced explorer prunes equivalent interleavings, so the
        # online pipeline sees fewer traces — but never fewer *distinct*
        # findings on the canonical deadlock kernel.
        program = helpers.abba_deadlock()
        serial = DetectorSuite.for_program(program).analyse_online(
            program, max_schedules=BUDGET
        )
        bounded = DetectorSuite.for_program(program).analyse_online(
            program, max_schedules=BUDGET, preemption_bound=2
        )
        assert not serial.clean
        assert report_keys(bounded) == report_keys(serial)


class TestSingleDispatch:
    """One dispatch per (event, pipeline), regardless of detector count."""

    def _traces(self, program):
        traces, _ = collect_traces(program)
        return traces

    def test_dispatch_count_independent_of_detector_count(self):
        program = helpers.racy_counter()
        traces = self._traces(program)
        total_events = sum(len(t.events()) for t in traces)

        full = DetectorPipeline(default_detectors(program))
        solo = DetectorPipeline([HappensBeforeDetector()])
        for trace in traces:
            full.run_trace(trace)
            solo.run_trace(trace)

        assert len(full.detectors) == 5
        assert full.stats.events_dispatched == total_events
        assert solo.stats.events_dispatched == full.stats.events_dispatched

    def test_online_dispatch_plus_reuse_covers_every_event(self):
        program = helpers.racy_counter(threads=3)
        traces = self._traces(program)
        total_events = sum(len(t.events()) for t in traces)

        online = DetectorSuite.for_program(program).analyse_online(
            program, max_schedules=BUDGET
        )
        stats = online.exploration.pipeline_stats
        assert stats["events_dispatched"] + stats["events_reused"] == total_events
        # Sibling schedules share prefixes, so reuse must actually occur…
        assert stats["events_reused"] > 0
        assert 0 < stats["reuse_ratio"] < 1
        # …via the snapshot/restore machinery.
        assert stats["snapshots"] > 0
        assert stats["restores"] > 0
        assert stats["passes"] == online.exploration.schedules_run

    def test_metrics_registry_sees_pipeline_counters(self):
        program = helpers.racy_counter()
        registry = obs_metrics.enable()
        try:
            online = DetectorSuite.for_program(program).analyse_online(
                program, max_schedules=BUDGET
            )
        finally:
            obs_metrics.disable()
        stats = online.exploration.pipeline_stats
        assert (
            registry.counter("pipeline.events_dispatched", program=program.name)
            == stats["events_dispatched"]
        )
        assert (
            registry.counter("pipeline.events_reused", program=program.name)
            == stats["events_reused"]
        )
        assert (
            registry.counter("pipeline.passes", program=program.name)
            == stats["passes"]
        )


class TestRunlogRecord:
    """`analyse_online`'s search writes one ``explorer.search`` record,
    with the pipeline's fields."""

    def test_record_shape(self):
        program = helpers.abba_deadlock()
        records = []
        obs_runlog.set_runlog(records.append)
        try:
            result = DetectorSuite.for_program(program).analyse_online(
                program, max_schedules=BUDGET
            )
        finally:
            obs_runlog.clear_runlog()
        assert [r["event"] for r in records] == ["explorer.search"]
        record = records[0]
        assert record["schema"] == obs_runlog.SCHEMA
        assert record["program"] == program.name
        assert record["explorer"] == "dfs"
        assert record["args"]["memoize"] is False
        assert record["pipeline"]["events_dispatched"] > 0
        assert record["findings"] == {
            name: len(report) for name, report in result.reports.items()
        }
        assert record["first_finding_step"] == record["pipeline"]["first_finding_step"]
        assert record["result"]["schedules_run"] == result.exploration.schedules_run


class TestPublicSurface:
    """Satellite guarantees: factory naming and trace immutability."""

    def test_make_explorer_is_public(self):
        assert "make_explorer" in explorer_mod.__all__
        assert isinstance(
            make_explorer(helpers.racy_counter(), max_schedules=10), Explorer
        )

    def test_trace_events_returns_tuple(self):
        trace = run_program(
            helpers.racy_counter(), CooperativeScheduler()
        ).trace
        events = trace.events()
        assert isinstance(events, tuple)
        assert events == trace.events()
