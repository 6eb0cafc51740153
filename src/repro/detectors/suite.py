"""Run every detector class side by side, the way the study compares them.

The ASPLOS'08 implications sections argue about *tool coverage*: race
detectors cannot see all atomicity violations (a bug can be atomicity-
broken yet race-free under lock-protected accesses), atomicity detectors
miss order violations and multi-variable bugs, and deadlock detection is a
separate analysis entirely.  :class:`DetectorSuite` makes those statements
measurable on our executable kernels: give it traces, get a per-detector
report and a coverage map.

Two execution modes share one API:

* :meth:`DetectorSuite.analyse_many` runs the whole battery through a
  single shared :class:`~repro.detectors.pipeline.DetectorPipeline` pass
  per trace — each event is dispatched once, not once per detector.
* :meth:`DetectorSuite.analyse_online` goes further and analyses *during*
  exploration: the explorer feeds events to the pipeline as the engine
  executes, reusing analysis state along shared schedule prefixes.

:meth:`DetectorSuite.analyse_static` closes the loop with the static
layer: it runs :func:`repro.static.analyse` (zero schedules) next to a
dynamic exploration of the same program, and :func:`compare_static`
scores the static predictions against the dynamically confirmed
findings — the precision/recall evidence behind ``repro static`` and
the lifter's :func:`repro.static.lift.confirm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.detectors.atomicity import AtomicityDetector
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.detectors.base import Detector, FindingKind, Report
from repro.detectors.deadlock import DeadlockDetector
from repro.detectors.happensbefore import HappensBeforeDetector
from repro.detectors.lockset import LocksetDetector
from repro.detectors.orderviolation import OrderViolationDetector
from repro.detectors.pipeline import DetectorPipeline
from repro.sim.engine import RunResult, run_program
from repro.sim.explorer import ExplorationResult, make_explorer
from repro.sim.program import Program
from repro.sim.scheduler import CooperativeScheduler
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - layering: static imports stay lazy
    from repro.static.lockset import StaticCandidate
    from repro.static.report import StaticReport

__all__ = [
    "DetectorSuite",
    "StaticComparison",
    "SuiteResult",
    "compare_static",
    "default_detectors",
]


def default_detectors(program: Optional[Program] = None) -> List[Detector]:
    """The standard detector battery (order-violation needs the program)."""
    order = (
        OrderViolationDetector.for_program(program)
        if program is not None
        else OrderViolationDetector()
    )
    return [
        HappensBeforeDetector(),
        LocksetDetector(),
        AtomicityDetector(),
        order,
        DeadlockDetector(),
    ]


@dataclass
class SuiteResult:
    """Per-detector reports for one set of traces."""

    reports: Dict[str, Report] = field(default_factory=dict)
    #: For the exploring modes: the exploration the findings came from
    #: (online pipeline counters live on ``exploration.pipeline_stats``).
    #: ``None`` for trace-based modes.
    exploration: Optional[ExplorationResult] = None

    def report(self, detector: str) -> Report:
        """The report of one detector by name."""
        return self.reports[detector]

    def flagged_by(self) -> List[str]:
        """Names of detectors that produced at least one finding."""
        return sorted(name for name, report in self.reports.items() if not report.clean)

    def kinds_found(self) -> List[FindingKind]:
        """All finding kinds across detectors, unique and ordered by value."""
        kinds = {f.kind for report in self.reports.values() for f in report}
        return sorted(kinds, key=lambda k: k.value)

    @property
    def clean(self) -> bool:
        """No detector found anything."""
        return all(report.clean for report in self.reports.values())

    def format(self) -> str:
        """Console-ready rendering of every report."""
        return "\n".join(
            self.reports[name].format() for name in sorted(self.reports)
        )


#: Static candidate kinds a dynamic finding kind may be matched against.
#: Deliberately same-class: a dynamic race only counts as predicted by a
#: static *race* candidate, never by e.g. an atomicity candidate on the
#: same variable — agreement must hold per bug class, as in the study's
#: per-tool coverage tables.
_STATIC_KINDS = {
    FindingKind.DATA_RACE: frozenset({"data-race"}),
    FindingKind.ATOMICITY_VIOLATION: frozenset({"atomicity-violation"}),
    FindingKind.ORDER_VIOLATION: frozenset({"order-violation"}),
    FindingKind.DEADLOCK: frozenset({"deadlock"}),
    FindingKind.POTENTIAL_DEADLOCK: frozenset({"deadlock"}),
}


def _static_scope(finding) -> bool:
    """Whether a dynamic finding is in the static analyzer's scope.

    Races, atomicity violations, and order violations are matched by
    shared variable, so they need one; deadlocks are matched by resource
    set.  Out of scope stay (a) ``HANG`` — a liveness verdict about one
    executed schedule, which no zero-schedule analysis can phrase — and
    (b) order findings without variables (the lost-notification shape is
    reported against a condvar resource; statically it surfaces as a
    race/order candidate on the guarded *variable* instead).
    """
    kinds = _STATIC_KINDS.get(finding.kind)
    if kinds is None:
        return False
    if finding.kind in (FindingKind.DEADLOCK, FindingKind.POTENTIAL_DEADLOCK):
        return bool(finding.resources)
    return bool(finding.variables)


def _predicts(candidate: "StaticCandidate", finding) -> bool:
    """Whether one active static candidate predicts one dynamic finding."""
    if candidate.kind not in _STATIC_KINDS[finding.kind]:
        return False
    if finding.kind in (FindingKind.DEADLOCK, FindingKind.POTENTIAL_DEADLOCK):
        found = frozenset(finding.resources)
        predicted = frozenset(candidate.resources)
        # Subset either way: a dynamic deadlock names the cycle actually
        # hit, a static candidate the cycle in the graph — a three-lock
        # static cycle covers the two-lock deadlock a schedule realises.
        return bool(predicted) and (predicted <= found or found <= predicted)
    return bool(set(candidate.variables) & set(finding.variables))


@dataclass
class StaticComparison:
    """Static predictions scored against dynamically confirmed findings.

    ``confirmed`` holds the in-scope dynamic findings (de-duplicated on
    ``(kind, variables, resources)`` across detectors); ``out_of_scope``
    the rest.  ``recalled``/``missed`` partition ``confirmed`` by whether
    an active static candidate of the same bug class predicts them;
    ``confirmed_candidates``/``unconfirmed_candidates`` partition the
    active static candidates the other way around.
    """

    program: str
    static: "StaticReport"
    dynamic: SuiteResult
    confirmed: List[Any] = field(default_factory=list)
    out_of_scope: List[Any] = field(default_factory=list)
    recalled: List[Any] = field(default_factory=list)
    missed: List[Any] = field(default_factory=list)
    confirmed_candidates: List["StaticCandidate"] = field(default_factory=list)
    unconfirmed_candidates: List["StaticCandidate"] = field(default_factory=list)

    @property
    def precision(self) -> float:
        """Fraction of active static candidates dynamically confirmed."""
        predicted = len(self.confirmed_candidates) + len(self.unconfirmed_candidates)
        return len(self.confirmed_candidates) / predicted if predicted else 1.0

    @property
    def recall(self) -> float:
        """Fraction of confirmed dynamic findings statically predicted."""
        return len(self.recalled) / len(self.confirmed) if self.confirmed else 1.0

    @property
    def sound(self) -> bool:
        """Every confirmed dynamic finding was statically predicted."""
        return not self.missed

    def format(self) -> str:
        """Console-ready rendering of the cross-check."""
        lines = [
            f"static vs dynamic on {self.program!r}: "
            f"precision {self.precision:.0%}, recall {self.recall:.0%} "
            f"({len(self.confirmed)} confirmed, "
            f"{len(self.confirmed_candidates)}/"
            f"{len(self.confirmed_candidates) + len(self.unconfirmed_candidates)}"
            " predictions confirmed)"
        ]
        for finding in self.recalled:
            lines.append(f"  predicted+confirmed: {finding.summary()}")
        for finding in self.missed:
            lines.append(f"  MISSED statically:   {finding.summary()}")
        for cand in self.unconfirmed_candidates:
            lines.append(
                f"  unconfirmed prediction: [{cand.kind}] {cand.description}"
            )
        for finding in self.out_of_scope:
            lines.append(f"  out of static scope: {finding.summary()}")
        if self.static.approximate:
            lines.append("  note: static summaries are approximate")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready dict (CLI ``--json`` and the runlog record body)."""
        def finding_dict(finding) -> Dict[str, Any]:
            return {
                "kind": finding.kind.value,
                "detector": finding.detector,
                "variables": list(finding.variables),
                "resources": list(finding.resources),
            }

        return {
            "program": self.program,
            "precision": self.precision,
            "recall": self.recall,
            "sound": self.sound,
            "confirmed": [finding_dict(f) for f in self.confirmed],
            "missed": [finding_dict(f) for f in self.missed],
            "out_of_scope": [finding_dict(f) for f in self.out_of_scope],
            "unconfirmed_candidates": [
                {"kind": c.kind, "description": c.description}
                for c in self.unconfirmed_candidates
            ],
            "static": self.static.to_json(),
        }


def _dedup_findings(result: SuiteResult) -> List[Any]:
    """All findings across detectors, one per (kind, variables, resources).

    The battery reports the same underlying problem through several
    detectors (happens-before and lockset both flag a race); scoring
    recall per *problem* rather than per *report* keeps one miss from
    counting twice.
    """
    seen: Dict[Tuple[Any, ...], Any] = {}
    for name in sorted(result.reports):
        for finding in result.reports[name]:
            key = (finding.kind, finding.variables, finding.resources)
            seen.setdefault(key, finding)
    return list(seen.values())


def _record_suite(result: SuiteResult) -> SuiteResult:
    """Tally per-detector verdicts and findings into the metrics registry.

    One ``detector.verdicts`` increment per detector per analysis
    (labelled clean/flagged) plus one ``detector.findings`` increment
    per finding (labelled by kind) — the coverage-matrix evidence in
    countable form.  No-op while metrics are disabled.
    """
    registry = obs_metrics.active()
    if registry is not None:
        for name, report in result.reports.items():
            registry.inc("detector.analyses", 1, detector=name)
            registry.inc(
                "detector.verdicts", 1, detector=name,
                verdict="clean" if report.clean else "flagged",
            )
            for finding in report:
                registry.inc(
                    "detector.findings", 1, detector=name,
                    kind=finding.kind.value,
                )
    return result


def compare_static(static: "StaticReport", dynamic: SuiteResult) -> StaticComparison:
    """Score static predictions against dynamically confirmed findings.

    Matches each in-scope dynamic finding against the active static
    candidates of the *same* bug class — by shared variable for races /
    atomicity / order violations, by resource-set inclusion for
    deadlocks.  The result carries both error directions: ``missed``
    (unsoundness over this program) and ``unconfirmed_candidates``
    (imprecision).  Publishes the ``static.compare.*`` counters and one
    ``suite.analyse_static`` record (``wall_seconds``: the static
    analysis plus ``dynamic``'s exploration).
    """
    comparison = StaticComparison(
        program=static.program, static=static, dynamic=dynamic,
    )
    active = static.active()
    for finding in _dedup_findings(dynamic):
        if not _static_scope(finding):
            comparison.out_of_scope.append(finding)
            continue
        comparison.confirmed.append(finding)
        predicted = any(_predicts(cand, finding) for cand in active)
        (comparison.recalled if predicted else comparison.missed).append(
            finding
        )
    for cand in active:
        bucket = (
            comparison.confirmed_candidates
            if any(_predicts(cand, f) for f in comparison.confirmed)
            else comparison.unconfirmed_candidates
        )
        bucket.append(cand)
    registry = obs_metrics.active()
    if registry is not None:
        registry.inc("static.compare.runs", 1)
        registry.inc("static.compare.confirmed", len(comparison.confirmed))
        registry.inc("static.compare.recalled", len(comparison.recalled))
        registry.inc("static.compare.missed", len(comparison.missed))
        registry.inc(
            "static.compare.unconfirmed",
            len(comparison.unconfirmed_candidates),
        )
    if obs_runlog.active_runlog() is not None:
        search = dynamic.exploration
        obs_runlog.emit(
            "suite.analyse_static",
            program=comparison.program,
            precision=comparison.precision,
            recall=comparison.recall,
            sound=comparison.sound,
            confirmed=len(comparison.confirmed),
            missed=len(comparison.missed),
            out_of_scope=len(comparison.out_of_scope),
            unconfirmed=len(comparison.unconfirmed_candidates),
            wall_seconds=static.wall_seconds
            + (search.wall_seconds if search is not None else 0.0),
        )
    return comparison


class DetectorSuite:
    """A battery of detectors applied to one or more traces.

    Each trace is analysed in one shared pipeline pass: one event
    dispatch feeds every detector.
    """

    def __init__(self, detectors: Optional[Iterable[Detector]] = None):
        self.detectors: List[Detector] = (
            list(detectors) if detectors is not None else default_detectors()
        )

    @classmethod
    def for_program(cls, program: Program) -> "DetectorSuite":
        """Suite with program-aware detectors wired up."""
        return cls(default_detectors(program))

    def _pipeline(self) -> DetectorPipeline:
        """A fresh shared pipeline over this suite's detectors."""
        return DetectorPipeline(self.detectors)

    def analyse(self, trace: Trace) -> SuiteResult:
        """Run every detector on one trace."""
        return self.analyse_many([trace])

    def analyse_many(self, traces: Iterable[Trace]) -> SuiteResult:
        """Run every detector across several traces, merging findings."""
        pipeline = self._pipeline()
        for trace in traces:
            pipeline.run_trace(trace)
        pipeline.record_metrics()
        return _record_suite(SuiteResult(reports=dict(pipeline.reports)))

    def analyse_program(
        self,
        program: Program,
        predicate: Optional[Callable[[RunResult], bool]] = None,
        max_schedules: int = 20000,
        *,
        keep_matches: int = 16,
        reduction: Optional[str] = None,
    ) -> SuiteResult:
        """Explore the program's schedules, then analyse the interesting runs.

        Explores up to ``max_schedules`` interleavings, collects the
        traces of runs matching ``predicate`` (default: failing runs) up to
        ``keep_matches``, and feeds them through :meth:`analyse_many`.  If
        no run matches, analyses the single cooperative-schedule baseline
        run instead, so detectors still see one representative trace.
        ``reduction`` prunes schedules equivalent up to swapping
        independent operations (see
        :func:`~repro.sim.explorer.make_explorer`) — sound here because
        at least one representative of every outcome still runs.  The
        search's :class:`~repro.sim.explorer.ExplorationResult` (statuses,
        outcomes, completeness) rides on the result's ``exploration``.
        """
        exploration = make_explorer(
            program, max_schedules,
            keep_matches=keep_matches, reduction=reduction,
        ).explore(predicate=predicate)
        traces = [run.trace for run in exploration.matching]
        if not traces:
            baseline = run_program(program, CooperativeScheduler())
            traces = [baseline.trace]
        result = self.analyse_many(traces)
        result.exploration = exploration
        return result

    def analyse_static(
        self,
        program: Program,
        predicate: Optional[Callable[[RunResult], bool]] = None,
        max_schedules: int = 20000,
        *,
        keep_matches: int = 16,
        reduction: Optional[str] = None,
    ) -> StaticComparison:
        """Score static predictions against dynamically confirmed findings.

        Runs :func:`repro.static.analyse` over the program (zero
        schedules), then a dynamic :meth:`analyse_program` pass, and
        scores the one against the other with :func:`compare_static`.
        """
        from repro.static import analyse as static_analyse

        static = static_analyse(program)
        dynamic = self.analyse_program(
            program, predicate, max_schedules,
            keep_matches=keep_matches, reduction=reduction,
        )
        return compare_static(static, dynamic)

    def analyse_online(
        self,
        program: Program,
        predicate: Optional[Callable[[RunResult], bool]] = None,
        max_schedules: int = 20000,
        *,
        preemption_bound: Optional[int] = None,
        reduction: Optional[str] = None,
    ) -> SuiteResult:
        """Analyse *while* exploring: one streamed pass over every schedule.

        A shared detector pipeline rides along with the exploration,
        observing every executed event; analysis state is snapshotted at
        branch points and restored for sibling schedules, so shared
        prefixes are analysed once instead of once per schedule.  Unlike
        :meth:`analyse_program` this covers **every** explored
        interleaving, not just the ``keep_matches`` retained ones —
        without retaining any traces.

        ``predicate`` only controls the exploration's match bookkeeping
        (default: nothing matches); detection does not depend on it.
        With ``reduction`` the pipeline observes one representative per
        equivalence class of schedules instead of every interleaving:
        the outcome set and the findings reachable from it are
        preserved, but per-interleaving tallies shrink.  The search's
        ``explorer.search`` run-log record carries the pipeline counters
        and per-detector finding totals.
        """
        exploration = make_explorer(
            program,
            max_schedules,
            preemption_bound=preemption_bound,
            keep_matches=0,
            pipeline=self._pipeline(),
            reduction=reduction,
        ).explore(
            predicate=predicate if predicate is not None else (lambda run: False)
        )
        reports = dict(exploration.detector_reports or {})
        for detector in self.detectors:
            reports.setdefault(detector.name, Report(detector=detector.name))
        return _record_suite(
            SuiteResult(reports=reports, exploration=exploration)
        )
