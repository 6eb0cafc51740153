"""Detector framework: finding/report types and the streaming detector ABC.

Every detector is a **streaming observer**: it declares which shared
:class:`~repro.detectors.pipeline.AnalysisState` components it reads
(:attr:`Detector.requires`), receives every event exactly once through
:meth:`Detector.on_event`, and finishes end-of-trace analyses in
:meth:`Detector.finish`.  A :class:`~repro.detectors.pipeline.DetectorPipeline`
owns the single event pass and the shared state (vector clocks, locksets,
lock-order graph), so running five detectors costs one pass, not five.

The batch entry points survive as thin compatibility shims:
:meth:`Detector.analyse` runs a one-detector pipeline over a recorded
:class:`~repro.sim.trace.Trace`, so existing callers (and the guarantee
that one recorded interleaving is analysed reproducibly) are unchanged.

The detector taxonomy mirrors the tool landscape the ASPLOS'08 study draws
implications for: data-race detectors (happens-before and lockset),
atomicity-violation detectors (AVIO-style), order-violation heuristics, and
deadlock detectors (lock-order graphs).  :mod:`repro.detectors.suite` runs
them side by side to reproduce the study's "which tool class can catch
which bug class" discussion.
"""

from __future__ import annotations

import abc
import copy
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, FrozenSet, List, Tuple

from repro.sim import events as ev
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports base)
    from repro.detectors.pipeline import AnalysisState

__all__ = ["FindingKind", "Finding", "Report", "Detector"]


class FindingKind(enum.Enum):
    """What class of concurrency problem a finding reports."""

    DATA_RACE = "data-race"
    ATOMICITY_VIOLATION = "atomicity-violation"
    ORDER_VIOLATION = "order-violation"
    DEADLOCK = "deadlock"
    POTENTIAL_DEADLOCK = "potential-deadlock"
    HANG = "hang"


@dataclass(frozen=True)
class Finding:
    """One reported problem.

    :param kind: problem class.
    :param detector: name of the reporting detector.
    :param description: human-readable explanation.
    :param threads: threads implicated, sorted.
    :param variables: shared variables implicated, sorted.
    :param resources: locks/other sync resources implicated, sorted.
    :param events: trace sequence numbers of the witnessing events.
    """

    kind: FindingKind
    detector: str
    description: str
    threads: Tuple[str, ...] = ()
    variables: Tuple[str, ...] = ()
    resources: Tuple[str, ...] = ()
    events: Tuple[int, ...] = ()

    def summary(self) -> str:
        """Compact one-line rendering."""
        where = ",".join(self.variables or self.resources) or "-"
        who = ",".join(self.threads) or "-"
        return f"[{self.kind.value}] {self.detector}: {where} ({who}) — {self.description}"


@dataclass
class Report:
    """Findings from running one detector over one trace."""

    detector: str
    findings: List[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        """Append a finding, de-duplicating identical reports."""
        if finding not in self.findings:
            self.findings.append(finding)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    @property
    def clean(self) -> bool:
        """Whether the trace produced no findings."""
        return not self.findings

    def of_kind(self, kind: FindingKind) -> List[Finding]:
        """Findings of one problem class."""
        return [f for f in self.findings if f.kind is kind]

    def variables(self) -> List[str]:
        """All implicated variables across findings, sorted and unique."""
        out = set()
        for f in self.findings:
            out.update(f.variables)
        return sorted(out)

    def merged(self, other: "Report") -> "Report":
        """A new report containing both reports' findings."""
        combined = Report(detector=f"{self.detector}+{other.detector}")
        for f in self.findings:
            combined.add(f)
        for f in other.findings:
            combined.add(f)
        return combined

    def format(self) -> str:
        """Multi-line rendering for console output."""
        if self.clean:
            return f"{self.detector}: no findings"
        lines = [f"{self.detector}: {len(self.findings)} finding(s)"]
        lines.extend(f"  {f.summary()}" for f in self.findings)
        return "\n".join(lines)


class Detector(abc.ABC):
    """A streaming dynamic analysis over an execution's event stream.

    Subclasses implement the observer protocol — :meth:`begin`,
    :meth:`on_event`, :meth:`finish`, :meth:`copy_state` — and declare
    the shared-state components they read in :attr:`requires`.  The
    batch entry point :meth:`analyse` is a compatibility shim over a
    one-detector :class:`~repro.detectors.pipeline.DetectorPipeline`.
    """

    #: Short stable name used in reports and coverage tables.
    name: str = "detector"

    #: Shared :class:`~repro.detectors.pipeline.AnalysisState` components
    #: this detector reads (subset of ``pipeline.COMPONENTS``); the
    #: pipeline maintains only the union its detectors require.
    requires: FrozenSet[str] = frozenset()

    # -- streaming observer protocol ---------------------------------------

    def begin(self) -> Any:
        """Fresh per-pass local state (any value; ``None`` if stateless)."""
        return None

    def on_event(
        self, event: ev.Event, state: "AnalysisState", local: Any, report: Report
    ) -> None:
        """Observe one event; read ``state``, mutate ``local``, add findings."""

    def finish(self, state: "AnalysisState", local: Any, report: Report) -> None:
        """End-of-trace analyses once the event stream is exhausted."""

    def copy_state(self, local: Any) -> Any:
        """Copy per-pass local state for a pipeline snapshot.

        The default deep-copies; detectors with hot local state override
        this with a cheaper structural copy.
        """
        return copy.deepcopy(local)

    # -- batch compatibility shim ------------------------------------------

    def analyse(self, trace: Trace) -> Report:
        """Analyse one recorded trace (shim over the streaming pipeline)."""
        from repro.detectors.pipeline import DetectorPipeline

        pipeline = DetectorPipeline([self])
        pipeline.run_trace(trace)
        return pipeline.reports[self.name]
