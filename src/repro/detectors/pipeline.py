"""Streaming detector pipeline: one shared event pass for every detector.

Historically each detector made its own O(n) pass over a recorded
:class:`~repro.sim.trace.Trace`, rebuilding vector clocks, held-lock maps
and lock-order edges from scratch — five times per trace, once per
detector, for every interleaving an exploration yields.  This module
inverts that: a :class:`DetectorPipeline` owns a *single* pass over the
event stream and a shared :class:`AnalysisState` (vector clocks, locksets,
lock-order graph, critical-section extents) computed once; each detector
is reduced to an ``on_event``/``finish`` observer that reads the shared
state (see :class:`~repro.detectors.base.Detector`).

The pipeline feeds from either source:

* a recorded trace (:meth:`DetectorPipeline.run_trace`) — this is what
  the batch-compatibility shim :meth:`Detector.analyse` uses, so the
  streaming path produces reports identical to the legacy per-detector
  passes;
* the live engine, event by event, during exploration — the explorers
  pass :meth:`DetectorPipeline.feed` as the engine's ``event_hook`` and
  :meth:`snapshot`/:meth:`restore` detector state along the DFS prefix
  stack, so shared schedule prefixes are analysed once instead of once
  per leaf.

Snapshots are cheap by design: :class:`~repro.detectors.vectorclock.VectorClock`
objects are immutable (shared, never copied), events are frozen
dataclasses, and every tracker copies only its dict/list spines.  A
snapshot may seed many sibling subtrees, so :meth:`restore` copies
*again* rather than adopting the snapshot's objects.

Findings accumulate in per-detector :class:`~repro.detectors.base.Report`
objects that de-duplicate on insert and are never rolled back: a finding
witnessed by events of a shared prefix is a finding on every path through
that prefix, so re-adding it after a restore is a no-op.

Obs integration: :func:`record_pipeline_metrics` publishes the
``pipeline.*`` counters (events dispatched exactly once per event per
pipeline, events skipped thanks to snapshot reuse, snapshots, restores,
passes) and the ``pipeline.reuse_ratio`` gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.detectors.base import Detector, Report
from repro.detectors.vectorclock import VectorClock
from repro.obs import metrics as obs_metrics
from repro.sim import events as ev
from repro.sim.trace import Trace

__all__ = [
    "AnalysisState",
    "ClockTracker",
    "DetectorPipeline",
    "LockOrderTracker",
    "LockTracker",
    "PipelineSnapshot",
    "PipelineStats",
    "SectionTracker",
    "record_pipeline_metrics",
]

#: The shared-state components a detector may declare in ``requires``.
COMPONENTS = ("clocks", "locks", "lock_order", "sections")

_NO_LOCKS: frozenset = frozenset()


class ClockTracker:
    """Vector clocks for the happens-before relation, maintained online.

    One clock per thread plus clocks for every synchronisation edge the
    simulator expresses (mutex/rwlock/semaphore release→acquire,
    notify→wait-resume, spawn→start, finish→join, barrier all-pairs).
    The bookkeeping mirrors what
    :class:`~repro.detectors.happensbefore.HappensBeforeDetector`
    historically rebuilt per trace; here it is computed once and shared.
    """

    def __init__(self) -> None:
        self.thread_clocks: Dict[str, VectorClock] = {}
        self.sync_clocks: Dict[str, VectorClock] = {}
        self.spawn_clocks: Dict[str, VectorClock] = {}
        self.final_clocks: Dict[str, VectorClock] = {}
        self.notify_clocks: Dict[Tuple[str, str], VectorClock] = {}
        self.barrier_clocks: Dict[str, List[VectorClock]] = {}
        #: The acting thread's clock *before* the advance for the current
        #: memory access — what an access's happens-before position is.
        self.access_clock: Optional[VectorClock] = None

    # -- clock helpers -----------------------------------------------------

    def clock(self, thread: str) -> VectorClock:
        """The thread's current clock (lazily created on first use)."""
        if thread not in self.thread_clocks:
            self.thread_clocks[thread] = VectorClock().tick(thread)
        return self.thread_clocks[thread]

    def advance(self, thread: str) -> None:
        """Tick the thread's own component."""
        self.thread_clocks[thread] = self.clock(thread).tick(thread)

    def acquire_edge(self, thread: str, obj: str) -> None:
        """Join the sync object's clock into the acquiring thread's."""
        if obj in self.sync_clocks:
            self.thread_clocks[thread] = self.clock(thread).join(self.sync_clocks[obj])

    def release_edge(self, thread: str, obj: str) -> None:
        """Fold the releasing thread's clock into the sync object's."""
        current = self.sync_clocks.get(obj, VectorClock())
        self.sync_clocks[obj] = current.join(self.clock(thread))

    # -- event dispatch ----------------------------------------------------

    def apply(self, event: ev.Event) -> None:
        """Advance the happens-before state by one event."""
        thread = event.thread
        if isinstance(event, (ev.ReadEvent, ev.WriteEvent, ev.AtomicUpdateEvent)):
            self.access_clock = self.clock(thread)
            self.advance(thread)
            return
        if isinstance(event, ev.ThreadStartEvent):
            if thread in self.spawn_clocks:
                self.thread_clocks[thread] = self.clock(thread).join(
                    self.spawn_clocks.pop(thread)
                )
            else:
                self.clock(thread)
            return
        if isinstance(event, ev.SpawnEvent):
            self.spawn_clocks[event.target] = self.clock(thread)
            self.advance(thread)
            return
        if isinstance(event, (ev.ThreadFinishEvent, ev.ThreadCrashEvent)):
            self.final_clocks[thread] = self.clock(thread)
            return
        if isinstance(event, ev.JoinEvent):
            final = self.final_clocks.get(event.target)
            if final is not None:
                self.thread_clocks[thread] = self.clock(thread).join(final)
            self.advance(thread)
            return
        if isinstance(event, ev.AcquireEvent):
            self.acquire_edge(thread, f"lock:{event.lock}")
            self.advance(thread)
            return
        if isinstance(event, ev.TryAcquireEvent):
            if event.success:
                self.acquire_edge(thread, f"lock:{event.lock}")
            self.advance(thread)
            return
        if isinstance(event, ev.ReleaseEvent):
            self.release_edge(thread, f"lock:{event.lock}")
            self.advance(thread)
            return
        if isinstance(event, ev.RWAcquireEvent):
            self.acquire_edge(thread, f"rwlock:{event.rwlock}")
            self.advance(thread)
            return
        if isinstance(event, ev.RWReleaseEvent):
            self.release_edge(thread, f"rwlock:{event.rwlock}")
            self.advance(thread)
            return
        if isinstance(event, ev.WaitParkEvent):
            # Parking releases the lock.
            self.release_edge(thread, f"lock:{event.lock}")
            self.advance(thread)
            return
        if isinstance(event, ev.NotifyEvent):
            for woken in event.woken:
                self.notify_clocks[(event.cond, woken)] = self.clock(thread)
            self.advance(thread)
            return
        if isinstance(event, ev.WaitResumeEvent):
            self.acquire_edge(thread, f"lock:{event.lock}")
            notify = self.notify_clocks.pop((event.cond, thread), None)
            if notify is not None:
                self.thread_clocks[thread] = self.clock(thread).join(notify)
            self.advance(thread)
            return
        if isinstance(event, ev.SemReleaseEvent):
            self.release_edge(thread, f"sem:{event.sem}")
            self.advance(thread)
            return
        if isinstance(event, ev.SemAcquireEvent):
            self.acquire_edge(thread, f"sem:{event.sem}")
            self.advance(thread)
            return
        if isinstance(event, ev.BarrierEvent):
            key = event.barrier
            if event.released:
                # Trip: every member's clock joins every other's.
                clocks = self.barrier_clocks.pop(key, [])
                clocks.append(self.clock(thread))
                merged = VectorClock()
                for c in clocks:
                    merged = merged.join(c)
                for member in event.released:
                    self.thread_clocks[member] = self.clock(member).join(merged)
                    self.advance(member)
            else:
                self.barrier_clocks.setdefault(key, []).append(self.clock(thread))
                self.advance(thread)
            return
        if isinstance(event, ev.SendEvent):
            # Message-passing edge: the send happens-before the matching
            # receive.  The channel clock accumulates every sender (a
            # FIFO hands values over in order, so folding is sound and
            # conservative — it may order more than the one matching
            # pair, never less).
            self.release_edge(thread, f"chan:{event.chan}")
            self.advance(thread)
            return
        if isinstance(event, (ev.RecvEvent, ev.SelectEvent)):
            self.acquire_edge(thread, f"chan:{event.chan}")
            self.advance(thread)
            return
        if isinstance(event, (ev.FenceEvent, ev.FlushEvent)):
            # A fence or store-buffer flush is thread-local for
            # happens-before purposes (no cross-thread join); the flush
            # event's thread is the owning thread.
            self.advance(thread)
            return
        if isinstance(event, ev.YieldEvent):
            self.advance(thread)
        # Deadlock events carry no ordering information.

    def copy(self) -> "ClockTracker":
        """Snapshot copy; clocks are immutable so only the spines copy."""
        dup = ClockTracker.__new__(ClockTracker)
        dup.thread_clocks = dict(self.thread_clocks)
        dup.sync_clocks = dict(self.sync_clocks)
        dup.spawn_clocks = dict(self.spawn_clocks)
        dup.final_clocks = dict(self.final_clocks)
        dup.notify_clocks = dict(self.notify_clocks)
        dup.barrier_clocks = {k: list(v) for k, v in self.barrier_clocks.items()}
        dup.access_clock = self.access_clock
        return dup


class LockTracker:
    """Per-thread held-lock sets, maintained online.

    Two views, matching what the batch detectors historically tracked for
    themselves:

    * :meth:`held_by` — mutexes *and* rwlocks, the Eraser candidate-set
      universe (rwlock holds count as protection);
    * :meth:`mutexes_held` — mutexes only, the read-protection evidence
      the order-violation heuristics use.
    """

    def __init__(self) -> None:
        self.held: Dict[str, Set[str]] = {}
        self.mutexes: Dict[str, Set[str]] = {}

    def apply(self, event: ev.Event) -> None:
        """Advance the held-lock state by one event."""
        thread = event.thread
        if isinstance(event, ev.AcquireEvent) or (
            isinstance(event, ev.TryAcquireEvent) and event.success
        ) or isinstance(event, ev.WaitResumeEvent):
            self.held.setdefault(thread, set()).add(event.lock)
            self.mutexes.setdefault(thread, set()).add(event.lock)
        elif isinstance(event, (ev.ReleaseEvent, ev.WaitParkEvent)):
            self.held.setdefault(thread, set()).discard(event.lock)
            self.mutexes.setdefault(thread, set()).discard(event.lock)
        elif isinstance(event, ev.RWAcquireEvent):
            self.held.setdefault(thread, set()).add(event.rwlock)
        elif isinstance(event, ev.RWReleaseEvent):
            self.held.setdefault(thread, set()).discard(event.rwlock)

    def held_by(self, thread: str) -> frozenset:
        """Locks (mutexes + rwlocks) the thread currently holds."""
        locks = self.held.get(thread)
        return frozenset(locks) if locks else _NO_LOCKS

    def mutexes_held(self, thread: str) -> frozenset:
        """Mutexes only (no rwlocks) the thread currently holds."""
        locks = self.mutexes.get(thread)
        return frozenset(locks) if locks else _NO_LOCKS

    def copy(self) -> "LockTracker":
        """Snapshot copy of both views."""
        dup = LockTracker.__new__(LockTracker)
        dup.held = {t: set(s) for t, s in self.held.items()}
        dup.mutexes = {t: set(s) for t, s in self.mutexes.items()}
        return dup


class LockOrderTracker:
    """The lock-order graph (Goodlock), maintained online.

    An edge ``A -> B`` is recorded every time a thread acquires ``B``
    while holding ``A``; edge attribute ``witnesses`` collects
    ``(thread, held_seq, acq_seq)`` triples.  Blocked acquisitions in a
    terminal deadlock event contribute edges too, so even a deadlocked
    trace yields the full cycle.  Edges are stored as a plain
    insertion-ordered dict so snapshots stay cheap; :meth:`graph`
    materialises the :class:`networkx.DiGraph` on demand.
    """

    def __init__(self) -> None:
        self.held: Dict[str, Dict[str, int]] = {}
        self.edges: Dict[Tuple[str, str], List[Tuple[str, int, int]]] = {}

    def _edge(self, src: str, dst: str, witness: Tuple[str, int, int]) -> None:
        self.edges.setdefault((src, dst), []).append(witness)

    def apply(self, event: ev.Event) -> None:
        """Advance the lock-order graph by one event."""
        locks = self.held.setdefault(event.thread, {})
        if isinstance(event, ev.AcquireEvent) or (
            isinstance(event, ev.TryAcquireEvent) and event.success
        ) or isinstance(event, ev.WaitResumeEvent):
            for prior, prior_seq in locks.items():
                self._edge(prior, event.lock, (event.thread, prior_seq, event.seq))
            locks[event.lock] = event.seq
        elif isinstance(event, (ev.ReleaseEvent, ev.WaitParkEvent)):
            locks.pop(event.lock, None)
        elif isinstance(event, ev.DeadlockEvent):
            # Blocked acquires never executed, but the wait-for info names
            # the lock each stuck thread wanted; add those edges too.
            for thread, waiting in event.blocked:
                if not waiting.startswith("lock:"):
                    continue
                wanted = waiting.split(":", 1)[1].split("(", 1)[0]
                for prior, prior_seq in self.held.get(thread, {}).items():
                    self._edge(prior, wanted, (thread, prior_seq, event.seq))

    def graph(self) -> "nx.DiGraph":
        """The accumulated lock-order graph as a :class:`networkx.DiGraph`."""
        graph = nx.DiGraph()
        for (src, dst), witnesses in self.edges.items():
            graph.add_edge(src, dst, witnesses=list(witnesses))
        return graph

    def copy(self) -> "LockOrderTracker":
        """Snapshot copy (held maps and witness lists)."""
        dup = LockOrderTracker.__new__(LockOrderTracker)
        dup.held = {t: dict(locks) for t, locks in self.held.items()}
        dup.edges = {k: list(v) for k, v in self.edges.items()}
        return dup


class SectionTracker:
    """Critical-section extents, maintained online.

    Streaming equivalent of :meth:`repro.sim.trace.Trace.critical_sections`:
    ``completed`` holds ``(thread, lock, acquire_seq, release_seq)`` tuples
    for every closed section so far, in closing order; sections still open
    are in ``open_sections``.
    """

    def __init__(self) -> None:
        self.open_sections: Dict[Tuple[str, str], int] = {}
        self.completed: List[Tuple[str, str, int, int]] = []

    def apply(self, event: ev.Event) -> None:
        """Advance the section extents by one event."""
        if isinstance(event, ev.AcquireEvent) or (
            isinstance(event, ev.TryAcquireEvent) and event.success
        ) or isinstance(event, ev.WaitResumeEvent):
            self.open_sections[(event.thread, event.lock)] = event.seq
        elif isinstance(event, (ev.ReleaseEvent, ev.WaitParkEvent)):
            start = self.open_sections.pop((event.thread, event.lock), None)
            if start is not None:
                self.completed.append((event.thread, event.lock, start, event.seq))

    def copy(self) -> "SectionTracker":
        """Snapshot copy."""
        dup = SectionTracker.__new__(SectionTracker)
        dup.open_sections = dict(self.open_sections)
        dup.completed = list(self.completed)
        return dup


class AnalysisState:
    """The shared per-pass state every detector reads.

    Built from the union of the attached detectors'
    :attr:`~repro.detectors.base.Detector.requires` declarations, so a
    single-detector pipeline pays only for the components that detector
    needs.  Components a pipeline did not request are ``None``.

    Always tracked regardless of components: ``events_seen`` (the number
    of events applied on the current path — equal to the next event's
    ``seq``) and ``deadlock`` (the terminal
    :class:`~repro.sim.events.DeadlockEvent`, if one occurred).
    """

    def __init__(self, components: Sequence[str] = COMPONENTS):
        unknown = set(components) - set(COMPONENTS)
        if unknown:
            raise ValueError(
                f"unknown analysis component(s) {sorted(unknown)}; "
                f"known: {list(COMPONENTS)}"
            )
        self.components: Tuple[str, ...] = tuple(
            c for c in COMPONENTS if c in components
        )
        self.events_seen = 0
        self.deadlock: Optional[ev.DeadlockEvent] = None
        self.clocks = ClockTracker() if "clocks" in self.components else None
        self.locks = LockTracker() if "locks" in self.components else None
        self.lock_order = (
            LockOrderTracker() if "lock_order" in self.components else None
        )
        self.sections = SectionTracker() if "sections" in self.components else None
        self._trackers = tuple(
            t for t in (self.clocks, self.locks, self.lock_order, self.sections)
            if t is not None
        )

    def apply(self, event: ev.Event) -> None:
        """Advance every tracked component by one event."""
        self.events_seen += 1
        if isinstance(event, ev.DeadlockEvent):
            self.deadlock = event
        for tracker in self._trackers:
            tracker.apply(event)

    def copy(self) -> "AnalysisState":
        """Deep-enough copy for snapshot/restore (immutables shared)."""
        dup = AnalysisState.__new__(AnalysisState)
        dup.components = self.components
        dup.events_seen = self.events_seen
        dup.deadlock = self.deadlock
        dup.clocks = self.clocks.copy() if self.clocks is not None else None
        dup.locks = self.locks.copy() if self.locks is not None else None
        dup.lock_order = (
            self.lock_order.copy() if self.lock_order is not None else None
        )
        dup.sections = self.sections.copy() if self.sections is not None else None
        dup._trackers = tuple(
            t for t in (dup.clocks, dup.locks, dup.lock_order, dup.sections)
            if t is not None
        )
        return dup


@dataclass
class PipelineStats:
    """Counters for one pipeline's lifetime (across all passes)."""

    #: Events applied to the shared state and dispatched to observers —
    #: exactly once per (event, pipeline), never once per detector.
    events_dispatched: int = 0
    #: Replayed prefix events skipped because a snapshot already covered
    #: them (the shared-prefix reuse the incremental mode exists for).
    events_reused: int = 0
    #: Snapshots taken at decision points.
    snapshots: int = 0
    #: Restores (rollbacks) from a snapshot.
    restores: int = 0
    #: Passes started (fresh ``begin_pass`` or ``restore``).
    passes: int = 0
    #: ``seq`` of the event during/after which the first finding appeared
    #: (``None`` while all reports are clean).
    first_finding_step: Optional[int] = None

    def reuse_ratio(self) -> float:
        """Fraction of seen events that were skipped as shared-prefix."""
        seen = self.events_dispatched + self.events_reused
        return self.events_reused / seen if seen else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (JSON-ready, used in results and runlog)."""
        return {
            "events_dispatched": self.events_dispatched,
            "events_reused": self.events_reused,
            "snapshots": self.snapshots,
            "restores": self.restores,
            "passes": self.passes,
            "first_finding_step": self.first_finding_step,
            "reuse_ratio": self.reuse_ratio(),
        }


@dataclass(frozen=True)
class PipelineSnapshot:
    """Frozen pipeline position: shared state + per-detector locals.

    ``events_seen`` is the number of events the snapshot covers; on
    :meth:`DetectorPipeline.restore` the pipeline skips replayed events
    with ``seq`` below it.  One snapshot may seed many sibling subtrees,
    so restore copies the contents instead of adopting them.
    """

    events_seen: int
    state: AnalysisState
    locals: Dict[str, Any]


class DetectorPipeline:
    """One event pass shared by a set of detector observers.

    The pipeline owns the :class:`AnalysisState`, the per-detector local
    state, and the per-detector :class:`~repro.detectors.base.Report`
    objects (``reports``, keyed by detector name, accumulated across
    passes with de-duplication).  Feed it a whole trace with
    :meth:`run_trace`, or stream events with
    :meth:`begin_pass`/:meth:`feed`/:meth:`finish_pass` and move along an
    exploration tree with :meth:`snapshot`/:meth:`restore`.
    """

    def __init__(self, detectors: Iterable[Detector]):
        self.detectors: List[Detector] = list(detectors)
        names = [d.name for d in self.detectors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate detector names in pipeline: {names}")
        self._by_name: Dict[str, Detector] = {d.name: d for d in self.detectors}
        #: Per-detector reports, accumulated across every pass.
        self.reports: Dict[str, Report] = {
            name: Report(detector=name) for name in names
        }
        required: Set[str] = set()
        for detector in self.detectors:
            required |= set(detector.requires)
        self._components = tuple(c for c in COMPONENTS if c in required)
        #: Lifetime counters (see :class:`PipelineStats`).
        self.stats = PipelineStats()
        self.state: Optional[AnalysisState] = None
        self._locals: Dict[str, Any] = {}
        self._skip = 0

    # -- pass lifecycle ----------------------------------------------------

    def begin_pass(self) -> None:
        """Start a fresh pass: new shared state, new detector locals."""
        self.state = AnalysisState(self._components)
        self._locals = {d.name: d.begin() for d in self.detectors}
        self._skip = 0
        self.stats.passes += 1

    def feed(self, event: ev.Event) -> None:
        """Apply one event to the shared state and dispatch it once.

        Events with ``seq`` below the restore point are replayed prefix
        steps the pipeline has already analysed (and :meth:`restore`
        already counted as reused); they are skipped entirely.
        """
        if event.seq < self._skip:
            return
        state = self.state
        state.apply(event)
        locals_ = self._locals
        reports = self.reports
        for detector in self.detectors:
            detector.on_event(event, state, locals_[detector.name], reports[detector.name])
        self.stats.events_dispatched += 1
        if self.stats.first_finding_step is None:
            self._note_findings(event.seq)

    def finish_pass(self) -> None:
        """Run end-of-trace analyses for the current pass."""
        for detector in self.detectors:
            detector.finish(
                self.state, self._locals[detector.name], self.reports[detector.name]
            )
        if self.stats.first_finding_step is None and self.state is not None:
            self._note_findings(max(self.state.events_seen - 1, 0))

    def run_trace(self, trace: Trace) -> Dict[str, Report]:
        """One full batch pass over a recorded trace; returns ``reports``."""
        self.begin_pass()
        for event in trace:
            self.feed(event)
        self.finish_pass()
        return self.reports

    # -- exploration-tree movement -----------------------------------------

    def snapshot(self) -> PipelineSnapshot:
        """Freeze the current position for later :meth:`restore`."""
        self.stats.snapshots += 1
        return PipelineSnapshot(
            events_seen=self.state.events_seen,
            state=self.state.copy(),
            locals={
                d.name: d.copy_state(self._locals[d.name]) for d in self.detectors
            },
        )

    def restore(self, snap: PipelineSnapshot) -> None:
        """Roll back to a snapshot and start a new pass from it.

        The snapshot's contents are copied (it may seed several sibling
        subtrees).  The ``snap.events_seen`` prefix events are credited as
        reused here, in bulk: an engine that adopts its parent run's
        trace never feeds them, and one that replays with emission feeds
        them only to have :meth:`feed` skip them.
        """
        self.state = snap.state.copy()
        self._locals = {
            name: self._by_name[name].copy_state(local)
            for name, local in snap.locals.items()
        }
        self._skip = snap.events_seen
        self.stats.events_reused += snap.events_seen
        self.stats.restores += 1
        self.stats.passes += 1

    # -- internals ---------------------------------------------------------

    def _note_findings(self, seq: int) -> None:
        for report in self.reports.values():
            if report.findings:
                self.stats.first_finding_step = seq
                return

    # -- observability -----------------------------------------------------

    def record_metrics(self, **labels: object) -> None:
        """Publish this pipeline's counters to the metrics registry."""
        record_pipeline_metrics(self.stats.as_dict(), **labels)


def record_pipeline_metrics(stats: Dict[str, Any], **labels: object) -> None:
    """Publish one pipeline-stats dict as ``pipeline.*`` metrics.

    Counters ``pipeline.events_dispatched`` / ``events_reused`` /
    ``snapshots`` / ``restores`` / ``passes`` plus the
    ``pipeline.reuse_ratio`` gauge.  No-op while metrics are disabled.
    """
    registry = obs_metrics.active()
    if registry is None:
        return
    for key in ("events_dispatched", "events_reused", "snapshots", "restores", "passes"):
        registry.inc(f"pipeline.{key}", stats.get(key, 0), **labels)
    registry.set_gauge("pipeline.reuse_ratio", stats.get("reuse_ratio", 0.0), **labels)
