"""Deadlock detection: observed deadlocks and lock-order-graph prediction.

Two complementary analyses, matching the study's split of deadlock bugs
into one-resource and multi-resource cases (Finding 6: 97% of deadlock
bugs involve at most two resources):

* **Observed deadlocks** — the trace ended in a
  :class:`~repro.sim.events.DeadlockEvent` whose wait-for relation contains
  lock-blocked threads.  Reported with the exact threads and locks.

* **Predicted deadlocks** — a *lock-order graph* is built from the trace:
  an edge ``A -> B`` is recorded every time a thread acquires ``B`` while
  holding ``A``.  A cycle in this graph means some other schedule can
  deadlock, even when the observed trace completed fine — the classic
  Goodlock-style prediction, and the reason lock-order analysis catches
  the two-resource deadlocks of Table 5 from a *successful* test run.
  Self-edges (re-acquiring a held mutex) are the one-resource case.

The lock-order edges are maintained incrementally by the shared
:class:`~repro.detectors.pipeline.LockOrderTracker`; this detector only
reads the finished graph, so it is a pure :meth:`Detector.finish`
analysis with no per-event work of its own.  The graph is built with
:mod:`networkx`, which also supplies cycle enumeration; each cycle is
named from its least lock (:func:`repro.sim.sync.lock_cycles`, the rule
the static analyzer names its cycles by), so a finding's text does not
depend on the hash seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Set

import networkx as nx

from repro.detectors.base import Detector, Finding, FindingKind, Report
from repro.detectors.pipeline import LockOrderTracker
from repro.sim import events as ev
from repro.sim.sync import lock_cycles
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.detectors.pipeline import AnalysisState

__all__ = ["DeadlockDetector", "build_lock_order_graph"]


def build_lock_order_graph(trace: Trace) -> "nx.DiGraph":
    """Directed graph over lock names; edge A->B = B acquired holding A.

    Edge attribute ``witnesses`` collects ``(thread, held_seq, acq_seq)``
    triples.  Self-loops record re-acquisition attempts of a held mutex —
    these come from the *pending* operation of a thread blocked on itself,
    which the trace exposes through the terminal deadlock event.
    """
    tracker = LockOrderTracker()
    for event in trace:
        tracker.apply(event)
    return tracker.graph()


class DeadlockDetector(Detector):
    """Observed-deadlock reporting plus lock-order cycle prediction."""

    name = "deadlock"
    requires = frozenset({"lock_order"})

    def finish(self, state: "AnalysisState", local: Any, report: Report) -> None:
        """Report the observed deadlock (if any) and predicted cycles."""
        self._observed(state.deadlock, report)
        self._predicted(state.lock_order.graph(), report)

    # -- observed ------------------------------------------------------------

    def _observed(
        self, deadlock: Optional[ev.DeadlockEvent], report: Report
    ) -> None:
        if deadlock is None:
            return
        lock_blocked = [
            (thread, waiting)
            for thread, waiting in deadlock.blocked
            if waiting.startswith("lock:") or waiting.startswith("rwlock:")
        ]
        if not lock_blocked:
            return
        resources = sorted(
            {w.split(":", 1)[1].split("(", 1)[0] for _, w in lock_blocked}
        )
        report.add(
            Finding(
                kind=FindingKind.DEADLOCK,
                detector=self.name,
                description=(
                    "circular wait observed: "
                    + ", ".join(f"{t} blocked on {w}" for t, w in lock_blocked)
                ),
                threads=tuple(sorted(t for t, _ in lock_blocked)),
                resources=tuple(resources),
                events=(deadlock.seq,),
            )
        )

    # -- predicted --------------------------------------------------------------

    def _predicted(self, graph: "nx.DiGraph", report: Report) -> None:
        seen: Set[frozenset] = set()
        for cycle in lock_cycles(graph):
            key = frozenset(cycle)
            if key in seen:
                continue
            seen.add(key)
            threads: Set[str] = set()
            events: List[int] = []
            cycle_edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            for src, dst in cycle_edges:
                for thread, _, acq_seq in graph.edges[src, dst]["witnesses"]:
                    threads.add(thread)
                    events.append(acq_seq)
            order = " -> ".join(cycle + [cycle[0]])
            kind = (
                FindingKind.DEADLOCK
                if len(cycle) == 1
                else FindingKind.POTENTIAL_DEADLOCK
            )
            description = (
                f"self-wait on {cycle[0]!r} (re-acquiring a held mutex)"
                if len(cycle) == 1
                else f"lock-order cycle {order}: some schedule can deadlock"
            )
            report.add(
                Finding(
                    kind=kind,
                    detector=self.name,
                    description=description,
                    threads=tuple(sorted(threads)),
                    resources=tuple(sorted(set(cycle))),
                    events=tuple(sorted(events)),
                )
            )
