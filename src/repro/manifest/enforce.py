"""Enforcing partial orders among labelled operations (Finding 8).

The study's most actionable manifestation finding: for 92% of the bugs,
*enforcing a certain partial order among no more than four memory
accesses/resource acquisitions guarantees the bug manifests*.  This module
turns a partial order over operation labels into a scheduling constraint:

* an operation carrying a constrained label may only execute once all its
  predecessor labels have executed;
* everything else schedules freely.

The constraint is a scheduler that wraps the caller's scheduler — no
engine changes, no program changes: it hands the inner scheduler only
the enabled threads the order allows.  If at some step *every* enabled
thread is held back by the order (which can only happen when the order
conflicts with the program's own synchronisation), it hands over the
unconstrained enabled set instead and records the violation, so callers
can distinguish "bug didn't manifest" from "order was unenforceable".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import EnforcementError
from repro.sim.engine import Engine, RunResult
from repro.sim.program import Program
from repro.sim.scheduler import RandomScheduler, Scheduler

__all__ = ["OrderEnforcer", "EnforcedRun", "enforce_order", "order_guarantees"]

OrderPairs = Sequence[Tuple[str, str]]


class OrderEnforcer(Scheduler):
    """A scheduler holding back successors until their predecessors ran.

    It wraps ``scheduler`` (seeded random by default) and chooses through
    it.  ``stalled`` records that the order allowed no enabled thread at
    some step; ``executed`` holds the label of every operation scheduled
    so far.  The caller sets ``engine`` to the engine it drives before
    the run, since the order is phrased over pending operations.
    """

    def __init__(self, order: OrderPairs, scheduler: Optional[Scheduler] = None):
        self.order: Tuple[Tuple[str, str], ...] = tuple(order)
        self.predecessors: Dict[str, Set[str]] = {}
        labels: Set[str] = set()
        for earlier, later in self.order:
            if earlier == later:
                raise EnforcementError(f"self-edge on label {earlier!r}")
            self.predecessors.setdefault(later, set()).add(earlier)
            labels.update((earlier, later))
        self.labels = labels
        self._check_acyclic()
        self.scheduler = (
            scheduler if scheduler is not None else RandomScheduler(seed=0)
        )
        self.engine: Optional[Engine] = None
        self.stalled = False
        self.executed: Set[str] = set()

    def _check_acyclic(self) -> None:
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(node: str) -> None:
            if node in done:
                return
            if node in visiting:
                raise EnforcementError(
                    f"the requested order contains a cycle through {node!r}"
                )
            visiting.add(node)
            for predecessor in self.predecessors.get(node, ()):
                visit(predecessor)
            visiting.discard(node)
            done.add(node)

        for label in list(self.labels):
            visit(label)

    def reset(self) -> None:
        """Clear per-run state before a fresh run."""
        self.stalled = False
        self.executed = set()
        self.scheduler.reset()

    def choose(self, enabled: Sequence[str], step: int) -> str:
        engine = self.engine
        executed = self.executed
        allowed: List[str] = []
        for name in enabled:
            label = engine.pending_op(name).label
            if label is not None and label in self.predecessors:
                if not self.predecessors[label] <= executed:
                    continue
            allowed.append(name)
        if not allowed:
            self.stalled = True
            allowed = list(enabled)
        choice = self.scheduler.choose(allowed, step)
        label = engine.pending_op(choice).label
        if label is not None:
            executed.add(label)
        return choice


@dataclass
class EnforcedRun:
    """A run under order enforcement, plus whether the order actually held."""

    result: RunResult
    satisfied: bool
    missing_labels: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Order held and every constrained label executed.

        This is the *strict* notion, useful when the caller expects the
        whole constrained region to run.  Manifestation-guarantee checks
        use the weaker ``satisfied`` plus the failure oracle, because a
        manifesting crash/deadlock cuts execution short of later labels.
        """
        return self.satisfied and not self.missing_labels


def enforce_order(
    program: Program,
    order: OrderPairs,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 20000,
) -> EnforcedRun:
    """Run ``program`` with ``order`` enforced; report whether it held.

    ``satisfied`` is false if the enforcer ever had to fall back because
    the order fought the program's own synchronisation; ``missing_labels``
    lists constrained labels that never executed (e.g. a branch not
    taken), which also voids the guarantee.
    """
    enforcer = OrderEnforcer(order, scheduler)
    engine = Engine(program, enforcer, max_steps=max_steps)
    enforcer.engine = engine
    result = engine.run()
    missing = tuple(sorted(enforcer.labels - enforcer.executed))
    return EnforcedRun(
        result=result,
        satisfied=not enforcer.stalled,
        missing_labels=missing,
    )


def order_guarantees(
    program: Program,
    order: OrderPairs,
    failure,
    attempts: int = 20,
    max_steps: int = 20000,
) -> bool:
    """Whether enforcing ``order`` makes ``failure`` hold on *every* run.

    Runs the enforced program under ``attempts`` different random
    schedulers; the guarantee claim requires each run to both respect the
    order and fail per the oracle.  (Free scheduling outside the
    constrained labels is exactly what 'a certain partial order among K
    accesses *guarantees* manifestation' quantifies over.)
    """
    for seed in range(attempts):
        run = enforce_order(
            program, order, scheduler=RandomScheduler(seed=seed), max_steps=max_steps
        )
        # The order must never have been violated, and the bug must show.
        # Constrained labels that never executed are fine *when the run
        # failed*: a crash or deadlock legitimately cuts execution short of
        # the remaining labels.
        if not run.satisfied or not failure(run.result):
            return False
    return True
